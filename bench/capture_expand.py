"""Print the expected exit code and stdout digest of every expand call.

    python3 bench/capture_expand.py > bench/expand_expected.json

The expectations were captured once and are committed; a change that
alters any expand output must not rewrite them.  Ghyper and coeffF are
the exception to capturing the CLI: their expectation is the JSON the
library prints for the same integer index pair, exit 0.  The exit code
their CLI call gave at capture time is kept as ``known_failure_exit``:
a call that exits with it is a known failure, not a wrong output.
"""

import hashlib
import json
import sys

import worker
import workloads


def library_json(ft, name, argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    r = tuple(int(x) for x in opts["--r"].split(","))
    order = ft.parse_rat(opts["--order"])
    if name == "Ghyper":
        series = ft.G_hyper(r, order)
    else:
        series = ft.coeff_F(r, int(opts["--p"]), order)
    return json.dumps(ft.series_to_json(series), indent=2) + "\n"


def main():
    ft = worker.import_falsetheta()
    from falsetheta import cli

    rows = []
    for call in workloads.EXPAND_CALLS:
        argv = ["expand", *call]
        rc, text = workloads.run_cli(cli, argv)
        row = {}
        if call[0] in ("Ghyper", "coeffF"):
            if rc != 0:
                row["known_failure_exit"] = rc
            rc, text = 0, library_json(ft, call[0], call)
        rows.append({"argv": argv, "exit": rc,
                     "sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "bytes": len(text.encode()), **row})
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
