"""Write tests/outputs.json: the outputs that a refactor must leave as they are.

    PYTHONPATH=src python3 tests/capture_outputs.py

Each entry maps a name to what the program gives for it:

- "sides <id> <point>": the sha256 of both sides of one grid point at the
  identity's capture order, as bl_to_json or series_to_json; a point built
  alone and one built with its whole grid give the same;
- "report <id>": the identity's report_to_json at its capture order,
  without "ms";
- "corrupt <id> <order>": the report of a corrupt=True run at order 8 and
  at the capture order, which carries the corrupted location;
- "law <law> <i>": the verdict of the i-th point of the law's grid (the
  residual floats depend on the platform's libm, so they are left out);
- "expand <name> <format>": the exit code and stdout sha256 of one
  `falsetheta expand` call per series name, in text and in JSON.

tests/test_outputs.py recomputes every entry.  The file changes only by
rerunning this script, and an entry that moves must have a reason: the
file pins outputs, it does not certify them.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from falsetheta import cli
from falsetheta.bilaurent import bl_to_json
from falsetheta.identities import _REGISTRY, registered_ids, report_to_json, verify_identity
from falsetheta.numeric import LAW_IDS, run_transformation_checks
from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, series_to_json

PATH = Path(__file__).with_name("outputs.json")

# the order each identity's entries are captured at, the default orders when
# they were captured: named here so that a default order can deepen without
# moving these entries or making them slower to recompute
CAPTURE_ORDERS = {
    "E1": 30, "E2": 20, "E3": 20, "E4": 20, "E5": 20, "E6": 20, "E6b": 20,
    "E7": 15, "E8": 20, "E9": 15, "E10": 15, "E11": 15, "E12": 15, "E12b": 15,
    "E13": 20, "E14": 15, "E15": 30, "E15b": 30, "E16": 25, "E17": 15,
    "E18": 25, "E19": 1, "E20": 40,
}

# the arguments of the one expand call per series name
EXPAND_ARGS = {
    "eta": ["--k", "2", "--order", "30"],
    "theta": ["--unit", "z2", "--order", "12", "--window", "3"],
    "theta01": ["--unit", "z12", "--k", "2", "--order", "12"],
    "calT": ["--order", "20", "--window", "4"],
    "f": ["--order", "6", "--window", "3"],
    "J": ["--order", "5", "--window", "2"],
    "kwN3": ["--order", "5", "--window", "2"],
    "Gfrak": ["--lambda", "1/3,2/3", "--order", "12"],
    "Ghyper": ["--r", "1,-1", "--order", "12"],
    "Hfrak": ["--r", "1/2,1", "--order", "8"],
    "F0": ["--p", "3", "--order", "20"],
    "coeffF": ["--r", "1,0", "--order", "15"],
    "rankone": ["--p", "3", "--r", "2,0", "--order", "30"],
    "rogers": ["--order", "40"],
    "Fconst": ["--order", "15"],
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _side_json(s):
    return series_to_json(s) if isinstance(s, PuiseuxSeries) else bl_to_json(s)


def _report(rep):
    out = report_to_json(rep)
    del out["ms"]
    return out


def sides(prepared=False):
    """Each point built alone, by build([point], order), or with
    prepared=True by one build of its whole grid, as verify_identity
    builds it."""
    for ident in registered_ids():
        entry, order = _REGISTRY[ident], Rat(CAPTURE_ORDERS[ident])
        pairs = (entry.build(entry.grid, order) if prepared
                 else (next(entry.build([point], order)) for point in entry.grid))
        for point, pair in zip(entry.grid, pairs, strict=True):
            yield (f"sides {ident} {json.dumps(point)}",
                   _sha(json.dumps([_side_json(s) for s in pair])))


def reports():
    for ident in registered_ids():
        yield f"report {ident}", _report(verify_identity(ident, order=CAPTURE_ORDERS[ident]))


def corruptions():
    for ident in registered_ids():
        for order in (8, CAPTURE_ORDERS[ident]):
            rep = verify_identity(ident, order=order, corrupt=True)
            yield f"corrupt {ident} {order}", _report(rep)


def laws():
    for law in LAW_IDS:
        for i, rep in enumerate(run_transformation_checks(law)):
            yield f"law {law} {i}", rep.verdict


def expands():
    for name, args in EXPAND_ARGS.items():
        for fmt in ("text", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["expand", name, *args, "--format", fmt])
            yield f"expand {name} {fmt}", {"exit": code, "sha256": _sha(buf.getvalue())}


# each group by the first word of its entries' names
GROUPS = {"sides": sides, "report": reports, "corrupt": corruptions,
          "law": laws, "expand": expands}


def main():
    outputs = {name: value for group in GROUPS.values() for name, value in group()}
    PATH.write_text(json.dumps(outputs, indent=1) + "\n")


if __name__ == "__main__":
    main()
