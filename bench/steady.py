"""Steadiness mode: run one workload k times and summarise each metric.

    python3 bench/steady.py --workload coeffs --runs 10 [--first-seed 1] [--trace 0]

Each run is ``run.py`` with its own seed (first-seed, first-seed+1, ...).
For every metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median.  For end-to-end metrics it
also prints the bound from BENCHMARK.json; a bound should sit well above
the spread that identical code shows on the host, and a spread above a third
of its bound is flagged OVER.  The last line is the same summary as JSON,
with each run's seed, runtime line and operation counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, runs = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runtime = next(ln for ln in lines if ln.startswith("# runtime:"))
        runs.append({"seed": seed, "runtime": runtime[len("# runtime: "):],
                     **{k: result[k] for k in ("correct", "attempted", "failed")}})
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
    summary = {}
    for name, vals in values.items():
        s = summary[name] = summarise(vals)
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound:.3f}" + (" OVER" if s["spread"] > bound / 3 else "")
        print(f"{name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {flag}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "runs": runs,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
