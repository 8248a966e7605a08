"""falsetheta benchmark: cold time-to-verdict on coeffs, suite and expand.

    python3 bench/run.py --workload coeffs --seed 1 --seconds 35 --trace 0
    for w in coeffs suite expand; do python3 bench/run.py --workload $w --seed 1 --seconds 35; done

Run from the root of a checkout.  Each measurement is a fresh interpreter
(worker.py) that imports falsetheta from this checkout's ``src`` and runs
one workload with cold caches.  Workers run one after another until the
``--seconds`` budget would be overrun, and at least MIN_WORKERS times;
the run reports medians over them.  Set-up time is sampled by further
workers that stop after set-up.  ``attempted`` and ``failed`` are the
counts of one worker; the run is correct only if no worker saw a wrong
output and all workers agree on their counts.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, from workers that
record spans (tracer.py), each paired with an untraced worker that gives
``trace.overhead``.  Earlier lines describe the runtime.  The exit code is
0 only when every worker finished; a failed or wrong operation is
reported in the result, not by the exit code.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

MIN_WORKERS = 5
SETUP_SAMPLES = 15
DEADLINE_S = 170.0  # the whole run must end within 180 s

# workers import compiled bytecode, as an installed package does; the
# warm-up worker writes it once per checkout
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def metric_units(trace):
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, deadline, trace=0, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker for {workload} exceeded the run's deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload, seed, seconds, trace, deadline):
    """Workers (untraced, or untraced/traced pairs) until the budget is spent."""
    per_round = 2 if trace else 1
    rounds, longest = [], 0.0
    t0 = time.monotonic()
    while len(rounds) < (1 if trace else MIN_WORKERS) or (
            time.monotonic() - t0 + longest <= seconds):
        r0 = time.monotonic()
        rounds.append([spawn(workload, seed, deadline, trace=t)
                       for t in range(per_round)])
        longest = max(longest, time.monotonic() - r0)
    return rounds


def end_to_end(workers, setups):
    return {
        "wall_s": median([w["wall_s"] for w in workers]),
        "setup_s": median(setups),
        "peak_rss_mb": median([w["peak_rss_mb"] for w in workers]),
    }


def per_layer(pairs):
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    out = {}
    for name in traced[0]["layers"]:
        source = plain if name.startswith("identities.verify_s.") else traced
        out[name] = median([w["layers"].get(name, 0.0) for w in source])
    out["trace.overhead"] = (median([w["wall_s"] for w in traced])
                             / median([w["wall_s"] for w in plain]) - 1.0)
    return out


def op_counts(workers):
    """One worker's counts: every worker runs the same inputs, so they must
    all agree, whatever number of them fit into the run."""
    counts = [{k: w[k] for k in ("attempted", "failed", "wrong")} for w in workers]
    agree = all(c == counts[0] for c in counts)
    if not agree:
        print("# workers disagree on their counts: " + json.dumps(counts))
    return {"correct": agree and counts[0]["wrong"] == 0,
            "attempted": counts[0]["attempted"], "failed": counts[0]["failed"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("coeffs", "suite", "expand"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "falsetheta" / "__init__.py").is_file():
        print(f"error: no falsetheta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()
    try:
        # the first worker compiles bytecode once per checkout; not a sample
        warm = spawn(args.workload, args.seed, deadline, setup_only=True)
        rounds = run_workers(args.workload, args.seed, args.seconds, args.trace, deadline)
        setups = [w["setup_s"] for r in rounds for w in r]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, deadline,
                                setup_only=True)["setup_s"])
        units = metric_units(args.trace)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = [w for r in rounds for w in r]
    for w in workers:
        for note in w["notes"]:
            print(f"# {note}")
    print(f"# runtime: python={platform.python_version()} rat={warm['rat']} "
          f"nproc={os.cpu_count()} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} "
          f"workers={len(workers)}")
    print("# worker wall_s: " + " ".join(f"{w['wall_s']:.3f}" for w in workers))
    values = per_layer(rounds) if args.trace else end_to_end(workers, setups)
    result = {
        **op_counts(workers),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
