"""One cold execution of a workload, in its own interpreter.

Started by run.py with the parent's clock reading taken just before the
spawn; prints one JSON line with this process's measurements.  The
falsetheta package is imported from the ``src`` directory of the
checkout that holds this file, never from anywhere else.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_falsetheta():
    sys.path.insert(0, str(SRC))
    import falsetheta

    where = Path(falsetheta.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"falsetheta imported from {where}, not from {SRC}")
    return falsetheta


def falsetheta_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "falsetheta" or name.startswith("falsetheta.")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ft = import_falsetheta()
    from falsetheta import cli  # noqa: F401  (part of the imported program)
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    expected = workloads.load_expected() if args.workload == "expand" else None
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "rat": ft.Rat.__name__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(falsetheta_modules())
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    out = workloads.run_workload(ft, args.workload, inputs, expected)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    result.update({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "wrong": out.wrong,
        "notes": out.notes,
        "layers": {
            "identities.cpu_util": cpu / wall,
            "cli.bytes_out": out.bytes_out,
            **{f"identities.verify_s.{k}": v for k, v in out.verify_s.items()},
        },
    })
    if tracer is not None:
        tracer.uninstall()
        cached = [getattr(ft.thetas, name) for name in ft.thetas.__all__]
        result["layers"].update(tracing.layer_metrics(
            tracer, [f for f in cached if hasattr(f, "cache_info")]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
