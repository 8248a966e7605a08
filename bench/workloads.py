"""Workload inputs (from a seed) and their execution with output checks.

Every workload is one closed-loop client in one fresh process, so each
run starts with cold builder caches, as a user's ``falsetheta`` process
does.  Inputs are plain data made from the seed alone; ``run_workload``
executes them against the falsetheta package it is given and checks every
output as it arrives.

The suite leaves out the fixed-q^31 group (E9, E10, E11, E13, E15): each
of those builds ``f_series(31)`` whatever order is asked for, which takes
about 100 s with CPython 3.11 on a shared 2-vCPU Xeon, too long to repeat
per run.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("coeffs", "suite", "expand")

EXPECTED_EXPAND = Path(__file__).with_name("expand_expected.json")

# -- coeffs -------------------------------------------------------------------
# Single grid points of the identities that read a few Fourier coefficients
# of a large two-variable product.  The seed picks index pairs, but always
# the same number per kernel class, so every seed builds the same kernels.

COEFFS_ORDERS = {"E12": 7, "E14": 7, "E17": 10}
E12_PER_CLASS = 2
E14_PER_PART = 2


def e12_kernel_class(r1, r2):
    """H_frak's key window grows with floor(max |r|); one kernel per class."""
    return int(max(abs(r1), abs(r2)))


def _e12_pairs():
    pairs = [(r1, r2) for r1 in ("1/2", "-1/2", "3/2", "-3/2") for r2 in range(-2, 3)]
    classes = {}
    for r1, r2 in pairs:
        classes.setdefault(e12_kernel_class(Fraction(r1), r2), []).append((r1, r2))
    return classes


def coeffs_inputs(seed):
    """Ops (identity, params, order, corrupt), in execution order."""
    rng = random.Random(seed)
    ops = []
    e12 = []
    for cls, pairs in sorted(_e12_pairs().items()):
        for r1, r2 in rng.sample(pairs, E12_PER_CLASS):
            e12.append(("E12", {"r1": r1, "r2": r2}, COEFFS_ORDERS["E12"], False))
    ops += e12
    cells = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    e14 = []
    for part in ("poch", "lattice"):
        for r in rng.sample(cells, E14_PER_PART):
            e14.append(("E14", {"part": part, "r": r}, COEFFS_ORDERS["E14"], False))
    ops += e14
    e17 = ("E17", {}, COEFFS_ORDERS["E17"], False)
    ops.append(e17)
    # corrupted repeats of points already built; each must come back unequal
    for ident, params, order, _ in (rng.choice(e12), rng.choice(e14), e17):
        ops.append((ident, params, order, True))
    return ops


# -- suite --------------------------------------------------------------------
# The library form of `falsetheta suite` on a reduced-order slice of the
# criterion-1 registry, plus every transformation-law grid.  Orders are
# drawn from [base - width, base].  Only identities whose cost does not
# move with the order, and which share no builder cache key with another
# identity at any order in their band, have a nonzero width, so the seed
# does not change the amount of work.

SUITE_ORDERS = {
    # id: (base order, band width)
    "E1": (16, 0),
    "E2": (8, 0),
    "E3": (14, 0),
    "E4": (19, 0),
    "E5": (18, 0),
    "E6": (8, 0),
    "E6b": (20, 0),
    "E7": (15, 2),
    "E8": (20, 2),
    "E12b": (7, 0),
    "E15b": (14, 0),
    "E16": (14, 0),
    "E18": (25, 2),
    "E19": (1, 0),
    "E20": (40, 2),
}
LEFT_OUT = ("E9", "E10", "E11", "E13", "E15")


# One case at a time.  The criterion-1 gate runs min(4, nproc) threads, but
# its cases are pure-Python arithmetic under one interpreter lock.  On a
# shared 2-vCPU Xeon two threads made a cold suite about 12% slower than one
# (7.3 s against 6.5 s), and the lock hand-offs, which depend on what else
# runs on the second vCPU, widened the run-to-run spread of its median time
# from 0.04-0.13 to 0.12-0.23.
SUITE_JOBS = 1


def suite_inputs(seed):
    rng = random.Random(seed)
    orders = {i: base - rng.randint(0, width) for i, (base, width) in SUITE_ORDERS.items()}
    return {"pattern": "|".join(SUITE_ORDERS), "orders": orders, "jobs": SUITE_JOBS}


# -- expand -------------------------------------------------------------------
# In-process CLI calls, each materialising and printing a whole object.
# Orders are chosen so that no two calls share a builder cache key, so the
# seed's shuffle leaves the total work unchanged.

EXPAND_CALLS = (
    ("f", "--order", "11", "--format", "json"),
    ("J", "--order", "10", "--window", "4", "--format", "text"),
    ("kwN3", "--order", "8", "--format", "json"),
    ("Hfrak", "--r", "1/2,1", "--order", "9", "--format", "json"),
    ("theta", "--unit", "z12", "--k", "2", "--order", "40", "--window", "8", "--format", "json"),
    ("theta01", "--unit", "z1", "--order", "24", "--format", "text"),
    ("calT", "--order", "40", "--window", "10", "--format", "json"),
    ("eta", "--k", "1", "--order", "200", "--format", "text"),
    ("Gfrak", "--p", "2", "--lambda", "1/3,2/3", "--order", "60", "--format", "json"),
    ("F0", "--p", "2", "--order", "80", "--format", "json"),
    ("rogers", "--order", "400", "--format", "text"),
    ("Ghyper", "--r", "1,-1", "--order", "6", "--format", "json"),
    ("coeffF", "--r", "1,0", "--p", "2", "--order", "12", "--format", "json"),
)


def expand_inputs(seed):
    calls = [["expand", *c] for c in EXPAND_CALLS]
    random.Random(seed).shuffle(calls)
    return calls


def make_inputs(workload, seed):
    if workload == "coeffs":
        return coeffs_inputs(seed)
    if workload == "suite":
        return suite_inputs(seed)
    if workload == "expand":
        return expand_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- execution ----------------------------------------------------------------


class Outcome:
    """Counts of one workload execution.

    An op is *wrong* when anything about it differs from what is expected:
    a wrong verdict or digest, an unexpected exit code, a residual at or
    above its tolerance, or an exception.  A wrong op is failed and makes
    the run incorrect.  The one other kind of failed op is a *known
    failure*: an expand call that exits with the code recorded for it in
    expand_expected.json (Ghyper and coeffF, whose CLI passes a rational
    index where the library needs an integer).  It is failed but the run
    stays correct; once it is fixed it counts as passed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []
        self.verify_s = {}
        self.bytes_out = 0

    def counts(self):
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes.append(f"wrong: {what}")

    def known_failure(self, what):
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"known failure: {what}")


def _run_coeffs(ft, ops, out):
    for ident, params, order, corrupt in ops:
        want = "unequal" if corrupt else "equal"
        what = f"{ident} {params} corrupt={corrupt}"
        t0 = time.perf_counter()
        try:
            rep = ft.verify_identity(ident, params, order, corrupt=corrupt)
        except Exception as exc:  # includes a corrupted point reported equal
            out.check(False, f"{what}: {exc!r}")
            continue
        finally:
            out.verify_s[ident] = out.verify_s.get(ident, 0.0) + time.perf_counter() - t0
        ok = rep.verdict == want and (rep.discrepancy is None) == (not corrupt)
        out.check(ok, f"{what}: {rep.verdict}")


def _run_suite(ft, spec, out):
    try:
        reports = ft.run_suite(pattern=spec["pattern"], order_overrides=spec["orders"],
                               jobs=spec["jobs"])
    except Exception as exc:
        for ident in spec["orders"]:
            out.check(False, f"{ident}: {exc!r}")
    else:
        got = [r.id for r in reports]
        if got != sorted(spec["orders"]):
            out.check(False, f"suite reported {got}")
        for rep in reports:
            out.check(rep.verdict == "equal", f"{rep.id}: {rep.verdict}")
    for law in ft.LAW_IDS:
        try:
            checks = ft.run_transformation_checks(law)
        except Exception as exc:
            out.check(False, f"{law}: {exc!r}")
            continue
        for c in checks:
            out.check(c.residual < c.tolerance, f"{law} residual {c.residual:.3e}")


def load_expected():
    with open(EXPECTED_EXPAND) as fh:
        return {tuple(e["argv"]): e for e in json.load(fh)}


def run_cli(cli, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def _run_expand(ft, calls, out, expected):
    from falsetheta import cli

    for argv in calls:
        want = expected[tuple(argv)]
        what = " ".join(argv)
        try:
            rc, text = run_cli(cli, argv)
        except Exception as exc:
            out.check(False, f"{what}: {exc!r}")
            continue
        data = text.encode()
        out.bytes_out += len(data)
        if rc != want["exit"] and rc == want.get("known_failure_exit"):
            out.known_failure(f"{what}: exit {rc}")
            continue
        digest = hashlib.sha256(data).hexdigest()
        out.check(rc == want["exit"] and digest == want["sha256"],
                  f"{what}: exit {rc}, stdout digest {digest}")


def run_workload(ft, workload, inputs, expected=None):
    out = Outcome()
    if workload == "coeffs":
        _run_coeffs(ft, inputs, out)
    elif workload == "suite":
        _run_suite(ft, inputs, out)
    elif workload == "expand":
        _run_expand(ft, inputs, out, expected)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
