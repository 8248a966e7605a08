"""Command-line front end: expand, verify, check, suite.

Exit codes form a stable contract: 0 on success, 1 on a mathematical
discrepancy, 2 on usage or parameter errors.  Rationals on the command
line are "num/den" or integer strings; complex numbers are "re+imi".
"""

import argparse
import json
import sys

from .rat import Rat, rat_str, parse_rat, _positive_order
from .series import PuiseuxSeries, eta_series, series_to_json
from .bilaurent import bl_to_json
from . import thetas, families
from .identities import (
    registered_ids,
    verify_identity,
    run_suite,
    report_to_json,
)
from .numeric import (
    LAW_IDS,
    check_transformation,
    run_transformation_checks,
    residual_report_to_json,
    EtaMultiplierValidationError,
)

USAGE_ERROR = 2
DISCREPANCY = 1

DEFAULT_ORDER = Rat(20)
DEFAULT_WINDOW = 6


def _parse_complex(s):
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {s!r}")


def _parse_rat_arg(s):
    try:
        return parse_rat(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse rational {s!r}")


def _parse_int_pair(s):
    parts = s.split(",")
    if len(parts) == 1:
        parts = [parts[0], "0"]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected one or two integers, got {s!r}")
    return tuple(int(x) for x in parts)


def _parse_rat_pair(s):
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two rationals, got {s!r}")
    return tuple(_parse_rat_arg(x) for x in parts)


def _parse_gamma(s):
    parts = s.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected a,b,c,d, got {s!r}")
    return tuple(int(x) for x in parts)


# -- expand -------------------------------------------------------------------


def _int_index(r):
    """--r as a pair of ints, for the families indexed by integers."""
    if any(x.denominator != 1 for x in r):
        raise ValueError(f"--r must be a pair of integers, got {r[0]},{r[1]}")
    return tuple(int(x) for x in r)


def _expand_series(args):
    order = _positive_order(args.order, "--order")
    W = args.window
    if W < 0:
        raise ValueError(f"--window must be nonnegative, got {W}")
    name = args.name
    if name == "eta":
        return eta_series(args.k, order)
    # the window only clips what is printed; builders build whole objects
    if name == "theta":
        return thetas.theta_hat(args.unit, args.k, order).clip(W)
    if name == "theta01":
        return thetas.theta01(args.unit, args.k, order).clip(W)
    if name == "thetaA2":
        return thetas.theta_A2(order).clip(W)
    if name == "calT":
        return thetas.calT(order).clip(W)
    if name == "f":
        return thetas.f_series(order).clip(W)
    if name == "J":
        return thetas.J_series(order).clip(W)
    if name == "kwN3":
        return thetas.kw_character_N3(order).clip(W)
    if name == "Gfrak":
        return families.G_frak(args.lam, args.p, order)
    if name == "Ghyper":
        return families.G_hyper(_int_index(args.r), order)
    if name == "Hfrak":
        return families.H_frak(args.r[0], args.r[1], order)
    if name == "F0":
        return families.F0_series(args.p, order, args.form)
    if name == "coeffF":
        return families.coeff_F(_int_index(args.r), args.p, order)
    if name == "rankone":
        return families.rank_one_coeff(args.p, _int_index(args.r)[0], order)
    if name == "rogers":
        return families.rogers_false_theta(order)
    if name == "Fconst":
        return families.F_constant_term(args.p, order)
    raise ValueError(f"unknown series {name!r}")


def _print_series(s, fmt, out):
    if isinstance(s, PuiseuxSeries):
        if fmt == "json":
            json.dump(series_to_json(s), out, indent=2)
            out.write("\n")
        else:
            for e, c in s.items():
                out.write(f"q^({rat_str(e)})\t{rat_str(c)}\n")
            out.write(f"+ O(q^({rat_str(s.order)}))\n")
        return
    if fmt == "json":
        json.dump(bl_to_json(s), out, indent=2)
        out.write("\n")
    else:
        for e1, e2 in s.keys_sorted():
            coeff = s.coeff(e1, e2)
            out.write(f"zeta1^({rat_str(e1)}) zeta2^({rat_str(e2)}): {coeff!r}\n")
        out.write(f"region={s.region.name} + O(q^({rat_str(s.qorder)}))\n")


def cmd_expand(args):
    try:
        s = _expand_series(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _print_series(s, args.format, sys.stdout)
    return 0


# -- verify -------------------------------------------------------------------


def _emit_report(rep, fmt, out):
    if fmt == "json":
        json.dump(report_to_json(rep), out)
        out.write("\n")
        return
    line = f"{rep.id}\t{rep.verdict}\torder={rat_str(rep.order)}\t{rep.ms} ms"
    if rep.discrepancy is not None:
        line += f"\tdiscrepancy={rep.discrepancy}"
    out.write(line + "\n")


def cmd_verify(args):
    order = args.order
    if order is not None:
        _positive_order(order, "--order")
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    if args.id == "all":
        reports = run_suite(order_overrides=None if order is None else
                            {i: order for i in registered_ids()},
                            jobs=args.jobs)
    else:
        if args.id not in registered_ids():
            print(f"error: unknown identity {args.id!r}", file=sys.stderr)
            return USAGE_ERROR
        reports = [verify_identity(args.id, order=order)]
    for rep in reports:
        _emit_report(rep, args.format, sys.stdout)
    return DISCREPANCY if any(r.verdict != "equal" for r in reports) else 0


# -- check --------------------------------------------------------------------


def _emit_residual(rep, fmt, out):
    if fmt == "json":
        json.dump(residual_report_to_json(rep), out)
        out.write("\n")
        return
    out.write(
        f"{rep.law}\t{rep.verdict}\tresidual={rep.residual:.3e}"
        f"\ttolerance={rep.tolerance:.1e}\t{rep.ms} ms\n"
    )


def cmd_check(args):
    law = args.law
    if law.endswith("_MOD"):
        if args.gamma is None:
            print("error: modular laws need --gamma a,b,c,d", file=sys.stderr)
            return USAGE_ERROR
        element = args.gamma
    else:
        if args.m is None:
            print("error: elliptic laws need --m (and optionally --l)", file=sys.stderr)
            return USAGE_ERROR
        element = (args.m, args.l or (0, 0))
    z = args.z[0] if law.startswith("THETA") else tuple(args.z[:2])
    if not law.startswith("THETA") and len(args.z) != 2:
        print("error: this law needs --z z1,z2", file=sys.stderr)
        return USAGE_ERROR
    try:
        rep = check_transformation(law, element, z, args.tau, args.tolerance)
    except (ValueError, EtaMultiplierValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit_residual(rep, args.format, sys.stdout)
    return 0 if rep.verdict == "equal" else DISCREPANCY


# -- suite --------------------------------------------------------------------


def cmd_suite(args):
    failed = False
    reports = run_suite(pattern=args.pattern, jobs=args.jobs)
    for rep in reports:
        _emit_report(rep, args.format, sys.stdout)
        failed = failed or rep.verdict != "equal"
    if not args.skip_numeric:
        for law in LAW_IDS:
            checks = run_transformation_checks(law, args.tolerance)
            worst = max(checks, key=lambda r: r.residual)
            _emit_residual(worst, args.format, sys.stdout)
            failed = failed or any(r.verdict != "equal" for r in checks)
    return DISCREPANCY if failed else 0


# -- parser -------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="falsetheta",
        description="exact q-series expansion and identity verification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="print a truncated series expansion")
    pe.add_argument("name", choices=[
        "eta", "theta", "theta01", "thetaA2", "calT", "f", "J", "kwN3",
        "Gfrak", "Ghyper", "Hfrak", "F0", "coeffF", "rankone", "rogers",
        "Fconst",
    ])
    pe.add_argument("--order", type=_parse_rat_arg, default=DEFAULT_ORDER)
    pe.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    pe.add_argument("--p", type=int, default=2)
    pe.add_argument("--k", type=int, default=1)
    pe.add_argument("--unit", choices=["z1", "z2", "z12"], default="z1")
    pe.add_argument("--lambda", dest="lam", type=_parse_rat_pair, default=(Rat(0), Rat(0)))
    pe.add_argument("--r", type=_parse_rat_pair, default=(Rat(0), Rat(0)))
    pe.add_argument("--form", choices=["GENERAL", "P2SIMPLIFIED"], default="GENERAL")
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(func=cmd_expand)

    pv = sub.add_parser("verify", help="verify one registered identity or all")
    pv.add_argument("id")
    pv.add_argument("--order", type=_parse_rat_arg, default=None)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("check", help="check a transformation law numerically")
    pc.add_argument("law", choices=list(LAW_IDS))
    pc.add_argument("--gamma", type=_parse_gamma, default=None)
    pc.add_argument("--m", type=_parse_int_pair, default=None)
    pc.add_argument("--l", type=_parse_int_pair, default=None)
    pc.add_argument("--tau", type=_parse_complex, required=True)
    pc.add_argument("--z", type=lambda s: [
        _parse_complex(x) for x in s.split(",")
    ], required=True)
    pc.add_argument("--tolerance", type=float, default=1e-8)
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_check)

    ps = sub.add_parser("suite", help="run the identity suite plus numeric checks")
    ps.add_argument("--pattern", default="*")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--tolerance", type=float, default=1e-8)
    ps.add_argument("--skip-numeric", action="store_true")
    ps.add_argument("--format", choices=["text", "json"], default="text")
    ps.set_defaults(func=cmd_suite)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
