"""Registry of series identities and the comparison engine.

Every entry pairs two independently built series (one- or two-variable)
and compares them coefficient by coefficient up to a requested q-order.
Statements that are quotients of theta functions in the source
formulation are registered in multiplied-out, division-free form, so
both sides stay exact truncated series.

Entries whose INNER expansions have unbounded key support at a fixed
q-power (anything involving 1/(1 - zeta) factors) clip both sides to a
key box where both routes are complete, read off the support of the
series they built: a product with a factor clipped at W is complete
within W less the other factors' largest key.  The engine compares
every key of the two sides it is given, one- and two-variable alike, in
one walk over their rows that finds the least differing exponent and
counts the coefficients compared; a grid that compares none raises.

The points of a grid build what they share once: a builder whose points
share a kernel has a prepare(points, order), which verify_identity calls
once for the points it builds, and which a bare build(point, order) calls
for its own point.  A shared kernel serves the points of one side only,
never the other side's route.
"""

import fnmatch
import time
from dataclasses import dataclass
from functools import reduce
from operator import add

from .rat import Rat, rat, rat_str, rat_ceil, _positive_order
from .series import (
    PuiseuxSeries,
    zero as q_zero,
    monomial as q_monomial,
    pochhammer,
    eta_product,
    eta_quotient,
    quadratic_range,
    lattice_sum,
    _binomial_table,
    _divide,
    _int_row,
)
from .bilaurent import (
    UNIT_KEYS,
    bl_monomial,
    bl_mul,
    bl_on_unit,
    bl_add,
    bl_scalar_mul,
    bl_elliptic_shift,
    expand_inverse_one_minus,
    product_coeff,
    _common_rows,
    _from_rows,
)
from .thetas import (
    theta_hat,
    theta_hat_sum,
    t2t_factor,
    s01_factor,
    f_coeff,
    J_constant_term,
    unit_pochhammer,
)
from .families import (
    rho,
    quad_Q,
    G_frak,
    G_frak_rewrite_p2,
    G_frak_closed_p2,
    coeff_F,
    _orbit_offsets,
    _pQ,
    G_hyper,
    H_frak,
    F0_series,
    _A_table,
    _hyper_factor,
)

__all__ = [
    "IdentityReport",
    "verify_identity",
    "run_suite",
    "registered_ids",
    "identity_grid",
    "identity_default_order",
    "report_to_json",
]


def _f_coeff_scaled(r1, r2, order):
    """eta^5/eta(2 tau) times the (r1, r2) coefficient of the ratio."""
    return (eta_quotient({1: 5, 2: -1}, order) * f_coeff(r1, r2, order)).truncate(order)


# -- report plumbing ----------------------------------------------------------


@dataclass
class IdentityReport:
    id: str
    params: dict
    order: object
    verdict: str  # "equal" | "unequal"
    discrepancy: object = None  # None | (key, lhs_coeff, rhs_coeff)
    ms: int = 0


def report_to_json(rep):
    disc = None
    if rep.discrepancy is not None:
        key, ca, cb = rep.discrepancy
        if isinstance(key, tuple):
            key = [rat_str(rat(k)) for k in key]
        else:
            key = rat_str(rat(key))
        disc = {"key": key, "lhs": rat_str(rat(ca)), "rhs": rat_str(rat(cb))}
    return {
        "id": rep.id,
        "params": {k: str(v) for k, v in rep.params.items()},
        "order": rat_str(rat(rep.order)),
        "verdict": rep.verdict,
        "discrepancy": disc,
        "ms": rep.ms,
    }


# -- comparison ----------------------------------------------------------------


def _diff(lhs, rhs, order):
    """(discrepancy, compared) of two sides below order and both sides' orders.

    A PuiseuxSeries is one row, a BiLaurentSeries its rows in increasing
    key.  The discrepancy is None, or the least q-exponent e where the
    sides differ, ties going to the first key: (e, a_e, b_e) for one
    variable, ((e1, e2, e), a_e, b_e) for two.  compared counts the places
    (key, e) where either side has a nonzero coefficient.
    """
    if isinstance(lhs, PuiseuxSeries):
        o, kd, (ra, rb) = min(lhs.order, rhs.order, order), None, ({(): lhs}, {(): rhs})
    else:
        o, (kd, (ra, rb)) = min(lhs.qorder, rhs.qorder, order), _common_rows((lhs, rhs))
    zero, disc, least, compared = q_zero(o), None, None, 0
    for key in sorted(ra.keys() | rb.keys()):
        a, b = ra.get(key, zero).truncate(o), rb.get(key, zero).truncate(o)
        if a == b:
            compared += len(a.row) - a.row.count(0)
            continue
        # Rats only where the rows differ
        compared += len(a.terms.keys() | b.terms.keys())
        e = (a - b).valuation()
        if disc is None or e < least:
            loc = e if kd is None else (Rat(key[0], kd), Rat(key[1], kd), e)
            disc, least = (loc, a.coeff(e), b.coeff(e)), e
    return disc, compared


# -- builder helpers -----------------------------------------------------------


def _rho_double_sum(order, W):
    """sum rho_{n1,n2} q^(n1 n2) z1^n1 z2^n2, keys clipped to |ni| <= W."""
    rows = {}
    for n1 in range(-W, W + 1):
        for n2 in range(-W, W + 1):
            w = rho(n1, n2)
            e = n1 * n2
            if w and e >= 0 and e < order:
                rows[(n1, n2)] = q_monomial(w, e, order)
    return _from_rows(1, rows, order, W)


def _partial_fraction_sum(order, W):
    """sum rho_{n1,n2} (-1)^n1 q^(n1(n1+1)/2 + n1 n2) z1^n2, |n2| <= W.

    The n1 = +-n shells have minimal exponent n(n+1)/2 over the keys
    where the rho weight survives, which bounds the enumeration.
    """
    half = Rat(1, 2)
    rows = {}
    for n in quadratic_range(half, half, 0, order, 0):
        sign = -1 if n % 2 else 1
        for m in ((0,) if n == 0 else (n, -n)):
            for n2 in range(-W, W + 1):
                w = rho(m, n2)
                e = Rat(m * (m + 1), 2) + m * n2
                if w and 0 <= e < order:
                    add = q_monomial(sign * w, e, order)
                    rows[(n2, 0)] = rows.get((n2, 0), q_zero(order)) + add
    return _from_rows(1, rows, order, W)


def _t2t_sum(unit, order, variant):
    """theta(z; 2 tau)/theta(z; tau) on one unit, the oracle of t2t_factor's
    product, as q^(1/8) times an eta product times sum_a u^(+-a) B_a(q).

    "closed": B_a = sum_{k >= 0} (-1)^k q^(k^2 + (2a+1)k + a), and
    1/((q; q)_oo (q^2; q^2)_oo); "poch": B_a = q^a A_a(q^2), A_a the inner
    sum of _A_table, and (-q; q)_oo; "quad": its quadratic variant
    (quad=1), and 1/(q; q)_oo.
    """
    d1, d2 = UNIT_KEYS[unit]
    rows = {}
    # the key u^m, |m| = a, has exponents from a up; a < order
    for a in range(rat_ceil(order)):
        if variant == "closed":
            ks = quadratic_range(1, 2 * a + 1, a, order, 0)
            b = PuiseuxSeries({k * k + (2 * a + 1) * k + a: (-1) ** k for k in ks}, order)
        else:
            b = _A_table(a, (order - a) / 2, variant == "quad").scale_q(2).shift(a)
        for m in ((a, -a) if a else (0,)):
            rows[(m * d1, m * d2)] = b
    body = _from_rows(1, rows, order)
    powers = {"closed": {1: -1, 2: -1}, "poch": {1: -1, 2: 1}, "quad": {1: -1}}[variant]
    return bl_scalar_mul(body, eta_product(powers, order - Rat(1, 8)).shift(Rat(1, 8)))


def _int_poly(terms):
    """The Laurent polynomial {key: int} at q^0, to q^1; keys of one int share
    one row, and zero ints are dropped."""
    rows = {c: q_monomial(c, 0, 1) for c in set(terms.values())}
    return _from_rows(1, {k: rows[c] for k, c in terms.items()}, 1)


def _divide_one_minus(terms, d):
    """{key: int} divided by (1 - z^d), d a nonzero step of entries -1, 0, 1.

    Along each line of keys k0 + t d the quotient is the running sum of the
    ints from the line's least t, one series._divide(row, 1).  A line whose
    ints do not sum to zero leaves that sum at its last key, which the
    product with (1 - z^d) does not cancel.
    """
    lines = {}  # the key at t = 0 of each line -> {t: int}
    for (k1, k2), c in terms.items():
        t = k1 * d[0] if d[0] else k2 * d[1]
        lines.setdefault((k1 - t * d[0], k2 - t * d[1]), {})[t] = c
    out = {}
    for (b1, b2), line in lines.items():
        lo = min(line)
        row = [line.get(t, 0) for t in range(lo, max(line) + 1)]
        _divide(row, 1)
        out.update(((b1 + t * d[0], b2 + t * d[1]), c) for t, c in enumerate(row, lo) if c)
    return out


def _times_one_minus(terms, d):
    """{key: int} times (1 - z^d), zero ints dropped."""
    out = dict(terms)
    for (k1, k2), c in terms.items():
        k = (k1 + d[0], k2 + d[1])
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _ghyper_q2(r, order, table):
    """G_hyper at the index pair r with q replaced by q^2, read from table,
    a _hyper_factor at order / 2 or deeper."""
    return G_hyper(tuple(r), order / 2, _table=table).scale_q(2)


# -- shared kernels ------------------------------------------------------------
# each prepare(points, order) builds once what the points share, for the
# builder's third argument; each kernel is read by one side only


def _shares(prepare):
    """Make build(p, order, kernels) callable as build(p, order), with the
    kernels of prepare([p], order); the result carries prepare."""
    def wrap(build):
        def build_point(p, order, kernels=None):
            return build(p, order, prepare([p], order) if kernels is None else kernels)
        build_point.prepare = prepare
        return build_point
    return wrap


def _prepare_E1(points, order):
    """theta_hat and theta_hat_sum in z1 for each k of the points."""
    return {k: (theta_hat(k, order), theta_hat_sum(k, order)) for k in {p["k"] for p in points}}


def _prepare_E2(points, order):
    """For each m of the points: the left side before the sign of l, the
    shifted theta_hat(1, B), and the right side's theta_hat(1, B2)."""
    out = {}
    for m in {p["m"] for p in points}:
        # the keys n = j + 1/2 with n^2/2 + m n below the order, |n| <= Wt;
        # their theta coefficients q^(n^2/2) lie below B
        js = quadratic_range(Rat(1, 2), Rat(1, 2) + m, Rat(1, 8) + Rat(m, 2), order)
        Wt = max(abs(j + Rat(1, 2)) for j in js)
        B = order + abs(m) * Wt
        lhs = bl_elliptic_shift(theta_hat(1, B).clip(Wt), m, 0)
        out[m] = lhs, theta_hat(1, order + Rat(m * m, 2))
    return out


def _prepare_E5(points, order):
    """E5's ratio sides in z1: the product theta_hat(u; 2 tau) (u q, u^-1 q;
    q^2)_oo, and theta_hat(u; tau) times the scalar q^(1/8) (-q; q)_oo;
    None if no point reads them."""
    if all(p["part"] == "eta" for p in points):
        return None
    lhs = bl_mul(theta_hat(2, order), unit_pochhammer(1, 2, order))
    scalar = pochhammer(-1, 1, 1, None, order - Rat(1, 8)).shift(Rat(1, 8))
    return lhs, bl_scalar_mul(theta_hat(1, order), scalar)


def _prepare_t2t(points, order):
    """_t2t_sum in z1 for each variant of the points."""
    return {v: _t2t_sum("z1", order, v) for v in {p["variant"] for p in points}}


def _prepare_E14(points, order):
    """The left side's inverse pair if a poch point reads it, and the right
    side's _hyper_factor at the deepest order its points read: order for a
    poch point, order / 2 for a lattice one."""
    poch = any(p["part"] == "poch" for p in points)
    pair = unit_pochhammer(Rat(1, 2), 1, order, inverse=True) if poch else None
    return pair, _hyper_factor(order if poch else order / 2)


def _E15b_shift(r):
    """The q-shift of E15b's right side at the index pair r."""
    return Rat(1, 2) + 2 * quad_Q(Rat(r[0]), Rat(r[1]))


def _prepare_E15b(points, order):
    """The right side's _hyper_factor at the deepest order its points read,
    (order - shift) / 2; None if every point's right side vanishes."""
    top = order - min(_E15b_shift(p["r"]) for p in points)
    return _hyper_factor(top / 2) if top > 0 else None


# -- identity builders ---------------------------------------------------------
# each builder returns (lhs, rhs); the engine compares every key of both,
# so a builder whose routes agree only on a key box clips both sides to it


@_shares(_prepare_E1)
def _build_E1(p, order, kernels):
    return tuple(bl_on_unit(s, p["unit"]) for s in kernels[p["k"]])


@_shares(_prepare_E2)
def _build_E2(p, order, kernels):
    m, l = p["m"], p["l"]
    lhs, th = kernels[m]
    if l % 2:
        # integer shift: zeta^n picks up (-1)^l on the half-integer support
        lhs = bl_scalar_mul(lhs, -1)
    sign = -1 if (m + l) % 2 else 1
    B2 = order + Rat(m * m, 2)
    pre = bl_monomial(q_monomial(sign, -Rat(m * m, 2), B2 + 1), -m, 0, B2 + 1)
    rhs = bl_mul(pre, th)
    return lhs, rhs


@_shares(lambda points, order: _rho_double_sum(order, int(order)))
def _build_E3(p, order, rho_sum):
    W = int(order)
    if p["part"] == "expansion":
        # middle route: sum over n of z1^n times a geometric series in z2 of window W
        terms = (bl_mul(bl_monomial(1, n, 0, order),
                        bl_on_unit(expand_inverse_one_minus(n, order, zwindow=W), "z2"))
                 for n in range(-W, W + 1))
        return bl_add(*terms).clip(W), rho_sum
    # product route, division-free:
    # eta^3 theta_hat(z1 z2) = rho-sum * theta_hat(z1) * theta_hat(z2)
    B = order + Rat(1, 8)
    lhs = bl_scalar_mul(bl_on_unit(theta_hat(1, B), "z12"), eta_quotient({1: 3}, B))
    th1 = theta_hat(1, order)
    rhs = bl_mul(bl_mul(rho_sum, th1), bl_on_unit(th1, "z2"))
    K = W - Rat(max(abs(k1) for k1, _ in th1.rows), th1.kd)
    return lhs.clip(K), rhs.clip(K)


@_shares(lambda points, order: _partial_fraction_sum(order, int(order)))
def _build_E4(p, order, pf_sum):
    W = int(order)
    if p["part"] == "expansion":
        half = Rat(1, 2)
        terms = []
        for n in quadratic_range(half, half, 0, order, 0):
            sign = -1 if n % 2 else 1
            for m in ((0,) if n == 0 else (n, -n)):
                base = Rat(m * (m + 1), 2)
                g = expand_inverse_one_minus(m, order - base, zwindow=W)
                terms.append(bl_scalar_mul(g, q_monomial(sign, base, order)))
        return bl_add(*terms).truncate_q(order), pf_sum
    # zeta1^(-1/2) eta^3 = pf-sum * theta_hat(z1)
    B = order + Rat(1, 8)
    lhs = bl_monomial(eta_quotient({1: 3}, B), -Rat(1, 2), 0, B)
    th = theta_hat(1, order)
    rhs = bl_mul(pf_sum, th)
    K = W - Rat(max(abs(k1) for k1, _ in th.rows), th.kd)
    return lhs.clip(K), rhs.clip(K)


@_shares(_prepare_E5)
def _build_E5(p, order, ratio):
    if p["part"] == "eta":
        lhs = pochhammer(-1, 1, 1, None, order - Rat(1, 8)).shift(Rat(1, 8))
        lhs = (lhs * eta_quotient({1: 1}, order)).truncate(order)
        rhs = eta_quotient({2: 1}, order).shift(Rat(1, 12)).truncate(order)
        return lhs, rhs
    # theta_hat(u; 2tau) (u q, u^-1 q; q^2)_oo = theta_hat(u; tau) q^(1/8) (-q; q)_oo
    return tuple(bl_on_unit(s, p["unit"]) for s in ratio)


@_shares(_prepare_t2t)
def _build_t2t(p, order, sums):
    u = p["unit"]
    return bl_on_unit(t2t_factor(order), u), bl_on_unit(sums[p["variant"]], u)


def _build_E7(p, order):
    r = p["r"]
    return coeff_F(r, p["p"], order), G_frak(r, p["p"], order)


def _build_E8(p, order):
    lam = tuple(rat(x) for x in p["lam"])
    return G_frak(lam, 2, order), G_frak_rewrite_p2(lam, order)


def _build_E9(p, order):
    r = p["r"]
    return _f_coeff_scaled(r[0], r[1], order), G_frak_closed_p2(r, order)


def _build_E10(p, order):
    r = p["r"]
    sh = Rat(2, 3) * quad_Q(Rat(r[0]), Rat(r[1]))
    lam = (Rat(r[0] + r[1], 3), Rat(2 * r[1] - r[0], 3))
    lhs = G_frak(lam, 2, order + sh).shift(-sh)
    return lhs, _f_coeff_scaled(r[0], r[1], order)


def _build_E11(p, order):
    r = p["r"]
    sh = 2 * quad_Q(Rat(r[0]), Rat(r[1]))
    rhs = _f_coeff_scaled(2 * r[0] - r[1], r[0] + r[1], order).shift(sh)
    return coeff_F(r, 2, order), rhs.truncate(order)


def _build_E12(p, order):
    r1, r2 = rat(p["r1"]), rat(p["r2"])
    sh = Rat(2, 3) * quad_Q(r1, r2)
    lam = ((r1 + r2) / 3 - Rat(1, 2), (2 * r2 - r1) / 3 - Rat(1, 2))
    rhs = G_frak(lam, 2, order + sh).shift(-sh)
    return H_frak(r1, r2, order), rhs


def _build_E12b(p, order):
    unit = p["unit"]
    W = int(order)
    d1, d2 = UNIT_KEYS[unit]
    t = bl_on_unit(t2t_factor(order + W + Rat(1, 2)), unit).clip(W)
    shifted = bl_elliptic_shift(t, -d1, -d2)
    pre = bl_monomial(
        q_monomial(1, -Rat(1, 4), shifted.qorder + 1),
        Rat(d1, 2),
        Rat(d2, 2),
        shifted.qorder + 1,
    )
    rhs = bl_mul(pre, shifted)
    # s01 holds the keys |e| <= W, rhs the keys -W + 1/2 <= e <= W + 1/2
    K = W - Rat(1, 2)
    return bl_on_unit(s01_factor(order, W), unit).clip(K), rhs.clip(K)


def _build_E13(p, order):
    return _f_coeff_scaled(0, 0, order), G_frak_closed_p2((0, 0), order)


@_shares(_prepare_E14)
def _build_E14(p, order, kernels):
    r, (pair, table) = p["r"], kernels
    if p["part"] == "poch":
        # the sixfold product read at one key, as G_hyper reads its own table
        return product_coeff(pair, pair, pair, r[0], r[1]), G_hyper(r, order, _table=table)
    sh = Rat(1, 2) + Rat(2, 3) * quad_Q(Rat(r[0]), Rat(r[1]))
    lam = (Rat(r[0] + r[1], 3), Rat(2 * r[1] - r[0], 3))
    lhs = G_frak(lam, 2, order + sh)
    rhs = (eta_product({1: 2, 2: 2}, order) * _ghyper_q2(r, order, table)).shift(sh)
    return lhs, rhs.truncate(min(rhs.order, lhs.order))


@_shares(lambda points, order: _hyper_factor(order / 2))
def _build_E15(p, order, table):
    if p["part"] == "base":
        lhs = G_frak_closed_p2((0, 0), order + Rat(1, 2)).shift(-Rat(1, 2))
        rhs = eta_product({1: 2, 2: 2}, order) * _ghyper_q2((0, 0), order, table)
        return lhs, rhs
    r = p["r"]
    lhs = (eta_quotient({1: 3}, order) * f_coeff(r[0], r[1], order)).truncate(order)
    rhs = (eta_quotient({2: 3}, order) * _ghyper_q2(r, order, table)).shift(Rat(1, 4))
    return lhs, rhs.truncate(order)


@_shares(_prepare_E15b)
def _build_E15b(p, order, table):
    r = p["r"]
    sh = _E15b_shift(r)
    if sh >= order:
        # the right side vanishes below this order; the left must too
        return coeff_F(r, 2, order), q_zero(order)
    s = (2 * r[0] - r[1], r[0] + r[1])
    rhs = (eta_product({1: 2, 2: 2}, order - sh) * _ghyper_q2(s, order - sh, table)).shift(sh)
    return coeff_F(r, 2, order), rhs


def _build_E16(p, order):
    rows = {
        (n, 0): q_monomial((-1) ** n, n * (n + 1), order)
        for n in quadratic_range(1, 1, 0, order, 0)
    }
    rhs = _from_rows(1, rows, order)
    # term n is (w q)^n T_n, T_0 = 1/(1 + w q), T_n / T_(n-1) the four binomials of ratio
    top, totals = rat_ceil(order), {}  # totals: w^k -> the ints of q^0 .. q^(top - 1)
    d, table = _binomial_table([(-1, 1, 1, -1)], order)
    for n in range(top):
        if n:
            ratio = [(1, a, 2 * n - 1, 1) for a in (0, 1)] + [(-1, 1, 2 * n + j, -1) for j in (0, 1)]
            d, table = _binomial_table(ratio, order - n, (d, table))
        for m, row in table.items():  # added before the next step changes it in place
            total = totals.setdefault(m + n, [0] * top)
            total[n:] = map(add, total[n:], row)
    lhs = {(k, 0): _int_row(row, 0, 1, order) for k, row in totals.items()}
    return _from_rows(1, lhs, order), rhs


def _build_E17(p, order):
    return F0_series(2, order), J_constant_term(order)


def _build_E18(p, order):
    exponent = *_pQ(2, -Rat(1, 2), -Rat(1, 2)), order  # 2 Q(n - 1/2), as F0_series(2)
    if p["part"] == "simplify":
        # the quadratic-weight rewrite of F0's cubic weight at p = 2
        return F0_series(2, order), lattice_sum(
            *exponent,
            lambda n1, n2: Rat(12 * n1 * n2 - 3 * n1 * n1 - 3 * n2 * n2 - n1 - n2, 4),
        )
    # internal antisymmetric vanishing: sum (n1+n2-1) q^(2Q(n-1/2)) = 0;
    # n -> 1 - n keeps the exponent and negates the weight, so the points
    # of positive weight sum to minus those of negative weight
    return (lattice_sum(*exponent, lambda n1, n2: max(n1 + n2 - 1, 0)),
            lattice_sum(*exponent, lambda n1, n2: max(1 - n1 - n2, 0)))


def _build_E19(p, order):
    numer = {}  # the six signed unit monomials of the bracketed lattice summand
    for s, e1, e2 in _orbit_offsets(p["n1"], p["n2"], 0, 0):
        numer[e1, e2] = numer.get((e1, e2), 0) + s
    # divide by the Weyl denominator prod (1 - z^-alpha) over the positive
    # roots alpha of A2 (the keys of UNIT_KEYS) one factor at a time, then
    # multiply the quotient back by each factor
    roots = [(-a1, -a2) for a1, a2 in UNIT_KEYS.values()]
    quot = reduce(_divide_one_minus, roots, numer)
    return _int_poly(reduce(_times_one_minus, roots, quot)), _int_poly(numer)


def _build_E20(p, order):
    k = p["k"]
    halves = ({}, {})
    # n -> -n - 2k - 1 keeps the exponent and flips the sign, so the sum
    # over n >= -k equals minus the sum over n <= -k - 1 at every exponent,
    # negative ones included
    for n in quadratic_range(Rat(1, 2), Rat(1, 2) + k, 0, order):
        e = Rat(n * (n + 1), 2) + k * n
        low = n < -k
        halves[low][e] = -1 if (n + low) % 2 else 1
    return PuiseuxSeries(halves[0], order), PuiseuxSeries(halves[1], order)


# -- registry ------------------------------------------------------------------


@dataclass
class _Identity:
    id: str
    description: str
    build: callable
    grid: list
    default_order: object

    def prepare(self, points, order):
        """The arguments after (point, order) of build for each of points:
        (kernels,) for what they share at order, or () if build shares none."""
        prepare = getattr(self.build, "prepare", None)
        return () if prepare is None else (prepare(points, order),)


def _int_pairs(bound):
    return [
        {"r": (a, b)} for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
    ]


_REGISTRY = {}


def _register(ident):
    _REGISTRY[ident.id] = ident


_register(_Identity(
    "E1", "normalized theta: signed sum form equals the triple product",
    _build_E1,
    [{"unit": u, "k": k} for u in ("z1", "z2", "z12") for k in (1, 2)],
    Rat(30),
))
_register(_Identity(
    "E2", "formal elliptic shift of the normalized theta by m periods",
    _build_E2,
    [{"m": m, "l": l} for m in (1, 2) for l in (0, 1)],
    Rat(20),
))
_register(_Identity(
    "E3", "two-variable geometric kernel: expansion and eta^3 product form",
    _build_E3,
    [{"part": "expansion"}, {"part": "product"}],
    Rat(20),
))
_register(_Identity(
    "E4", "partial fraction kernel of 1/theta in one elliptic variable",
    _build_E4,
    [{"part": "expansion"}, {"part": "product"}],
    Rat(20),
))
_register(_Identity(
    "E5", "closed product form of the theta ratio and its eta constant",
    _build_E5,
    [{"part": "ratio", "unit": "z1"}, {"part": "ratio", "unit": "z12"},
     {"part": "eta"}],
    Rat(20),
))
_register(_Identity(
    "E6", "theta ratio on each unit: product against closed-sum and basic hypergeometric rewrites",
    _build_t2t,
    [{"variant": v, "unit": u} for v in ("closed", "poch") for u in ("z1", "z2", "z12")],
    Rat(20),
))
_register(_Identity(
    "E6b", "quadratic-exponent hypergeometric variant of the theta ratio on each unit",
    _build_t2t,
    [{"variant": "quad", "unit": u} for u in ("z1", "z2", "z12")],
    Rat(20),
))
_register(_Identity(
    "E7", "direct Fourier extraction of the lattice kernel equals the weighted sum",
    _build_E7,
    [dict(p=2, **d) for d in _int_pairs(2)]
    + [dict(p=3, **d) for d in ({"r": (0, 0)}, {"r": (1, 0)}, {"r": (-1, 2)})],
    Rat(15),
))
_register(_Identity(
    "E8", "three-sum rewrite of the weighted lattice sum at p = 2",
    _build_E8,
    [{"lam": ("0", "0")}, {"lam": ("1/3", "2/3")},
     {"lam": ("-1/2", "-1/2")}, {"lam": ("1", "0")}],
    Rat(20),
))
_register(_Identity(
    "E9", "eta-scaled ratio coefficients equal the signed half-plane sum",
    _build_E9,
    _int_pairs(2),
    Rat(15),
))
_register(_Identity(
    "E10", "shifted weighted lattice sum equals the eta-scaled ratio coefficient",
    _build_E10,
    _int_pairs(2),
    Rat(15),
))
_register(_Identity(
    "E11", "coefficients of the full kernel equal rescaled ratio coefficients",
    _build_E11,
    _int_pairs(2),
    Rat(15),
))
_register(_Identity(
    "E12", "half-shifted mixed-ratio coefficients equal shifted lattice sums",
    _build_E12,
    [{"r1": r1, "r2": r2}
     for r1 in ("1/2", "-1/2", "3/2", "-3/2") for r2 in range(-2, 3)],
    Rat(15),
))
_register(_Identity(
    "E12b", "coefficient invariance of the ratio under the period half-shift",
    _build_E12b,
    [{"unit": "z2"}, {"unit": "z1"}],
    Rat(15),
))
_register(_Identity(
    "E13", "constant-coefficient closed form of the eta-scaled ratio",
    _build_E13,
    [{}],
    Rat(20),
))
_register(_Identity(
    "E14", "sixfold inverse Pochhammer coefficients: lattice and hypergeometric",
    _build_E14,
    [dict(part=pt, r=(a, b)) for pt in ("poch", "lattice")
     for a in (-1, 0, 1) for b in (-1, 0, 1)],
    Rat(15),
))
_register(_Identity(
    "E15", "signed double sum equals the sextuple hypergeometric sum",
    _build_E15,
    [{"part": "base"}]
    + [dict(part="rescaled", r=(a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)],
    Rat(30),
))
_register(_Identity(
    "E15b", "windowed coefficientwise hypergeometric expansion of the kernel",
    _build_E15b,
    _int_pairs(2),
    Rat(30),
))
_register(_Identity(
    "E16", "two-variable false theta identity with no infinite products",
    _build_E16,
    [{}],
    Rat(25),
))
_register(_Identity(
    "E17", "cubic-weight lattice sum equals the constant term of the index-zero form",
    _build_E17,
    [{}],
    Rat(15),
))
_register(_Identity(
    "E18", "quadratic-weight simplification of the cubic-weight lattice sum",
    _build_E18,
    [{"part": "simplify"}, {"part": "vanishing"}],
    Rat(25),
))
_register(_Identity(
    "E19", "the six-monomial summand is divisible by the Weyl denominator",
    _build_E19,
    [{"n1": a, "n2": b} for a in range(-3, 4) for b in range(-3, 4)],
    Rat(1),
))
_register(_Identity(
    "E20", "signed triangular-number sum with linear twist vanishes",
    _build_E20,
    [{"k": k} for k in range(-10, 11)],
    Rat(40),
))


def registered_ids():
    return sorted(_REGISTRY)


def identity_grid(ident_id):
    return list(_REGISTRY[ident_id].grid)


def identity_default_order(ident_id):
    return _REGISTRY[ident_id].default_order


# -- engine --------------------------------------------------------------------


def _corrupt(lhs):
    """Add 1 to one mid-support coefficient of lhs; returns (lhs', location)."""
    if isinstance(lhs, PuiseuxSeries):
        exps = sorted(lhs.terms) or [Rat(0)]
        e = exps[len(exps) // 2]
        return lhs + q_monomial(1, e, lhs.order), e
    keys = list(lhs.terms)
    key = keys[len(keys) // 2] if keys else (0, 0)
    exps = sorted(lhs.coeff(*key).terms)
    e = exps[len(exps) // 2] if exps else Rat(0)
    bump = bl_monomial(q_monomial(1, e, lhs.qorder), key[0], key[1], lhs.qorder)
    return bl_add(lhs, bump), (key[0], key[1], e)


def verify_identity(ident_id, params=None, order=None, corrupt=False):
    """Build both sides of one registered identity and compare them.

    With params=None the entry's whole parameter grid is checked and the
    reports are folded into one (first discrepancy wins).  Each point is
    compared below the order and both sides' orders, and the coefficients
    compared, the places where either side is nonzero, are added up over
    the grid.  corrupt=True perturbs one mid-support coefficient of the
    left side; the report then carries the perturbed location as its
    discrepancy (engine self-test support).  Raises ValueError for an
    order <= 0, and for a whole grid that compares no coefficient.
    """
    if ident_id not in _REGISTRY:
        raise KeyError(f"unknown identity {ident_id!r}")
    ident = _REGISTRY[ident_id]
    order = ident.default_order if order is None else _positive_order(order)
    grid = [params] if params is not None else ident.grid
    t0 = time.monotonic()
    verdict = "equal"
    disc = None
    shown = {}
    compared = 0
    shared = ident.prepare(grid, order)
    for point in grid:
        lhs, rhs = ident.build(point, order, *shared)
        if corrupt:
            lhs, injected = _corrupt(lhs)
        d, n = _diff(lhs, rhs, order)
        if d is not None:
            if corrupt and d[0] != injected:
                raise AssertionError(f"corruption at {injected} reported at {d[0]}")
            verdict = "unequal"
            disc = d
            shown = point
            break
        if corrupt:
            # a corrupted side must be flagged; reaching here is a bug
            raise AssertionError("corrupted comparison reported equal")
        compared += n
    if params is None and disc is None and not compared:
        raise ValueError(
            f"{ident_id} compares no coefficient below order {rat_str(order)}"
        )
    ms = int((time.monotonic() - t0) * 1000)
    return IdentityReport(
        ident_id, shown if disc is not None else (params or {}),
        order, verdict, disc, ms
    )


def run_suite(pattern="*", order_overrides=None, jobs=1):
    """Verify every identity whose id matches the filter.

    The filter is a shell-style pattern, with "|" separating
    alternatives; a pattern that matches no id raises ValueError.
    Reports come back sorted by id regardless of execution order.  jobs,
    an int of at least 1, is the number of worker processes; with jobs > 1
    the identities run in parallel in spawned workers, each with its own
    builder caches, so a script that calls this needs the usual
    `if __name__ == "__main__"` guard.  With jobs = 1 they run one after
    another in this process.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be at least 1 and an int, got {jobs!r}")
    order_overrides = order_overrides or {}
    alts = [a for a in pattern.split("|") if a]
    ids = [i for i in registered_ids() if any(fnmatch.fnmatch(i, a) for a in alts)]
    if not ids:
        raise ValueError(f"no identity matches the pattern {pattern!r}")
    orders = [order_overrides.get(i) for i in ids]

    if jobs > 1 and len(ids) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        workers = min(jobs, len(ids))
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            reports = list(pool.map(verify_identity, ids, [None] * len(ids), orders))
    else:
        reports = [verify_identity(i, order=o) for i, o in zip(ids, orders)]
    return sorted(reports, key=lambda r: r.id)
