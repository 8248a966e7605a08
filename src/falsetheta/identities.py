"""Registry of series identities and the comparison engine.

Every entry pairs two independently built series (one- or two-variable)
and compares them coefficient by coefficient up to a requested q-order.
Statements that are quotients of theta functions in the source
formulation are registered in multiplied-out, division-free form, so
both sides stay exact truncated series.

Entries whose INNER expansions have unbounded key support at a fixed
q-power (anything involving 1/(1 - zeta) factors) clip both sides to a
key window where both routes are complete, with the reliable range
derived from the valuation growth of the clipped tails.  The engine
compares every key of the two sides it is given.
"""

import fnmatch
import math
import time
from dataclasses import dataclass

from .rat import Rat, rat, rat_str, rat_ceil, _positive_order
from .series import (
    PuiseuxSeries,
    zero as q_zero,
    monomial as q_monomial,
    pochhammer,
    eta_series,
    eta_product,
    quadratic_range,
    lattice_sum,
)
from .bilaurent import (
    BiLaurentSeries,
    Region,
    UNIT_KEYS,
    ExactDivisionError,
    bl_monomial,
    bl_mul,
    bl_add,
    bl_scalar_mul,
    bl_mul_scalar_int,
    bl_elliptic_shift,
    expand_inverse_one_minus,
    laurent_poly_exact_divide,
    product_coeff,
)
from .thetas import (
    theta_hat,
    theta_hat_sum,
    t2t_factor,
    s01_factor,
    f_series,
    f_coeff,
    J_constant_term,
    eta5_over_eta2,
    unit_pochhammer,
    _unit_product,
)
from .families import (
    sgn_star,
    rho,
    quad_Q,
    G_frak,
    G_frak_rewrite_p2,
    G_frak_closed_p2,
    coeff_F,
    _orbit_offsets,
    G_hyper,
    H_frak,
    F0_series,
    _inv_poch2,
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
    order = rat(order)
    return (eta5_over_eta2(order) * f_coeff(r1, r2, order)).truncate(order)


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


def _series_diff(a, b, order):
    a = a.truncate(min(a.order, order))
    b = b.truncate(min(b.order, order))
    cutoff = min(a.order, b.order)
    exps = sorted(set(a.terms) | set(b.terms))
    for e in exps:
        if e >= cutoff:
            break
        ca, cb = a.coeff(e), b.coeff(e)
        if ca != cb:
            return (e, ca, cb)
    return None


def _bl_diff(a, b, order):
    keys = set(a.terms) | set(b.terms)
    best = None
    for key in sorted(keys):
        ca = a.terms.get(key, q_zero(a.qorder))
        cb = b.terms.get(key, q_zero(b.qorder))
        d = _series_diff(ca, cb, order)
        if d is not None:
            loc = ((key[0], key[1], d[0]), d[1], d[2])
            if best is None or loc[0][2] < best[0][2]:
                best = loc
    return best


# -- builder helpers -----------------------------------------------------------


def _theta_window(order):
    """Key support of the normalized theta at the given q-order."""
    return math.isqrt(2 * (int(order) + 1)) + 2


def _rho_double_sum(order, W):
    """sum rho_{n1,n2} q^(n1 n2) z1^n1 z2^n2, keys clipped to |ni| <= W."""
    order = rat(order)
    terms = {}
    for n1 in range(-W, W + 1):
        for n2 in range(-W, W + 1):
            w = rho(n1, n2)
            e = Rat(n1 * n2)
            if w and e >= 0 and e < order:
                terms[(rat(n1), rat(n2))] = q_monomial(w, e, order)
    return BiLaurentSeries(terms, order, Region.INNER, W)


def _partial_fraction_sum(order, W):
    """sum rho_{n1,n2} (-1)^n1 q^(n1(n1+1)/2 + n1 n2) z1^n2, |n2| <= W.

    The n1 = +-n shells have minimal exponent n(n+1)/2 over the keys
    where the rho weight survives, which bounds the enumeration.
    """
    order = rat(order)
    half = Rat(1, 2)
    terms = {}
    for n in quadratic_range(half, half, 0, order, 0):
        sign = -1 if n % 2 else 1
        for m in ((0,) if n == 0 else (n, -n)):
            for n2 in range(-W, W + 1):
                w = rho(m, n2)
                e = Rat(m * (m + 1), 2) + m * n2
                if w and 0 <= e < order:
                    key = (rat(n2), Rat(0))
                    add = q_monomial(sign * w, e, order)
                    terms[key] = terms.get(key, q_zero(order)) + add
    return BiLaurentSeries(terms, order, Region.INNER, W)


def _t2t_hyper(unit, order, variant):
    """Hypergeometric rewrites of the theta ratio denominator.

    variant "poch":  1/(u q, u^-1 q; q^2)_oo as a double sum over
    1/(q^2; q^2)_n tables; variant "quad": the same with the extra
    quadratic exponent and a single (q^2; q^2)_oo prefactor.
    """
    order = rat(order)
    d1, d2 = UNIT_KEYS[unit]
    half = order / 2
    terms = {}
    # the key u^m, |m| = a, has exponents from a/2 up; a < order
    for a in range(rat_ceil(order)):
        low = Rat(a, 2)
        if variant == "poch":
            exps = ((n2, low + n2) for n2 in range(rat_ceil(half - low)))
        else:
            n2s = quadratic_range(1, a + 1, low, half, 0)
            exps = ((n2, low + n2 * (n2 + a + 1)) for n2 in n2s)
        for n2, e in exps:
            c = _inv_poch2(n2, a + n2, half - e).shift(e)
            for m in ((a, -a) if a else (0,)):
                key = (rat(m * d1), rat(m * d2))
                terms[key] = terms.get(key, q_zero(half)) + c
    body = BiLaurentSeries(
        {k: c.scale_q(2) for k, c in terms.items()}, order, Region.INNER
    )
    # q^(1/8) (-q; q)_oo, over (q^2; q^2)_oo for "quad"
    powers = {1: -1, 2: 1} if variant == "poch" else {1: -1}
    return bl_scalar_mul(body, eta_product(powers, order - Rat(1, 8)).shift(Rat(1, 8)))


def _six_monomial_numerator(n1, n2, qorder=1):
    """The six signed unit monomials of the bracketed lattice summand."""
    out = BiLaurentSeries({}, qorder, Region.OUTER)
    for s, e1, e2 in _orbit_offsets(n1, n2, 0, 0):
        out = bl_add(out, bl_monomial(s, e1, e2, qorder, Region.OUTER))
    return out


def _weyl_denominator_poly(qorder=1):
    out = bl_monomial(1, 0, 0, qorder, Region.OUTER)
    for e1, e2 in ((-1, 0), (0, -1), (-1, -1)):
        fac = bl_add(
            bl_monomial(1, 0, 0, qorder, Region.OUTER),
            bl_monomial(-1, e1, e2, qorder, Region.OUTER),
        )
        out = bl_mul(out, fac)
    return out


def _sgn_weighted_sum(order, extra_half):
    """sum_{n1 >= 0, n2 in Z} sgn*(n2) (-1)^n1 q^(E(n)) with the shifted
    quadratic exponent E(n) = n1 (n1 + 1)/2 + n1 n2 + 2 n2^2 + 2 n2;
    extra_half adds the q^(1/2) prefactor."""
    return lattice_sum(
        (Rat(1, 2), 1, 2),
        (Rat(1, 2), 2),
        Rat(1, 2) if extra_half else 0,
        order,
        lambda n1, n2: sgn_star(n2) * (-1) ** n1,
        (0, None),
    )


def _ghyper_q2(r, order):
    """G_hyper at the index pair r with q replaced by q^2."""
    return G_hyper(tuple(r), rat(order) / 2).scale_q(2)


def _inverse_poch_pair(unit, order):
    """1/(u q^(1/2), u^-1 q^(1/2); q)_oo on one unit, INNER."""
    return unit_pochhammer(unit, Rat(1, 2), 1, order, inverse=True)


# -- identity builders ---------------------------------------------------------
# each builder returns (lhs, rhs); the engine compares every key of both,
# so a builder whose routes agree only on a key box clips both sides to it


def _build_E1(p, order):
    return (
        theta_hat(p["unit"], p["k"], order),
        theta_hat_sum(p["unit"], p["k"], order),
    )


def _build_E2(p, order):
    m, l = p["m"], p["l"]
    order = rat(order)
    Wt = _theta_window(order)
    for _ in range(3):
        Wt = _theta_window(order + m * Wt)
    B = order + m * Wt
    lhs = bl_elliptic_shift(theta_hat("z1", 1, B).clip(Wt), m, 0)
    if l % 2:
        # integer shift: zeta^n picks up (-1)^l on the half-integer support
        lhs = bl_mul_scalar_int(lhs, -1)
    sign = -1 if (m + l) % 2 else 1
    B2 = order + Rat(m * m, 2)
    pre = bl_monomial(
        q_monomial(sign, -Rat(m * m, 2), B2 + 1), -m, 0, B2 + 1, Region.INNER
    )
    rhs = bl_mul(pre, theta_hat("z1", 1, B2))
    return lhs, rhs


def _build_E3(p, order):
    order = rat(order)
    W = int(order)
    rho_sum = _rho_double_sum(order, W)
    if p["part"] == "expansion":
        # middle route: sum over n of z1^n times a geometric series in z2
        acc = BiLaurentSeries({}, order, Region.INNER, W)
        for n in range(-W, W + 1):
            g = expand_inverse_one_minus("z2", n, order, zwindow=W)
            term = bl_mul(bl_monomial(1, n, 0, order, Region.INNER), g)
            acc = bl_add(acc, term)
        return acc, rho_sum
    # product route, division-free:
    # eta^3 theta_hat(z1 z2) = rho-sum * theta_hat(z1) * theta_hat(z2)
    B = order + Rat(1, 8)
    eta_cubed = eta_product({1: 3}, B).shift(Rat(1, 8))
    lhs = bl_scalar_mul(theta_hat("z12", 1, B), eta_cubed)
    rhs = bl_mul(bl_mul(rho_sum, theta_hat("z1", 1, order)), theta_hat("z2", 1, order))
    K = W - _theta_window(order) - 1
    return lhs.clip(K), rhs.clip(K)


def _build_E4(p, order):
    order = rat(order)
    W = int(order)
    pf_sum = _partial_fraction_sum(order, W)
    if p["part"] == "expansion":
        acc = BiLaurentSeries({}, order, Region.INNER, W)
        half = Rat(1, 2)
        for n in quadratic_range(half, half, 0, order, 0):
            sign = -1 if n % 2 else 1
            for m in ((0,) if n == 0 else (n, -n)):
                base = Rat(m * (m + 1), 2)
                g = expand_inverse_one_minus("z1", m, order - base, zwindow=W)
                acc = bl_add(acc, bl_scalar_mul(g, q_monomial(sign, base, order)))
        return acc.truncate_q(order), pf_sum
    # zeta1^(-1/2) eta^3 = pf-sum * theta_hat(z1)
    B = order + Rat(1, 8)
    eta_cubed = eta_product({1: 3}, B).shift(Rat(1, 8))
    lhs = bl_monomial(eta_cubed, -Rat(1, 2), 0, B, Region.INNER)
    rhs = bl_mul(pf_sum, theta_hat("z1", 1, order))
    K = W - _theta_window(order) - 1
    return lhs.clip(K), rhs.clip(K)


def _build_E5(p, order):
    order = rat(order)
    if p["part"] == "eta":
        lhs = pochhammer(-1, 1, 1, None, order - Rat(1, 8)).shift(Rat(1, 8))
        lhs = (lhs * eta_series(1, order)).truncate(order)
        rhs = eta_series(2, order).shift(Rat(1, 12)).truncate(order)
        return lhs, rhs
    # theta_hat(u; 2tau) (u q, u^-1 q; q^2)_oo = theta_hat(u; tau) q^(1/8) (-q; q)_oo
    unit = p["unit"]
    lhs = bl_mul(theta_hat(unit, 2, order), unit_pochhammer(unit, 1, 2, order))
    scalar = pochhammer(-1, 1, 1, None, order - Rat(1, 8)).shift(Rat(1, 8))
    rhs = bl_scalar_mul(theta_hat(unit, 1, order), scalar)
    return lhs, rhs


def _build_E6(p, order):
    order = rat(order)
    if p["part"] == "f":
        return f_series(order, path="geometric"), f_series(order, path="closed")
    if p["part"] == "closed":
        u = p["unit"]
        return t2t_factor(u, order, "geometric"), t2t_factor(u, order, "closed")
    u = p["unit"]
    return t2t_factor(u, order, "geometric"), _t2t_hyper(u, order, "poch")


def _build_E6b(p, order):
    u = p["unit"]
    return t2t_factor(u, rat(order), "closed"), _t2t_hyper(u, rat(order), "quad")


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
    order = rat(order)
    sh = Rat(2, 3) * quad_Q(Rat(r[0]), Rat(r[1]))
    lam = (Rat(r[0] + r[1], 3), Rat(2 * r[1] - r[0], 3))
    lhs = G_frak(lam, 2, order + sh).shift(-sh)
    return lhs, _f_coeff_scaled(r[0], r[1], order)


def _build_E11(p, order):
    r = p["r"]
    order = rat(order)
    sh = 2 * quad_Q(Rat(r[0]), Rat(r[1]))
    rhs = _f_coeff_scaled(2 * r[0] - r[1], r[0] + r[1], order).shift(sh)
    return coeff_F(r, 2, order), rhs.truncate(order)


def _build_E12(p, order):
    r1, r2 = rat(p["r1"]), rat(p["r2"])
    order = rat(order)
    sh = Rat(2, 3) * quad_Q(r1, r2)
    lam = ((r1 + r2) / 3 - Rat(1, 2), (2 * r2 - r1) / 3 - Rat(1, 2))
    rhs = G_frak(lam, 2, order + sh).shift(-sh)
    return H_frak(r1, r2, order), rhs


def _build_E12b(p, order):
    unit = p["unit"]
    order = rat(order)
    W = int(order)
    d1, d2 = UNIT_KEYS[unit]
    t = t2t_factor(unit, order + W + Rat(1, 2), "geometric").clip(W)
    shifted = bl_elliptic_shift(t, -d1, -d2)
    pre = bl_monomial(
        q_monomial(1, -Rat(1, 4), shifted.qorder + 1),
        Rat(d1, 2),
        Rat(d2, 2),
        shifted.qorder + 1,
        Region.INNER,
    )
    rhs = bl_mul(pre, shifted)
    K = int(order) // 2 - 1
    return s01_factor(unit, order, W).clip(K), rhs.clip(K)


def _build_E13(p, order):
    return _f_coeff_scaled(0, 0, order), _sgn_weighted_sum(order, True)


def _build_E14(p, order):
    r = p["r"]
    order = rat(order)
    if p["part"] == "poch":
        # the sixfold product over the three units, read at one key
        build = order + Rat(1, 2)
        pairs = [_inverse_poch_pair(u, build) for u in ("z1", "z2", "z12")]
        lhs = product_coeff(pairs, r[0], r[1])
        return lhs.truncate(order), G_hyper(r, order)
    sh = Rat(1, 2) + Rat(2, 3) * quad_Q(Rat(r[0]), Rat(r[1]))
    lam = (Rat(r[0] + r[1], 3), Rat(2 * r[1] - r[0], 3))
    lhs = G_frak(lam, 2, order + sh)
    rhs = (eta_product({1: 2, 2: 2}, order) * _ghyper_q2(r, order)).shift(sh)
    return lhs, rhs.truncate(min(rhs.order, lhs.order))


def _build_E15(p, order):
    order = rat(order)
    if p["part"] == "base":
        lhs = _sgn_weighted_sum(order, False)
        rhs = eta_product({1: 2, 2: 2}, order) * _ghyper_q2((0, 0), order)
        return lhs, rhs
    r = p["r"]
    # eta^3 = q^(1/8) (q; q)_oo^3 and eta(2 tau)^3 = q^(1/4) (q^2; q^2)_oo^3
    eta1 = eta_product({1: 3}, order - Rat(1, 8)).shift(Rat(1, 8))
    lhs = (eta1 * f_coeff(r[0], r[1], order)).truncate(order)
    rhs = (eta_product({2: 3}, order) * _ghyper_q2(r, order)).shift(Rat(1, 2))
    return lhs, rhs.truncate(order)


def _build_E15b(p, order):
    r = p["r"]
    order = rat(order)
    sh = Rat(1, 2) + 2 * quad_Q(Rat(r[0]), Rat(r[1]))
    if sh >= order:
        # the right side vanishes below this order; the left must too
        return coeff_F(r, 2, order), q_zero(order)
    s = (2 * r[0] - r[1], r[0] + r[1])
    rhs = (eta_product({1: 2, 2: 2}, order - sh) * _ghyper_q2(s, order - sh)).shift(sh)
    return coeff_F(r, 2, order), rhs


def _build_E16(p, order):
    order = rat(order)
    terms = {
        (rat(n), Rat(0)): q_monomial((-1) ** n, n * (n + 1), order)
        for n in quadratic_range(1, 1, 0, order, 0)
    }
    rhs = BiLaurentSeries(terms, order, Region.INNER)
    acc = BiLaurentSeries({}, order, Region.INNER)
    for n in range(rat_ceil(order)):
        # w^n q^n (q; q^2)_n (w q; q^2)_n / (-w q; q)_(2n+1)
        factors = [(1, a, 2 * j + 1, 1) for j in range(n) for a in (0, 1)]
        factors += [(-1, 1, j + 1, -1) for j in range(2 * n + 1)]
        acc = bl_add(acc, _unit_product("z1", factors, order, (n, n)))
    return acc, rhs


def _build_E17(p, order):
    return F0_series(2, order, "GENERAL"), J_constant_term(order)


def _build_E18(p, order):
    order = rat(order)
    if p["part"] == "simplify":
        return F0_series(2, order, "GENERAL"), F0_series(2, order, "P2SIMPLIFIED")
    # internal antisymmetric vanishing: sum (n1+n2-1) q^(2Q(n-1/2)) = 0,
    # with 2 Q(n - 1/2) = 2 n1^2 - 2 n1 n2 + 2 n2^2 - n1 - n2 + 1/2
    lhs = lattice_sum(
        (2, -2, 2), (-1, -1), Rat(1, 2), order, lambda n1, n2: n1 + n2 - 1
    )
    return lhs, q_zero(order)


def _build_E19(p, order):
    numer = _six_monomial_numerator(p["n1"], p["n2"])
    denom = _weyl_denominator_poly()
    try:
        quot = laurent_poly_exact_divide(numer, denom)
    except ExactDivisionError as err:
        bad = bl_monomial(1, err.monomial[0], err.monomial[1], 1, Region.OUTER)
        return bad, BiLaurentSeries({}, Rat(1), Region.OUTER)
    return bl_mul(quot, denom), numer


def _build_E20(p, order):
    k = p["k"]
    order = rat(order)
    terms = {}
    # n -> -n - 2k - 1 keeps the exponent and flips the sign, so the sum
    # vanishes at every exponent, negative ones included
    for n in quadratic_range(Rat(1, 2), Rat(1, 2) + k, 0, order):
        e = Rat(n * (n + 1), 2) + k * n
        terms[e] = terms.get(e, 0) + (1 if n % 2 == 0 else -1)
    return PuiseuxSeries(terms, order), q_zero(order)


# -- registry ------------------------------------------------------------------


@dataclass
class _Identity:
    id: str
    description: str
    build: callable
    grid: list
    default_order: object


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
    "E6", "theta-ratio product: geometric, closed-sum and basic hypergeometric paths",
    _build_E6,
    [{"part": "f"}, {"part": "closed", "unit": "z1"}, {"part": "hyper", "unit": "z1"}],
    Rat(20),
))
_register(_Identity(
    "E6b", "quadratic-exponent hypergeometric variant of the ratio denominator",
    _build_E6b,
    [{"unit": "z1"}],
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
    keys = sorted(lhs.terms)
    key = keys[len(keys) // 2] if keys else (0, 0)
    exps = sorted(lhs.terms[key].terms) if key in lhs.terms else []
    e = exps[len(exps) // 2] if exps else Rat(0)
    bump = bl_monomial(q_monomial(1, e, lhs.qorder), key[0], key[1],
                       lhs.qorder, lhs.region)
    return bl_add(lhs, bump), (key[0], key[1], e)


def verify_identity(ident_id, params=None, order=None, corrupt=False):
    """Build both sides of one registered identity and compare them.

    With params=None the entry's whole parameter grid is checked and the
    reports are folded into one (first discrepancy wins).  corrupt=True
    perturbs one mid-support coefficient of the left side; the report
    then carries the perturbed location as its discrepancy (engine
    self-test support).  Raises ValueError for an order <= 0.
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
    for point in grid:
        lhs, rhs = ident.build(point, order)
        injected = None
        if corrupt:
            lhs, injected = _corrupt(lhs)
        if isinstance(lhs, PuiseuxSeries):
            d = _series_diff(lhs, rhs, order)
        else:
            cmp_order = min(order, lhs.qorder, rhs.qorder)
            d = _bl_diff(lhs, rhs, cmp_order)
        if d is not None:
            if corrupt:
                found = d[0] if isinstance(lhs, PuiseuxSeries) else tuple(d[0])
                want = injected if isinstance(lhs, PuiseuxSeries) else tuple(injected)
                if found != want:
                    raise AssertionError(
                        f"corruption at {want} reported at {found}"
                    )
            verdict = "unequal"
            disc = d
            shown = point
            break
        if corrupt:
            # a corrupted side must be flagged; reaching here is a bug
            raise AssertionError("corrupted comparison reported equal")
    ms = int((time.monotonic() - t0) * 1000)
    return IdentityReport(
        ident_id, shown if disc is not None else (params or {}),
        order, verdict, disc, ms
    )


def run_suite(pattern="*", order_overrides=None, jobs=1):
    """Verify every identity whose id matches the filter.

    The filter is a shell-style pattern, with "|" separating
    alternatives; a pattern that matches no id raises ValueError.
    Reports come back sorted by id regardless of execution order.  jobs
    is the number of worker processes; with jobs > 1 the identities run
    in parallel in spawned workers, each with its own builder caches, so
    a script that calls this needs the usual `if __name__ == "__main__"`
    guard.  With jobs = 1 they run one after another in this process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
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
            reports = list(pool.map(_verify_at, ids, orders))
    else:
        reports = [_verify_at(i, o) for i, o in zip(ids, orders)]
    return sorted(reports, key=lambda r: r.id)


def _verify_at(ident_id, order):
    return verify_identity(ident_id, order=order)
