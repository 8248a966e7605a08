"""Builders for the classical two-variable objects.

All theta-type series are produced in the rational normalization

    theta_hat(z; tau) = q^(1/8) zeta^(-1/2) (zeta, zeta^-1 q, q; q)_oo,

i.e. i times the odd Jacobi theta function, so that every coefficient in
the formal layer stays rational.  Ratios of three thetas over three
thetas are insensitive to the normalization; identities registered
downstream are stated in this normalized form.

Ratios theta(z; 2tau)/theta(z; tau) are never formed by dividing two
theta expansions; they are always assembled from the closed product form

    q^(1/8) (-q; q)_oo / (zeta q, zeta^-1 q; q^2)_oo

in the INNER annulus, either from the explicit double-sum rewrite of
its denominator (the default, and much the faster) or expanded factor
by factor; identities E6 and E12b cross-check the two paths.

Every two-sided product over an arithmetic progression of q-powers,
prod_e (1 - u q^e)(1 - u^-1 q^e) or its geometric inverse, is built by
`unit_pochhammer`; every sum of q^(quadratic in n) is enumerated exactly
by `series.quadratic_range` or `series.lattice_points`.  Builders build
whole objects: only theta_A2, calT, s01_factor and J_series take a key
window, because it bounds what they build; callers clip the others.
"""

from functools import lru_cache

from .rat import Rat, rat, rat_ceil, _positive_order
from .series import (
    PuiseuxSeries,
    pochhammer,
    eta_series,
    quadratic_range,
    lattice_points,
    monomial as q_monomial,
    one as q_one,
)
from .bilaurent import (
    BiLaurentSeries,
    Region,
    UNIT_KEYS,
    bl_monomial,
    bl_mul,
    bl_scalar_mul,
    expand_inverse_one_minus,
    product_coeff,
)

__all__ = [
    "unit_pochhammer",
    "theta_hat",
    "theta_hat_sum",
    "theta01",
    "theta_A2",
    "calT",
    "t2t_factor",
    "s01_factor",
    "f_series",
    "f_coeff",
    "J_series",
    "J_constant_term",
    "kw_character_N3",
    "eta5_over_eta2",
    "eta1_over_eta2",
]


def _unit_dirs(unit):
    if unit not in UNIT_KEYS:
        raise ValueError(f"unknown unit {unit!r}")
    return UNIT_KEYS[unit]


def _unit_poly(unit, qexp, qorder):
    """The two-term factor 1 - u q^qexp as a BiLaurentSeries."""
    d1, d2 = _unit_dirs(unit)
    terms = {
        (Rat(0), Rat(0)): q_monomial(1, 0, qorder),
        (rat(d1), rat(d2)): q_monomial(-1, qexp, qorder),
    }
    return BiLaurentSeries(terms, qorder, Region.INNER)


def unit_pochhammer(unit, start, step, qorder, inverse=False):
    """prod over e = start + j*step < qorder of F(u q^e) F(u^-1 q^e), INNER.

    F(x) = 1 - x, or with inverse=True its INNER geometric expansion
    1/(1 - x), which needs start > 0.  Each pair (1 - u q^e)(1 - u^-1 q^e)
    enters the running product as one three-key factor; the geometric
    series enter one at a time.  The empty product is 1.
    """
    start, step, qorder = rat(start), rat(step), _positive_order(qorder)
    if step <= 0:
        raise ValueError("step must be positive")
    d1, d2 = _unit_dirs(unit)
    out = BiLaurentSeries({(Rat(0), Rat(0)): q_one(qorder)}, qorder, Region.INNER)
    e = start
    while e < qorder:
        if inverse:
            for flip in (False, True):
                out = bl_mul(
                    out, expand_inverse_one_minus(unit, e, qorder, invert_unit=flip)
                )
        else:
            side = q_monomial(-1, e, qorder)
            fac = {
                (Rat(0), Rat(0)): q_one(qorder) + q_monomial(1, 2 * e, qorder),
                (rat(d1), rat(d2)): side,
                (rat(-d1), rat(-d2)): side,
            }
            out = bl_mul(out, BiLaurentSeries(fac, qorder, Region.INNER))
        e += step
    return out


@lru_cache(maxsize=None)
def theta_hat(unit, k, qorder):
    """Product-form theta_hat(u; k*tau), keys along the selected unit.

    Exponents of the unit lie in 1/2 + Z; the coefficient of u^m is the
    single signed monomial (-1)^(m+1/2) q^(k m^2 / 2).
    """
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    d1, d2 = _unit_dirs(unit)
    # q^(k/8) u^(-1/2) (1 - u) (u q^k, u^-1 q^k; q^k)_oo (q^k; q^k)_oo
    build = qorder - Rat(k, 8)
    if build <= 0:
        # every term carries q^(k/8) or more
        return BiLaurentSeries({}, qorder, Region.INNER)
    out = bl_mul(_unit_poly(unit, 0, build), unit_pochhammer(unit, k, k, build))
    out = bl_scalar_mul(out, pochhammer(1, k, k, None, build))
    pre = bl_monomial(
        q_monomial(1, Rat(k, 8), qorder), -Rat(d1, 2), -Rat(d2, 2), qorder, Region.INNER
    )
    return bl_mul(pre, out)


def theta_hat_sum(unit, k, qorder):
    """Half-integer indexed sum form of theta_hat; oracle for the product.

    The key u^n, n = j + 1/2, carries (-1)^(j+1) q^(k n^2 / 2).
    """
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    d1, d2 = _unit_dirs(unit)
    terms = {}
    for j in quadratic_range(Rat(k, 2), Rat(k, 2), Rat(k, 8), qorder):
        n = j + Rat(1, 2)
        sign = -1 if j % 2 == 0 else 1
        terms[(n * d1, n * d2)] = q_monomial(sign, Rat(k) * n * n / 2, qorder)
    return BiLaurentSeries(terms, qorder, Region.INNER)


def theta01(unit, k, qorder):
    """(q^k, u q^(k/2), u^-1 q^(k/2); q^k)_oo with integer unit exponents."""
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    out = unit_pochhammer(unit, Rat(k, 2), k, qorder)
    return bl_scalar_mul(out, pochhammer(1, k, k, None, qorder))


def theta_A2(qorder, zwindow):
    """A2 lattice theta: coefficient q^(Q(n)) on the key (n1, n2),
    |n1|, |n2| <= zwindow, with Q(n) = n1^2 - n1 n2 + n2^2."""
    qorder = _positive_order(qorder)
    if zwindow is None:
        raise ValueError("a finite window is required")
    terms = {
        (rat(n1), rat(n2)): q_monomial(1, e, qorder)
        for n1, n2, e in lattice_points((1, -1, 1), (0, 0), 0, qorder)
        if abs(n1) <= zwindow and abs(n2) <= zwindow
    }
    return BiLaurentSeries(terms, qorder, Region.INNER, zwindow)


@lru_cache(maxsize=None)
def calT(qorder, zwindow):
    """Dilated A2 theta: q^(2Q(n)) on the key (n1+n2, 2n1-n2), keys within
    the window.

    The key map is injective and its image satisfies e1 + e2 = 0 mod 3.
    """
    qorder = _positive_order(qorder)
    if zwindow is None:
        raise ValueError("a finite window is required")
    terms = {
        (rat(n1 + n2), rat(2 * n1 - n2)): q_monomial(1, e, qorder)
        for n1, n2, e in lattice_points((2, -2, 2), (0, 0), 0, qorder)
        if abs(n1 + n2) <= zwindow and abs(2 * n1 - n2) <= zwindow
    }
    return BiLaurentSeries(terms, qorder, Region.INNER, zwindow)


@lru_cache(maxsize=None)
def t2t_factor(unit, qorder, path="closed"):
    """INNER expansion of theta(z; 2 tau) / theta(z; tau) on one unit.

    closed:    q^(1/8) (-q; q)_oo times the explicit double-sum rewrite
    of 1 / (u q, u^-1 q; q^2)_oo.
    geometric: the same prefactor expanded against every inverse factor
    of (u q, u^-1 q; q^2)_oo one geometric series at a time; slower, and
    kept as the independent check of the closed path.
    """
    qorder = _positive_order(qorder)
    scalar = pochhammer(-1, 1, 1, None, qorder - Rat(1, 8)).shift(Rat(1, 8))
    if path == "geometric":
        return bl_scalar_mul(unit_pochhammer(unit, 1, 2, qorder, inverse=True), scalar)
    if path == "closed":
        d1, d2 = _unit_dirs(unit)
        inv2 = pochhammer(1, 2, 2, None, qorder).invert()
        pre = (scalar * inv2 * inv2).truncate(qorder)
        terms = {}
        # the key u^m, |m| = a < qorder, is sum_{k>=0} (-1)^k q^(k^2 + (2a+1)k + a)
        for a in range(rat_ceil(qorder)):
            ks = quadratic_range(1, 2 * a + 1, a, qorder, 0)
            body = PuiseuxSeries(
                {k * k + (2 * a + 1) * k + a: (-1) ** k for k in ks}, qorder
            )
            for m in ((a, -a) if a else (0,)):
                terms[(rat(m * d1), rat(m * d2))] = body
        return bl_scalar_mul(BiLaurentSeries(terms, qorder, Region.INNER), pre)
    raise ValueError(f"unknown path {path!r}")


@lru_cache(maxsize=None)
def s01_factor(unit, qorder, zwindow):
    """INNER expansion of the rational part of theta01(z; 2tau)/theta(z; tau):

        u^(1/2) q^(-1/8) (-q; q)_oo / ((u; q^2)_oo (u^-1 q^2; q^2)_oo).

    The j = 0 inverse factor 1/(1 - u) forces a finite window; the
    coefficient of u^e is then complete up to q-order 2(W + 1 - e).
    """
    qorder = _positive_order(qorder)
    if zwindow is None:
        raise ValueError("a finite window is required")
    d1, d2 = _unit_dirs(unit)
    build = qorder + Rat(1, 8)
    scalar = pochhammer(-1, 1, 1, None, build)
    out = bl_monomial(scalar, Rat(d1, 2), Rat(d2, 2), build, Region.INNER)
    out = bl_mul(out, expand_inverse_one_minus(unit, 0, build, zwindow=zwindow))
    out = bl_mul(out, unit_pochhammer(unit, 2, 2, build, inverse=True))
    # exact monomial shift by q^(-1/8) applied last to keep the full order
    return bl_scalar_mul(out, q_monomial(1, -Rat(1, 8), build + 1))


def _f_factors(qorder, path):
    return [t2t_factor(unit, qorder, path) for unit in ("z1", "z2", "z12")]


@lru_cache(maxsize=None)
def f_series(qorder, path="closed"):
    """The meromorphic Jacobi form ratio, INNER region.

    Product over the three units z1, z2, z1*z2 of the t2t factor; the
    (0, 0) coefficient has valuation 3/8 with leading coefficient 1.
    """
    a, b, c = _f_factors(qorder, path)
    return bl_mul(bl_mul(a, b), c)


def f_coeff(r1, r2, qorder):
    """f_series(qorder).coeff(r1, r2), read without building f."""
    return product_coeff(_f_factors(qorder, "closed"), r1, r2)


@lru_cache(maxsize=None)
def eta5_over_eta2(order):
    """eta(tau)^5 / eta(2 tau) as a one-variable series (valuation 1/8)."""
    order = _positive_order(order)
    pad = order + Rat(1, 2)
    e1 = eta_series(1, pad)
    e2 = eta_series(2, pad)
    return (e1 * e1 * e1 * e1 * e1 * e2.invert()).truncate(order)


def eta1_over_eta2(order):
    """eta(tau) / eta(2 tau) (valuation -1/24)."""
    order = _positive_order(order)
    pad = order + Rat(1, 2)
    return (eta_series(1, pad) * eta_series(2, pad).invert()).truncate(order)


def J_series(qorder, zwindow):
    """eta^5/eta(2tau) * calT * f: an index-zero combination."""
    qorder = _positive_order(qorder)
    body = bl_mul(calT(qorder, zwindow + 2), f_series(qorder))
    out = bl_scalar_mul(body, eta5_over_eta2(qorder))
    return out.clip(zwindow).truncate_q(qorder)


def J_constant_term(qorder, zwindow):
    """J_series(qorder, zwindow).coeff(0, 0), read without building J.

    The (0, 0) coefficient of calT * f is sum_k calT_k f_(-k) over the
    keys of the same calT(qorder, zwindow + 2) that J_series uses.
    """
    qorder = _positive_order(qorder)
    factors = [calT(qorder, zwindow + 2), *_f_factors(qorder, "closed")]
    body = product_coeff(factors, 0, 0)
    return (eta5_over_eta2(qorder) * body).truncate(qorder)


def kw_character_N3(qorder):
    """The N = 3 boundary-level character: (eta/eta(2tau)) * f."""
    qorder = _positive_order(qorder)
    quot = eta1_over_eta2(qorder + Rat(1, 2))
    return bl_scalar_mul(f_series(qorder + Rat(1, 2)), quot).truncate_q(qorder)
