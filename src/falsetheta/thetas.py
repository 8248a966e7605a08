"""Builders for the classical two-variable objects.

All theta-type series are produced in the rational normalization

    theta_hat(z; tau) = q^(1/8) zeta^(-1/2) (zeta, zeta^-1 q, q; q)_oo,

i.e. i times the odd Jacobi theta function, so that every coefficient in
the formal layer stays rational.  Ratios of three thetas over three
thetas are insensitive to the normalization; identities registered
downstream are stated in this normalized form.

Ratios theta(z; 2tau)/theta(z; tau) are never formed by dividing two
theta expansions; t2t_factor expands the closed product form

    q^(1/8) (-q; q)_oo / (zeta q, zeta^-1 q; q^2)_oo

in the INNER annulus factor by factor.  Its closed double-sum and
hypergeometric rewrites are the other sides of identities E6 and E6b
(`identities._t2t_sum`).  The product is also the faster route through
q^20: one build of the z1 factor, best of 5 on a 2-vCPU Xeon under
CPython 3.11.7, took 0.25 ms against the double sum's 0.62 ms at
q^(15/2), 1.1 against 1.6 ms at q^20, and 2.7 against 2.5 ms at q^30.

Every one-unit builder returns a series in u = z1 alone, which
`bilaurent.bl_on_unit` moves onto z2 or z1 z2, so a table is built once
however many units read it.  Every product of binomials (1 - sign u^a
q^e)^(+-1), such as theta_hat, theta01, unit_pochhammer, t2t_factor and
s01_factor, is one call of the integer kernel `series._binomial_table`,
whose row m becomes the key u^m (`_unit_product`); continued, it sums a
term ratio that is such a product (E16).  Every sum of q^(quadratic in
n) is enumerated exactly by `series.quadratic_range` or
`series.lattice_points`.  Builders build whole objects, and callers clip
them: only s01_factor takes a key window, because its factor 1/(1 - u)
has no finite key support; it applies that factor as a running sum of
the kernel's rows.

f is a product over the three positive roots of A2 (the units z1, z2,
z1 z2) of one factor g = t2t_factor that is even in its unit, so its
coefficients are fixed by the 12-element group W(A2) x {+-1} acting on
the keys (e1, e2), as is calT; _weyl_orbit reads W(A2) off bilaurent._WEYL.
f_series and J_series pass that group's orbits (and _swap_orbit's) to
bl_mul, which then convolves one key per orbit; f_coeff reads
product_coeff(g, g, g), and J_constant_term sums calT_k times that read
at -k over one key k per orbit.  J and the N = 3 character scale by
eta(tau)^5/eta(2 tau) and eta(tau)/eta(2 tau), each one
`series.eta_quotient`, which carries its own q-power.
"""

from functools import lru_cache
from operator import add

from .rat import Rat, rat, rat_ceil, rat_floor, _positive_order
from .series import (
    eta_quotient,
    quadratic_range,
    lattice_points,
    monomial as q_monomial,
    _binomial_table,
    _int_row,
)
from .bilaurent import (
    bl_mul,
    bl_on_unit,
    bl_scalar_mul,
    product_coeff,
    _from_rows,
    _WEYL,
)

__all__ = [
    "unit_pochhammer",
    "theta_hat",
    "theta_hat_sum",
    "theta01",
    "calT",
    "t2t_factor",
    "s01_factor",
    "f_series",
    "f_coeff",
    "J_series",
    "J_constant_term",
    "kw_character_N3",
]


def _two_sided(start, step, qorder, power=1):
    """(1 - u q^e)^power (1 - u^-1 q^e)^power, e = start + j*step < qorder."""
    count = max(0, rat_ceil((qorder - start) / step))
    return [(1, s, start + j * step, power) for j in range(count) for s in (1, -1)]


def _unit_product(factors, qorder, lead=(0, 0)):
    """u^l q^v prod (1 - sign u^a q^e)^power over factors, (l, v) = lead, INNER,
    u = z1: the key u^(m + l) carries row m of series._binomial_table."""
    l, v = lead[0], rat(lead[1])  # l an int or a Rat
    d, table = _binomial_table(factors, qorder - v)
    rows = {(m * l.denominator + l.numerator, 0): _int_row(row, v, d, qorder)
            for m, row in table.items()}  # the key m + l over l's denominator
    return _from_rows(l.denominator, rows, qorder)


def unit_pochhammer(start, step, qorder, inverse=False):
    """prod over e = start + j*step < qorder of F(u q^e) F(u^-1 q^e), INNER.

    F(x) = 1 - x, or with inverse=True its INNER geometric expansion
    1/(1 - x), which needs start > 0.  The empty product is 1.
    """
    start, step, qorder = rat(start), rat(step), _positive_order(qorder)
    if step <= 0:
        raise ValueError("step must be positive")
    power = -1 if inverse else 1
    return _unit_product(_two_sided(start, step, qorder, power), qorder)


def theta_hat(k, qorder):
    """Product-form theta_hat(u; k*tau), u = z1.

    Exponents of the unit lie in 1/2 + Z; the coefficient of u^m is the
    single signed monomial (-1)^(m+1/2) q^(k m^2 / 2).
    """
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    # q^(k/8) u^(-1/2) (1 - u) (u q^k, u^-1 q^k; q^k)_oo (q^k; q^k)_oo
    factors = [*((1, 0, e, 1) for e in range(k, rat_ceil(qorder), k)),
               (1, 1, 0, 1), *_two_sided(k, k, qorder)]
    return _unit_product(factors, qorder, (-Rat(1, 2), Rat(k, 8)))


def theta_hat_sum(k, qorder):
    """Half-integer indexed sum form of theta_hat; oracle for the product.

    The key u^n, n = j + 1/2, carries (-1)^(j+1) q^(k n^2 / 2).
    """
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    rows = {}
    for j in quadratic_range(Rat(k, 2), Rat(k, 2), Rat(k, 8), qorder):
        h = 2 * j + 1  # twice n
        sign = -1 if j % 2 == 0 else 1
        rows[(h, 0)] = q_monomial(sign, Rat(k * h * h, 8), qorder)
    return _from_rows(2, rows, qorder)


def theta01(k, qorder):
    """(q^k, u q^(k/2), u^-1 q^(k/2); q^k)_oo, u = z1, integer exponents of u."""
    if k not in (1, 2):
        raise ValueError("scale k must be 1 or 2")
    qorder = _positive_order(qorder)
    factors = [*((1, 0, e, 1) for e in range(k, rat_ceil(qorder), k)),
               *_two_sided(Rat(k, 2), k, qorder)]
    return _unit_product(factors, qorder)


def calT(qorder):
    """Dilated A2 theta: q^(2Q(n)) on the key (n1+n2, 2n1-n2), with the
    positive definite Q(n) = n1^2 - n1 n2 + n2^2.

    The key map is injective and its image satisfies e1 + e2 = 0 mod 3.
    """
    qorder = _positive_order(qorder)
    rows = {
        (n1 + n2, 2 * n1 - n2): q_monomial(1, e, qorder)
        for n1, n2, e in lattice_points((2, -2, 2), (0, 0), 0, qorder)
    }
    return _from_rows(1, rows, qorder)


@lru_cache(maxsize=None)
def t2t_factor(qorder):
    """INNER expansion of theta(z; 2 tau) / theta(z; tau), u = z1: the
    product q^(1/8) (-q; q)_oo / (u q, u^-1 q; q^2)_oo, every factor of
    (-q; q)_oo and every inverse factor of the denominator in turn.
    """
    qorder = _positive_order(qorder)
    factors = [*((-1, 0, e, 1) for e in range(1, rat_ceil(qorder))),
               *_two_sided(1, 2, qorder, -1)]
    return _unit_product(factors, qorder, (0, Rat(1, 8)))


def s01_factor(qorder, zwindow):
    """INNER expansion of the rational part of theta01(z; 2tau)/theta(z; tau):

        u^(1/2) q^(-1/8) (-q; q)_oo / ((u; q^2)_oo (u^-1 q^2; q^2)_oo),

    u = z1, on the keys |e| <= W = zwindow, each exact below qorder.  Its j = 0
    factor 1/(1 - u) = sum_k u^k enters last, as a running sum of the
    other factors' rows along u: the key u^(m + 1/2) sums the rows to m.
    """
    qorder = _positive_order(qorder)
    if zwindow is None:
        raise ValueError("a finite window is required")
    build = qorder + Rat(1, 8)
    factors = [
        *((-1, 0, e, 1) for e in range(1, rat_ceil(build))),
        *_two_sided(2, 2, build, -1),
    ]
    d, table = _binomial_table(factors, build)
    acc, rows = [0] * len(table[0]), {}
    for m in range(min(table), rat_floor(zwindow - Rat(1, 2)) + 1):
        if m in table:
            acc = list(map(add, acc, table[m]))
        rows[(2 * m + 1, 0)] = _int_row(acc, Rat(-1, 8), d, qorder)  # twice m + 1/2
    return _from_rows(2, rows, qorder, zwindow)


def _swap_orbit(key):
    """The orbit of a key under {1, -w0} x {+-1}, w0 the longest element
    of W(A2): a symmetry of g(z1) g(z2) for any g even in its unit."""
    e1, e2 = key
    return (e1, e2), (e2, e1), (-e1, -e2), (-e2, -e1)


def _weyl_orbit(key):
    """The orbit {w k} u {-w k}, w in bilaurent._WEYL, of a key k under
    W(A2) x {+-1}: a symmetry of g(z1) g(z2) g(z1 z2) for g even in its
    unit, and of calT."""
    e1, e2 = key
    six = [(a * e1 + b * e2, c * e1 + d * e2) for _, ((a, b), (c, d)) in _WEYL]
    return six + [(-x, -y) for x, y in six]


def f_series(qorder):
    """The meromorphic Jacobi form ratio, expanded in |q| < |z1|, |z2|, |z1 z2| < 1.

    Product over the three units z1, z2, z1*z2 of the t2t factor; the
    (0, 0) coefficient has valuation 3/8 with leading coefficient 1.
    Each factor is even in its unit, so the product of the first two is
    symmetric under _swap_orbit and the whole under _weyl_orbit, and
    bl_mul convolves one key of each orbit.
    """
    g = t2t_factor(qorder)
    a, b, c = (bl_on_unit(g, u) for u in ("z1", "z2", "z12"))
    return bl_mul(bl_mul(a, b, orbit=_swap_orbit), c, orbit=_weyl_orbit)


def f_coeff(r1, r2, qorder):
    """f_series(qorder).coeff(r1, r2), read without building f."""
    g = t2t_factor(qorder)
    return product_coeff(g, g, g, r1, r2)


def J_series(qorder):
    """eta^5/eta(2tau) * calT * f: an index-zero combination, whole (calT
    has finite key support); callers clip it.  calT and f are both
    symmetric under _weyl_orbit, so their product is convolved one key
    per orbit, and the keys of an orbit share one row to the end."""
    qorder = _positive_order(qorder)
    body = bl_mul(calT(qorder), f_series(qorder), orbit=_weyl_orbit)
    return bl_scalar_mul(body, eta_quotient({1: 5, 2: -1}, qorder)).truncate_q(qorder)


def J_constant_term(qorder):
    """J_series(qorder).coeff(0, 0), read without building J.

    The (0, 0) coefficient of calT * f is sum_k calT_k f_(-k); both are
    symmetric under _weyl_orbit, so it sums |orbit| calT_k f_coeff(-k)
    over one key k of each orbit of calT's keys."""
    qorder = _positive_order(qorder)
    t, g = calT(qorder), t2t_factor(qorder)  # calT: int keys, over kd = 1
    reps = {frozenset(_weyl_orbit(k)): k for k in t.rows}  # one key per orbit
    body = sum(t.rows[k] * product_coeff(g, g, g, -k[0], -k[1]) * len(o)
               for o, k in reps.items())
    return (eta_quotient({1: 5, 2: -1}, qorder) * body).truncate(qorder)


def kw_character_N3(qorder):
    """The N = 3 boundary-level character: (eta/eta(2tau)) * f.

    eta/eta(2tau) has valuation -1/24, so both factors are built 1/24
    deeper."""
    qorder = _positive_order(qorder)
    build = qorder + Rat(1, 24)
    return bl_scalar_mul(f_series(build), eta_quotient({1: 1, 2: -1}, build)).truncate_q(qorder)
