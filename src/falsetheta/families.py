"""Rank-two false theta families and their hypergeometric companions.

All builders return one-variable PuiseuxSeries over exact rationals.
Every sum of q^(quadratic in n) is enumerated exactly by the series
layer: the two-variable lattice sums by `series.lattice_sum`, the
rank-one sums by `series.quadratic_range`.  No box is guessed; exactly
the indices with exponent below the truncation order are visited.  The
hypergeometric inner sums A_m are each one list of ints, built term by
term from their term ratio by `_A_table` on `series._divide`, once per
G_hyper call into one table in z1 that `product_coeff` reads.

W(A2) is one table, `bilaurent._WEYL`, of six signed matrices w.  With
rho = (1, 1) and C the Cartan matrix, coeff_F's orbit offsets are
w(n) - rho - r, F_constant_term's Weyl-denominator terms rho - w rho,
and G_frak's bracket gradients C (rho - w rho).
"""

from itertools import count
from operator import add

from .rat import Rat, rat, rat_ceil, rat_floor, _positive_order
from .series import (
    PuiseuxSeries,
    zero as q_zero,
    eta_quotient,
    quadratic_range,
    lattice_sum,
    _divide,
    _int_row,
    _zeros,
)
from .bilaurent import product_coeff, _from_rows, _WEYL
from .thetas import t2t_factor, s01_factor

__all__ = [
    "sgn_star",
    "rho",
    "quad_Q",
    "G_frak",
    "G_frak_rewrite_p2",
    "G_frak_closed_p2",
    "coeff_F",
    "F_constant_term",
    "G_hyper",
    "H_frak",
    "F0_series",
    "rank_one_coeff",
    "rogers_false_theta",
]


def sgn_star(n):
    """Sign with sgn_star(0) = 1."""
    return 1 if n >= 0 else -1


def rho(a, b):
    """(sgn_star(a) + sgn_star(b)) / 2, the int -1, 0 or 1."""
    return (sgn_star(a) + sgn_star(b)) // 2


def quad_Q(x, y):
    """The A2 quadratic form x^2 + y^2 - x y."""
    return x * x + y * y - x * y


def _pQ(p, s1, s2):
    """(form, linear, const) of the exponent p Q(n + s) for lattice_sum."""
    return (p, -p, p), (p * (2 * s1 - s2), p * (2 * s2 - s1)), p * quad_Q(s1, s2)


def _check_p(p):
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")


def _check_r(r):
    r1, r2 = r
    if not (isinstance(r1, int) and isinstance(r2, int)):
        raise ValueError("r must be a pair of integers")
    return r1, r2


def _check_lambda(lam, p, order):
    l1, l2 = rat(lam[0]), rat(lam[1])
    _check_p(p)
    return l1, l2, _positive_order(order)


def G_frak(lam, p, order):
    """Weighted positive-cone lattice sum with the six-term bracket.

    sum over n in Z_{>=1}^2 of min(n1, n2) q^(p Q(n + lam - 1/p)) times
    the alternating bracket of q-powers linear in n + lam.
    """
    l1, l2, order = _check_lambda(lam, p, order)
    form, (b1, b2), const = _pQ(p, l1 - Rat(1, p), l2 - Rat(1, p))
    out = q_zero(order)
    # the bracket: sign w q^(g . (n + lam)) for each w of bilaurent._WEYL,
    # with the gradient g = C (rho - w rho), C the Cartan matrix
    for sign, ((a, b), (c, d)) in _WEYL:
        o1, o2 = 1 - a - b, 1 - c - d  # rho - w rho, rho = (1, 1)
        g1, g2 = 2 * o1 - o2, 2 * o2 - o1
        out = out + lattice_sum(
            form,
            (b1 + g1, b2 + g2),
            const + g1 * l1 + g2 * l2,
            order,
            lambda n1, n2: sign * min(n1, n2),
            (1, 1),
        )
    return out


def G_frak_rewrite_p2(lam, order):
    """p = 2 rewrite as three signed shifted A2 partial thetas."""
    l1, l2, order = _check_lambda(lam, 2, order)
    half = Rat(1, 2)

    def part(s1, s2, weight):
        return lattice_sum(*_pQ(2, s1, s2), order, weight, (0, 0))

    return (
        part(l1 + half, l2 + half, lambda n1, n2: 1)
        - part(l1 + half, l2, lambda n1, n2: int(n2 > n1))
        - part(l1, l2 + half, lambda n1, n2: int(n1 > n2))
    )


def G_frak_closed_p2(r, order):
    """p = 2 half-plane closed form indexed by an integer pair r.

    sum over n1 >= 0, n2 in Z of rho(n2, n2 + r2) (-1)^n1
    q^(E(n1, n2)) with E the shifted quadratic exponent.
    """
    r1, r2 = _check_r(r)
    return lattice_sum(
        (Rat(1, 2), 1, 2),
        (r1 + Rat(1, 2), 2 * r2 + 2),
        r2 + Rat(1, 2),
        _positive_order(order),
        lambda n1, n2: rho(n2, n2 + r2) * (-1) ** n1,
        (0, None),
    )


# per-summand integer offsets (l1, l2) = w(n) - rho - r of the Weyl-orbit
# expansion of the Fourier coefficient, one for each w of bilaurent._WEYL
# with its sign; a summand contributes min(l1+1, l2+1) when both are >= 0
def _orbit_offsets(n1, n2, r1, r2):
    return [(sign, a * n1 + b * n2 - 1 - r1, c * n1 + d * n2 - 1 - r2)
            for sign, ((a, b), (c, d)) in _WEYL]


def coeff_F(r, p, order):
    """Fourier coefficient family attached to the index pair r.

    Enumerates the full lattice with exponent p Q(n - 1/p) and weights
    each point by the six signed Weyl-orbit contributions.
    """
    r1, r2 = _check_r(r)
    _check_p(p)

    def weight(n1, n2):
        w = 0
        for sign, l1, l2 in _orbit_offsets(n1, n2, r1, r2):
            if l1 >= 0 and l2 >= 0:
                w += sign * min(l1 + 1, l2 + 1)
        return w

    return lattice_sum(*_pQ(p, -Rat(1, p), -Rat(1, p)), _positive_order(order), weight)


def F_constant_term(p, order):
    """The (0, 0) Fourier coefficient as a congruence-restricted sum.

    sum over n1, n2 >= 1 with n1 = n2 mod 3 of min(n1, n2) times
    q^((p/3) Q*(n) - n1 - n2 + 1/p) (1 - q^n1)(1 - q^n2)(1 - q^(n1+n2)).
    """
    _check_p(p)
    order = _positive_order(order)
    out = q_zero(order)
    # (1-x)(1-y)(1-xy) = sum sign w x^o1 y^o2 over w of bilaurent._WEYL,
    # (o1, o2) = rho - w rho: the Weyl denominator identity.  Each summand's
    # extra power of q is linear in n, so it joins `linear`
    for sign, ((a, b), (c, d)) in _WEYL:
        out = out + lattice_sum(
            (Rat(p, 3), Rat(p, 3), Rat(p, 3)),
            (-a - b, -c - d),  # rho - w rho - (1, 1)
            Rat(1, p),
            order,
            lambda n1, n2: 0 if (n1 - n2) % 3 else sign * min(n1, n2),
            (1, 1),
        )
    return out


def _A_table(m, order, quad=0):
    """sum_{n >= 0} q^(n + quad n (n + m)) / ((q; q)_n (q; q)_{n+m}) below order.

    One list of ints, by the term ratio: from 1/(q; q)_m, each term is the
    last one shifted by 1 + quad (2n - 1 + m) and divided in place by
    (1 - q^n)(1 - q^(n + m)) by series._divide, until its valuation
    n + quad n (n + m) reaches the order.
    """
    order = _positive_order(order)
    top = rat_ceil(order)
    total = _zeros(top)
    term = [1] + [0] * (top - 1)  # term[i] is the coefficient of q^(v + i)
    v, ks = 0, range(1, m + 1)  # the divisors of the term of n = 0
    for n in count(1):
        for k in ks:
            _divide(term, k)
        total[v:] = map(add, total[v:], term)
        v += 1 + quad * (2 * n - 1 + m)
        if v >= top:
            break
        del term[top - v:]
        ks = (n, n + m)
    return _int_row(total, 0, 1, order)


def _hyper_factor(order):
    """h(u) = sum_m q^(|m|/2) A_|m| u^m, a series in z1 below order: one
    _A_table row per |m| < 2 order, shared by u^m and u^-m.  It is the
    inverse pair 1/((u q^(1/2), u^-1 q^(1/2); q)_oo)."""
    rows = {}
    for m in range(rat_ceil(2 * order)):
        rows[(m, 0)] = rows[(-m, 0)] = _A_table(m, order - Rat(m, 2)).shift(Rat(m, 2))
    return _from_rows(1, rows, order)


def G_hyper(r, order, *, _table=None):
    """Triple q-hypergeometric sum attached to an integer index pair r.

    sum over n4 in Z and n1, n2, n3 >= 0 of
    q^(n1 + n2 + n3 + (|n4 - r1| + |n4 - r2| + |n4|)/2) /
    ((q)_{n1} (q)_{n1 + |n4 - r1|} (q)_{n2} (q)_{n2 + |n4 - r2|}
     (q)_{n3} (q)_{n3 + |n4|}),
    the (r1, r2) coefficient of h(z1) h(z2) h(z1 z2), h = _hyper_factor.
    A caller that reads several coefficients passes one _hyper_factor,
    built at this order or deeper, as _table; it is read truncated to the
    order, which gives the table built at the order itself.
    """
    r1, r2 = _check_r(r)
    order = _positive_order(order)
    h = _hyper_factor(order) if _table is None else _table.truncate_q(order)
    return product_coeff(h, h, h, r1, r2)


def H_frak(r1, r2, order):
    """Half-shifted Fourier coefficient of the mixed theta-ratio kernel.

    r1 lies in 1/2 + Z, r2 in Z.  Read off t(z1) s(z2) s(z1 z2), t the full-
    and s the half-period theta ratio, one s01_factor table, scaled by
    eta^5 / eta(2 tau).  Every s01 key that reaches (r1, r2) below the
    order lies in the window W = floor(order/2) + floor(max |r|) + 4.
    """
    r1 = rat(r1)
    if not (isinstance(r2, int) or rat(r2).denominator == 1):
        raise ValueError("r2 must be an integer")
    r2 = rat(r2)
    if (2 * r1).denominator != 1 or r1.denominator == 1:
        raise ValueError("r1 must be a half-integer")
    order = _positive_order(order)
    mag = max(abs(r1), abs(r2))
    W = rat_floor(order / 2) + rat_floor(mag) + 4
    build = order + Rat(1, 2)  # pad for the q^(-1/8) valuations below
    s = s01_factor(build, W)
    coeff = product_coeff(t2t_factor(build), s, s, r1, r2)
    return (eta_quotient({1: 5, 2: -1}, build) * coeff).truncate(order)


def F0_series(p, order):
    """Weight-adjusted full-lattice sum with cubic-in-n weights:

    (1/2) (2n1 - n2)(2n2 - n1)(n1 + n2) q^(p Q(n - 1/p)) over Z^2.
    At p = 2 it equals a quadratic-weight sum (identity E18).
    """
    _check_p(p)
    return lattice_sum(
        *_pQ(p, -Rat(1, p), -Rat(1, p)),
        _positive_order(order),
        lambda n1, n2: Rat((2 * n1 - n2) * (2 * n2 - n1) * (n1 + n2), 2),
    )


def rank_one_coeff(p, r, order):
    """Rank-one false theta coefficient: signed one-dimensional sum

    sum_{n >= |r|} q^(p (n + s0)^2) - sum_{n <= -|r| - 1} q^(p (n + s0)^2)

    with s0 = (p - 1) / (2p).
    """
    _check_p(p)
    if not isinstance(r, int):
        raise ValueError("r must be an integer")
    order = _positive_order(order)
    s0 = Rat(p - 1, 2 * p)
    c = p * s0 * s0
    terms = {}
    # p (n + s0)^2 = p n^2 + b n + c, over n >= |r|, and over -n <= -|r| - 1
    for sign, b, lower in ((1, 2 * p * s0, abs(r)), (-1, -2 * p * s0, abs(r) + 1)):
        for n in quadratic_range(p, b, c, order, lower):
            e = (p * n + b) * n + c
            terms[e] = terms.get(e, 0) + sign
    return PuiseuxSeries(terms, order)


def rogers_false_theta(order):
    """Rogers' false theta: sum_{n >= 0} (-1)^n q^(n(n+1)/2)."""
    order = _positive_order(order)
    half = Rat(1, 2)
    ns = quadratic_range(half, half, 0, order, 0)
    return PuiseuxSeries({Rat(n * (n + 1), 2): (-1) ** n for n in ns}, order)
