"""Rank-two false theta families and their hypergeometric companions.

All builders return one-variable PuiseuxSeries over exact rationals.
Every sum of q^(quadratic in n) is enumerated exactly by the series
layer: the two-variable lattice sums by `series.lattice_sum`, the
rank-one sums by `series.quadratic_range`.  No box is guessed; exactly
the indices with exponent below the truncation order are visited.  The
products 1/((q; q)_a (q; q)_b) of the hypergeometric sums are one call
each of the integer kernel `series._binomial_table`.
"""

from itertools import count

from .rat import Rat, rat, rat_floor, _positive_order
from .series import (
    PuiseuxSeries,
    zero as q_zero,
    quadratic_range,
    lattice_sum,
    _binomial_series,
)
from .bilaurent import product_coeff
from .thetas import t2t_factor, s01_factor, eta5_over_eta2

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
    """(sgn_star(a) + sgn_star(b)) / 2, taking values in {-1, 0, 1}."""
    return Rat(sgn_star(a) + sgn_star(b), 2)


def quad_Q(x, y):
    """The A2 quadratic form x^2 + y^2 - x y."""
    return x * x + y * y - x * y


def _pQ(p, s1, s2):
    """(form, linear, const) of the exponent p Q(n + s) for lattice_sum."""
    return (p, -p, p), (p * (2 * s1 - s2), p * (2 * s2 - s1)), p * quad_Q(s1, s2)


def _check_lambda(lam, p):
    l1, l2 = rat(lam[0]), rat(lam[1])
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    return l1, l2


# the six bracket summands: sign and the gradient g of the linear term
# L(n) = g . (n + lambda)
_BRACKET = (
    (1, (0, 0)),
    (-1, (2, -1)),
    (-1, (-1, 2)),
    (1, (3, 0)),
    (1, (0, 3)),
    (-1, (2, 2)),
)


def G_frak(lam, p, order):
    """Weighted positive-cone lattice sum with the six-term bracket.

    sum over n in Z_{>=1}^2 of min(n1, n2) q^(p Q(n + lam - 1/p)) times
    the alternating bracket of q-powers linear in n + lam.
    """
    l1, l2 = _check_lambda(lam, p)
    form, (b1, b2), c = _pQ(p, l1 - Rat(1, p), l2 - Rat(1, p))
    out = q_zero(order)
    for sign, (g1, g2) in _BRACKET:
        out = out + lattice_sum(
            form,
            (b1 + g1, b2 + g2),
            c + g1 * l1 + g2 * l2,
            order,
            lambda n1, n2: sign * min(n1, n2),
            (1, 1),
        )
    return out


def G_frak_rewrite_p2(lam, order):
    """p = 2 rewrite as three signed shifted A2 partial thetas."""
    l1, l2 = _check_lambda(lam, 2)
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
    r1, r2 = r
    if not (isinstance(r1, int) and isinstance(r2, int)):
        raise ValueError("r must be a pair of integers")
    return lattice_sum(
        (Rat(1, 2), 1, 2),
        (r1 + Rat(1, 2), 2 * r2 + 2),
        r2 + Rat(1, 2),
        order,
        lambda n1, n2: rho(n2, n2 + r2) * (-1) ** n1,
        (0, None),
    )


# per-summand integer offsets (l1, l2) of the Weyl-orbit expansion of the
# Fourier coefficient, as affine functions of the lattice point n and the
# index r; a summand contributes min(l1+1, l2+1) when both are >= 0
def _orbit_offsets(n1, n2, r1, r2):
    return (
        (1, n1 - 1 - r1, n2 - 1 - r2),
        (-1, n2 - n1 - 1 - r1, n2 - 1 - r2),
        (-1, n1 - 1 - r1, n1 - n2 - 1 - r2),
        (1, -n2 - 1 - r1, n1 - n2 - 1 - r2),
        (1, n2 - n1 - 1 - r1, -n1 - 1 - r2),
        (-1, -n2 - 1 - r1, -n1 - 1 - r2),
    )


def coeff_F(r, p, order):
    """Fourier coefficient family attached to the index pair r.

    Enumerates the full lattice with exponent p Q(n - 1/p) and weights
    each point by the six signed Weyl-orbit contributions.
    """
    r1, r2 = r
    if not (isinstance(r1, int) and isinstance(r2, int)):
        raise ValueError("r must be a pair of integers")
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")

    def weight(n1, n2):
        w = 0
        for sign, l1, l2 in _orbit_offsets(n1, n2, r1, r2):
            if l1 >= 0 and l2 >= 0:
                w += sign * min(l1 + 1, l2 + 1)
        return w

    return lattice_sum(*_pQ(p, -Rat(1, p), -Rat(1, p)), order, weight)


def F_constant_term(p, order):
    """The (0, 0) Fourier coefficient as a congruence-restricted sum.

    sum over n1, n2 >= 1 with n1 = n2 mod 3 of min(n1, n2) times
    q^((p/3) Q*(n) - n1 - n2 + 1/p) (1 - q^n1)(1 - q^n2)(1 - q^(n1+n2)).
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    out = q_zero(order)
    # (1-a)(1-b)(1-ab) expanded; the -ab and +ab terms cancel.  Each
    # summand's extra power of q is linear in n, so it joins `linear`
    for sign, (o1, o2) in (
        (1, (0, 0)),
        (-1, (1, 0)),
        (-1, (0, 1)),
        (1, (2, 1)),
        (1, (1, 2)),
        (-1, (2, 2)),
    ):
        out = out + lattice_sum(
            (Rat(p, 3), Rat(p, 3), Rat(p, 3)),
            (o1 - 1, o2 - 1),
            Rat(1, p),
            order,
            lambda n1, n2: 0 if (n1 - n2) % 3 else sign * min(n1, n2),
            (1, 1),
        )
    return out


def _inv_poch2(a, b, order):
    """1 / ((q; q)_a (q; q)_b) as a truncated series."""
    js = [*range(1, a + 1), *range(1, b + 1)]
    return _binomial_series([(1, 0, j, -1) for j in js], order)


def _A_table(m, order):
    """sum_{n >= 0} q^n / ((q; q)_n (q; q)_{n+m}) truncated below order."""
    order = rat(order)
    out = q_zero(order)
    n = 0
    while n < order:
        out = out + _inv_poch2(n, n + m, order - n).shift(n)
        n += 1
    return out


def G_hyper(r, order):
    """Triple q-hypergeometric sum attached to an integer index pair r.

    sum over n4 in Z and n1, n2, n3 >= 0 of
    q^(n1 + n2 + n3 + (|n4 - r1| + |n4 - r2| + |n4|)/2) /
    ((q)_{n1} (q)_{n1 + |n4 - r1|} (q)_{n2} (q)_{n2 + |n4 - r2|}
     (q)_{n3} (q)_{n3 + |n4|}),
    computed through the factorized inner sums A_m(q).
    """
    r1, r2 = r
    if not (isinstance(r1, int) and isinstance(r2, int)):
        raise ValueError("r must be a pair of integers")
    order = rat(order)
    out = q_zero(order)
    # each A_m is built once, at the full order, and truncated per n4
    tables = {}
    med = sorted((0, r1, r2))[1]
    for n4s in (count(med), count(med - 1, -1)):
        for n4 in n4s:
            ms = (abs(n4 - r1), abs(n4 - r2), abs(n4))
            pre = Rat(sum(ms), 2)
            if pre >= order:
                break  # pre is convex in n4 and least at med
            for m in ms:
                if m not in tables:
                    tables[m] = _A_table(m, order)
            a1, a2, a3 = (tables[m].truncate(order - pre) for m in ms)
            out = out + (a1 * a2 * a3).shift(pre)
    return out


def H_frak(r1, r2, order):
    """Half-shifted Fourier coefficient of the mixed theta-ratio kernel.

    r1 lies in 1/2 + Z, r2 in Z.  Extracted from the product of one
    full-period theta ratio and two half-period ratios, scaled by
    eta^5 / eta(2 tau); windows are chosen so that the clipped geometric
    tails only affect orders beyond the truncation.
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
    kernel = [
        t2t_factor("z1", build, "closed"),
        s01_factor("z2", build, W),
        s01_factor("z12", build, W),
    ]
    coeff = product_coeff(kernel, r1, r2)
    return (eta5_over_eta2(build) * coeff).truncate(order)


def F0_series(p, order, form="GENERAL"):
    """Weight-adjusted full-lattice sum with cubic-in-n weights.

    GENERAL: (1/2) (2n1 - n2)(2n2 - n1)(n1 + n2) q^(p Q(n - 1/p)) over Z^2.
    P2SIMPLIFIED (p = 2 only): the quadratic-weight rewrite
    (1/4) (12 n1 n2 - 3 n1^2 - 3 n2^2 - n1 - n2) q^(2 Q(n - 1/2)).
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    exponent = _pQ(p, -Rat(1, p), -Rat(1, p))
    if form == "GENERAL":
        return lattice_sum(
            *exponent,
            order,
            lambda n1, n2: Rat((2 * n1 - n2) * (2 * n2 - n1) * (n1 + n2), 2),
        )
    if form == "P2SIMPLIFIED":
        if p != 2:
            raise ValueError("P2SIMPLIFIED requires p = 2")
        return lattice_sum(
            *exponent,
            order,
            lambda n1, n2: Rat(12 * n1 * n2 - 3 * n1 * n1 - 3 * n2 * n2 - n1 - n2, 4),
        )
    raise ValueError(f"unknown form {form!r}")


def rank_one_coeff(p, r, order):
    """Rank-one false theta coefficient: signed one-dimensional sum

    sum_{n >= |r|} q^(p (n + s0)^2) - sum_{n <= -|r| - 1} q^(p (n + s0)^2)

    with s0 = (p - 1) / (2p).
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    if not isinstance(r, int):
        raise ValueError("r must be an integer")
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
    half = Rat(1, 2)
    ns = quadratic_range(half, half, 0, order, 0)
    return PuiseuxSeries({Rat(n * (n + 1), 2): (-1) ** n for n in ns}, order)
