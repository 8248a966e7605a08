"""Weighted lattice-sum families and their frozen expansions."""

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, zero, lattice_sum
from falsetheta.families import (
    sgn_star,
    rho,
    quad_Q,
    G_frak,
    G_frak_rewrite_p2,
    G_frak_closed_p2,
    G_hyper,
    H_frak,
    coeff_F,
    F_constant_term,
    F0_series,
    rank_one_coeff,
    rogers_false_theta,
)


def series_dict(s):
    return dict(s.items())


class TestWeights:
    def test_sgn_star_zero_positive(self):
        assert sgn_star(0) == 1 and sgn_star(-1) == -1 and sgn_star(3) == 1

    def test_rho_values(self):
        assert rho(1, 2) == 1 and rho(-1, -5) == -1 and rho(-1, 2) == 0

    def test_quadratic_form(self):
        assert quad_Q(2, 3) == 4 + 9 - 6


def _exponent(form, linear, const, n1, n2):
    a, b, c = form
    return a * n1 * n1 + b * n1 * n2 + c * n2 * n2 + linear[0] * n1 + linear[1] * n2 + const


def _box(form, linear, const, order):
    """R with max(|n1|, |n2|) < R at every integer point with E(n) < order.

    With delta = 4ac - b^2, 4a Q(n) = (2a n1 + b n2)^2 + delta n2^2 and
    4c Q(n) = (2c n2 + b n1)^2 + delta n1^2, so Q(n) >= mu m^2 for
    m = max(|n1|, |n2|) and mu = delta / (4 max(a, c)).  The linear part
    is at least -L m with L = |l1| + |l2|, and mu m^2 - L m increases
    for m >= L / (2 mu); so past the first such R where the lower bound
    reaches the order, E(n) >= order.
    """
    a, b, c = form
    mu = (4 * a * c - b * b) / (4 * max(a, c))
    L = abs(linear[0]) + abs(linear[1])
    R = 0
    while 2 * mu * R < L or mu * R * R - L * R + const < order:
        R += 1
    return R


def _brute_force(form, linear, const, order, lower):
    R = _box(form, linear, const, order)
    return [
        (n1, n2)
        for n1 in range(-R, R + 1)
        for n2 in range(-R, R + 1)
        if _exponent(form, linear, const, n1, n2) < order
        and (lower[0] is None or n1 >= lower[0])
        and (lower[1] is None or n2 >= lower[1])
    ]


def _weight(n1, n2):
    return n1 - 2 * n2 + 3  # zero at some points, which are still visited


def _check_against_brute_force(form, linear, const, order, lower=(None, None)):
    visited = []

    def weight(n1, n2):
        visited.append((n1, n2))
        return _weight(n1, n2)

    got = lattice_sum(form, linear, const, order, weight, lower)
    points = _brute_force(form, linear, const, order, lower)
    assert sorted(visited) == points  # each qualifying point exactly once
    terms = {}
    for n1, n2 in points:
        e = _exponent(form, linear, const, n1, n2)
        terms[e] = terms.get(e, 0) + _weight(n1, n2)
    assert got == PuiseuxSeries(terms, order)
    return got


def _rationals(lo, hi, den=3):
    return st.builds(Rat, st.integers(lo, hi), st.integers(1, den))


@st.composite
def positive_definite_forms(draw):
    """(a, b, c) with |b| < 2 min(a, c) <= 2 sqrt(ac), so 4ac - b^2 > 0."""
    a = draw(_rationals(1, 4, 2))
    c = draw(_rationals(1, 4, 2))
    b = Rat(2 * draw(st.integers(-3, 3)), 4) * min(a, c)
    return a, b, c


class TestLatticeSum:
    @pytest.mark.parametrize("cone", [(0, 0), (1, 0), (0, 1), (1, 1)])
    @given(
        form=positive_definite_forms(),
        linear=st.tuples(_rationals(-4, 4), _rationals(-4, 4)),
        const=_rationals(-3, 3),
        order=_rationals(-2, 15),
        bounds=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, cone, form, linear, const, order, bounds):
        # cone marks which coordinates carry a lower bound
        lower = tuple(x if on else None for x, on in zip(bounds, cone))
        _check_against_brute_force(form, linear, const, order, lower)

    def test_row_with_positive_discriminant_and_no_integer_point(self):
        # E = n1^2 + (n2 - 1/2)^2: the rows n1 = +-1 solve
        # (n2 - 1/2)^2 < 1/8 over the reals but hold no integer n2
        got = _check_against_brute_force((1, 0, 1), (0, -1), Rat(1, 4), Rat(9, 8))
        assert dict(got.items()) == {Rat(1, 4): _weight(0, 0) + _weight(0, 1)}
        # likewise a range of n1 with no integer in it: E = (n1 - 1/2)^2 + n2^2
        got = _check_against_brute_force((1, 0, 1), (-1, 0), Rat(1, 4), Rat(1, 8))
        assert got == zero(Rat(1, 8))

    def test_empty_result(self):
        assert _check_against_brute_force((1, -1, 1), (0, 0), 0, 0) == zero(0)
        got = _check_against_brute_force((2, 1, 2), (1, 1), 0, 5, (4, 4))
        assert got == zero(5)

    @pytest.mark.parametrize(
        "form", [(1, 2, 1), (1, 3, 1), (0, 0, 1), (1, 0, 0), (-1, 0, -1), (1, 0, -1)]
    )
    def test_rejects_a_form_that_is_not_positive_definite(self, form):
        with pytest.raises(ValueError):
            lattice_sum(form, (0, 0), 0, 5, lambda n1, n2: 1)


class TestGFamily:
    def test_leading_terms_p2(self):
        g = G_frak((0, 0), 2, Rat(8))
        assert series_dict(g) == {
            Rat(1, 2): Rat(1),
            Rat(3, 2): Rat(-2),
            Rat(7, 2): Rat(2),
            Rat(9, 2): Rat(1),
            Rat(13, 2): Rat(-4),
        }

    def test_p3_valuation(self):
        g = G_frak((0, 0), 3, Rat(4))
        assert g.valuation() == Rat(4, 3)
        assert g.coeff(Rat(4, 3)) == 1 and g.coeff(Rat(7, 3)) == -2

    def test_rational_offsets_allowed(self):
        g = G_frak((Rat(1, 3), Rat(2, 3)), 2, Rat(5))
        assert not g.is_zero()

    def test_rewrite_matches_definition(self):
        for lam in ((0, 0), (Rat(1, 3), Rat(2, 3)), (Rat(-1, 2), Rat(-1, 2))):
            assert G_frak(lam, 2, Rat(15)) == G_frak_rewrite_p2(lam, Rat(15))

    def test_closed_form_small(self):
        c = G_frak_closed_p2((0, 0), Rat(6))
        assert c.valuation() == Rat(1, 2)
        assert c.coeff(Rat(1, 2)) == 1

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            G_frak((0, 0), 1, Rat(5))


class TestCoefficientFamilies:
    def test_coeff_F_equals_G_at_the_index(self):
        for r in ((0, 0), (1, 0), (-1, 2), (2, -2)):
            assert coeff_F(r, 2, Rat(12)) == G_frak(r, 2, Rat(12))

    def test_constant_term_expansion(self):
        f = F_constant_term(2, Rat(8))
        # q^(1/2) (1 - 2q + 2q^3 + q^4 - 4 q^6 + ...)
        assert series_dict(f) == {
            Rat(1, 2): Rat(1),
            Rat(3, 2): Rat(-2),
            Rat(7, 2): Rat(2),
            Rat(9, 2): Rat(1),
            Rat(13, 2): Rat(-4),
        }

    def test_constant_term_equals_the_index_zero_coefficient(self):
        # different cones and weights, one enumerator
        for p in (2, 3):
            assert F_constant_term(p, Rat(15)) == coeff_F((0, 0), p, Rat(15))

    def test_half_index_family_leading(self):
        h = H_frak(Rat(1, 2), 0, Rat(5))
        assert series_dict(h) == {
            Rat(2): Rat(1),
            Rat(3): Rat(-1),
            Rat(4): Rat(-1),
        }

    def test_half_index_requires_half_integer(self):
        with pytest.raises(ValueError):
            H_frak(1, 0, Rat(5))
        with pytest.raises(ValueError):
            H_frak(Rat(1, 2), Rat(1, 2), Rat(5))

    def test_hypergeometric_diagonal_symmetry(self):
        # swapping r1 and r2 permutes the three absolute values
        assert G_hyper((1, 0), Rat(6)) == G_hyper((0, 1), Rat(6))

    def test_hypergeometric_far_index_is_zero(self):
        # every n4 has (|n4 - r1| + |n4 - r2| + |n4|)/2 >= 10**9/2
        g = G_hyper((10**9, 0), Rat(1, 100))
        assert g.is_zero() and g.order == Rat(1, 100)

    def test_cubic_weight_forms_agree(self):
        assert F0_series(2, Rat(20), "GENERAL") == F0_series(2, Rat(20), "P2SIMPLIFIED")

    def test_cubic_weight_rejects_bad_form(self):
        with pytest.raises(ValueError):
            F0_series(3, Rat(5), "P2SIMPLIFIED")


class TestRankOne:
    def test_rogers_supported_on_triangular_numbers_to_100(self):
        r = rogers_false_theta(Rat(100))
        expect = {}
        n = 0
        while Rat(n * (n + 1), 2) < 100:
            expect[Rat(n * (n + 1), 2)] = Rat(-1 if n % 2 else 1)
            n += 1
        assert series_dict(r) == expect

    def test_rank_one_p2_r0_is_shifted_rogers_to_50(self):
        lhs = rank_one_coeff(2, 0, Rat(50) + Rat(1, 8))
        rhs = rogers_false_theta(Rat(50)).shift(Rat(1, 8))
        assert lhs == rhs

    def test_rank_one_sign_structure(self):
        s = rank_one_coeff(3, 0, Rat(10))
        signs = [c for _, c in s.items()]
        assert all(c in (Rat(1), Rat(-1)) for c in signs)
