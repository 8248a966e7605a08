"""Weighted lattice-sum families and their frozen expansions."""

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import families
from falsetheta.rat import Rat, rat_ceil
from falsetheta.series import (
    PuiseuxSeries,
    zero,
    lattice_sum,
    quadratic_range,
    _binomial_series,
)
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
    _A_table,
    _hyper_factor,
)
from falsetheta.identities import _build_E18
from falsetheta.thetas import unit_pochhammer


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


# The six terms of W(A2) as they were written out before they were read off
# bilaurent._WEYL: G_frak's bracket gradients C (rho - w rho), the Weyl
# denominator's exponents rho - w rho, and coeff_F's orbit offsets w(n) - rho - r.
_BRACKET = ((1, (0, 0)), (-1, (2, -1)), (-1, (-1, 2)), (1, (3, 0)), (1, (0, 3)), (-1, (2, 2)))
_WEYL_DENOMINATOR = ((1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)), (1, (2, 1)), (1, (1, 2)),
                     (-1, (2, 2)))


def _orbit_offset_rows(n1, n2, r1, r2):
    return [
        (1, n1 - 1 - r1, n2 - 1 - r2),
        (-1, n2 - n1 - 1 - r1, n2 - 1 - r2),
        (-1, n1 - 1 - r1, n1 - n2 - 1 - r2),
        (1, -n2 - 1 - r1, n1 - n2 - 1 - r2),
        (1, n2 - n1 - 1 - r1, -n1 - 1 - r2),
        (-1, -n2 - 1 - r1, -n1 - 1 - r2),
    ]


class TestWeylTerms:
    @pytest.mark.parametrize("build, want", [
        (lambda: G_frak((0, 0), 2, 1), _BRACKET),
        (lambda: F_constant_term(2, 1), _WEYL_DENOMINATOR),
    ], ids=["G_frak", "F_constant_term"])
    def test_the_summands_are_read_off_the_table(self, monkeypatch, build, want):
        # each summand is one lattice_sum whose weight at (1, 1) is its sign
        # and whose linear part is (-1, -1) plus its term: at p = 2 and
        # lam = 0 for G_frak, by construction for F_constant_term
        calls = []

        def spy(form, linear, const, order, weight, lower=(None, None)):
            calls.append((weight(1, 1), (linear[0] + 1, linear[1] + 1)))
            return zero(order)

        monkeypatch.setattr(families, "lattice_sum", spy)
        build()
        assert calls == list(want)

    @given(st.tuples(*[st.integers(-30, 30)] * 4))
    @settings(max_examples=200, deadline=None)
    def test_the_orbit_offsets_are_read_off_the_table(self, nr):
        assert list(families._orbit_offsets(*nr)) == _orbit_offset_rows(*nr)


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

    @pytest.mark.parametrize("build", [
        lambda r: G_hyper(r, Rat(3)),
        lambda r: coeff_F(r, 2, Rat(3)),
        lambda r: G_frak_closed_p2(r, Rat(3)),
    ], ids=["G_hyper", "coeff_F", "G_frak_closed_p2"])
    @pytest.mark.parametrize("r", [(True, False), (0, True)])
    def test_a_bool_is_not_an_integer_index(self, build, r):
        with pytest.raises(ValueError, match="r must be a pair of integers"):
            build(r)

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

    @pytest.mark.parametrize("order", [Rat(7, 2), Rat(6)])
    def test_hypergeometric_diagonal_symmetry(self, order):
        # G_hyper(r) is the z1^r1 z2^r2 coefficient of h(z1) h(z2) h(z1 z2),
        # h(u) = h(1/u); the product is fixed by swapping z1 and z2, by
        # inverting both, and by z2 -> (z1 z2)^-1 or z1 -> (z1 z2)^-1, each
        # of which permutes its three factors
        built = {}

        def g(r):
            if r not in built:
                built[r] = G_hyper(r, order)
            return built[r]

        for r1 in range(-3, 4):
            for r2 in range(-3, 4):
                for s in ((r2, r1), (-r1, -r2), (r1 - r2, -r2), (-r1, r2 - r1)):
                    assert g(s) == g((r1, r2)), ((r1, r2), s)

    def test_hypergeometric_far_index_is_zero(self):
        # the z1^r1 z2^r2 coefficient of h(z1) h(z2) h(z1 z2) sums
        # h_(r1-m) h_(r2-m) h_m, h_m from q^(|m|/2): each from q^(10**9/2)
        g = G_hyper((10**9, 0), Rat(1, 100))
        assert g.is_zero() and g.order == Rat(1, 100)

    def test_cubic_weight_forms_agree(self):
        # E18: F0_series at p = 2 against its quadratic-weight rewrite
        general, simplified = next(_build_E18([{"part": "simplify"}], Rat(20)))
        assert general == F0_series(2, Rat(20)) and general == simplified


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


_NONPOSITIVE = [0, -1, Rat(-1, 2)]
_BUILDERS = {
    "G_frak": lambda order: G_frak((0, 0), 2, order),
    "G_frak_rewrite_p2": lambda order: G_frak_rewrite_p2((0, 0), order),
    "G_frak_closed_p2": lambda order: G_frak_closed_p2((0, 0), order),
    "coeff_F": lambda order: coeff_F((0, 0), 2, order),
    "F_constant_term": lambda order: F_constant_term(2, order),
    "G_hyper": lambda order: G_hyper((0, 0), order),
    "F0_series": lambda order: F0_series(2, order),
    "rank_one_coeff": lambda order: rank_one_coeff(2, 0, order),
    "rogers_false_theta": rogers_false_theta,
}


@pytest.mark.parametrize("order", _NONPOSITIVE, ids=str)
@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_reject_an_order_that_is_not_positive(name, order):
    with pytest.raises(ValueError, match="order must be positive"):
        _BUILDERS[name](order)


def _inv_poch2(a, b, order):
    """1 / ((q; q)_a (q; q)_b) as a truncated series."""
    js = [*range(1, a + 1), *range(1, b + 1)]
    return _binomial_series([(1, 0, j, -1) for j in js], order)


def _A_by_terms(m, order, quad):
    """The sum of _A_table term by term: each 1/((q)_n (q)_(n+m)) its own
    series, shifted by its exponent n + quad n (n + m) and added, for the n
    whose exponent is below the order."""
    if quad:
        ns = quadratic_range(1, m + 1, 0, order, 0)
    else:
        ns = range(rat_ceil(order))
    out = zero(order)
    for n in ns:
        e = n + quad * n * (n + m)
        out = out + _inv_poch2(n, n + m, order - e).shift(e)
    return out


class TestATable:
    @given(
        m=st.integers(0, 12),
        quad=st.sampled_from([0, 1]),
        order=st.sampled_from([1, 2, 3]).flatmap(
            lambda d: st.builds(Rat, st.integers(1, 20 * d), st.just(d))
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_the_term_by_term_sum(self, m, quad, order):
        got = _A_table(m, order, quad)
        want = _A_by_terms(m, order, quad)
        assert got.terms == want.terms and got.order == want.order

    def test_a_table_too_long_to_lay_out_is_refused(self):
        with pytest.raises(ValueError, match="row of 100000000 entries is longer than"):
            _A_table(0, 10**8)

    def test_leading_terms(self):
        # A_0 = 1 + q + 3q^2 + ...: 1 + q/(1 - q)^2 + q^2/((q)_2)^2 + ...
        a = _A_table(0, 3)
        assert dict(a.items()) == {Rat(0): 1, Rat(1): 1, Rat(2): 3}
        # with quad, the n = 1 term q^(2 + m) is the first after 1/(q)_m
        a = _A_table(1, 4, 1)
        assert dict(a.items()) == {Rat(0): 1, Rat(1): 1, Rat(2): 1, Rat(3): 2}


def _G_hyper_by_n4(r, order):
    """The triple sum as a walk over n4: q^pre A_|n4 - r1| A_|n4 - r2| A_|n4|,
    pre = (|n4 - r1| + |n4 - r2| + |n4|)/2, each A_m built below order - pre,
    for n4 outward from the median of 0, r1 and r2 until pre reaches order."""
    r1, r2 = r
    out = zero(order)
    med = sorted((0, r1, r2))[1]
    for n4s in (count(med), count(med - 1, -1)):
        for n4 in n4s:
            ms = (abs(n4 - r1), abs(n4 - r2), abs(n4))
            pre = Rat(sum(ms), 2)
            if pre >= order:
                break  # pre is convex in n4 and least at med
            a1, a2, a3 = (_A_table(m, order - pre) for m in ms)
            out = out + (a1 * a2 * a3).shift(pre)
    return out


class TestHyperFactor:
    @pytest.mark.parametrize(
        "order", [Rat(1, 3), Rat(1, 2), Rat(7, 2), Rat(6), Rat(15), Rat(31, 2)], ids=str
    )
    def test_is_the_inverse_pochhammer_pair(self, order):
        assert _hyper_factor(order) == unit_pochhammer(Rat(1, 2), 1, order, inverse=True)

    @given(
        r=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        order=st.integers(1, 16).map(lambda k: Rat(k, 2)),
    )
    @settings(max_examples=60, deadline=None)
    def test_G_hyper_against_the_n4_walk(self, r, order):
        got, want = G_hyper(r, order), _G_hyper_by_n4(r, order)
        assert got.terms == want.terms and got.order == want.order

    @given(
        r=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        order=st.integers(1, 12).map(lambda k: Rat(k, 2)),
        deeper=st.sampled_from([Rat(0), Rat(1, 2), Rat(3)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_deeper_table_reads_as_the_table_at_the_order(self, r, order, deeper):
        got = G_hyper(r, order, _table=_hyper_factor(order + deeper))
        want = G_hyper(r, order)
        assert got.terms == want.terms and got.order == want.order

    def test_a_shallower_table_is_refused(self):
        with pytest.raises(ValueError, match="cannot extend"):
            G_hyper((0, 0), Rat(4), _table=_hyper_factor(Rat(3)))

    @pytest.mark.parametrize(
        "order, calls", [(Rat(1, 3), 1), (Rat(7, 2), 7), (Rat(15), 30)], ids=str
    )
    def test_one_call_builds_each_A_m_once(self, monkeypatch, order, calls):
        made = []

        def spy(m, order, quad=0):
            made.append(m)
            return _A_table(m, order, quad)

        monkeypatch.setattr(families, "_A_table", spy)
        G_hyper((0, 0), order)
        assert sorted(made) == list(range(calls))
