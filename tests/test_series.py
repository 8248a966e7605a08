"""Truncated q-series arithmetic and the classical builders."""

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta.rat import Rat, rat, rat_str, parse_rat
from falsetheta.series import (
    PuiseuxSeries,
    zero,
    one,
    monomial,
    pochhammer,
    eta_series,
    eta_product,
    quadratic_range,
    series_to_json,
    series_from_json,
    _binomial_table,
)
from falsetheta.bilaurent import (
    BiLaurentSeries,
    Region,
    bl_add,
    bl_monomial,
    bl_mul,
    bl_one,
    bl_scalar_mul,
    expand_inverse_one_minus,
)


def pentagonal_eta(order):
    """Independent oracle: sum_k (-1)^k q^((6k+1)^2/24)."""
    terms = {}
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = Rat((6 * kk + 1) ** 2, 24)
            if e < order:
                terms[e] = Rat(-1 if kk % 2 else 1)
                hit = True
        if not hit and Rat((6 * k + 1) ** 2, 24) >= order:
            break
        k += 1
    return PuiseuxSeries(terms, order)


def small_series(max_terms=5):
    exps = st.integers(min_value=-4, max_value=12)
    coeffs = st.integers(min_value=-9, max_value=9)
    return st.builds(
        lambda pairs, extra: PuiseuxSeries(
            {Rat(e, 2): Rat(c) for e, c in pairs}, Rat(13) + extra
        ),
        st.lists(st.tuples(exps, coeffs), max_size=max_terms),
        st.integers(min_value=0, max_value=4),
    )


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a = monomial(3, Rat(1, 2), 10) + monomial(-1, 2, 10)
        assert (a - a).is_zero()

    def test_mul_truncation_rule(self):
        a = monomial(1, 2, 6)  # q^2 known below q^6
        b = monomial(1, 3, 7)  # q^3 known below q^7
        c = a * b
        assert c.order == min(Rat(6) + 3, Rat(7) + 2)
        assert c.coeff(5) == 1

    def test_invert_contract(self):
        s = one(9) - monomial(1, 1, 9) - monomial(2, 3, 9)
        prod = s * s.invert()
        assert prod.coeff(0) == 1
        assert all(c == 0 for e, c in prod.items() if e != 0)

    def test_invert_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            zero(5).invert()

    def test_scale_q(self):
        s = monomial(2, Rat(3, 2), 5)
        t = s.scale_q(2)
        assert t.coeff(3) == 2 and t.order == 10

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            one(4).truncate(6)

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            rat(0.5)

    @given(small_series(), small_series())
    @settings(max_examples=60, deadline=None)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(small_series(), small_series())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_mul_distributes_on_common_order(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        o = min(lhs.order, rhs.order)
        assert lhs.truncate(o).terms == rhs.truncate(o).terms

    @given(small_series())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, a):
        assert series_from_json(series_to_json(a)) == a


def _pairwise_mul(a, b):
    """The product term pair by term pair in Rat: (terms, order), the
    oracle for PuiseuxSeries.__mul__."""
    order = min(a.order + b.valuation(), b.order + a.valuation())
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if ea + eb < order:
                terms[ea + eb] = terms.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in terms.items() if c}, order


def _assert_clean(s):
    """What the public constructor enforces, which the product skips:
    Rat exponents below the Rat order, each with a nonzero Rat coefficient."""
    assert type(s.order) is Rat
    for e, c in s.terms.items():
        assert type(e) is Rat and e < s.order
        assert type(c) is Rat and c


_mixed_exponents = st.builds(Rat, st.integers(-24, 48), st.sampled_from([1, 2, 3, 8, 24]))
_mixed_coeffs = st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 7]))
_mixed_series = st.builds(
    PuiseuxSeries,
    st.dictionaries(_mixed_exponents, _mixed_coeffs, max_size=6),
    st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])),
)


class TestMulAgainstPairwiseProducts:
    def check(self, a, b):
        terms, order = _pairwise_mul(a, b)
        for c in (a * b, b * a):
            assert c.terms == terms and c.order == order
            _assert_clean(c)

    @given(_mixed_series, _mixed_series)
    @settings(max_examples=400, deadline=None)
    def test_random_operands(self, a, b):
        self.check(a, b)

    def test_one_term_and_empty_operands(self):
        a = monomial(Rat(-3, 2), Rat(-7, 24), Rat(5, 3))
        b = monomial(Rat(2, 3), Rat(3, 8), 4)
        self.check(a, b)
        self.check(a, a)
        self.check(a, zero(Rat(-2)))
        self.check(zero(3), zero(Rat(1, 2)))
        self.check(one(1), b)

    def test_an_order_that_cuts_through_both_operands(self):
        # exponents 1/8 + k/2 and k/3 on the grid (3 + 4n)/24; the order
        # 9/4 + 1/8 = 57/24 lies between two grid points and keeps only
        # part of either operand, and -1/3 q^(55/24) is the last term kept
        a = PuiseuxSeries({Rat(1, 8) + Rat(k, 2): k - 3 for k in range(12)}, Rat(13, 2))
        b = PuiseuxSeries({Rat(k, 3): Rat(1, k + 1) for k in range(15)}, Rat(9, 4))
        assert (a * b).order == Rat(57, 24)
        assert max((a * b).terms) == Rat(55, 24) and (a * b).coeff(Rat(55, 24)) == Rat(-1, 3)
        self.check(a, b)

    def test_dense_operands_on_an_offset(self):
        a = PuiseuxSeries({Rat(1, 8) + k: (-1) ** k * (k + 1) for k in range(100)}, 101)
        b = PuiseuxSeries({Rat(k, 2): Rat(k % 5 - 2, 3) for k in range(200)}, 100)
        self.check(a, b)

    @given(_mixed_series, st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_int_scalars(self, a, n):
        terms, _ = _pairwise_mul(a, monomial(n, 0, a.order - a.valuation() + 1))
        for c in (a * n, n * a):
            assert c.terms == terms and c.order == a.order
            _assert_clean(c)

    @given(_mixed_series, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_powers(self, a, n):
        want = one(a.order + (n - 1) * a.valuation() if n else a.order)
        for _ in range(n):
            want = PuiseuxSeries(*_pairwise_mul(want, a))
        got = a ** n
        assert got == want
        _assert_clean(got)

    @given(_mixed_series, st.builds(Rat, st.integers(-30, 30), st.sampled_from([1, 3, 8])))
    @settings(max_examples=100, deadline=None)
    def test_truncate_keeps_the_terms_below_the_order(self, a, cut):
        order = min(a.order, cut)
        got = a.truncate(order)
        assert got == PuiseuxSeries(a.terms, order)
        _assert_clean(got)


class TestBuilders:
    def test_pochhammer_finite(self):
        # (q; q)_3 = (1-q)(1-q^2)(1-q^3)
        s = pochhammer(1, 1, 1, 3, Rat(10))
        assert s.coeff(0) == 1 and s.coeff(1) == -1
        assert s.coeff(6) == -1

    def test_pochhammer_infinite_needs_positive_start(self):
        with pytest.raises(ValueError):
            pochhammer(1, 0, 1, None, Rat(5))

    def test_eta_matches_pentagonal_sum_to_200(self):
        order = Rat(200)
        assert eta_series(1, order) == pentagonal_eta(order)

    def test_eta_scale_two(self):
        e2 = eta_series(2, Rat(20))
        assert e2.valuation() == Rat(2, 24)
        assert e2.coeff(Rat(1, 12) + 2) == -1

    def test_pochhammer_with_a_zero_exponent(self):
        # (1 - 1)(1 - q) = 0 and (1 + 1)(1 + q) = 2 + 2q
        assert pochhammer(1, 0, 1, 2, Rat(5)) == zero(5)
        assert pochhammer(-1, 0, 1, 2, Rat(5)) == PuiseuxSeries({0: 2, 1: 2}, 5)

    def test_eta_product_against_series_products(self):
        order = Rat(23, 2)
        p1 = pochhammer(1, 1, 1, None, order)
        p2 = pochhammer(1, 2, 2, None, order)
        assert eta_product({1: 5, 2: -1}, order) == (p1 ** 5 * p2.invert()).truncate(order)
        assert eta_product({1: -1, 2: -1}, order) == (p1 * p2).invert()
        assert eta_product({}, order) == one(order)


def _rationals(lo, hi, den=3):
    return st.builds(Rat, st.integers(lo, hi), st.integers(1, den))


def _brute_range(a, b, c, order, lower):
    """The n >= lower with a n^2 + b n + c < order, from a box |n| <= R.

    a n^2 + b n + c >= a m^2 - |b| m + c for m = |n|, which increases in
    m once 2 a m >= |b|; past the first such R where it reaches the order,
    no n qualifies.
    """
    R = 0
    while 2 * a * R < abs(b) or a * R * R - abs(b) * R + c < order:
        R += 1
    return [
        n for n in range(-R, R + 1)
        if a * n * n + b * n + c < order and (lower is None or n >= lower)
    ]


class TestQuadraticRange:
    @given(
        a=_rationals(1, 6),
        b=_rationals(-12, 12),
        c=_rationals(-6, 6),
        order=_rationals(-4, 20),
        lower=st.none() | st.integers(-6, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, a, b, c, order, lower):
        got = quadratic_range(a, b, c, order, lower)
        assert isinstance(got, range)
        assert list(got) == _brute_range(a, b, c, order, lower)

    def test_empty_range(self):
        assert list(quadratic_range(1, 0, 1, 1)) == []  # n^2 + 1 < 1
        assert list(quadratic_range(1, 0, 0, 5, lower=3)) == []

    def test_positive_discriminant_and_no_integer_root(self):
        # (n - 1/2)^2 < 1/8 holds on (0.15, 0.85), which holds no integer
        assert list(quadratic_range(1, -1, Rat(1, 4), Rat(1, 8))) == []
        assert list(quadratic_range(1, -1, Rat(1, 4), Rat(1, 4) + 1)) == [0, 1]

    @pytest.mark.parametrize("a", [0, -1, Rat(-1, 2)])
    def test_rejects_a_leading_coefficient_that_is_not_positive(self, a):
        with pytest.raises(ValueError):
            quadratic_range(a, 1, 0, 5)


def _explicit_binomials(factors, order):
    """prod (1 - sign u^a q^e)^power with u = z1, one bl_mul per factor.

    A negative power with a = 0 inverts the q-series; with a = +-1 and
    sign 1 it is expand_inverse_one_minus, and otherwise the explicit
    geometric sum of (sign u^a q^e)^k.
    """
    out = bl_one(order, Region.INNER)
    for sign, a, e, power in factors:
        if a == 0:
            b = one(order) - monomial(sign, e, order)
            for _ in range(abs(power)):
                out = bl_scalar_mul(out, b.invert() if power < 0 else b)
            continue
        if power == 0:
            continue
        if power > 0:
            b = bl_add(bl_one(order, Region.INNER),
                       bl_monomial(monomial(-sign, e, order), a, 0, order, Region.INNER))
        elif abs(a) == 1 and sign == 1:
            b = expand_inverse_one_minus("z1", e, order, invert_unit=a < 0)
        else:
            k, terms = 0, {}
            while k * e < order:
                terms[(a * k, 0)] = monomial(sign ** k, k * e, order)
                k += 1
            b = BiLaurentSeries(terms, order, Region.INNER)
        for _ in range(abs(power)):
            out = bl_mul(out, b)
    return out.truncate_q(order)


def _table_series(factors, order):
    d, table = _binomial_table(factors, order)
    terms = {
        (m, 0): PuiseuxSeries({Rat(i, d): c for i, c in enumerate(row)}, order)
        for m, row in table.items()
    }
    return BiLaurentSeries(terms, order, Region.INNER)


def _factor():
    def fix(sign, a, e, power):
        # the INNER inverse needs e > 0; e = 0 divisions are tested apart
        return (sign, a, e if power >= 0 or e else Rat(1, 2), power)

    return st.builds(
        fix,
        st.sampled_from([1, -1]),
        st.sampled_from([-1, 0, 1, 2]),
        _rationals(0, 5),
        st.integers(-2, 3),
    )


class TestBinomialKernel:
    @given(st.lists(_factor(), max_size=4), st.builds(Rat, st.integers(1, 8), st.just(2)))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_factor_by_factor_product(self, factors, order):
        assert _table_series(factors, order) == _explicit_binomials(factors, order)

    def test_exact_division_with_a_zero_exponent(self):
        order = Rat(3)
        # (1 - u q)(1 - u^2)/(1 - u) = (1 - u q)(1 + u), and
        # (1 - u^-2)/(1 + u^-1) = 1 - u^-1
        got = _table_series([(1, 1, 1, 1), (1, 2, 0, 1), (1, 1, 0, -1)], order)
        assert got == _explicit_binomials([(1, 1, 1, 1), (-1, 1, 0, 1)], order)
        got = _table_series([(1, -2, 0, 1), (-1, -1, 0, -1)], order)
        assert got == _explicit_binomials([(1, -1, 0, 1)], order)

    @pytest.mark.parametrize(
        "factors",
        [[(1, 1, 0, -1)], [(1, 3, 0, 1), (1, 2, 0, -1)], [(1, 1, 1, 1), (-1, 1, 0, -1)]],
    )
    def test_a_division_that_is_not_exact_is_refused(self, factors):
        with pytest.raises(ValueError, match="not exact"):
            _binomial_table(factors, Rat(3))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_inverting_a_constant_is_refused(self, sign):
        with pytest.raises(ValueError, match="cannot expand"):
            _binomial_table([(sign, 0, 0, -1)], Rat(3))


def test_rat_string_roundtrip():
    assert rat_str(Rat(-3, 7)) == "-3/7"
    assert parse_rat("-3/7") == Rat(-3, 7)
    assert parse_rat("5") == Rat(5)
