"""Truncated q-series arithmetic and the classical builders."""

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from falsetheta.rat import Rat, rat, rat_str, parse_rat
from falsetheta.series import (
    PuiseuxSeries,
    zero,
    one,
    monomial,
    pochhammer,
    eta_product,
    eta_quotient,
    quadratic_range,
    lattice_rows,
    lattice_points,
    lattice_sum,
    series_to_json,
    series_from_json,
    _binomial_table,
)
from falsetheta.bilaurent import (
    BiLaurentSeries,
    bl_add,
    bl_monomial,
    bl_mul,
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

    @pytest.mark.parametrize("build", [
        # three terms on the grid 1/2^62: a row of 2^62 + 1 entries
        lambda: PuiseuxSeries({0: 1, Fraction(1, 2**62): 1, 1: 1}, 2),
        # a sum spread onto that grid, and a sum whose terms lie 10^8 apart
        lambda: PuiseuxSeries({0: 1, 1: 1}, 2) + PuiseuxSeries({Fraction(1, 2**62): 1}, 2),
        lambda: PuiseuxSeries({0: 1}, 10**9) + PuiseuxSeries({10**8: 1}, 10**9),
        # a product known below q^(10^8)
        lambda: PuiseuxSeries({0: 1, 1: 1}, 10**8) * PuiseuxSeries({0: 1, 1: 1}, 10**8),
    ])
    def test_a_row_too_long_to_lay_out_is_refused(self, build):
        with pytest.raises(ValueError, match="entries is longer than"):
            build()

    def test_a_binomial_table_too_long_to_lay_out_is_refused(self):
        # a factor on the grid 1/10^9 below q^2: rows of 2*10^9 entries
        with pytest.raises(ValueError, match="row of 2000000000 entries is longer than"):
            pochhammer(-1, Fraction(1, 10**9), 1, None, 2)

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
    terms, tb = {}, b.terms  # each read of terms builds a new map
    for ea, ca in a.terms.items():
        for eb, cb in tb.items():
            if ea + eb < order:
                terms[ea + eb] = terms.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in terms.items() if c}, order


def _assert_clean(s):
    """Rat exponents below the Rat order, each with a nonzero Rat
    coefficient, read off the one stored int form: exponents (lo + i s)/qd
    below top/qd with qd > 0 and gcd(qd, lo, s, top) = 1, and a row that
    starts and ends nonzero, with nonzero entries at indices of gcd 1, over
    a denominator coprime to them; zero is lo = top, s = qd, den 1."""
    assert type(s.order) is Rat and s.order == Rat(s.top, s.qd)
    assert type(s.valuation()) is Rat
    for e, c in s.terms.items():
        assert type(e) is Rat and e < s.order
        assert type(c) is Rat and c
    assert all(type(x) is int for x in (s.qd, s.lo, s.s, s.top, s.den, *s.row))
    assert s.qd > 0 and s.s > 0 and s.den > 0
    assert gcd(s.qd, s.lo, s.s, s.top) == 1
    if not s.row:
        assert (s.lo, s.s, s.den) == (s.top, s.qd, 1)
        return
    assert s.row[0] and s.row[-1] and s.lo + s.s * (len(s.row) - 1) < s.top
    assert gcd(*(i for i, c in enumerate(s.row) if c)) == (1 if len(s.row) > 1 else 0)
    assert len(s.row) > 1 or s.s == s.qd
    assert gcd(s.den, *s.row) == 1


_mixed_exponents = st.builds(Rat, st.integers(-24, 48), st.sampled_from([1, 2, 3, 8, 24]))
_mixed_coeffs = st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 7]))
_mixed_series = st.builds(
    PuiseuxSeries,
    st.dictionaries(_mixed_exponents, _mixed_coeffs, max_size=6),
    st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])),
)


def _on_grid(offset, step, coeffs, order):
    return PuiseuxSeries({offset + k * step: c for k, c in enumerate(coeffs)}, order)


# series on grids offset + step Z that differ from operand to operand
_grid_series = st.builds(
    _on_grid,
    st.sampled_from([Rat(0), Rat(1, 8), Rat(-1, 3), Rat(5, 24), Rat(1, 2), Rat(-7, 4)]),
    st.sampled_from([Rat(1, 3), Rat(1, 8), Rat(1), Rat(3, 2), Rat(1, 24), Rat(2)]),
    st.lists(_mixed_coeffs, max_size=8),
    st.builds(Rat, st.integers(-6, 30), st.sampled_from([1, 2, 3, 8])),
)
_any_series = st.one_of(_mixed_series, _grid_series)


def _former_json_terms(s):
    """series_to_json's terms as rat_str of each Rat pair of items(): the
    oracle for the terms written straight off the int row."""
    return [{"exp": rat_str(e), "coeff": rat_str(c)} for e, c in s.items()]


# rational grids, many below zero, with coefficients over a common den > 1
_json_series = st.builds(
    lambda v, step, den, cs, order: _on_grid(v, step, [Rat(c, den) for c in cs], order),
    st.builds(Rat, st.integers(-60, 20), st.integers(1, 24)),
    st.builds(Rat, st.integers(1, 12), st.integers(1, 24)),
    st.integers(2, 36),
    st.lists(st.integers(-40, 40), max_size=10),
    st.builds(Rat, st.integers(-10, 40), st.integers(1, 6)),
)


class TestJsonAgainstRatStrings:
    @given(st.one_of(_json_series, _any_series))
    @settings(max_examples=300, deadline=None)
    @example(zero(Rat(5, 2)))
    @example(_on_grid(Rat(-7, 6), Rat(5, 12), [Rat(1, 6), 0, Rat(-3, 4), Rat(2, 3)], 3))
    def test_terms_match_rat_str_of_items(self, s):
        assert series_to_json(s)["terms"] == _former_json_terms(s)


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

    @given(
        _any_series,
        _mixed_exponents,
        st.one_of(st.integers(-3, 3), _mixed_coeffs),
        st.builds(Rat, st.integers(1, 12), st.sampled_from([1, 2, 3, 8])),
    )
    @settings(max_examples=300, deadline=None)
    def test_shift_scale_q_and_neg_against_the_constructor(self, a, e, c, k):
        got = a.shift(e, c)
        assert got == PuiseuxSeries({x + e: y * c for x, y in a.terms.items()}, a.order + e)
        got_k = a.scale_q(k)
        assert got_k == PuiseuxSeries({x * k: y for x, y in a.terms.items()}, a.order * k)
        neg = -a
        assert neg == PuiseuxSeries({x: -y for x, y in a.terms.items()}, a.order)
        for s in (got, got_k, neg, a.shift(e)):
            _assert_clean(s)

    @given(_any_series, st.builds(Rat, st.integers(-30, 30), st.sampled_from([1, 3, 8])))
    @settings(max_examples=200, deadline=None)
    def test_truncate_keeps_the_terms_below_the_order(self, a, cut):
        order = min(a.order, cut)
        got = a.truncate(order)
        assert got == PuiseuxSeries(a.terms, order)
        assert got.terms == {e: c for e, c in a.terms.items() if e < order}
        _assert_clean(got)


def _dict_sum(a, b, sign=1):
    """a + sign b as (terms, order), summed term by term in Rat."""
    order = min(a.order, b.order)
    terms = {e: c for e, c in a.terms.items() if e < order}
    for e, c in b.terms.items():
        if e < order:
            terms[e] = terms.get(e, 0) + sign * c
    return {e: c for e, c in terms.items() if c}, order


class TestRowsAgainstDictSemantics:
    @given(_any_series, _any_series)
    @settings(max_examples=300, deadline=None)
    def test_add_and_sub_on_different_grids(self, a, b):
        for got, sign in ((a + b, 1), (a - b, -1)):
            terms, order = _dict_sum(a, b, sign)
            assert got.terms == terms and got.order == order
            _assert_clean(got)
        assert b + a == a + b

    @given(_any_series)
    @settings(max_examples=150, deadline=None)
    def test_terms_and_json_rebuild_the_same_series(self, a):
        for b in (PuiseuxSeries(a.terms, a.order), series_from_json(series_to_json(a))):
            assert b == a and hash(b) == hash(a)
        assert a.items() == sorted(a.terms.items())
        assert a.truncate(a.order) is a

    @given(_any_series, st.integers(-48, 96), st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_coeff_reads_the_terms_on_and_off_the_grid(self, a, n, d):
        terms = a.terms
        near = [x + Rat(k, d) for x in terms for k in (-1, 1)]  # on or off the grid
        for e in (Rat(n, d), n, *terms, *near):
            got = a.coeff(e)
            assert type(got) is Rat and got == terms.get(e, 0)

    def test_a_grid_of_one_term_and_the_zero_series(self):
        # q^(1/8) over qd = 8, its one term on the step s = qd
        a = monomial(Rat(-3, 4), Rat(1, 8), 2)
        assert (a.qd, a.lo, a.s, a.top, a.row, a.den) == (8, 1, 8, 16, [-3], 4)
        b = _on_grid(Rat(1, 8), Rat(1, 3), [2, 0, 0, Rat(4, 3)], 3)
        assert (b.qd, b.lo, b.s, b.top, b.row, b.den) == (8, 1, 8, 24, [6, 4], 3)
        z = a - a
        assert z == zero(2) and (z.qd, z.lo, z.s, z.top, z.row, z.den) == (1, 2, 1, 2, [], 1)
        assert a.coeff(Rat(1, 8)) == Rat(-3, 4) and a.coeff(Rat(9, 8)) == 0


def _series_operators():
    """SERIES_OPERATORS of bench/tracer.py, which wraps each by name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("falsetheta_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SERIES_OPERATORS


def test_traced_operators_stay_methods_and_terms_stays_a_dict():
    # the traced benchmark looks each operator up in the class dict, and
    # counts terms with len() only when they are a dict
    missing = [op for op in _series_operators() if op not in PuiseuxSeries.__dict__]
    assert missing == []
    s = one(2) + monomial(3, Rat(1, 8), 2)
    assert type(s.terms) is dict and s.terms == {Rat(0): 1, Rat(1, 8): 3}


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
        assert eta_quotient({1: 1}, order) == pentagonal_eta(order)

    def test_eta_scale_two(self):
        e2 = eta_quotient({2: 1}, Rat(20))
        assert e2.valuation() == Rat(2, 24)
        assert e2.coeff(Rat(1, 12) + 2) == -1

    @pytest.mark.parametrize("powers", [{1: 5, 2: -1}, {1: 1, 2: -1}, {1: 3}, {2: 3}, {3: -2, 1: 1}])
    def test_eta_quotient_against_pentagonal_sums(self, powers):
        order, deep = Rat(29, 3), Rat(35, 3)
        want = one(deep)
        for k, p in powers.items():
            eta_k = pentagonal_eta(deep / k).scale_q(k)  # eta(k tau)
            for _ in range(abs(p)):
                want = want * (eta_k if p > 0 else eta_k.invert())
        assert eta_quotient(powers, order) == want.truncate(order)

    @pytest.mark.parametrize("powers", [{0: 1}, {-2: 1}, {1: Rat(1, 2)}, {"1": 1}, {Rat(1, 2): 2}])
    def test_eta_quotient_rejects_bad_powers(self, powers):
        with pytest.raises(ValueError, match="powers must map"):
            eta_quotient(powers, Rat(5))

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


def _lattice_coeffs(lo, hi):
    # exact small rationals, and Fraction of arbitrary floats, whose
    # denominators run to 2^52 and beyond, as the numeric layer passes
    return _rationals(lo, hi) | st.floats(lo, hi, allow_subnormal=False).map(Fraction)


def _brute_lattice(form, linear, const, order, lower):
    """The points n >= lower with E(n) < order and E(n), from a box |n_i| <= R.

    With r = max |n_i|, E(n) >= mu r^2 - (|l1| + |l2|) r + const, where
    mu = det / trace <= the smaller eigenvalue of the quadratic part; as
    in _brute_range, nothing lies outside the first R past the vertex
    where that bound reaches the order.
    """
    a, b, c = form
    l1, l2 = linear
    mu = (a * c - b * b / 4) / (a + c)
    L = abs(l1) + abs(l2)
    R = 0
    while 2 * mu * R < L or mu * R * R - L * R + const < order:
        R += 1
    box = range(-R, R + 1)
    lo1, lo2 = (-R if x is None else x for x in lower)
    return [
        (n1, n2, E)
        for n1 in box if n1 >= lo1
        for n2 in box if n2 >= lo2
        for E in [a * n1 * n1 + b * n1 * n2 + c * n2 * n2 + l1 * n1 + l2 * n2 + const]
        if E < order
    ]


class TestLatticePoints:
    @given(
        a=_lattice_coeffs(1, 4), c=_lattice_coeffs(1, 4),
        skew=_lattice_coeffs(-1, 1),
        l1=_lattice_coeffs(-3, 3), l2=_lattice_coeffs(-3, 3), const=_lattice_coeffs(-3, 3),
        order=_lattice_coeffs(-4, 12),
        lower=st.tuples(st.none() | st.integers(-4, 4), st.none() | st.integers(-4, 4)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, a, c, skew, l1, l2, const, order, lower):
        b = skew * Rat(8, 5) * min(a, c)  # |b| < 2 sqrt(ac): positive definite
        args = ((a, b, c), (l1, l2), const, order, lower)
        want = _brute_lattice(*args)
        assert list(lattice_points(*args)) == want
        rows = list(lattice_rows(*args))
        assert all(isinstance(r, range) for _, r in rows)
        assert [n1 for n1, _ in rows] == sorted({n1 for n1, _ in rows})
        assert [(n1, n2) for n1, r in rows for n2 in r] == [(n1, n2) for n1, n2, _ in want]

    @given(
        a=_rationals(1, 4, 4), c=_rationals(1, 4, 4),
        skew=_rationals(-1, 1, 4),
        l1=_rationals(-3, 3, 8), l2=_rationals(-3, 3, 8), const=_rationals(-3, 3, 8),
        order=_rationals(-4, 12),
        lower=st.tuples(st.none() | st.integers(-4, 4), st.none() | st.integers(-4, 4)),
        w=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        wden=st.sampled_from([1, 1, 2, 3, 7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_sum_matches_one_rat_per_point(self, a, c, skew, l1, l2, const, order, lower,
                                           w, wden):
        b = skew * Rat(8, 5) * min(a, c)
        args = ((a, b, c), (l1, l2), const, order)

        def weight(n1, n2):  # an int for wden 1, else a Rat; some weights are 0
            x = w[0] * n1 + w[1] * n2 + w[2]
            return x if wden == 1 else Rat(x, wden)

        acc = {}
        for n1, n2, e in lattice_points(*args, lower):
            acc[e] = acc.get(e, 0) + weight(n1, n2)
        got = lattice_sum(*args, weight, lower)
        assert got == PuiseuxSeries(acc, order)
        _assert_clean(got)

    @pytest.mark.parametrize("form", [(1, 2, 1), (1, 3, 1), (0, 0, 1), (-1, 0, -1)])
    def test_rejects_a_form_that_is_not_positive_definite(self, form):
        with pytest.raises(ValueError):
            next(lattice_rows(form, (0, 0), 0, 5))
        with pytest.raises(ValueError):
            next(lattice_points(form, (0, 0), 0, 5))


def _explicit_binomials(factors, order):
    """prod (1 - sign u^a q^e)^power with u = z1, one bl_mul per factor.

    A negative power with a = 0 inverts the q-series; with a = 1 and
    sign 1 it is expand_inverse_one_minus, and otherwise the explicit
    geometric sum of (sign u^a q^e)^k.
    """
    out = bl_monomial(1, 0, 0, order)
    for sign, a, e, power in factors:
        if a == 0:
            b = one(order) - monomial(sign, e, order)
            for _ in range(abs(power)):
                out = bl_scalar_mul(out, b.invert() if power < 0 else b)
            continue
        if power == 0:
            continue
        if power > 0:
            b = bl_add(bl_monomial(1, 0, 0, order),
                       bl_monomial(monomial(-sign, e, order), a, 0, order))
        elif a == 1 and sign == 1:
            b = expand_inverse_one_minus(e, order)
        else:
            k, terms = 0, {}
            while k * e < order:
                terms[(a * k, 0)] = monomial(sign ** k, k * e, order)
                k += 1
            b = BiLaurentSeries(terms, order)
        for _ in range(abs(power)):
            out = bl_mul(out, b)
    return out.truncate_q(order)


def _table_series(factors, order, start=None):
    d, table = _binomial_table(factors, order, start)
    terms = {
        (m, 0): PuiseuxSeries({Rat(i, d): c for i, c in enumerate(row)}, order)
        for m, row in table.items()
    }
    return BiLaurentSeries(terms, order)


def _factor(grid=None):
    """A factor (sign, a, e, power); with a grid d, e lies on the grid 1/d."""
    lift = Rat(1, grid or 2)

    def fix(sign, a, e, power):
        # the INNER inverse needs e > 0; e = 0 inverses are refused
        return (sign, a, e if power >= 0 or e else lift, power)

    return st.builds(
        fix,
        st.sampled_from([1, -1]),
        st.sampled_from([-1, 0, 1, 2]),
        _rationals(0, 5) if grid is None else st.builds(Rat, st.integers(0, 5 * grid), st.just(grid)),
        st.integers(-2, 3),
    )


class TestBinomialKernel:
    @given(st.lists(_factor(), max_size=4), st.builds(Rat, st.integers(1, 8), st.just(2)))
    @example([(-1, 0, Rat(1, 2), -1)], Rat(4))  # 1/(1 + q^(1/2)): _divide's sign
    @settings(max_examples=80, deadline=None)
    def test_matches_the_factor_by_factor_product(self, factors, order):
        assert _table_series(factors, order) == _explicit_binomials(factors, order)

    @pytest.mark.parametrize("a", [0, 1, -1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_inverting_a_constant_is_refused(self, sign, a):
        # with e = 0 no q-order stops the sum of (sign u^a)^k
        with pytest.raises(ValueError, match="cannot expand"):
            _binomial_table([(sign, a, 0, -1)], Rat(3))

    @given(st.lists(_factor(), max_size=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_continued_table_is_the_product_of_both_lists(self, first, data):
        o1 = Rat(data.draw(st.integers(1, 16), label="2 o1"), 2)
        d, table = _binomial_table(first, o1)
        # the second list lies on the first table's grid 1/d, at o2 <= o1
        second = data.draw(st.lists(_factor(d), max_size=3), label="second")
        o2 = Rat(data.draw(st.integers(1, 12 * o1), label="12 o2"), 12)
        got = _table_series(second, o2, (d, table))
        assert got == _explicit_binomials(first + second, o2)

    @pytest.mark.parametrize("factors, o1, o2", [
        ([(1, 0, 1, 1)], Rat(3), Rat(7, 2)),
        ([(-1, 1, Rat(1, 2), -1)], Rat(3), Rat(31, 10)),
        ([(1, -1, 2, 2)], Rat(1, 2), Rat(4)),
        ([(1, 0, 1, 1)], Rat(0), Rat(1, 2)),  # an empty table holds nothing
    ])
    def test_continuing_beyond_the_rows_is_refused(self, factors, o1, o2):
        start = _binomial_table(factors, o1)
        with pytest.raises(ValueError, match="rows end before"):
            _binomial_table([(1, 0, 1, 1)], o2, start)

    @pytest.mark.parametrize("factors, e", [
        ([(1, 0, 1, 1)], Rat(1, 2)),
        ([(1, 1, Rat(1, 2), -1)], Rat(1, 3)),
        ([(-1, 0, Rat(1, 6), 1)], Rat(1, 4)),
    ])
    def test_an_exponent_off_the_grid_is_refused(self, factors, e):
        start = _binomial_table(factors, Rat(4))
        with pytest.raises(ValueError, match="on the grid 1/"):
            _binomial_table([(1, 0, e, 1)], Rat(3), start)


def test_rat_string_roundtrip():
    assert rat_str(Rat(-3, 7)) == "-3/7"
    assert parse_rat("-3/7") == Rat(-3, 7)
    assert parse_rat("5") == Rat(5)


@pytest.mark.parametrize("s, message", [
    ("1/0", "zero denominator"),
    ("-3/0", "zero denominator"),
    ("1/2/3", "unpack"),
    ("x", "invalid literal"),
    ("1.5", "invalid literal"),
    (3, "expected a 'num/den' string"),
    (None, "expected a 'num/den' string"),
])
def test_parse_rat_refuses_a_malformed_string_with_value_error(s, message):
    with pytest.raises(ValueError, match=message):
        parse_rat(s)


@pytest.mark.parametrize("path, field", [
    ((), "order"),
    ((), "terms"),
    (("terms", 0), "exp"),
    (("terms", 0), "coeff"),
])
def test_series_json_missing_a_field_is_refused_by_name(path, field):
    d = series_to_json(monomial(Rat(2, 3), Rat(1, 2), 3))
    node = d
    for step in path:
        node = node[step]
    del node[field]
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        series_from_json(d)


@pytest.mark.parametrize("terms", [3, None, "exp", {"exp": "0", "coeff": "1"}])
def test_series_json_terms_that_are_not_a_list_are_refused_by_name(terms):
    with pytest.raises(ValueError, match="'terms' is not a list"):
        series_from_json({"order": "1", "terms": terms})


@pytest.mark.parametrize("value, message", [
    ("1/0", "zero denominator"), (3, "expected a 'num/den' string")])
@pytest.mark.parametrize("field", ["order", "exp", "coeff"])
def test_series_json_malformed_rational_is_a_value_error(field, value, message):
    d = series_to_json(monomial(Rat(2, 3), Rat(1, 2), 3))
    (d if field == "order" else d["terms"][0])[field] = value
    with pytest.raises(ValueError, match=message):
        series_from_json(d)
