"""Bivariate Laurent layer: windows, products and transforms."""

import json
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, monomial, one as q_one, zero as q_zero
from falsetheta.bilaurent import (
    BiLaurentSeries,
    UNIT_KEYS,
    bl_monomial,
    bl_add,
    bl_mul,
    bl_on_unit,
    bl_scalar_mul,
    bl_elliptic_shift,
    expand_inverse_one_minus,
    bl_to_json,
    bl_from_json,
    _WEYL,
)
from falsetheta.thetas import calT, f_series, t2t_factor, theta_hat, _swap_orbit, _weyl_orbit
from falsetheta.identities import _build_E3, _t2t_sum


def mono(c, e1, e2, qexp, qorder, window=None):
    m = bl_monomial(monomial(c, qexp, qorder), e1, e2, qorder)
    return m if window is None else m.clip(window)


class TestStructure:
    def test_coeff_outside_window_rejected(self):
        a = mono(1, 1, 0, 0, Rat(5), window=2)
        with pytest.raises(ValueError):
            a.coeff(3, 0)
        c = bl_mul(mono(1, 1, 0, 0, Rat(5)), mono(1, 2, 0, 1, Rat(5))).clip(2)
        assert c.coeff(2, 0).is_zero()  # inside the clip, outside the support
        with pytest.raises(ValueError):
            c.coeff(3, 0)

    def test_constructor_rejects_shallow_coefficients(self):
        with pytest.raises(ValueError):
            BiLaurentSeries({(0, 0): q_one(Rat(2))}, Rat(5))

    def test_mul_qorder_rule(self):
        a = mono(1, 0, 0, 2, Rat(6))  # valuation 2, order 6
        b = mono(1, 1, 0, 3, Rat(7))  # valuation 3, order 7
        c = bl_mul(a, b)
        assert c.qorder == min(Rat(6) + 3, Rat(7) + 2)
        assert c.coeff(1, 0).coeff(5) == 1

    def test_a_product_row_too_long_to_lay_out_is_refused(self):
        # known below q^(10^8), so each key's product row has 10^8 entries
        p = PuiseuxSeries({0: 1, 1: 1}, 10**8)
        with pytest.raises(ValueError, match="entries is longer than"):
            bl_mul(bl_monomial(p, 0, 0, 10**8), bl_monomial(p, 1, 0, 10**8))

    def test_add_keeps_the_smaller_window(self):
        a = mono(1, 0, 0, 0, Rat(5), window=3)
        b = mono(1, 1, 1, 0, Rat(5), window=1)
        assert bl_add(a, b).window == 1
        assert bl_add(b, a).window == 1
        assert bl_add(a, mono(1, 2, 0, 0, Rat(5))).window == 3
        assert bl_add(mono(1, 0, 0, 0, Rat(5)), mono(1, 2, 0, 0, Rat(5))).window is None

    def test_mul_of_unwindowed_series_has_no_window(self):
        a = bl_add(mono(1, 0, 0, 0, Rat(5)), mono(1, 1, 0, 1, Rat(5)))
        c = bl_mul(a, a)
        assert c.window is None
        # a key outside the product's support reads as zero
        assert c.coeff(10, 0).is_zero() and c.coeff(0, -7).is_zero()

    def test_truncate_and_clip(self):
        a = bl_add(mono(1, 0, 0, 1, Rat(8)), mono(2, 3, -1, 2, Rat(8)))
        t = a.truncate_q(Rat(2))
        assert t.coeff(0, 0).coeff(1) == 1 and t.coeff(3, -1).is_zero()
        c = a.clip(2)
        assert (3, -1) not in c.terms and c.window == 2

    def test_json_roundtrip(self):
        a = bl_add(mono(1, 0, 0, 1, Rat(8)), mono(-2, 2, -1, Rat(5, 2), Rat(8)))
        b = bl_from_json(bl_to_json(a))
        assert b.terms == a.terms and b.qorder == a.qorder
        assert bl_to_json(b)["region"] == "INNER"

    def test_json_roundtrip_at_a_rational_window(self):
        a = _build_E3({"part": "product"}, 20)[0]
        assert a.window == Rat(29, 2)
        d = json.loads(json.dumps(bl_to_json(a)))
        assert d["window"] == "29/2"
        b = bl_from_json(d)
        assert b == a and b.window == a.window

    def test_json_writes_an_integer_window_as_an_int(self):
        for w in (2, Rat(2)):
            d = bl_to_json(mono(1, 0, 0, 1, Rat(8), window=w))
            assert d["window"] == 2 and type(d["window"]) is int
            assert bl_from_json(d).window == 2

    @pytest.mark.parametrize("window", [2.5, True, "x", "1/0", "1/2/3", [1]])
    def test_json_refuses_a_malformed_window(self, window):
        d = dict(bl_to_json(mono(1, 0, 0, 1, Rat(8))), window=window)
        with pytest.raises(ValueError, match="window"):
            bl_from_json(d)

    def test_json_refuses_another_region(self):
        d = dict(bl_to_json(mono(1, 0, 0, 1, Rat(8))), region="OUTER")
        with pytest.raises(ValueError, match="region"):
            bl_from_json(d)

    @pytest.mark.parametrize("field", ["region", "qorder", "window", "terms"])
    def test_json_missing_a_field_is_refused_by_name(self, field):
        d = bl_to_json(mono(1, 0, 0, 1, Rat(8)))
        del d[field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            bl_from_json(d)

    @pytest.mark.parametrize("terms", [3, None, "e1", {"e1": "0", "e2": "0"}])
    def test_json_terms_that_are_not_a_list_are_refused_by_name(self, terms):
        d = dict(bl_to_json(mono(1, 0, 0, 1, Rat(8))), terms=terms)
        with pytest.raises(ValueError, match="'terms' is not a list"):
            bl_from_json(d)

    @pytest.mark.parametrize("field", ["e1", "e2", "series"])
    def test_json_term_missing_a_field_is_refused_by_name(self, field):
        d = bl_to_json(mono(1, 0, 0, 1, Rat(8)))
        del d["terms"][0][field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            bl_from_json(d)

    @pytest.mark.parametrize("field", ["qorder", "e1"])
    def test_json_zero_denominator_is_a_value_error(self, field):
        d = bl_to_json(mono(1, 0, 0, 1, Rat(8)))
        (d if field == "qorder" else d["terms"][0])[field] = "1/0"
        with pytest.raises(ValueError, match="zero denominator"):
            bl_from_json(d)


def _pairwise_product(a, b):
    """The product key pair by key pair with PuiseuxSeries.__mul__:
    (terms, qorder), the oracle for bl_mul."""
    qorder = min(a.qorder + b.qvaluation(), b.qorder + a.qvaluation())
    terms, tb = {}, b.terms  # each read of terms builds a new map
    for ka, ca in a.terms.items():
        for kb, cb in tb.items():
            if ca.valuation() + cb.valuation() >= qorder:
                continue
            key = (ka[0] + kb[0], ka[1] + kb[1])
            terms[key] = terms[key] + ca * cb if key in terms else ca * cb
    terms = {k: c.truncate(qorder) for k, c in terms.items()}
    return {k: c for k, c in terms.items() if not c.is_zero()}, qorder


_exponents = st.builds(Rat, st.integers(-24, 48), st.sampled_from([1, 2, 3, 8, 24]))
_coeffs = st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 7]))
_keys = st.tuples(
    st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
)


@st.composite
def _operands(draw):
    qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
    keys = draw(st.dictionaries(_keys, st.dictionaries(_exponents, _coeffs, max_size=5),
                                max_size=4))
    return BiLaurentSeries(
        {k: PuiseuxSeries(c, qorder) for k, c in keys.items()}, qorder
    )


@st.composite
def _operand_pairs(draw):
    return draw(_operands()), draw(_operands())


@st.composite
def _scalar_operands(draw):
    a = draw(_operands())
    window = draw(st.none() | st.integers(0, 3))
    qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
    s = PuiseuxSeries(draw(st.dictionaries(_exponents, _coeffs, max_size=5)), qorder)
    return (a if window is None else a.clip(window)), s


class TestScalarMulAgainstPerKeyProducts:
    @given(_scalar_operands())
    @settings(max_examples=300, deadline=None)
    def test_random_operands(self, operands):
        a, s = operands
        qorder = min(a.qorder + s.valuation(), s.order + a.qvaluation())
        terms = {k: (c * s).truncate(qorder) for k, c in a.terms.items()}
        got = bl_scalar_mul(a, s)
        assert got.terms == {k: c for k, c in terms.items() if not c.is_zero()}
        assert (got.qorder, got.window) == (qorder, a.window)

    @given(_scalar_operands(), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_an_int_scalar_keeps_the_qorder_and_window(self, operands, n):
        a, _ = operands
        got = bl_scalar_mul(a, n)
        assert got.terms == {k: c * n for k, c in a.terms.items() if n}
        assert (got.qorder, got.window) == (a.qorder, a.window)


class TestMulAgainstPairwiseProducts:
    def check(self, a, b):
        terms, qorder = _pairwise_product(a, b)
        c = bl_mul(a, b)
        assert c.terms == terms and c.qorder == qorder and c.window is None

    @given(_operand_pairs())
    @settings(max_examples=300, deadline=None)
    def test_random_operands(self, pair):
        self.check(*pair)

    _A = mono(Rat(-3, 2), Rat(1, 2), -1, Rat(-7, 24), Rat(5, 3))
    _B = mono(Rat(2, 3), 1, Rat(-3, 2), Rat(3, 8), Rat(4))

    def test_one_term_operands(self):
        self.check(self._A, self._B)
        self.check(self._A, bl_monomial(1, 0, 0, Rat(1)))

    def test_an_empty_operand(self):
        self.check(BiLaurentSeries({}, Rat(3)), self._B)
        self.check(self._A, BiLaurentSeries({}, Rat(-2)))

    @pytest.mark.parametrize(
        "build", [lambda u, n: bl_on_unit(t2t_factor(n), u),
                  lambda u, n: _t2t_sum(u, n, "closed")],
        ids=["product", "closed"],
    )
    def test_the_factors_of_f_and_J(self, build):
        # coefficients on 1/8 + Z, calT's on 2Z
        a, b, c = (build(u, Rat(5)) for u in ("z1", "z2", "z12"))
        self.check(a, b)
        self.check(bl_mul(a, b), c)
        self.check(calT(Rat(5)), bl_mul(bl_mul(a, b), c))

    def test_keys_whose_pairs_all_lie_past_the_order(self):
        # z2 q^5 z2 q^5 lies past the order 6, and (1 + z1)(1 - z1) has no z1
        a = bl_add(bl_add(mono(1, 0, 0, 0, Rat(6)), mono(1, 1, 0, 0, Rat(6))),
                   mono(1, 0, 1, 5, Rat(6)))
        b = bl_add(bl_add(mono(1, 0, 0, 0, Rat(6)), mono(-1, 1, 0, 0, Rat(6))),
                   mono(1, 0, 1, 5, Rat(6)))
        self.check(a, b)
        c = bl_mul(a, b)
        assert (0, 2) not in c.terms and (1, 0) not in c.terms


class TestExpansions:
    def test_inner_geometric_positive_shift(self):
        # 1/(1 - z q^2) = sum_k z^k q^(2k)
        g = expand_inverse_one_minus(2, Rat(7), zwindow=6)
        assert g.coeff(0, 0).coeff(0) == 1
        assert g.coeff(3, 0).coeff(6) == 1
        assert g.coeff(1, 0).coeff(3) == 0

    def test_inner_negative_shift_flips(self):
        # 1/(1 - z q^-1) = -sum_{k>=1} z^-k q^k for |q| < |z| < 1
        g = expand_inverse_one_minus(-1, Rat(5), zwindow=6)
        assert g.coeff(-2, 0).coeff(2) == -1
        assert g.coeff(0, 0).is_zero()

    def test_zero_shift_needs_a_window(self):
        with pytest.raises(ValueError):
            expand_inverse_one_minus(0, Rat(3))
        g = bl_on_unit(expand_inverse_one_minus(0, Rat(3), zwindow=4), "z2")
        assert sorted(g.terms) == [(0, k) for k in range(5)]
        assert g.window == 4

    def test_diagonal_unit_multiplication(self):
        a = mono(1, 1, 1, 0, Rat(4))
        b = mono(1, 1, 1, 1, Rat(4))
        c = bl_mul(a, b)
        assert c.coeff(2, 2).coeff(1) == 1


class TestTransforms:
    def test_elliptic_shift_moves_q_powers(self):
        a = bl_add(mono(1, 2, 0, 0, Rat(8), window=4), mono(1, -1, 0, 0, Rat(8), window=4))
        s = bl_elliptic_shift(a, 1, 0)
        assert s.qorder == 4  # every key of the window moves, absent ones too
        assert s.coeff(2, 0).coeff(2) == 1
        assert s.coeff(-1, 0).coeff(-1) == 1


# -- int key rows against Rat-keyed dicts ----------------------------------------


def _window_dict(terms, qorder, window):
    """terms {Rat key: series} clipped to the window and truncated to qorder,
    zeros dropped: what a series built from them holds."""
    out = {}
    for k, c in terms.items():
        if window is None or (abs(k[0]) <= window and abs(k[1]) <= window):
            c = c.truncate(qorder)
            if not c.is_zero():
                out[k] = c
    return out


def _assert_canonical(a):
    """kd is the least common denominator of the Rat keys, 1 if there are
    none, and the rows read back as those keys."""
    assert a.kd == lcm(1, *(e.denominator for k in a.terms for e in k))
    assert all(type(e) is Rat for k in a.terms for e in k)
    assert {(k[0] * a.kd, k[1] * a.kd) for k in a.terms} == set(a.rows)


_windows = st.none() | st.sampled_from([0, 1, Rat(3, 2), 2, Rat(7, 3)])


@st.composite
def _raw_operands(draw):
    """(terms, qorder, window): Rat keys of denominators 1, 2 and 3."""
    qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
    keys = draw(st.dictionaries(_keys, st.dictionaries(_exponents, _coeffs, max_size=4),
                                max_size=5))
    terms = {k: PuiseuxSeries(c, qorder) for k, c in keys.items()}
    return terms, qorder, draw(_windows)


class TestRowsAgainstDictSemantics:
    @given(st.lists(_raw_operands(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_n_ary_add_with_windows(self, raws):
        ops = [BiLaurentSeries(t, q, w) for t, q, w in raws]
        qorder = min(q for _, q, _ in raws)
        window = min((w for _, _, w in raws if w is not None), default=None)
        want = {}
        for t, q, w in raws:
            for k, c in _window_dict(t, q, w).items():
                want[k] = want[k] + c if k in want else c
        got = bl_add(*ops)
        assert got.terms == _window_dict(want, qorder, window)
        assert (got.qorder, got.window) == (qorder, window)
        for a in (got, *ops):
            _assert_canonical(a)

    @given(_raw_operands(), _raw_operands())
    @settings(max_examples=200, deadline=None)
    def test_one_series_built_by_different_routes(self, ra, rb):
        a, b = (BiLaurentSeries(t, q, w) for t, q, w in (ra, rb))
        routes = [(bl_add(a, b), bl_add(b, a)), (a, BiLaurentSeries(a.terms, a.qorder)),
                  (a, bl_from_json(bl_to_json(a))),
                  (a, bl_add(bl_add(a, a, a), bl_scalar_mul(a, -2)))]
        for x, y in routes:
            assert x == y and hash(x) == hash(y)
            assert (x.kd, x.rows) == (y.kd, y.rows)

    def test_half_integer_keys_cancel_to_key_denominator_one(self):
        a = bl_add(mono(1, Rat(1, 2), 0, 0, Rat(3)), mono(2, 1, Rat(-2, 3), 1, Rat(3)))
        assert a.kd == 6
        b = bl_add(a, mono(-1, Rat(1, 2), 0, 0, Rat(3)), mono(1, 2, Rat(2, 3), 0, Rat(3)))
        assert b.kd == 3 and sorted(b.rows) == [(3, -2), (6, 2)]
        c = bl_add(b, mono(-2, 1, Rat(-2, 3), 1, Rat(3)), mono(-1, 2, Rat(2, 3), 0, Rat(3)))
        assert c.kd == 1 and c.rows == {} and c == BiLaurentSeries({}, Rat(3))

    @given(_raw_operands(), _keys, st.sampled_from([5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_coeff_reads_the_dict_and_zero_off_the_key_lattice(self, raw, key, p):
        terms, qorder, _ = raw
        a = BiLaurentSeries(terms, qorder)
        want = _window_dict(terms, qorder, None)
        assert a.coeff(*key) == want.get(key, q_zero(qorder))
        # k/(kd p) times kd has the numerator of a stored k, but is off the
        # lattice of keys over kd unless p divides k
        kd = a.kd
        for k1, k2 in a.rows:
            for off in ((Rat(k1, kd * p), Rat(k2, kd)), (Rat(k1, kd), Rat(k2, kd * p))):
                assert a.coeff(*off) == want.get(off, q_zero(qorder))

    @given(st.integers(-2, 2), st.integers(0, 4), st.sampled_from(["z1", "z12"]))
    @settings(max_examples=40, deadline=None)
    def test_clip_and_elliptic_shift_on_half_integer_keys(self, m, j, unit):
        # E2's path: theta_hat's keys lie in 1/2 + Z
        W = j + Rat(1, 2)
        th = bl_on_unit(theta_hat(1, Rat(12)), unit)
        clipped = th.clip(W)
        want = _window_dict(th.terms, th.qorder, W)
        assert clipped.terms == want and clipped.window == W and clipped.kd == 2
        got = bl_elliptic_shift(clipped, m, 0)
        qorder = th.qorder - abs(m) * W
        want = {k: c.shift(m * k[0]) for k, c in want.items()}
        assert got.terms == _window_dict(want, qorder, W)
        assert (got.qorder, got.window) == (qorder, W)
        _assert_canonical(got)


# -- one series in z1 moved onto a unit -------------------------------------------


@st.composite
def _z1_operands(draw):
    """(terms, qorder, window) with keys (e, 0), e of denominator 1 or 2."""
    qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
    keys = draw(st.dictionaries(st.builds(Rat, st.integers(-7, 7), st.sampled_from([1, 2])),
                                st.dictionaries(_exponents, _coeffs, max_size=4), max_size=5))
    terms = {(e, Rat(0)): PuiseuxSeries(c, qorder) for e, c in keys.items()}
    return terms, qorder, draw(_windows)


class TestOnUnit:
    @given(_z1_operands(), st.sampled_from(sorted(UNIT_KEYS)))
    @settings(max_examples=200, deadline=None)
    def test_is_the_key_map_of_the_unit(self, raw, unit):
        terms, qorder, window = raw
        a = BiLaurentSeries(terms, qorder, window)
        got = bl_on_unit(a, unit)
        # the substitution z1 -> u, written out on the Rat keys
        d1, d2 = {"z1": (1, 0), "z2": (0, 1), "z12": (1, 1)}[unit]
        want = {(e * d1, e * d2): c for (e, _), c in a.terms.items()}
        assert got.terms == want
        assert (got.qorder, got.window) == (a.qorder, a.window)
        _assert_canonical(got)
        # the rows are the same objects, key for key
        moved = {(e * d1, e * d2): c for (e, _), c in a.rows.items()}
        assert got.rows.keys() == moved.keys()
        assert all(got.rows[k] is c for k, c in moved.items())

    def test_refuses_an_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown unit 'z3'"):
            bl_on_unit(theta_hat(1, Rat(3)), "z3")

    def test_refuses_a_key_off_z1(self):
        a = bl_add(mono(1, 1, 0, 0, Rat(3)), mono(1, Rat(1, 2), Rat(-1, 2), 0, Rat(3)))
        with pytest.raises(ValueError, match=r"has the key \(1/2, -1/2\), off z1"):
            bl_on_unit(a, "z12")


# -- the table of W(A2) ----------------------------------------------------------


def _matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _act(m, e):
    (a, b), (c, d) = m
    return (a * e[0] + b * e[1], c * e[0] + d * e[1])


class TestWeylTable:
    ROOTS = {(s * d1, s * d2) for d1, d2 in UNIT_KEYS.values() for s in (1, -1)}

    def test_is_a_group_of_six_matrices(self):
        ms = [m for _, m in _WEYL]
        assert len(set(ms)) == 6 and ((1, 0), (0, 1)) in ms
        assert all(_matmul(x, y) in ms for x in ms for y in ms)

    def test_each_sign_is_the_determinant_and_the_roots_go_to_roots(self):
        for sign, m in _WEYL:
            (a, b), (c, d) = m
            assert sign == a * d - b * c, m
            assert {_act(m, r) for r in self.ROOTS} == self.ROOTS, m

    def test_three_elements_are_root_reflections(self):
        # s_alpha negates alpha; -s_alpha, of the same sign, negates no root,
        # so this tells W(A2) from the other groups of six root symmetries
        reflections = [m for sign, m in _WEYL if sign == -1]
        assert len(reflections) == 3
        for m in reflections:
            assert any(_act(m, r) == (-r[0], -r[1]) for r in self.ROOTS), m


# -- one key per orbit against every key -----------------------------------------


def _fields(a):
    return a.kd, a.rows, a.qorder, a.window


@st.composite
def _even_unit_series(draw):
    """(rows, qorder) of a one-unit series g(u) = g(1/u): the keys m and -m
    share one series, of valuation in 1/8 + Z/6, with mixed denominators."""
    qorder = draw(st.builds(Rat, st.integers(3, 24), st.sampled_from([1, 2, 3])))
    half = draw(st.dictionaries(
        st.builds(Rat, st.integers(0, 3), st.sampled_from([1, 2])),
        st.dictionaries(st.builds(Rat, st.integers(0, 8), st.sampled_from([1, 2, 3])),
                        _coeffs.filter(bool), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    rows = {}
    for m, c in half.items():
        rows[m] = rows[-m] = PuiseuxSeries({Rat(1, 8) + e: x for e, x in c.items()}, qorder)
    return rows, qorder


def _on_unit(rows, unit, qorder):
    d1, d2 = UNIT_KEYS[unit]
    return BiLaurentSeries({(m * d1, m * d2): c for m, c in rows.items()}, qorder)


class TestOrbitProducts:
    @given(_even_unit_series())
    @settings(max_examples=200, deadline=None)
    def test_one_key_per_orbit_against_every_key(self, g):
        rows, qorder = g
        a, b, c = (_on_unit(rows, u, qorder) for u in ("z1", "z2", "z12"))
        for x, y, orbit in ((a, b, _swap_orbit), (bl_mul(a, b), c, _weyl_orbit)):
            got = bl_mul(x, y, orbit=orbit)
            assert _fields(got) == _fields(bl_mul(x, y))
            for k, s in got.rows.items():
                assert all(got.rows[kk] is s for kk in orbit(k))
        got = bl_mul(bl_mul(a, b, orbit=_swap_orbit), c, orbit=_weyl_orbit)
        assert _fields(got) == _fields(bl_mul(bl_mul(a, b), c))

    def test_orbit_is_keyword_only(self):
        # a wrapper that unpacks `a, b = args` sees only the two operands
        a = t2t_factor(Rat(2))
        with pytest.raises(TypeError):
            bl_mul(a, a, _swap_orbit)

    def test_shared_rows_stay_shared(self):
        s = monomial(Rat(1, 3), Rat(1, 8), Rat(4))
        a = BiLaurentSeries({(1, 0): s, (0, 1): s, (1, 1): q_one(Rat(4))}, Rat(4))
        assert a.rows[(1, 0)] is a.rows[(0, 1)]
        t = monomial(2, Rat(1, 2), Rat(3))
        for b in (bl_scalar_mul(a, t), a.truncate_q(Rat(2)), a.clip(1)):
            assert b.rows[(1, 0)] is b.rows[(0, 1)]
        assert bl_scalar_mul(a, t).rows[(0, 1)] == (s * t).truncate(3)

    def test_sharing_survives_an_int_scalar(self):
        f = f_series(6)
        g = bl_scalar_mul(f, -1)
        assert len({id(c) for c in g.rows.values()}) == len({id(c) for c in f.rows.values()})
        assert g == BiLaurentSeries({k: c * -1 for k, c in f.terms.items()}, f.qorder)
