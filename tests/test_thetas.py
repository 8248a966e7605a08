"""Theta builders: product and sum forms, ratio factors, assembled kernels."""

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta.rat import Rat
from falsetheta.series import eta_quotient, monomial
from falsetheta.bilaurent import (
    UNIT_KEYS,
    BiLaurentSeries,
    bl_add,
    bl_monomial,
    bl_mul,
    bl_on_unit,
)
from falsetheta.families import H_frak
from falsetheta.identities import _t2t_sum
from falsetheta.thetas import (
    unit_pochhammer,
    theta_hat,
    theta_hat_sum,
    theta01,
    calT,
    t2t_factor,
    s01_factor,
    f_series,
    f_coeff,
    J_series,
    J_constant_term,
    kw_character_N3,
    _swap_orbit,
    _weyl_orbit,
)


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: unit_pochhammer(1, 1, n),
        lambda n: theta_hat(1, n),
        lambda n: theta_hat_sum(1, n),
        lambda n: theta01(1, n),
        lambda n: calT(n).clip(2),
        lambda n: t2t_factor(n),
        lambda n: s01_factor(n, 2),
        lambda n: f_series(n),
        lambda n: f_coeff(0, 0, n),
        lambda n: J_series(n).clip(2),
        lambda n: J_constant_term(n),
        lambda n: kw_character_N3(n),
        lambda n: eta_quotient({1: 5, 2: -1}, n),
        lambda n: eta_quotient({1: 1, 2: -1}, n),
        lambda n: H_frak(Rat(1, 2), 0, n),
    ],
)
def test_builders_reject_a_non_positive_order(build, order):
    with pytest.raises(ValueError, match="must be positive"):
        build(order)


class TestThetaHat:
    def test_product_equals_sum_form(self):
        for k in (1, 2):
            a = theta_hat(k, Rat(8)).clip(8)
            b = theta_hat_sum(k, Rat(8)).clip(8)
            assert a.terms == b.terms

    def test_leading_terms(self):
        t = theta_hat(1, Rat(4)).clip(4)
        # q^(1/8) (zeta^(-1/2) - zeta^(1/2)) + higher order
        assert t.coeff(Rat(-1, 2), 0).coeff(Rat(1, 8)) == 1
        assert t.coeff(Rat(1, 2), 0).coeff(Rat(1, 8)) == -1

    def test_support_on_half_integers(self):
        t = theta_hat_sum(2, Rat(10)).clip(6)
        assert all((2 * e1).denominator == 1 and e1.denominator == 2 and e2 == 0
                   for e1, e2 in t.terms)

    def test_odd_symmetry_of_coefficients(self):
        t = theta_hat(1, Rat(10)).clip(6)
        for (e1, _), c in t.terms.items():
            assert (t.coeff(-e1, 0) + c).is_zero()


class TestTheta01:
    def test_leading_terms(self):
        t = theta01(1, Rat(3)).clip(4)
        # (q, zeta q^(1/2), zeta^(-1) q^(1/2); q)_infty
        assert t.coeff(0, 0).coeff(0) == 1
        assert t.coeff(1, 0).coeff(Rat(1, 2)) == -1
        assert t.coeff(-1, 0).coeff(Rat(1, 2)) == -1

    def test_even_in_the_unit(self):
        t = theta01(1, Rat(8)).clip(6)
        for (e1, _), c in t.terms.items():
            assert t.coeff(-e1, 0) == c


def _explicit_pochhammer(unit, start, step, qorder, inverse):
    """The product of unit_pochhammer on the unit, one bl_mul per factor
    F(u^s q^e)."""
    d1, d2 = UNIT_KEYS[unit]
    out = bl_monomial(1, 0, 0, qorder)
    e = start
    while e < qorder:
        for s in (1, -1):
            if inverse:
                # 1/(1 - x) = sum_k x^k with x = u^s q^e
                terms = {}
                k = 0
                while k * e < qorder:
                    terms[(k * s * d1, k * s * d2)] = monomial(1, k * e, qorder)
                    k += 1
                fac = BiLaurentSeries(terms, qorder)
            else:
                fac = bl_add(
                    bl_monomial(1, 0, 0, qorder),
                    bl_monomial(monomial(-1, e, qorder), s * d1, s * d2, qorder),
                )
            out = bl_mul(out, fac)
        e += step
    return out


class TestUnitPochhammer:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("unit", ["z1", "z12"])
    @pytest.mark.parametrize(
        "start, step, qorder",
        [
            (Rat(1), Rat(2), Rat(7)),
            (Rat(1, 2), Rat(1), Rat(11, 2)),
            (Rat(2), Rat(2), Rat(9)),
            (Rat(1, 2), Rat(1, 2), Rat(4)),
        ],
    )
    def test_matches_the_factor_by_factor_product(self, inverse, unit, start, step, qorder):
        got = bl_on_unit(unit_pochhammer(start, step, qorder, inverse), unit)
        assert got == _explicit_pochhammer(unit, start, step, qorder, inverse)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_no_factor_enters_below_the_start(self, inverse):
        got = unit_pochhammer(1, 2, Rat(1), inverse)
        assert got == bl_monomial(1, 0, 0, Rat(1))
        assert got == _explicit_pochhammer("z1", 1, 2, Rat(1), inverse)

    def test_rejects_a_step_that_is_not_positive(self):
        with pytest.raises(ValueError):
            unit_pochhammer(1, 0, Rat(3))


class TestLatticeKernels:
    @pytest.mark.parametrize(
        "qorder, W",
        [(Rat(1, 2), 0), (Rat(7, 2), 1), (Rat(5), 2), (Rat(9), 6), (Rat(40), 10), (Rat(13), 3)],
    )
    def test_theta_A2_and_calT_match_a_box(self, qorder, W):
        # calT dilates the A2 theta sum_n q^(Q(n)); a calT key k within the
        # window has n1 = (k1 + k2)/3 and n2 = (2 k1 - k2)/3, so |n1|, |n2| <= W
        cal = {}
        for n1 in range(-W, W + 1):
            for n2 in range(-W, W + 1):
                Q = n1 * n1 - n1 * n2 + n2 * n2
                key = (n1 + n2, 2 * n1 - n2)
                if 2 * Q < qorder and max(abs(key[0]), abs(key[1])) <= W:
                    cal[key] = monomial(1, 2 * Q, qorder)
        assert calT(qorder).clip(W) == BiLaurentSeries(cal, qorder)

    def test_calT_is_the_dilated_substitution(self):
        t = calT(Rat(9)).clip(6)
        # lattice point n contributes q^(2Q(n)) at key (n1+n2, 2n1-n2)
        assert t.coeff(2, 1).coeff(2) == 1   # n = (1, 1)
        assert t.coeff(1, 2).coeff(2) == 1   # n = (1, 0)
        assert t.coeff(0, 0).coeff(0) == 1


class TestRatioFactors:
    def test_t2t_paths_agree(self):
        # the product against the closed double sum, fields and all
        for unit in ("z1", "z2", "z12"):
            for n in (Rat(8), Rat(15, 2), Rat(81, 8)):
                want = bl_on_unit(_t2t_sum(n, "closed"), unit)
                assert bl_on_unit(t2t_factor(n), unit) == want, (unit, n)

    def test_t2t_leading(self):
        g = t2t_factor(Rat(4))
        assert g.qvaluation() == Rat(1, 8)
        assert g.coeff(0, 0).coeff(Rat(1, 8)) == 1

    def test_s01_leading(self):
        s = s01_factor(Rat(3), 8)
        assert s.coeff(Rat(1, 2), 0).coeff(Rat(-1, 8)) == 1

    def test_s01_is_clipped_to_its_window(self):
        W, qorder = 2, Rat(4)
        s = s01_factor(qorder, W)
        assert s.window == W
        with pytest.raises(ValueError):
            s.coeff(Rat(7, 2), 0)
        # every kept key is exact below the qorder; a wider build agrees there
        assert all(abs(e1) <= W for e1, _ in s.terms)
        assert s == s01_factor(qorder, 10).clip(W)

    def test_reads_outside_the_support_are_zero(self):
        assert f_series(Rat(3)).coeff(10, 0).is_zero()
        assert theta_hat(1, Rat(3)).coeff(10, 0).is_zero()

    @pytest.mark.parametrize("qorder", [Rat(6), Rat(193, 24)])
    def test_f_series_valuation_and_symmetry(self, qorder):
        f = f_series(qorder)
        assert f.qvaluation() == Rat(3, 8)
        assert f.coeff(0, 0).coeff(Rat(3, 8)) == 1
        # W(A2) x {+-1} fixes the product: read through f_coeff, which
        # convolves the key it is asked for and is told no symmetry
        box = [(e1, e2) for e1 in range(-4, 5) for e2 in range(-4, 5)]
        want = {k: f_coeff(*k, qorder) for k in {i for k in box for i in _weyl_orbit(k)}}
        for k in box:
            assert all(want[i] == want[k] for i in _weyl_orbit(k)), k
        assert sum(not c.is_zero() for c in want.values()) > 80
        assert all(f.coeff(*k) == c for k, c in want.items())

    def test_calT_is_fixed_by_the_weyl_group(self):
        t = calT(Rat(40))
        assert t.kd == 1 and len(t.rows) > 70
        for k, c in t.rows.items():
            assert all(t.rows.get(i) == c for i in _weyl_orbit(k)), k

    @pytest.mark.parametrize("orbit,generators,size", [
        (_swap_orbit, [lambda e: (e[1], e[0]), lambda e: (-e[0], -e[1])], 4),
        (_weyl_orbit, [lambda e: (e[1], e[0]), lambda e: (-e[0], e[1] - e[0]),
                       lambda e: (-e[0], -e[1])], 12),
    ], ids=["swap", "weyl"])
    def test_each_orbit_is_the_orbit_of_its_group(self, orbit, generators, size):
        for key in [(e1, e2) for e1 in range(-5, 6) for e2 in range(-5, 6)]:
            seen, todo = {key}, [key]
            while todo:
                e = todo.pop()
                for g in generators:
                    if g(e) not in seen:
                        seen.add(g(e))
                        todo.append(g(e))
            assert set(orbit(key)) == seen, key
        assert len(set(orbit((1, 3)))) == size

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_the_weyl_orbit_is_the_twelve_images_it_was_written_as(self, key):
        # the twelve images as written out before they were read off _WEYL
        e1, e2 = key
        d = e2 - e1
        six = (e1, e2), (e2, e1), (-e1, d), (d, -e1), (-e2, -d), (-d, -e2)
        assert set(_weyl_orbit(key)) == {*six, *((-a, -b) for a, b in six)}


def _plain_f(qorder):
    """f by bl_mul convolving every key: the oracle for f_series."""
    a, b, c = (bl_on_unit(t2t_factor(qorder), u) for u in ("z1", "z2", "z12"))
    return bl_mul(bl_mul(a, b), c)


def _per_key(a, s, qorder):
    """a times the one-variable s one key at a time, each product truncated
    to qorder: the oracle for bl_scalar_mul(a, s).truncate_q(qorder)."""
    terms = {k: (c * s).truncate(qorder) for k, c in a.terms.items()}
    return BiLaurentSeries(terms, qorder, a.window)


_PLAIN_ROUTES = {
    "f": (f_series, _plain_f),
    "J": (J_series, lambda n: _per_key(
        bl_mul(calT(n), _plain_f(n)), eta_quotient({1: 5, 2: -1}, n), n)),
    "kwN3": (kw_character_N3, lambda n: _per_key(
        _plain_f(n + Rat(1, 24)), eta_quotient({1: 1, 2: -1}, n + Rat(1, 24)), n)),
}


@pytest.mark.parametrize(
    "qorder", [Rat(1, 9), Rat(1), Rat(3), Rat(193, 24), Rat(15, 2), Rat(10), Rat(11), Rat(16)])
@pytest.mark.parametrize("name", list(_PLAIN_ROUTES))
def test_orbit_builds_match_the_plain_route(name, qorder):
    build, plain = _PLAIN_ROUTES[name]
    got, want = build(qorder), plain(qorder)
    for field in BiLaurentSeries.__slots__:
        assert getattr(got, field) == getattr(want, field), field


class TestAssembled:
    def test_eta_quotient_valuation(self):
        e = eta_quotient({1: 5, 2: -1}, Rat(6))
        assert e.valuation() == Rat(1, 8)
        assert e.coeff(Rat(1, 8)) == 1

    def test_J_constant_coefficient_leading(self):
        j = J_series(Rat(5)).clip(6)
        c = j.coeff(0, 0)
        assert c.coeff(Rat(1, 2)) == 1

    def test_J_constant_coefficient_does_not_depend_on_the_clip(self):
        # calT keys whose product with f lands on (0, 0) lie outside small
        # windows, so a build bounded by the window loses them
        whole = J_series(Rat(10))
        assert whole.coeff(0, 0) == J_constant_term(Rat(10))
        for W in (0, 1, 4):
            assert whole.clip(W).coeff(0, 0) == whole.coeff(0, 0)

    def test_kw_character_is_windowed(self):
        k = kw_character_N3(Rat(5)).clip(4)
        assert k.window == 4
        # eta/eta(2tau) contributes -1/24, the triple ratio 3/8
        assert k.qvaluation() == Rat(1, 3)

    @pytest.mark.parametrize("qorder", [Rat(1, 4), Rat(1), Rat(3), Rat(13, 2)])
    def test_kw_character_agrees_with_a_deeper_build(self, qorder):
        assert kw_character_N3(qorder) == kw_character_N3(qorder + 2).truncate_q(qorder)
