"""Bivariate Laurent layer: regions, windows, and exact division."""

import pytest

from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, monomial, one as q_one, zero as q_zero
from falsetheta.bilaurent import (
    Region,
    RegionMismatchError,
    ExactDivisionError,
    BiLaurentSeries,
    bl_monomial,
    bl_one,
    bl_add,
    bl_mul,
    bl_scalar_mul,
    bl_elliptic_shift,
    expand_inverse_one_minus,
    laurent_poly_exact_divide,
    UNIT_KEYS,
    bl_to_json,
    bl_from_json,
)


def mono(c, e1, e2, qexp, qorder, region=Region.INNER, window=None):
    return bl_monomial(monomial(c, qexp, qorder), e1, e2, qorder, region, window)


class TestStructure:
    def test_region_mixing_rejected(self):
        a = bl_one(Rat(5), Region.INNER)
        b = bl_one(Rat(5), Region.OUTER)
        with pytest.raises(RegionMismatchError):
            bl_add(a, b)

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
            BiLaurentSeries({(0, 0): q_one(Rat(2))}, Rat(5), Region.INNER)

    def test_mul_qorder_rule(self):
        a = mono(1, 0, 0, 2, Rat(6))  # valuation 2, order 6
        b = mono(1, 1, 0, 3, Rat(7))  # valuation 3, order 7
        c = bl_mul(a, b)
        assert c.qorder == min(Rat(6) + 3, Rat(7) + 2)
        assert c.coeff(1, 0).coeff(5) == 1

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
        assert b.region is a.region


class TestExpansions:
    def test_inner_geometric_positive_shift(self):
        # 1/(1 - z q^2) = sum_k z^k q^(2k)
        g = expand_inverse_one_minus("z1", 2, Rat(7), zwindow=6)
        assert g.coeff(0, 0).coeff(0) == 1
        assert g.coeff(3, 0).coeff(6) == 1
        assert g.coeff(1, 0).coeff(3) == 0

    def test_inner_negative_shift_flips(self):
        # 1/(1 - z q^-1) = -sum_{k>=1} z^-k q^k for |q| < |z| < 1
        g = expand_inverse_one_minus("z1", -1, Rat(5), zwindow=6)
        assert g.coeff(-2, 0).coeff(2) == -1
        assert g.coeff(0, 0).is_zero()
        # 1/(1 + z q^-1) = -sum_{k>=1} (-1)^k z^-k q^k
        h = expand_inverse_one_minus("z1", -1, Rat(5), zwindow=6, sign=-1)
        assert h.coeff(-1, 0).coeff(1) == 1 and h.coeff(-2, 0).coeff(2) == -1

    @pytest.mark.parametrize("unit", ["z1", "z2", "z12"])
    @pytest.mark.parametrize("n", [1, 2, Rat(3, 2)])
    def test_signed_geometric_series(self, unit, n):
        # 1/(1 + u q^n) = sum_k (-1)^k u^k q^(kn)
        qorder = Rat(9)
        d1, d2 = UNIT_KEYS[unit]
        want = {}
        k = 0
        while k * n < qorder:
            want[(k * d1, k * d2)] = monomial((-1) ** k, k * n, qorder)
            k += 1
        g = expand_inverse_one_minus(unit, n, qorder, sign=-1)
        assert g == BiLaurentSeries(want, qorder, Region.INNER)
        assert g.window is None

    def test_zero_shift_needs_a_window(self):
        with pytest.raises(ValueError):
            expand_inverse_one_minus("z1", 0, Rat(3))
        g = expand_inverse_one_minus("z2", 0, Rat(3), zwindow=4, invert_unit=True)
        assert sorted(g.terms) == [(0, -k) for k in range(4, -1, -1)]
        assert g.window == 4

    def test_diagonal_unit_multiplication(self):
        a = mono(1, 1, 1, 0, Rat(4))
        b = mono(1, 1, 1, 1, Rat(4))
        c = bl_mul(a, b)
        assert c.coeff(2, 2).coeff(1) == 1


class TestTransforms:
    def test_elliptic_shift_moves_q_powers(self):
        a = bl_add(mono(1, 2, 0, 0, Rat(6), window=4), mono(1, -1, 0, 0, Rat(6), window=4))
        s = bl_elliptic_shift(a, 1, 0)
        assert s.coeff(2, 0).coeff(2) == 1
        assert s.coeff(-1, 0).coeff(-1) == 1

    def test_exact_divide_roundtrip(self):
        # (1 - z1)(1 - z2) / (1 - z1) = (1 - z2)
        numer = bl_add(
            bl_add(mono(1, 0, 0, 0, Rat(1), region=Region.OUTER),
                   mono(-1, 1, 0, 0, Rat(1), region=Region.OUTER)),
            bl_add(mono(-1, 0, 1, 0, Rat(1), region=Region.OUTER),
                   mono(1, 1, 1, 0, Rat(1), region=Region.OUTER)),
        )
        denom = bl_add(mono(1, 0, 0, 0, Rat(1), region=Region.OUTER),
                       mono(-1, 1, 0, 0, Rat(1), region=Region.OUTER))
        quot = laurent_poly_exact_divide(numer, denom)
        assert quot.coeff(0, 0).coeff(0) == 1
        assert quot.coeff(0, 1).coeff(0) == -1

    def test_exact_divide_failure_reports_monomial(self):
        numer = mono(1, 1, 0, 0, Rat(1), region=Region.OUTER)
        denom = bl_add(mono(1, 0, 0, 0, Rat(1), region=Region.OUTER),
                       mono(-1, 1, 0, 0, Rat(1), region=Region.OUTER))
        with pytest.raises(ExactDivisionError) as err:
            laurent_poly_exact_divide(numer, denom)
        assert err.value.monomial is not None
