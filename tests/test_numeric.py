"""Double-precision evaluation and transformation-law residuals."""

import cmath
import math
import random

import pytest

from falsetheta.rat import Rat
from falsetheta.thetas import f_series
from falsetheta.numeric import (
    eval_theta,
    eval_eta,
    eval_f,
    eval_T,
    eval_J,
    eval_q_series,
    eval_bilaurent,
    dedekind_sum,
    eta_multiplier,
    eta_multiplier_self_check,
    jacobi_symbol,
    check_transformation,
    run_transformation_checks,
    residual_report_to_json,
    LAW_IDS,
)

TAU = 0.1 + 1.2j
Z = 0.21 + 0.3j


def triple_product_theta(z, tau):
    q = cmath.exp(2j * cmath.pi * tau)
    zeta = cmath.exp(2j * cmath.pi * z)
    out = -1j * q ** 0.125 * zeta ** -0.5
    for n in range(80):
        out *= (1 - zeta * q ** n) * (1 - q ** (n + 1) / zeta) * (1 - q ** (n + 1))
    return out


class TestEvaluators:
    def test_theta_is_odd(self):
        assert abs(eval_theta(Z, TAU) + eval_theta(-Z, TAU)) < 1e-12

    def test_theta_matches_triple_product(self):
        for z, tau in ((0.5 + 0j, 1j), (Z, TAU), (0.1 - 0.2j, 0.3 + 0.8j)):
            assert abs(eval_theta(z, tau) - triple_product_theta(z, tau)) < 1e-10

    def test_theta_one_period_shift(self):
        m, l = 1, 1
        lhs = eval_theta(Z + m * TAU + l, TAU)
        fac = (-1) ** (m + l) * cmath.exp(
            2j * cmath.pi * (-TAU * m * m / 2 - m * Z)
        )
        assert abs(lhs - fac * eval_theta(Z, TAU)) < 1e-9

    def test_theta_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eval_theta(Z, 0.1 - 1j)

    def test_eta_against_product(self):
        q = cmath.exp(2j * cmath.pi * TAU)
        prod = q ** (1 / 24)
        for n in range(1, 80):
            prod *= 1 - q ** n
        assert abs(eval_eta(TAU) - prod) < 1e-14

    def test_f_rejects_theta_zero(self):
        with pytest.raises(ValueError):
            eval_f((0.0 + 0j, Z), TAU)

    def test_T_at_zero_is_real(self):
        # real q: the lattice sum at z = 0 has real coefficients
        assert abs(eval_T((0j, 0j), 1.1j).imag) < 1e-12
        # matches the bare lattice sum
        v = eval_T((0j, 0j), TAU)
        q = cmath.exp(2j * cmath.pi * TAU)
        s = sum(
            q ** (2 * (a * a + b * b - a * b))
            for a in range(-9, 10)
            for b in range(-9, 10)
        )
        assert abs(v - s) < 1e-12

    def test_J_assembly(self):
        z = (Z, 0.11 + 0.4j)
        direct = eval_J(z, TAU)
        parts = (
            eval_eta(TAU) ** 5 / eval_eta(2 * TAU) * eval_T(z, TAU) * eval_f(z, TAU)
        )
        assert abs(direct - parts) < 1e-10


class TestArithmetic:
    def test_dedekind_base_cases(self):
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Rat(1, 18)

    def test_dedekind_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            dedekind_sum(2, 4)

    def test_dedekind_reciprocity_30_pairs(self):
        rng = random.Random(7)
        found = 0
        while found < 30:
            c = rng.randrange(2, 60)
            d = rng.randrange(1, 60)
            if math.gcd(c, d) != 1:
                continue
            lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
            rhs = Rat(-1, 4) + Rat(1, 12) * (Rat(c, d) + Rat(d, c) + Rat(1, c * d))
            assert lhs == rhs, (c, d)
            found += 1

    def test_jacobi_values(self):
        assert jacobi_symbol(-3, 5) == -1
        assert jacobi_symbol(-3, 7) == 1
        assert jacobi_symbol(12, 1) == 1
        assert jacobi_symbol(3, 9) == 0

    def test_jacobi_rejects_even(self):
        with pytest.raises(ValueError):
            jacobi_symbol(2, 8)


class TestEtaMultiplier:
    def test_translation_case(self):
        assert abs(eta_multiplier((1, 1, 0, 1)) - cmath.exp(1j * cmath.pi / 12)) < 1e-14

    def test_inversion_oracle(self):
        chi = eta_multiplier((0, -1, 1, 0))
        tau = 0.3 + 0.9j
        lhs = eval_eta(-1 / tau)
        assert abs(lhs - chi * cmath.sqrt(tau) * eval_eta(tau)) < 1e-10
        assert abs(lhs - cmath.sqrt(-1j * tau) * eval_eta(tau)) < 1e-10

    def test_unit_modulus_50_random(self):
        rng = random.Random(3)
        found = 0
        while found < 50:
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            c, d = rng.randrange(-9, 10), rng.randrange(-9, 10)
            if a * d - b * c != 1:
                continue
            assert abs(abs(eta_multiplier((a, b, c, d))) - 1) < 1e-14
            found += 1

    def test_self_check_below_tolerance(self):
        assert eta_multiplier_self_check() < 1e-9

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            eta_multiplier((1, 1, 1, 1))


class TestTransformationLaws:
    @pytest.mark.parametrize("law", LAW_IDS)
    def test_grid_passes(self, law):
        reports = run_transformation_checks(law)
        assert len(reports) >= 25
        worst = max(r.residual for r in reports)
        assert worst < 1e-8, (law, worst)

    def test_spot_lattice_shift(self):
        rep = check_transformation(
            "F_ELL", ((2, 0), (0, 0)), (Z, 0.11 + 0.4j), TAU
        )
        assert rep.residual < 1e-8

    def test_spot_level_six(self):
        rep = check_transformation("T_MOD", (1, 0, 6, 1), (Z, 0.11 + 0.4j), TAU)
        assert rep.residual < 1e-8

    def test_spot_weight_three(self):
        rep = check_transformation("J_MOD", (5, 1, 24, 5), (Z, 0.11 + 0.4j), TAU)
        assert rep.residual < 1e-8

    def test_membership_violations_rejected(self):
        with pytest.raises(ValueError):
            check_transformation("F_MOD", (1, 1, 1, 2), (Z, 0.1j), TAU)
        with pytest.raises(ValueError):
            check_transformation("T_MOD", (1, 0, 2, 1), (Z, 0.1j), TAU)
        with pytest.raises(ValueError):
            check_transformation("F_ELL", ((1, 0), (0, 0)), (Z, 0.1j), TAU)

    def test_residual_report_schema(self):
        rep = check_transformation("THETA_ELL", (1, 0), Z, TAU)
        d = residual_report_to_json(rep)
        assert set(d) == {"id", "params", "verdict", "residual", "tolerance", "ms"}
        assert d["verdict"] == "equal"


class TestBridge:
    def test_formal_inner_expansion_matches_eval_f(self):
        F = f_series(Rat(12)).clip(8)
        z1, z2, tau = 0.13 + 0.21j, 0.07 + 0.18j, 0.05 + 1.02j
        a = eval_bilaurent(F, z1, z2, tau)
        b = eval_f((z1, z2), tau)
        assert abs(a - b) < 1e-8

    def test_q_series_evaluation(self):
        from falsetheta.series import eta_series

        s = eta_series(1, Rat(40))
        assert abs(eval_q_series(s, TAU) - eval_eta(TAU)) < 1e-12
