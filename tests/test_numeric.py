"""Double-precision evaluation and transformation-law residuals."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from falsetheta.rat import Rat
from falsetheta.series import lattice_rows, quadratic_range
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
    sample_points,
    transformation_grid,
    LAW_IDS,
    _MAX_TERMS,
    _TAIL,
    _T_indices,
    _coset_sum,
    _eta_indices,
    _theta_indices,
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

    @pytest.mark.parametrize("evaluator,z", [
        (eval_theta, 0.2 + 1e8j),
        (eval_f, (0.2 + 1e8j, 0.1)),
        (eval_T, (0.2 + 1e300j, 0.1)),
        (eval_J, (0.1, 0.2 - 1e300j)),
        (eval_T, (0.1 + 1e308j, 1e308j)),
    ])
    def test_a_point_whose_terms_overflow_is_refused(self, evaluator, z):
        with pytest.raises(ValueError, match="not a finite double"):
            evaluator(z, TAU)

    @pytest.mark.parametrize("evaluator,z", [
        (eval_theta, 0.1),
        (eval_eta, None),
        (eval_T, (0.1, 0.2)),
        (eval_J, (0.1, 0.2)),
    ])
    def test_a_point_past_the_term_budget_is_refused(self, evaluator, z):
        # at Im tau = 1e-20 theta's range holds about 7.2e10 terms
        tau = 0.1 + 1e-20j
        with pytest.raises(ValueError, match="more than the 1000000 allowed"):
            evaluator(tau) if z is None else evaluator(z, tau)

    def test_the_term_budget_is_checked_before_any_term(self):
        # an unsummable tau: a range past the budget raises before exp is
        # called, one within it is summed
        with pytest.raises(ValueError, match=f"needs {_MAX_TERMS + 1} terms"):
            _coset_sum(1, None, 0.0, 1, 0, range(_MAX_TERMS + 1))
        assert _coset_sum(1, 1j, 0.0, 1, 0, range(0)) == 0
        # the widest sum of a check at Im tau = 1e-10 stays within it
        assert len(_theta_indices(1e-10, 0.0, 1)) == 722516 <= _MAX_TERMS

    def test_the_overflow_bound_is_the_largest_double(self):
        # theta's largest term at tau = 1.2i is e^(2 pi y^2/2.4): e^704.0
        # at y = 16.4, e^714.1 at y = 16.5, past the largest double e^709.78
        assert cmath.isfinite(eval_theta(0.2 + 16.4j, 1.2j))
        with pytest.raises(ValueError, match="not a finite double"):
            eval_theta(0.2 + 16.5j, 1.2j)

    def test_J_assembly(self):
        z = (Z, 0.11 + 0.4j)
        direct = eval_J(z, TAU)
        parts = (
            eval_eta(TAU) ** 5 / eval_eta(2 * TAU) * eval_T(z, TAU) * eval_f(z, TAU)
        )
        assert abs(direct - parts) < 1e-10


# -- an independent oracle: direct sums at 25 digits --------------------------
#
# Each sum runs over a box sized from Im tau and Im z so that every term
# outside it is below e^-60, which no double can see.  mpmath.jtheta is
# not used: it takes the principal q^(1/4), a fourth root of unity away
# from this theta's q^(1/8)^2 at Re tau near 0.82.

_ORACLE_TAIL = 60 / (2 * math.pi)


def _mp_sum(exponents):
    """sum e^(2 pi i X) over the mpc exponents X, at 25 digits."""
    with mpmath.workdps(25):
        return complex(mpmath.fsum(mpmath.expj(2 * mpmath.pi * x) for x in exponents()))


def oracle_theta(z, tau, scale):
    s, y = scale * tau.imag, abs(z.imag)
    N = int((y + math.sqrt(y * y + 2 * s * _ORACLE_TAIL)) / s) + 2
    half = mpmath.mpf(1) / 2
    z, tau = mpmath.mpc(z), mpmath.mpc(tau)
    return _mp_sum(lambda: (
        scale * tau * n * n / 2 + n * (z + half) for n in (j + half for j in range(-N - 1, N + 1))
    ))


def oracle_f(z, tau):
    """prod_u theta(u; 2 tau) / theta(u; tau) over u = z1, z2, z1 + z2."""
    z1, z2 = z
    out = 1
    for u in (z1, z2, z1 + z2):
        out *= oracle_theta(u, tau, 2) / oracle_theta(u, tau, 1)
    return out


def oracle_eta(tau):
    K = int(math.sqrt(24 * _ORACLE_TAIL / tau.imag) / 6) + 2
    tau = mpmath.mpc(tau)
    # (-1)^k is e^(2 pi i k/2)
    return _mp_sum(lambda: (tau * (6 * k + 1) ** 2 / 24 + k / 2 for k in range(-K, K + 1)))


def oracle_T(z, tau):
    z1, z2 = z
    # 2 Q(n) >= |n|^2 >= max|n_i|^2, and |(Im w) . n| <= Y max|n_i|
    t, Y = tau.imag, abs(z1.imag + 2 * z2.imag) + abs(z1.imag - z2.imag)
    R = int((Y + math.sqrt(Y * Y + 4 * t * _ORACLE_TAIL)) / (2 * t)) + 2
    box = range(-R, R + 1)
    tau, w1, w2 = mpmath.mpc(tau), mpmath.mpc(z1 + 2 * z2), mpmath.mpc(z1 - z2)
    return _mp_sum(lambda: (
        2 * tau * (n1 * n1 + n2 * n2 - n1 * n2) + n1 * w1 + n2 * w2
        for n1 in box for n2 in box
        # terms below e^-60 by a double's estimate, with room to spare
        if 2 * t * (n1 * n1 + n2 * n2 - n1 * n2) - Y * max(abs(n1), abs(n2)) < 2 * _ORACLE_TAIL
    ))


def _largest_T_exponent(z1, z2, tau):
    """-Im of the exponent of the largest term of eval_T's two factors,
    at the real minima of their quadratics."""
    y1, y2 = z1.imag, z2.imag
    return (3 * (y1 + y2) ** 2 + (y1 - y2) ** 2) / (8 * tau.imag)


def _oracle_points():
    """The sample points, the three transformed points of the two-variable
    modular grids with the smallest Im tau (about 0.003), and the shifted
    point of the T_ELL and of the J_ELL grid with T's largest term (there
    Im z is about 2 Im tau, where eval_T's factors widen their ranges most)."""
    moved = set()
    for law in ("F_MOD", "T_MOD", "J_MOD"):
        for (a, b, c, d), (z1, z2), tau in transformation_grid(law):
            w = c * tau + d
            moved.add((z1 / w, z2 / w, (a * tau + b) / w))
    moved = sorted(moved, key=lambda p: p[2].imag)[:3]
    shifted = [
        max(
            (
                (z1 + m1 * tau + l1, z2 + m2 * tau + l2, tau)
                for ((m1, m2), (l1, l2)), (z1, z2), tau in transformation_grid(law)
            ),
            key=lambda p: _largest_T_exponent(*p),
        )
        for law in ("T_ELL", "J_ELL")
    ]
    return (
        [pytest.param(*p, id=f"sample{i}") for i, p in enumerate(sample_points())]
        + [pytest.param(*p, id=f"Im_tau={p[2].imag:.4f}") for p in moved]
        + [pytest.param(*p, id=f"{law}_shift") for law, p in zip(("T_ELL", "J_ELL"), shifted)]
    )


ORACLE_RTOL = 1e-12  # double-precision sums, measured within 3e-14


@pytest.mark.parametrize("z1,z2,tau", _oracle_points())
def test_evaluators_match_direct_high_precision_sums(z1, z2, tau):
    def close(got, want):
        return abs(got - want) <= ORACLE_RTOL * abs(want)

    assert close(eval_theta(z1, tau), oracle_theta(z1, tau, 1))
    assert close(eval_theta(z2, tau, 2), oracle_theta(z2, tau, 2))
    eta, T, f = oracle_eta(tau), oracle_T((z1, z2), tau), oracle_f((z1, z2), tau)
    assert close(eval_eta(tau), eta)
    assert close(eval_T((z1, z2), tau), T)
    assert close(eval_f((z1, z2), tau), f)
    assert close(eval_J((z1, z2), tau), eta ** 5 / oracle_eta(2 * tau) * T * f)


@given(st.floats(1e-4, 20), st.floats(-20, 20), st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_theta_and_eta_indices_are_quadratic_range_on_the_exact_rationals(t, y, scale):
    # the quadratics scaled to integers by hand from float.as_integer_ratio()
    s, y_ = scale * Fraction(t), Fraction(y)
    want = quadratic_range(s / 2, s / 2 + y_, s / 8 + y_ / 2, _TAIL)
    assert _theta_indices(t, y, scale) == want
    t_ = Fraction(t)
    assert _eta_indices(t) == quadratic_range(3 * t_ / 2, t_ / 2, t_ / 24, _TAIL)


def _row_by_row_T(z, tau):
    """The lattice theta summed point by point over the lattice_rows of its
    terms of magnitude at least e^-41, an oracle for eval_T's coset
    products.  Returns the sum, the number of terms, the sum of their
    magnitudes |t_n| and the sum of |t_n| P(n), for the bound on the
    exponent parts P(n) = 2Q(n)|tau| + 2(|n1| + |n2|)(|z1| + |z2|)."""
    z1, z2 = z
    w1, w2 = z1 + 2 * z2, z1 - z2
    t, y1, y2 = Fraction(tau.imag), Fraction(z1.imag), Fraction(z2.imag)
    total, count, size, spread = 0j, 0, 0.0, 0.0
    for n1, row in lattice_rows((2 * t, -2 * t, 2 * t), (y1 + 2 * y2, y1 - y2), 0, _TAIL):
        for n2 in row:
            q2 = 2 * (n1 * n1 + n2 * n2 - n1 * n2)
            term = cmath.exp(2j * math.pi * (tau * q2 + n1 * w1 + n2 * w2))
            total += term
            count += 1
            size += abs(term)
            spread += abs(term) * (q2 * abs(tau) + 2 * (abs(n1) + abs(n2)) * (abs(z1) + abs(z2)))
    return total, count, size, spread


def _T_error_bound(z, tau, count, size, spread):
    """A bound on |eval_T - _row_by_row_T| to first order in the unit
    roundoff u (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 3 and 4).

    - Each term is e^(2 pi i E(n)).  Both sums form E(n) from float parts
      whose magnitudes add up to at most 2 pi P(n) before they cancel, with
      at most 8 roundings, each off by u times that; exp adds at most 4u.
      So each sum's term n is off by at most (4 + 16 pi P(n)) u |t_n|, and
      the two sums by twice that.
    - Adding N complex terms one by one is off by at most 2 N u sum |t_n|;
      eval_T's two products of coset sums A_e B_e, each of at most L
      terms, by at most 2 (L + 3) u times the sum of their products.
    - Those products keep every term of the oracle and at most K more,
      each of magnitude below e^-41.
    """
    ranges = _T_indices(tau.imag, z[0].imag, z[1].imag)
    L = max(len(ka) + len(kb) for ka, kb in ranges)
    K = sum(len(ka) * len(kb) for ka, kb in ranges)
    u = 2.0**-53
    return u * ((8 + 2 * (count + L + 3)) * size + 32 * math.pi * spread) + 2 * K * math.exp(-41)


_UNIT = st.floats(-1, 1)


@given(st.floats(2e-3, 3), _UNIT, _UNIT, _UNIT, st.floats(-3, 3), st.floats(-3, 3))
@example(2.969862013724624, 0.0, 0.0, 0.0, 3.0, 2.75)
@example(2.9589489719603774, 0.0, 0.0, 0.0, 2.785919076833812, 2.75)
@settings(max_examples=100, deadline=None)
def test_T_by_cosets_matches_the_row_by_row_lattice_sum(t, x, x1, x2, e1, e2):
    # Im z_i = e_i t: up to three times Im tau, past the ELL grids' shifts
    tau, z = complex(x, t), (complex(x1, e1 * t), complex(x2, e2 * t))
    want, count, size, spread = _row_by_row_T(z, tau)
    assert abs(eval_T(z, tau) - want) <= _T_error_bound(z, tau, count, size, spread)


@given(st.floats(1e-3, 5), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=300, deadline=None)
def test_T_coset_ranges_cover_every_lattice_term_above_the_tail(t, y1, y2):
    # the lattice point (n1, n2) is the product of A's n = n1 and B's
    # m = 2 n2 - n1, both of parity e = n1 mod 2 and index (n - e)/2
    t_, y1_, y2_ = Fraction(t), Fraction(y1), Fraction(y2)
    ranges = _T_indices(t, y1, y2)
    rows = 0
    for n1, row in lattice_rows((2 * t_, -2 * t_, 2 * t_), (y1_ + 2 * y2_, y1_ - y2_), 0, _TAIL):
        if not row:
            continue
        rows += 1
        e = n1 % 2
        ka, kb = ranges[e]
        assert (n1 - e) // 2 in ka, (n1, ka)
        # m grows with n2, and kb is one range: its two ends cover the row
        for n2 in (row[0], row[-1]):
            assert (2 * n2 - n1 - e) // 2 in kb, (n1, n2, kb)
    assert rows  # the term at n = 0 has magnitude 1 > e^-41


def _sawtooth(x):
    """((x)) = x - floor(x) - 1/2, and 0 at the integers."""
    fl = math.floor(x)
    return Rat(0) if x == fl else x - fl - Rat(1, 2)


def _sawtooth_dedekind_sum(d, c):
    """s(d, c) as the sum of sawtooth products, one Rat per term."""
    return sum((_sawtooth(Rat(k, c)) * _sawtooth(Rat(k * d, c)) for k in range(1, c)), Rat(0))


class TestArithmetic:
    def test_dedekind_sum_matches_the_sawtooth_sum(self):
        pairs = [(d, c) for c in range(1, 61) for d in range(-c, c + 1)
                 if math.gcd(d, c) == 1]
        for d, c in pairs:
            got = dedekind_sum(d, c)
            assert type(got) is Rat and got == _sawtooth_dedekind_sum(d, c), (d, c)
        assert sum(d < 0 for d, _ in pairs) > 500

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

    @pytest.mark.parametrize("gamma", [(-1, 0, 0, -1), (-1, -1, 0, -1), (-1, 2, 0, -1)])
    def test_minus_a_translation(self, gamma):
        # c tau + d = -1, whose principal square root is i
        a, b, c, d = gamma
        for tau in (0.3 + 0.9j, -0.2 + 1.4j):
            rhs = eta_multiplier(gamma) * cmath.sqrt(c * tau + d) * eval_eta(tau)
            assert abs(eval_eta((a * tau + b) / (c * tau + d)) - rhs) < 1e-12

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

    @pytest.mark.parametrize("law,element", [
        ("F_ELL", ((2.9, 0), (0, 0))),  # int() would make it m = (2, 0)
        ("T_ELL", ((2, 0), (0.5, 0))),
        ("J_ELL", ((2, 0, 2), (0, 0))),
        ("THETA_ELL", ((1, 5), (0, 0))),  # int(m[0]) would drop the 5
        ("THETA_ELL", ((1, 0), (0, 7))),
        ("THETA_ELL", (1.5, 0)),
    ])
    def test_malformed_shifts_are_refused(self, law, element):
        z = Z if law == "THETA_ELL" else (Z, 0.1j)
        with pytest.raises(ValueError):
            check_transformation(law, element, z, TAU)

    def test_theta_shift_pairs_with_zero_second_entry_are_integers(self):
        pair = check_transformation("THETA_ELL", ((1, 0), (1, 0)), Z, TAU)
        plain = check_transformation("THETA_ELL", (1, 1), Z, TAU)
        assert pair.params == plain.params and pair.residual == plain.residual

    @pytest.mark.parametrize("law,element,z", [
        ("THETA_MOD", (0, -1, 1, 0), (Z, 0.1j)),
        ("THETA_ELL", (1, 0), [Z]),
        ("F_MOD", (1, 0, 2, 1), Z),
        ("T_ELL", ((2, 0), (0, 0)), (Z, 0.1j, 0.2j)),
    ])
    def test_z_of_the_wrong_shape_is_refused(self, law, element, z):
        with pytest.raises(ValueError):
            check_transformation(law, element, z, TAU)

    @pytest.mark.parametrize("tolerance", [math.nan, 0, -1, math.inf])
    def test_a_tolerance_that_decides_nothing_is_refused(self, tolerance):
        # nan and 0 fail every residual, -1 too, and inf passes any
        with pytest.raises(ValueError, match="finite and positive"):
            check_transformation("THETA_MOD", (1, 1, 0, 1), Z, TAU, tolerance)
        with pytest.raises(ValueError, match="finite and positive"):
            run_transformation_checks("THETA_MOD", tolerance)

    @pytest.mark.parametrize("law,z,tau,name", [
        ("THETA_ELL", complex(math.nan, 0), TAU, "z"),
        ("THETA_ELL", complex(math.inf, 0), TAU, "z"),
        ("F_ELL", (complex(math.nan, 0.1), 0.1), TAU, "z1"),
        ("F_ELL", (Z, complex(0.1, -math.inf)), TAU, "z2"),
        ("THETA_ELL", Z, complex(math.inf, 1), "tau"),
        ("THETA_ELL", Z, complex(0.1, math.nan), "tau"),
    ])
    def test_a_nan_or_inf_argument_is_refused(self, law, z, tau, name):
        # unrefused, a nan residual reads as an "unequal" verdict
        element = (1, 0) if law == "THETA_ELL" else ((2, 0), (0, 0))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            check_transformation(law, element, z, tau)

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
        from falsetheta.series import eta_quotient

        s = eta_quotient({1: 1}, Rat(40))
        assert abs(eval_q_series(s, TAU) - eval_eta(TAU)) < 1e-12
