"""Double-precision evaluation and transformation-law residuals."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from falsetheta import numeric
from falsetheta.bilaurent import BiLaurentSeries, bl_on_unit
from falsetheta.rat import Rat
from falsetheta.series import eta_quotient, lattice_rows, quadratic_range
from falsetheta.thetas import calT, f_series, theta_hat
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
    check_transformation,
    run_transformation_checks,
    residual_report_to_json,
    sample_points,
    gamma_grid,
    shift_grid,
    transformation_grid,
    LAW_IDS,
    _FORMS,
    _MAX_TERMS,
    _TAIL,
    _Form,
    _T_indices,
    _coset_sum,
    _eta_indices,
    _multiplier,
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
    Im z1 and Im z2 are about 2 Im tau, where eval_T's factors widen their
    ranges most).  The two grids are the same, so the two shifted points
    coincide; each law keeps its own case all the same."""
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


class TestForms:
    """The rows of numeric._FORMS, from which every law is computed."""

    def test_minus_3_over_d_is_the_kronecker_symbol(self):
        from sympy.functions.combinatorial.numbers import kronecker_symbol

        # T's multiplier is (-3/d) alone, and (a, b, 6, d) lies in Gamma_0(6)
        for d in range(-600, 601):
            if math.gcd(d, 6) == 1:
                a = pow(d, -1, 6)
                gamma = (a, (a * d - 1) // 6, 6, d)
                assert _multiplier(_FORMS["T"], gamma) == kronecker_symbol(-3, d), d

    def test_J_row_is_the_sum_of_its_factors_rows(self):
        # J = eta(tau)^5/eta(2 tau) T f
        eta5 = _Form(2, 2, 0, {1: 5, 2: -1}, False, None)
        rows = (eta5, _FORMS["T"], _FORMS["F"])
        powers = {}
        for r in rows:
            for j, p in r.eta.items():
                powers[j] = powers.get(j, 0) + p
        J = _FORMS["J"]
        assert J.level == math.lcm(*(r.level for r in rows))
        assert J.weight == sum(r.weight for r in rows)
        assert J.index == sum(r.index for r in rows)
        assert J.eta == {j: p for j, p in powers.items() if p}
        assert J.kronecker == (sum(r.kronecker for r in rows) % 2 == 1)

    @pytest.mark.parametrize("kind", sorted(_FORMS))
    def test_each_level_is_a_multiple_of_what_its_multiplier_reads(self, kind):
        form = _FORMS[kind]
        assert all(form.level % j == 0 for j in form.eta)
        assert not form.kronecker or form.level % 6 == 0

    def test_theta_mod_runs_the_multiplier_self_check(self):
        eta_multiplier_self_check.cache_clear()
        check_transformation("THETA_MOD", (1, 1, 0, 1), Z, TAU)
        assert eta_multiplier_self_check.cache_info().currsize == 1


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

    @pytest.mark.parametrize("law,element", [
        ("THETA_MOD", (True, False, False, True)),
        ("F_MOD", (1, 0, 2, True)),
        ("THETA_ELL", (True, 0)),
        ("THETA_ELL", ((1, 0), (False, 0))),
        ("F_ELL", ((0, 0), (True, 0))),
        ("J_ELL", ((2, 0), (0, False))),
    ])
    def test_a_bool_is_not_an_integer_entry(self, law, element):
        z = Z if law.startswith("THETA") else (Z, 0.1j)
        with pytest.raises(ValueError, match="must be integer"):
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

    @pytest.mark.parametrize("law,element,z", [
        ("THETA_ELL", (3, 2), Z),
        ("T_ELL", ((-2, 4), (3, -1)), (Z, 0.1j)),
    ])
    def test_the_residual_is_relative_to_the_moved_side(self, law, element, z):
        # the automorphy factor is about e^40 here; relative to |RHS| alone
        # the rounding of factor * RHS read 963 and 2.3e6
        rep = check_transformation(law, element, z, TAU)
        assert rep.residual < 1e-13, rep.residual

    def test_residual_report_schema(self):
        rep = check_transformation("THETA_ELL", (1, 0), Z, TAU)
        d = residual_report_to_json(rep)
        assert set(d) == {"id", "params", "verdict", "residual", "tolerance", "ms"}
        assert d["verdict"] == "equal"


_EVALUATORS = {"THETA": "eval_theta", "F": "eval_f", "T": "eval_T", "J": "eval_J"}


class TestGrids:
    @pytest.mark.parametrize("law", LAW_IDS)
    def test_a_grid_is_the_sample_points_times_the_elements_of_its_row(self, law):
        kind, mode = law.split("_")
        form = _FORMS[kind]
        if mode == "MOD":
            elems = gamma_grid(form.level)
        elif kind == "THETA":
            elems = [(m1, l1) for (m1, m2), (l1, l2) in shift_grid(form.step)]
            assert all(type(x) is int for e in elems for x in e)
        else:
            elems = shift_grid(form.step)
        want = [
            (e, z1 if kind == "THETA" else (z1, z2), tau)
            for z1, z2, tau in sample_points()
            for e in elems
        ]
        assert transformation_grid(law) == want

    @pytest.mark.parametrize("law", LAW_IDS)
    def test_a_grid_reports_what_its_points_checked_one_at_a_time_report(self, law):
        def fields(reps):
            return [(r.law, r.params, r.residual, r.tolerance, r.verdict) for r in reps]

        alone = [check_transformation(law, e, z, tau) for e, z, tau in transformation_grid(law)]
        assert fields(run_transformation_checks(law)) == fields(alone)

    @pytest.mark.parametrize("law", LAW_IDS)
    def test_a_grid_evaluates_each_point_and_each_multiplier_once(self, law, monkeypatch):
        calls = {"eval": 0, "multiplier": 0}

        def counted(fn, what):
            def spy(*args):
                calls[what] += 1
                return fn(*args)
            return spy

        name = _EVALUATORS[law.split("_")[0]]
        monkeypatch.setattr(numeric, name, counted(getattr(numeric, name), "eval"))
        monkeypatch.setattr(numeric, "_multiplier", counted(numeric._multiplier, "multiplier"))
        run_transformation_checks(law)
        # 25 moved sides and 5 unmoved ones; one multiplier per matrix
        assert calls == {"eval": 30, "multiplier": 5 if law.endswith("MOD") else 0}


# one wrong field of one _FORMS row, and the laws whose grids must see it
_FORM_FAULTS = [
    pytest.param("T", "index", Rat(1, 4), ("T_MOD", "T_ELL"), id="T-index"),
    pytest.param("T", "kronecker", False, ("T_MOD",), id="T-kronecker"),
    pytest.param("T", "weight", 2, ("T_MOD",), id="T-weight"),
    pytest.param("F", "eta", {1: -9, 2: 8}, ("F_MOD",), id="F-eta"),
    pytest.param("J", "index", Rat(1, 2), ("J_MOD", "J_ELL"), id="J-index"),
    pytest.param("THETA", "index", Rat(1, 4), ("THETA_MOD", "THETA_ELL"), id="THETA-index"),
]


@pytest.mark.parametrize("kind,field,value,laws", _FORM_FAULTS)
def test_a_wrong_form_row_makes_its_grids_unequal(kind, field, value, laws, monkeypatch):
    # the numeric counterpart of tests/test_faults.py: each law is computed
    # from its row, so a wrong row must show on the grid
    assert all(r.verdict == "equal" for law in laws for r in run_transformation_checks(law))
    monkeypatch.setitem(_FORMS, kind, _FORMS[kind]._replace(**{field: value}))
    for law in laws:
        assert any(r.verdict == "unequal" for r in run_transformation_checks(law)), law


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


# -- each formal object against its evaluator ---------------------------------
#
# theta_hat on each unit, calT and eta are theta-type sums: terms
# +-e^(2 pi i (tau E + e1 z1 + e2 z2)), one per lattice point, yielded below
# as (E, e1, e2) over a box that holds every term above 1e-300 at the
# sample points.

BRIDGE_ORDER = Rat(25)
_UNITS = {"z1": (1, 0), "z2": (0, 1), "z12": (1, 1)}


def _theta_lattice(k, unit):
    d1, d2 = _UNITS[unit]
    for j in range(-30, 30):
        n = j + 0.5
        yield k * n * n / 2, n * d1, n * d2


def _calT_lattice():
    for n1 in range(-20, 21):
        for n2 in range(-20, 21):
            yield 2 * (n1 * n1 - n1 * n2 + n2 * n2), n1 + n2, 2 * n1 - n2


def _eta_lattice():
    for k in range(-30, 31):
        yield (6 * k + 1) ** 2 / 24, 0, 0


# name: (the formal object at an order, its evaluator at (z1, z2, tau),
# its lattice); theta_hat is i times theta
BRIDGE = {
    **{f"theta_hat_{k}_{unit}": (
        lambda n, k=k, unit=unit: bl_on_unit(theta_hat(k, n), unit),
        lambda z1, z2, tau, k=k, unit=unit: 1j * eval_theta(
            _UNITS[unit][0] * z1 + _UNITS[unit][1] * z2, tau, k),
        lambda k=k, unit=unit: _theta_lattice(k, unit),
    ) for k in (1, 2) for unit in _UNITS},
    "calT": (calT, lambda z1, z2, tau: eval_T((z1, z2), tau), _calT_lattice),
    "eta": (lambda n: eta_quotient({1: 1}, n), lambda z1, z2, tau: eval_eta(tau), _eta_lattice),
}


def _bridge_tolerance(lattice, z1, z2, tau, order):
    """A bound on |formal - evaluator| for a theta-type sum, to first order
    in the unit roundoff u (Higham, ch. 3 and 4), and the number of the
    lattice's terms below the order.

    - The formal series holds the terms of E < order; the evaluator every
      term of magnitude at least e^-41 (numeric._TAIL), and eval_T some
      below it.  Their exact sums differ by at most the magnitudes of the
      tail, the terms of E >= order, each at most |q|^order times its
      z-part, and of the terms of E < order below e^-41.
    - Either side forms a term's exponent from float parts of magnitude
      at most 2 pi P, P = (|tau| + 1) E + (|e1| + |e2| + 1)(|z1| + |z2| + 1),
      with at most 8 roundings; exp and the products add at most 12 u.  So
      each side's term t is off by at most (12 + 16 pi P) u |t|.
    - Either side adds at most n terms, the box's count (eval_T adds
      2 (L + 3) products of coset sums, fewer), off by 2 n u sum |t|.
    """
    u, cut = 2.0**-53, math.exp(-2 * math.pi * float(_TAIL))
    t, y1, y2 = tau.imag, z1.imag, z2.imag
    zs = abs(z1) + abs(z2) + 1
    n = below = 0
    size = per_term = tail = small = 0.0
    for E, e1, e2 in lattice():
        mag = math.exp(-2 * math.pi * (t * E + e1 * y1 + e2 * y2))
        n += 1
        size += mag
        per_term += (12 + 16 * math.pi * ((abs(tau) + 1) * E + (abs(e1) + abs(e2) + 1) * zs)) * mag
        if E >= order:
            tail += mag
        else:
            below += 1
            small += mag if mag < cut else 0.0
    return 2 * u * (per_term + 2 * n * size) + tail + small, below


def _formal_terms(a):
    rows = a.terms.values() if isinstance(a, BiLaurentSeries) else [a]
    return sum(len(list(row.items())) for row in rows)


@pytest.mark.parametrize("name", BRIDGE)
@pytest.mark.parametrize(
    "z1,z2,tau", [pytest.param(*p, id=f"sample{i}") for i, p in enumerate(sample_points())]
)
def test_formal_object_matches_its_evaluator(name, z1, z2, tau):
    build, evaluate, lattice = BRIDGE[name]
    a = build(BRIDGE_ORDER)
    formal = (eval_bilaurent(a, z1, z2, tau) if isinstance(a, BiLaurentSeries)
              else eval_q_series(a, tau))
    tol, below = _bridge_tolerance(lattice, z1, z2, tau, BRIDGE_ORDER)
    assert _formal_terms(a) == below  # the tolerance speaks of these terms
    assert abs(formal - evaluate(z1, z2, tau)) <= tol
