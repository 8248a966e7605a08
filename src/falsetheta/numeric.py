"""Complex evaluation and numerical transformation-law checks.

Everything here is double precision.  The theta and eta sums keep
exactly the terms of magnitude at least e^-41 (about 1.6e-18); the
lattice theta T keeps at least those and omits only terms below it, as
A_0 B_0 + A_1 B_1 by the coset identity of the A2 lattice (see eval_T).
Theta, eta and T's two factors are rank-one sums through one kernel,
_coset_sum, over index ranges that the formal layer's integer solver
(series._negative_range) finds exactly.  A point whose largest term
would overflow a double, or whose index range holds more than
_MAX_TERMS terms, is refused before anything is summed.  Against
25-digit direct sums the evaluators agree to 1e-12 relative
(tests/test_numeric.py).
Verification tolerances are 1e-8 relative.

Theta, f, T and J are Jacobi forms (Eichler and Zagier, The Theory of
Jacobi Forms, 1985, section 1), each described once by its row of
_FORMS: level, weight k, index s Q* for Q*(z) = z1^2 + z1 z2 + z2^2
(theta's z read as (z, 0)) and multiplier chi.  check_transformation
computes every modular factor as chi(gamma) w^k e^(2 pi i s c Q*(z)/w)
and every elliptic one as
e^(-2 pi i s (tau Q*(m) + z1 (2 m1 + m2) + z2 (2 m2 + m1))), times
(-1)^(m+l) for theta.  The residual is relative to factor * RHS, which
an elliptic factor can make far larger than RHS.  run_transformation_checks
gives check_transformation's reports over a law's grid, evaluating each
sample point's unmoved side and each matrix's multiplier once.  Every grid
is read off its law's row: the five sample points times gamma_grid(level)
or shift_grid(step).

The eta multiplier convention (Dedekind-sum formula plus the principal
square-root branch) is validated against eta's own functional equation
before every law whose multiplier reads an eta power, so the convention
is self-certifying rather than trusted.
"""

import cmath
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .rat import Rat
from .series import _negative_range

__all__ = [
    "eval_theta",
    "eval_eta",
    "eval_f",
    "eval_T",
    "eval_J",
    "eval_q_series",
    "eval_bilaurent",
    "dedekind_sum",
    "eta_multiplier",
    "EtaMultiplierValidationError",
    "TransformationResidual",
    "check_transformation",
    "transformation_grid",
    "run_transformation_checks",
    "residual_report_to_json",
    "sample_points",
    "gamma_grid",
    "shift_grid",
    "LAW_IDS",
    "complex_str",
]

_TWO_PI_I = 2j * math.pi
_ETA_PHASE = cmath.exp(-_TWO_PI_I / 12)
_LOG_MAX = math.log(sys.float_info.max)  # e^_LOG_MAX is the largest double

# The theta and eta sums keep exactly the terms e^(2 pi i X) of magnitude
# at least e^-41 (about 1.6e-18), those with Im X < _TAIL; the lattice
# theta keeps at least those, and omits only terms below e^-41.  Their
# index ranges are solved by series._negative_range on integers, the
# floats Im tau and Im z scaled by x.as_integer_ratio() (whose
# denominators are powers of two).
_TAIL = Fraction(41 / (2 * math.pi))

# The most terms one rank-one sum may take.  As Im tau falls to zero the
# index range of the kept terms widens like Im tau^(-1/2); a range past
# this bound is refused before anything is summed, where it would
# otherwise run for minutes.  At Im tau = 1e-10 the widest sum of the
# transformation checks takes 722,516 terms.
_MAX_TERMS = 10**6

LAW_IDS = (
    "THETA_MOD",
    "THETA_ELL",
    "F_MOD",
    "F_ELL",
    "T_MOD",
    "T_ELL",
    "J_MOD",
    "J_ELL",
)


# -- pointwise evaluators -----------------------------------------------------


def _coset_range(alpha, beta, gamma, M, e):
    """The k with alpha n^2 + beta n + gamma < 0 at n = M k + e, as a range
    (integer arguments, alpha > 0)."""
    return _negative_range(
        alpha * M * M, (2 * alpha * e + beta) * M, (alpha * e + beta) * e + gamma, None
    )


def _coset_sum(a, tau, u, M, e, ks):
    """sum of e^(2 pi i (a tau n^2 + n u)) over n = M k + e for k in ks;
    a range of more than _MAX_TERMS raises ValueError before any term."""
    if len(ks) > _MAX_TERMS:
        raise ValueError(
            f"the sum needs {len(ks)} terms, more than the {_MAX_TERMS} allowed: "
            "Im tau is too small"
        )
    x, y = _TWO_PI_I * a * tau, _TWO_PI_I * u
    total = 0j
    for k in ks:
        n = M * k + e
        total += cmath.exp(x * (n * n) + y * n)  # n * n is exact
    return total


def _refuse_overflow(top):
    """Refuse a sum whose largest term, of magnitude up to e^(2 pi top),
    might not be a finite double; before any index range is solved."""
    if not 2 * math.pi * top <= _LOG_MAX:
        raise ValueError(
            f"the sum's largest term, about e^{2 * math.pi * top:.4g}, is not a finite "
            "double: Im z is too large for Im tau"
        )


def _theta_indices(t, y, scale):
    """The j (n = j + 1/2) of eval_theta's terms of magnitude at least e^-41
    at the floats t = Im tau, y = Im z: s n^2/2 + y n < _TAIL for s = scale t,
    in 2n = 2j + 1 and times 8 b d D for t = a/b, y = c/d, _TAIL = N/D."""
    (a, b), (c, d), (N, D) = t.as_integer_ratio(), y.as_integer_ratio(), _TAIL.as_integer_ratio()
    s, y = scale * a * d * D, c * b * D  # b d D times s and y
    return _coset_range(s, 4 * y, -8 * b * d * N, 2, 1)


def _eta_indices(t):
    """The k of eval_eta's terms of magnitude at least e^-41 at the float
    t = Im tau: t n^2/24 < _TAIL at n = 6k + 1, times 24 b D for t = a/b."""
    a, b = t.as_integer_ratio()
    N, D = _TAIL.as_integer_ratio()
    return _coset_range(a * D, 0, -24 * b * N, 6, 1)


def _T_indices(t, y1, y2):
    """The k of eval_T's factors A_e and B_e (n = 2k + e), as pairs of
    ranges for e = 0, 1, at the floats t = Im tau and y_i = Im z_i.

    A's term at n and B's at m have Im exponents 3t n^2/2 + 3(y1+y2) n/2
    and t m^2/2 + (y1-y2) m/2, at least -3(y1+y2)^2/(8t) and
    -(y1-y2)^2/(8t) over the reals.  Each factor keeps the indices whose
    exponent is below _TAIL minus the other's minimum, so every lattice term of
    magnitude at least e^-41 is a product of kept terms.  The inequalities
    are solved times 8 T D, for T, P and Q the integers L t, L (y1+y2) and
    L (y1-y2), L the common denominator of t, y1 and y2, _TAIL = N/D.
    """
    (a, b), (c1, d1), (c2, d2) = t.as_integer_ratio(), y1.as_integer_ratio(), y2.as_integer_ratio()
    N, D = _TAIL.as_integer_ratio()
    L = math.lcm(b, d1, d2)
    T, Y1, Y2 = a * (L // b), c1 * (L // d1), c2 * (L // d2)
    P, Q = Y1 + Y2, Y1 - Y2
    K = 8 * T * L * N
    return [
        (
            _coset_range(12 * T * T * D, 12 * T * P * D, -K - Q * Q * D, 2, e),
            _coset_range(4 * T * T * D, 4 * T * Q * D, -K - 3 * P * P * D, 2, e),
        )
        for e in (0, 1)
    ]


def eval_theta(z, tau, scale=1):
    """Odd Jacobi theta sum_{n in 1/2+Z} q^(scale*n^2/2) e^(2 pi i n (z+1/2)).

    n = j + 1/2 runs over the j of the terms of magnitude at least e^-41
    (see _theta_indices and _TAIL); the kernel sums over the odd 2n.
    """
    t = tau.imag
    if t <= 0:
        raise ValueError("tau must lie in the upper half plane")
    y = z.imag
    # the Im exponent scale t n^2/2 + y n is at least -y^2/(2 scale t)
    _refuse_overflow(y * y / (2 * scale * t))
    return _coset_sum(scale / 8, tau, (z + 0.5) / 2, 2, 1, _theta_indices(t, y, scale))


def eval_eta(tau):
    """Dedekind eta, the pentagonal number sum of (-1)^k q^((6k+1)^2/24)
    over the k of the terms of magnitude at least e^-41 (see _eta_indices
    and _TAIL)."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    # (-1)^k = e^(2 pi i (n - 1)/12) at n = 6k + 1
    return _ETA_PHASE * _coset_sum(1 / 24, tau, 1 / 12, 6, 1, _eta_indices(tau.imag))


_THETA_ZERO_GUARD = 1e-6


def eval_f(z, tau):
    """Ratio of six theta values: prod_u theta(u;2tau)/theta(u;tau).

    u runs over z1, z2, z1+z2.  Points too close to a denominator zero
    (|theta| <= 1e-6) are rejected.
    """
    z1, z2 = z
    out = 1.0 + 0.0j
    for u in (z1, z2, z1 + z2):
        den = eval_theta(u, tau, 1)
        if abs(den) <= _THETA_ZERO_GUARD:
            raise ValueError("sample point too close to a theta zero")
        out *= eval_theta(u, tau, 2) / den
    return out


def eval_T(z, tau):
    """Hexagonal-lattice theta sum_{n in Z^2} q^(2Q(n)) e^(2 pi i (n1 w1 + n2 w2)).

    Q(n) = n1^2 - n1 n2 + n2^2, w1 = z1 + 2 z2 and w2 = z1 - z2.  With
    m = 2 n2 - n1, which is n1 mod 2, 2Q(n) = (3 n1^2 + m^2)/2 and
    n1 w1 + n2 w2 = 3 n1 (z1 + z2)/2 + m (z1 - z2)/2: the lattice is two
    cosets of a rectangular one (theta_A2 = theta_3 theta_3(3.) + theta_2
    theta_2(3.), Conway and Sloane, ch. 4), and the sum is A_0 B_0 + A_1 B_1
    for the rank-one sums A_e of e^(2 pi i (3 tau n^2/2 + 3 n (z1 + z2)/2))
    and B_e of e^(2 pi i (tau m^2/2 + m (z1 - z2)/2)) over n, m = e mod 2.
    The products keep at least every term of magnitude at least e^-41, and
    omit only terms below it (see _T_indices and _TAIL).
    """
    t = tau.imag
    if t <= 0:
        raise ValueError("tau must lie in the upper half plane")
    z1, z2 = z
    y1, y2 = z1.imag, z2.imag
    # A's and B's largest terms, at the real minima of their Im exponents
    _refuse_overflow((3 * (y1 + y2) * (y1 + y2) + (y1 - y2) * (y1 - y2)) / (8 * t))
    u, v = 3 * (z1 + z2) / 2, (z1 - z2) / 2
    return sum(
        _coset_sum(1.5, tau, u, 2, e, ka) * _coset_sum(0.5, tau, v, 2, e, kb)
        for e, (ka, kb) in enumerate(_T_indices(t, y1, y2))
    )


def eval_J(z, tau):
    """eta(tau)^5/eta(2 tau) * T(z;tau) * f(z;tau)."""
    return eval_eta(tau) ** 5 / eval_eta(2 * tau) * eval_T(z, tau) * eval_f(z, tau)


# -- formal/numeric bridge ----------------------------------------------------


def eval_q_series(series, tau):
    """Termwise evaluation of a truncated q-series at q = e^(2 pi i tau)."""
    total = 0.0 + 0.0j
    for e, c in series.items():
        total += float(c) * cmath.exp(_TWO_PI_I * tau * float(e))
    return total


def eval_bilaurent(F, z1, z2, tau):
    """Termwise evaluation with zeta_j^e := e^(2 pi i e z_j) (rational e)."""
    total = 0.0 + 0.0j
    for (e1, e2), coeff in F.terms.items():
        phase = cmath.exp(_TWO_PI_I * (float(e1) * z1 + float(e2) * z2))
        total += phase * eval_q_series(coeff, tau)
    return total


# -- arithmetic helpers -------------------------------------------------------


def dedekind_sum(d, c):
    """Exact s(d, c) = sum_{k=1}^{c-1} ((k/c)) ((kd/c)); requires gcd = 1.

    For 0 < k < c neither k/c nor kd/c is an integer, so the sawtooth
    ((x)) = x - floor(x) - 1/2 makes the sum
    sum_k (2k - c)(2 (kd mod c) - c) / (4 c^2), one Rat of an int sum.
    """
    if not isinstance(c, int) or c <= 0:
        raise ValueError("c must be a positive integer")
    if math.gcd(c, d) != 1:
        raise ValueError("d and c must be coprime")
    return Rat(sum((2 * k - c) * (2 * (k * d % c) - c) for k in range(1, c)), 4 * c * c)


class EtaMultiplierValidationError(Exception):
    """The eta multiplier convention failed its functional-equation check."""


def eta_multiplier(gamma):
    """Multiplier chi(gamma) with eta(gamma tau) = chi (c tau + d)^(1/2) eta(tau).

    Principal square-root branch.  For c > 0 this is the classical
    exp(pi i ((a+d)/(12c) - s(d,c) - 1/4)); translations give e^(pi i b/12).
    Any other matrix reduces to its negative, whose c tau + d is -w for
    w = c tau + d: chi(gamma) = i chi(-gamma) for c < 0, where w lies in
    the lower half-plane and sqrt(w) = i sqrt(-w), and -i chi(-gamma) for
    c = 0, d < 0, where sqrt(w) = sqrt(-1) = i.
    """
    a, b, c, d = gamma
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c < 0 or (c == 0 and d < 0):
        return (1j if c else -1j) * eta_multiplier((-a, -b, -c, -d))
    if c == 0:
        return cmath.exp(1j * math.pi * b / 12)
    expo = Rat(a + d, 12 * c) - dedekind_sum(d, c) - Rat(1, 4)
    return cmath.exp(1j * math.pi * float(expo))


_VALIDATION_TAUS = (0.13 + 0.82j, -0.37 + 1.31j, 0.52 + 0.61j)
_VALIDATION_GAMMAS = ((0, -1, 1, 0), (1, 0, 1, 1), (3, 1, 2, 1), (1, 1, 0, 1), (-1, -1, 0, -1))
ETA_VALIDATION_TOL = 1e-9


@lru_cache(maxsize=1)
def eta_multiplier_self_check():
    """Max residual of the eta functional equation over the sample set.

    Raises EtaMultiplierValidationError above 1e-9; called lazily before
    every multiplier-dependent transformation check.
    """
    worst = 0.0
    for g in _VALIDATION_GAMMAS:
        a, b, c, d = g
        chi = eta_multiplier(g)
        for tau in _VALIDATION_TAUS:
            w = c * tau + d
            lhs = eval_eta((a * tau + b) / w)
            rhs = chi * cmath.sqrt(w) * eval_eta(tau)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    if worst >= ETA_VALIDATION_TOL:
        raise EtaMultiplierValidationError(
            f"eta multiplier residual {worst:.3e} exceeds {ETA_VALIDATION_TOL}"
        )
    return worst


# -- transformation laws ------------------------------------------------------


@dataclass(frozen=True)
class TransformationResidual:
    law: str
    params: dict
    residual: float
    tolerance: float
    ms: int

    @property
    def verdict(self):
        return "equal" if self.residual < self.tolerance else "unequal"


def residual_report_to_json(rep):
    return {
        "id": rep.law,
        "params": rep.params,
        "verdict": rep.verdict,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "ms": rep.ms,
    }


def complex_str(z):
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


# each evaluated function as a Jacobi form: modular on Gamma_0(level), of
# weight k and index s Q*, with the multiplier of the eta quotient
# prod_j eta(j tau)^eta[j], times (-3/d) if kronecker; its elliptic law
# shifts z by m tau + l for m in step Z^2 (step Z for theta)
_Form = namedtuple("_Form", "level weight index eta kronecker step")
_FORMS = {
    "THETA": _Form(1, Rat(1, 2), Rat(1, 2), {1: 3}, False, 1),
    "F": _Form(2, 0, Rat(-1, 2), {1: -9, 2: 9}, False, 2),  # negative definite index
    "T": _Form(6, 1, Rat(1, 2), {}, True, 2),
    # J = eta(tau)^5/eta(2 tau) T f, and eta^5/eta(2 tau)'s row is weight 2,
    # index 0, eta powers {1: 5, 2: -1}: J's row is the sum of the three
    "J": _Form(6, 3, 0, {1: -4, 2: 8}, True, 2),
}


def _check_tolerance(tolerance):
    """Refuse a tolerance that decides nothing: nan, 0 or less, or inf."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")


def _check_finite(name, x):
    """Refuse a complex argument with a nan or inf part, which has no value
    to check a law at."""
    if not cmath.isfinite(x):
        raise ValueError(f"{name} must be finite, got {complex_str(x)}")


def _check_gamma(gamma, level):
    a, b, c, d = gamma
    if not all(type(x) is int for x in gamma):  # a bool is not an entry
        raise ValueError("matrix entries must be integers")
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c % level != 0:
        raise ValueError(f"matrix not in Gamma_0({level})")


def _check_shift(law, element, step):
    """The shifts (m, l) of element as tuples of ints, checked before
    anything converts them.

    THETA_ELL shifts by integers, given plain or as the pairs (k, 0) that
    the CLI parses from one integer, and returns them as such pairs.  The
    two-variable laws shift by integer pairs with m in step Z^2: completing
    the square in T's defining sum shifts the summation index by
    (m1+m2, m1)/2.
    """
    m, l = (tuple(x) if isinstance(x, (tuple, list)) else (x,) for x in element)
    size = 1 if law == "THETA_ELL" else 2
    if size == 1:
        m, l = (x[:1] if x[1:] == (0,) else x for x in (m, l))
    if len(m) != size or len(l) != size or not all(type(x) is int for x in m + l):
        raise ValueError(f"{law} shifts must be " + ("integers" if size == 1 else "integer pairs"))
    if any(x % step for x in m):
        raise ValueError(f"m must lie in {step}Z^2 for this law")
    return (m + (0,), l + (0,)) if size == 1 else (m, l)


def _qstar(z1, z2):
    return z1 * z1 + z2 * z2 + z1 * z2


def _multiplier(form, gamma):
    """form's multiplier chi(gamma): eta(j tau) at gamma is eta at
    (a, j b, c/j, d) acting on j tau, so the eta quotient's is the product
    of eta_multiplier(a, j b, c/j, d)^p over its powers {j: p}, each read
    after the convention's self-check.  (-3/d) is 1 for d = 1 mod 3 and -1
    otherwise, as every d of Gamma_0(6) is prime to 6."""
    a, b, c, d = gamma
    chi = -1 if form.kronecker and d % 3 != 1 else 1
    for j, p in form.eta.items():
        if c % j:
            raise ValueError(f"matrix not in Gamma_0({j})")
        eta_multiplier_self_check()
        chi *= eta_multiplier((a, j * b, c // j, d)) ** p
    return chi


def check_transformation(law, element, z, tau, tolerance=1e-8):
    """Residual of one transformation law at one point.

    element is a matrix (a, b, c, d) for *_MOD laws and a pair (m, l) of
    integer vectors for *_ELL laws (integers for THETA_ELL); z is one
    complex number for the THETA laws and a pair (z1, z2) for the others.
    Malformed input or tolerance, a nan or inf part of tau or z, or a
    point whose terms overflow a double raises ValueError.  The residual is
    |LHS - factor * RHS| / max(1, |factor * RHS|) with the exact automorphy
    factor of the cited law: relative to the size of the two sides, which
    an elliptic factor can make far larger than RHS.
    """
    return _check(law, element, z, tau, tolerance, {}, {})


def _check(law, element, z, tau, tolerance, multipliers, unmoved):
    """check_transformation, which takes each matrix's multiplier from
    multipliers and each point's unmoved side from unmoved, computing and
    storing it there when it is missing: the checks of one grid share the
    two dicts."""
    if law not in LAW_IDS:
        raise ValueError(f"unknown law {law!r}")
    _check_tolerance(tolerance)
    tau = complex(tau)
    _check_finite("tau", tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    kind, mode = law.split("_")
    form = _FORMS[kind]
    if kind == "THETA":
        if isinstance(z, (tuple, list)):
            raise ValueError(f"{law} takes one z, not a pair")
        z = complex(z)
        _check_finite("z", z)
        params = {"tau": complex_str(tau), "z": complex_str(z)}
        z1, z2 = z, 0  # theta's z is read as (z, 0)
        evaluator = lambda z, tau: eval_theta(z[0], tau)
    else:
        if not isinstance(z, (tuple, list)) or len(z) != 2:
            raise ValueError(f"{law} takes a pair z = (z1, z2)")
        z1, z2 = complex(z[0]), complex(z[1])
        _check_finite("z1", z1)
        _check_finite("z2", z2)
        params = {"tau": complex_str(tau), "z": [complex_str(z1), complex_str(z2)]}
        evaluator = {"F": eval_f, "T": eval_T, "J": eval_J}[kind]
    s = float(form.index)
    t0 = time.monotonic()
    if mode == "MOD":
        gamma = tuple(element)
        _check_gamma(gamma, form.level)
        params["gamma"] = list(gamma)
        a, b, c, d = gamma
        w = c * tau + d
        lhs = evaluator((z1 / w, z2 / w), (a * tau + b) / w)
        if gamma not in multipliers:
            multipliers[gamma] = _multiplier(form, gamma)
        factor = (
            multipliers[gamma]
            * cmath.sqrt(w) ** int(2 * form.weight)
            * cmath.exp(_TWO_PI_I * s * c * _qstar(z1, z2) / w)
        )
    else:
        m, l = _check_shift(law, element, form.step)
        params["m"], params["l"] = (m[0], l[0]) if kind == "THETA" else (list(m), list(l))
        (m1, m2), (l1, l2) = m, l
        # theta, of characteristic (1/2, 1/2), alone picks up a sign
        sign = (-1) ** ((m1 + l1) & 1) if kind == "THETA" else 1
        lhs = evaluator((z1 + m1 * tau + l1, z2 + m2 * tau + l2), tau)
        factor = sign * cmath.exp(-_TWO_PI_I * s * (
            tau * _qstar(m1, m2) + z1 * (2 * m1 + m2) + z2 * (2 * m2 + m1)
        ))
    if (z1, z2, tau) not in unmoved:
        unmoved[z1, z2, tau] = evaluator((z1, z2), tau)
    rhs = factor * unmoved[z1, z2, tau]

    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    ms = int((time.monotonic() - t0) * 1000)
    return TransformationResidual(law, params, residual, tolerance, ms)


# -- verification grids -------------------------------------------------------


def sample_points():
    """Generic points (z1, z2, tau) with Im(tau) >= 0.5, away from theta zeros."""
    return [
        (0.21 + 0.13j, 0.11 + 0.07j, 0.10 + 1.20j),
        (0.17 - 0.09j, 0.31 + 0.05j, -0.20 + 0.90j),
        (0.05 + 0.21j, 0.23 - 0.11j, 0.33 + 0.75j),
        (0.41 + 0.03j, 0.08 + 0.17j, -0.05 + 1.50j),
        (0.13 + 0.06j, 0.37 - 0.04j, 0.25 + 0.62j),
    ]


def gamma_grid(level):
    """Five determinant-one matrices (a, b, c, d), c a positive multiple of level."""
    out = []
    for c in count(level, level):
        for d in range(1, 4 * c):
            if math.gcd(d, c) == 1:
                a = pow(d, -1, c) if c > 1 else 1
                out.append((a, (a * d - 1) // c, c, d))
                if len(out) == 5:
                    return out


def shift_grid(parity):
    """Five lattice shift pairs (m, l) with m in parity*Z^2."""
    ms = [(1, 0), (0, 1), (1, 1), (-1, 0), (1, -1)]
    ls = [(0, 0), (1, 0), (0, 1), (-1, 1), (1, 1)]
    return [((parity * m1, parity * m2), l) for (m1, m2), l in zip(ms, ls)]


def transformation_grid(law):
    """(element, z, tau) combinations for one law: the 5 sample points x 5
    elements read off the law's _FORMS row, gamma_grid(level) for a
    modular law and shift_grid(step) for an elliptic one (theta takes z1
    and the first entry of each shift)."""
    if law not in LAW_IDS:
        raise ValueError(f"unknown law {law!r}")
    kind, mode = law.split("_")
    pts = sample_points()
    form = _FORMS[kind]
    if mode == "MOD":
        elems = gamma_grid(form.level)
    else:
        elems = shift_grid(form.step)
        if kind == "THETA":
            elems = [(m[0], l[0]) for m, l in elems]
    return [(e, z1 if kind == "THETA" else (z1, z2), tau) for z1, z2, tau in pts for e in elems]


def run_transformation_checks(law, tolerance=1e-8):
    """check_transformation at each (element, z, tau) of the law's grid,
    evaluating each matrix's multiplier and each sample point's unmoved
    side once."""
    multipliers, unmoved = {}, {}
    return [
        _check(law, e, z, tau, tolerance, multipliers, unmoved)
        for e, z, tau in transformation_grid(law)
    ]
