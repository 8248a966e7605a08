"""Two-variable Laurent series over PuiseuxSeries coefficients.

Keys are pairs of rational exponents of the elliptic units (z1, z2); each
key carries a truncated q-series.  Every series is tagged with the
annulus (Region) its meromorphic factors were expanded in; mixing
regions is a hard error, because the same rational function has
different Laurent expansions in different annuli.

bl_mul and product_coeff share one kernel, _int_product:
it spreads the integer row each key's PuiseuxSeries holds onto one grid
of exponents and convolves the rows with series._mul_add, on which
PuiseuxSeries products run too; each result row becomes a series as is.

The optional `window` W marks a clip: keys outside |e1|, |e2| <= W were
dropped, so their coefficients are unknown and reading one raises.  It
is set only by `clip` and by builders that bound what they build, such
as the geometric series 1/(1 - u), whose key support at a fixed q-order
is otherwise unbounded.  bl_add keeps the smaller of its operands'
windows; bl_scalar_mul, truncate_q and bl_elliptic_shift keep their
operand's; bl_mul and laurent_poly_exact_divide return none, so a key
outside a product's support reads as zero.  Callers choose a window as
an analysis parameter and pair it with a compatible q-order.
"""

import enum
from math import gcd, lcm

from .rat import Rat, rat, rat_ceil, rat_str, parse_rat
from .series import PuiseuxSeries, zero as q_zero, one as q_one, monomial as q_monomial
from .series import series_to_json, series_from_json
from .series import _from_row, _grid, _mul_add, _scaled, _spread

__all__ = [
    "Region",
    "RegionMismatchError",
    "ExactDivisionError",
    "BiLaurentSeries",
    "bl_zero",
    "bl_one",
    "bl_monomial",
    "bl_add",
    "bl_mul",
    "product_coeff",
    "bl_scalar_mul",
    "expand_inverse_one_minus",
    "bl_elliptic_shift",
    "laurent_poly_exact_divide",
    "UNIT_KEYS",
    "bl_to_json",
    "bl_from_json",
]


class Region(enum.Enum):
    INNER = "INNER"  # |q| < |z1|, |z2|, |z1 z2| < 1
    OUTER = "OUTER"  # |z1| > 1, |z2| > 1


class RegionMismatchError(ValueError):
    pass


class ExactDivisionError(ArithmeticError):
    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial


# key direction of each elliptic unit; z1*z2 is a derived direction
UNIT_KEYS = {"z1": (1, 0), "z2": (0, 1), "z12": (1, 1)}


class BiLaurentSeries:
    """Immutable region-tagged series sum_{e} c_e(q) z1^e1 z2^e2."""

    __slots__ = ("terms", "qorder", "region", "window")

    def __init__(self, terms, qorder, region, window=None):
        qorder = rat(qorder)
        if not isinstance(region, Region):
            raise TypeError("region must be a Region")
        clean = {}
        for key, coeff in terms.items():
            e1, e2 = rat(key[0]), rat(key[1])
            if window is not None and (abs(e1) > window or abs(e2) > window):
                continue
            if coeff.order > qorder:
                coeff = coeff.truncate(qorder)
            elif coeff.order < qorder:
                raise ValueError("coefficient order below the global qorder")
            if not coeff.is_zero():
                clean[(e1, e2)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "qorder", qorder)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "window", window)

    def __setattr__(self, *a):
        raise AttributeError("BiLaurentSeries is immutable")

    def qvaluation(self):
        """Minimal coefficient valuation over all keys (qorder if empty)."""
        if not self.terms:
            return self.qorder
        return min(c.valuation() for c in self.terms.values())

    def coeff(self, r1, r2):
        key = (rat(r1), rat(r2))
        if self.window is not None and (
            abs(key[0]) > self.window or abs(key[1]) > self.window
        ):
            raise ValueError(f"key {key} outside window {self.window}")
        return self.terms.get(key, q_zero(self.qorder))

    def keys_sorted(self):
        return sorted(self.terms)

    def clip(self, window):
        """Drop keys outside |ei| <= window; reading one of them raises."""
        return BiLaurentSeries(self.terms, self.qorder, self.region, window)

    def truncate_q(self, qorder):
        qorder = rat(qorder)
        if qorder > self.qorder:
            raise ValueError("cannot extend q-truncation")
        return BiLaurentSeries(self.terms, qorder, self.region, self.window)

    def __eq__(self, other):
        if not isinstance(other, BiLaurentSeries):
            return NotImplemented
        return (
            self.region is other.region
            and self.qorder == other.qorder
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.region, self.qorder, frozenset(self.terms)))

    def __repr__(self):
        n = len(self.terms)
        return (
            f"<BiLaurentSeries {self.region.value} keys={n} "
            f"qorder={self.qorder} window={self.window}>"
        )

    # operator sugar delegating to the module-level operations
    def __add__(self, other):
        return bl_add(self, other)

    def __sub__(self, other):
        return bl_add(self, bl_mul_scalar_int(other, -1))

    def __mul__(self, other):
        if isinstance(other, PuiseuxSeries):
            return bl_scalar_mul(self, other)
        return bl_mul(self, other)


def bl_zero(qorder, region, window=None):
    return BiLaurentSeries({}, qorder, region, window)


def bl_one(qorder, region, window=None):
    return bl_monomial(q_one(qorder), 0, 0, qorder, region, window)


def bl_monomial(coeff, e1, e2, qorder, region, window=None):
    """coeff(q) * z1^e1 z2^e2; coeff may be a PuiseuxSeries or a rational."""
    if not isinstance(coeff, PuiseuxSeries):
        coeff = q_monomial(coeff, 0, qorder)
    return BiLaurentSeries({(rat(e1), rat(e2)): coeff}, qorder, region, window)


def bl_mul_scalar_int(a, n):
    return BiLaurentSeries(
        {k: c * n for k, c in a.terms.items()}, a.qorder, a.region, a.window
    )


def _check_regions(a, b):
    if a.region is not b.region:
        raise RegionMismatchError(
            f"cannot combine {a.region.value} with {b.region.value}"
        )


def bl_add(a, b):
    """The sum, of the smaller qorder, to which the constructor truncates."""
    _check_regions(a, b)
    qorder = min(a.qorder, b.qorder)
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms[k] + c if k in terms else c
    windows = [w for w in (a.window, b.window) if w is not None]
    return BiLaurentSeries(terms, qorder, a.region, min(windows, default=None))


def _int_product(factors, qorder, key=None):
    """The terms below qorder of the product of `factors`; with a key
    (r1, r2), only that key's.

    Each key's row is spread onto one grid of step s, the gcd of all steps
    and of the valuation differences within each factor: a key of
    valuation v becomes (lo, ints), v = e0 + lo s for e0 its factor's least
    valuation, ints over the lcm of the factor's denominators.  Keys
    become ints over kd, the lcm of the key denominators.  Key tuples are
    walked from the last factor down to the first, whose key is looked up
    when the sum is fixed, and skipped once their rows start at or past
    the order; each tuple's row product is added into one row per key.
    """
    if not all(f.terms for f in factors):
        return {}
    kd, kints = _scaled(*(e for f in factors for k in f.terms for e in k))
    if key is not None:
        if any(kd % e.denominator for e in key):
            return {}  # off the lattice of key sums
        key = ((key[0] * kd).numerator, (key[1] * kd).numerator)
    g0, ints = _grid(*(x for f in factors for s in f.terms.values() for x in (s.step, s.v)))
    ints, kints = iter(ints), iter(kints)
    # (key times kd, series, step / g0, valuation / g0) for each key of each factor
    grid = [[((next(kints), next(kints)), s, next(ints), next(ints)) for s in f.terms.values()]
            for f in factors]
    e0 = [min(u for _, _, _, u in fg) for fg in grid]
    g = gcd(*(x for fg, m in zip(grid, e0) for _, _, t, u in fg for x in (t, u - m)))
    scale, rows = 1, []
    for fg, m in zip(grid, e0):
        den = lcm(*(s.den for _, s, _, _ in fg))
        scale *= den
        rows.append({k: ((u - m) // g, _spread(s.row, t // g, den // s.den))
                     for k, s, t, u in fg})
    v, step = g0 * sum(e0), g0 * g
    ntop = rat_ceil((qorder - v) / step)

    def tuples(i, k, s):
        # (key sum, start, rows) of factors[:i + 1] whose keys sum to k
        # (any sum if k is None) and whose rows start below ntop - s
        if i == 0:
            # a missing key reads as a row that starts at ntop
            hits = rows[0].items() if k is None else [(k, rows[0].get(k, (ntop, ())))]
            for kk, (lo, r) in hits:
                if s + lo < ntop:
                    yield kk, s + lo, (r,)
            return
        for kk, (lo, r) in rows[i].items():
            if s + lo < ntop:
                rest = None if k is None else (k[0] - kk[0], k[1] - kk[1])
                for out, t, head in tuples(i - 1, rest, s + lo):
                    yield (out[0] + kk[0], out[1] + kk[1]), t, head + (r,)

    sums = {}
    for out, s, tup in tuples(len(rows) - 1, key, 0):
        dst = sums.get(out)
        if dst is None:
            dst = sums[out] = [0] * ntop
        part = tup[0] if len(tup) > 1 else [1]
        for r in tup[1:-1]:
            nxt = [0] * min(len(part) + len(r) - 1, ntop - s)
            _mul_add(nxt, 0, part, r)
            part = nxt
        _mul_add(dst, s, part, tup[-1])
    return {
        (Rat(k1, kd), Rat(k2, kd)): _from_row(v, step, row, scale, qorder)
        for (k1, k2), row in sums.items()
    }


def bl_mul(a, b):
    """Convolution product; q-truncation follows the one-variable rule

        qorder = min(a.qorder + qval(b), b.qorder + qval(a)).

    One call of the integer-row kernel that product_coeff shares, over
    every key pair; keys that cancel are dropped.
    """
    _check_regions(a, b)
    qorder = min(a.qorder + b.qvaluation(), b.qorder + a.qvaluation())
    return BiLaurentSeries(_int_product((a, b), qorder), qorder, a.region)


def product_coeff(factors, r1, r2):
    """The (r1, r2) coefficient of the product of `factors`, without
    building the product.

    One call of the integer-row kernel that bl_mul shares, over the key
    tuples k_0 + ... + k_n = (r1, r2) only: for factors along pairwise
    independent unit directions, as in A(z1) B(z2) C(z1 z2), this is the
    one-dimensional sum sum_m A_(r1-m) B_(r2-m) C_m.  A key off the
    lattice of key sums reads zero.

    The result order follows the bl_mul rule,
    min_i (qorder_i + sum_{j != i} qval_j); it is the order of the
    left-to-right bl_mul product whenever no leading coefficients of a
    partial product cancel, which holds for such independent factors.
    """
    if not factors:
        raise ValueError("product_coeff needs at least one factor")
    for f in factors[1:]:
        _check_regions(factors[0], f)
    vals = [f.qvaluation() for f in factors]
    qorder = min(f.qorder + sum(vals) - v for f, v in zip(factors, vals))
    key = (rat(r1), rat(r2))
    return _int_product(factors, qorder, key).get(key, q_zero(qorder))


def bl_scalar_mul(a, s):
    """Multiply every coefficient by the one-variable series s(q)."""
    qorder = min(a.qorder + s.valuation(), s.order + a.qvaluation())
    return BiLaurentSeries({k: c * s for k, c in a.terms.items()}, qorder, a.region, a.window)


def expand_inverse_one_minus(unit, n, qorder, zwindow=None, invert_unit=False):
    """INNER expansion of 1 / (1 - x), x = u^s * q^n, s = +-1.

    unit selects u among z1, z2, z1*z2; invert_unit chooses s = -1.
    For n >= 0 this is sum_{k>=0} x^k; for n < 0 it is
    -sum_{k>=1} x^-k.  n = 0 needs a window, which then bounds the keys;
    any window becomes the result's.
    """
    if unit not in UNIT_KEYS:
        raise ValueError(f"unknown unit {unit!r}")
    d1, d2 = UNIT_KEYS[unit]
    if invert_unit:
        d1, d2 = -d1, -d2
    n = rat(n)
    qorder = rat(qorder)
    if n == 0 and zwindow is None:
        raise ValueError("n = 0 expansion requires a window")
    lead, k = 1, 0
    if n < 0:
        # 1/(1 - x) = -x^-1/(1 - x^-1)
        d1, d2, n, lead, k = -d1, -d2, -n, -1, 1
    terms = {}
    while k * n < qorder and (
        zwindow is None or max(abs(k * d1), abs(k * d2)) <= zwindow
    ):
        terms[(rat(k * d1), rat(k * d2))] = q_monomial(lead, k * n, qorder)
        k += 1
    return BiLaurentSeries(terms, qorder, Region.INNER, zwindow)


def bl_elliptic_shift(a, m1, m2):
    """Substitute z_j -> z_j q^(m_j): key (e1, e2) picks up q^(m1 e1 + m2 e2).

    The q-order shrinks by (|m1| + |m2|) W, the most negative shift over
    the window |e1|, |e2| <= W: a key absent from the window, known zero
    only below the qorder, moves down too.  So a finite window is required.
    """
    if a.window is None:
        raise ValueError("elliptic shift requires a finite window")
    qorder = a.qorder - (abs(m1) + abs(m2)) * a.window
    terms = {k: c.shift(m1 * k[0] + m2 * k[1]) for k, c in a.terms.items()}
    return BiLaurentSeries(terms, qorder, a.region, a.window)


def _constant_terms(a, who):
    out = {}
    for k, c in a.terms.items():
        if set(c.terms) - {Rat(0)}:
            raise ValueError(f"{who} is not a constant-coefficient Laurent polynomial")
        out[k] = c.coeff(0)
    return out


def laurent_poly_exact_divide(numer, denom):
    """Exact quotient of two Laurent polynomials with constant coefficients.

    Raises ExactDivisionError (carrying the offending monomial) when the
    division leaves a remainder.  Division runs by repeatedly cancelling
    the lex-leading term; the quotient support is confined a priori to
    the componentwise box [min(numer) - max(denom), max(numer) - min(denom)].
    """
    nterms = _constant_terms(numer, "numerator")
    dterms = _constant_terms(denom, "denominator")
    if not dterms:
        raise ZeroDivisionError("division by the zero polynomial")
    qorder = min(numer.qorder, denom.qorder)
    region = numer.region
    if not nterms:
        return bl_zero(qorder, region)

    lead_d = max(dterms)
    cd = dterms[lead_d]
    lo = (
        min(k[0] for k in nterms) - max(k[0] for k in dterms),
        min(k[1] for k in nterms) - max(k[1] for k in dterms),
    )
    hi = (
        max(k[0] for k in nterms) - min(k[0] for k in dterms),
        max(k[1] for k in nterms) - min(k[1] for k in dterms),
    )
    rem = dict(nterms)
    quot = {}
    while rem:
        lead = max(rem)
        t = (lead[0] - lead_d[0], lead[1] - lead_d[1])
        if not (lo[0] <= t[0] <= hi[0] and lo[1] <= t[1] <= hi[1]):
            raise ExactDivisionError(
                f"nonzero remainder at monomial z1^{lead[0]} z2^{lead[1]}",
                monomial=lead,
            )
        c = rem[lead] / cd
        quot[t] = quot.get(t, Rat(0)) + c
        for k, v in dterms.items():
            key = (t[0] + k[0], t[1] + k[1])
            s = rem.get(key, Rat(0)) - c * v
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    terms = {
        k: q_monomial(c, 0, qorder) for k, c in quot.items() if c
    }
    return BiLaurentSeries(terms, qorder, region)


# -- serialization ------------------------------------------------------------


def bl_to_json(a):
    return {
        "region": a.region.value,
        "qorder": rat_str(a.qorder),
        "window": a.window,
        "terms": [
            {
                "e1": rat_str(e1),
                "e2": rat_str(e2),
                "series": series_to_json(a.terms[(e1, e2)]),
            }
            for (e1, e2) in a.keys_sorted()
        ],
    }


def bl_from_json(d):
    terms = {
        (parse_rat(t["e1"]), parse_rat(t["e2"])): series_from_json(t["series"])
        for t in d["terms"]
    }
    return BiLaurentSeries(
        terms, parse_rat(d["qorder"]), Region(d["region"]), d["window"]
    )
