"""Two-variable Laurent series over PuiseuxSeries coefficients.

Keys are pairs of rational exponents of the elliptic units (z1, z2); each
key carries a truncated q-series.  Every series is tagged with the
annulus (Region) its meromorphic factors were expanded in; mixing
regions is a hard error, because the same rational function has
different Laurent expansions in different annuli.

bl_mul works on integer rows: it puts both operands on one grid
q^((e0 + g i)/d), with each key's coefficients as a list of ints over a
common denominator, and convolves the lists with slice arithmetic, so no
Rat is built until the result's.  bl_scalar_mul and product_coeff
multiply PuiseuxSeries coefficients one by one.

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
from operator import add

from .rat import Rat, rat, rat_ceil, rat_str, parse_rat
from .series import PuiseuxSeries, zero as q_zero, one as q_one, monomial as q_monomial
from .series import series_to_json, series_from_json

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
        return BiLaurentSeries(
            {k: c.truncate(qorder) for k, c in self.terms.items()},
            qorder,
            self.region,
            self.window,
        )

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
    _check_regions(a, b)
    qorder = min(a.qorder, b.qorder)
    terms = {k: c.truncate(qorder) for k, c in a.terms.items()}
    for k, c in b.terms.items():
        c = c.truncate(qorder)
        if k in terms:
            terms[k] = terms[k] + c
        else:
            terms[k] = c
    windows = [w for w in (a.window, b.window) if w is not None]
    return BiLaurentSeries(terms, qorder, a.region, min(windows, default=None))


def _times(x, d):
    """The int d*x, for a Rat x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


def _int_rows(a, kd, d, e0, g):
    """(D, rows): a's coefficients on the grid q^((e0 + g i)/d), times D.

    D is the lcm of a's coefficient denominators; rows maps each key
    (e1, e2), as the ints (kd e1, kd e2), to (lo, ints), ints[i] being
    D times its coefficient of q^((e0 + g (lo + i))/d).
    """
    scale = lcm(1, *(c.denominator for s in a.terms.values() for c in s.terms.values()))
    rows = {}
    for key, s in a.terms.items():
        idx = {(_times(e, d) - e0) // g: _times(c, scale) for e, c in s.terms.items()}
        lo = min(idx)
        row = [0] * (max(idx) - lo + 1)
        for i, c in idx.items():
            row[i - lo] = c
        rows[_times(key[0], kd), _times(key[1], kd)] = (lo, row)
    return scale, rows


def bl_mul(a, b):
    """Convolution product; q-truncation follows the one-variable rule

        qorder = min(a.qorder + qval(b), b.qorder + qval(a)).

    Each operand becomes one row of ints per key, on the grid
    q^((e0 + g i)/d): d is the lcm of both operands' exponent
    denominators, e0 the operand's smallest exponent times d, and g the
    gcd of all exponent differences within either operand, times d.  The
    rows are scaled by the lcm of the operand's coefficient denominators.
    Key pairs add their row products into one int list per output key,
    cut at the result order; a pair whose leading exponents already sum
    past it is skipped.
    """
    _check_regions(a, b)
    qorder = min(a.qorder + b.qvaluation(), b.qorder + a.qvaluation())
    if not a.terms or not b.terms:
        return BiLaurentSeries({}, qorder, a.region)
    kd = lcm(*(e.denominator for x in (a, b) for key in x.terms for e in key))
    d = lcm(*(e.denominator for x in (a, b) for s in x.terms.values() for e in s.terms))
    ua, ub = ([_times(e, d) for s in x.terms.values() for e in s.terms] for x in (a, b))
    e0a, e0b = min(ua), min(ub)
    g = gcd(*(u - e0a for u in ua), *(u - e0b for u in ub)) or 1
    da, rows_a = _int_rows(a, kd, d, e0a, g)
    db, rows_b = _int_rows(b, kd, d, e0b, g)
    ntop = rat_ceil((qorder * d - e0a - e0b) / g)
    sums = {}
    for ka, (la, ra) in rows_a.items():
        for kb, (lb, rb) in rows_b.items():
            s = la + lb
            if s >= ntop:
                continue
            key = (ka[0] + kb[0], ka[1] + kb[1])
            dst = sums.get(key)
            if dst is None:
                dst = sums[key] = [0] * ntop
            short, long = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            for i, x in enumerate(short[:ntop - s], s):
                if x:
                    k = min(len(long), ntop - i)
                    dst[i:i + k] = map(add, dst[i:i + k], map(x.__mul__, long[:k]))
    scale = da * db
    qexps = [Rat(e0a + e0b + g * n, d) for n in range(ntop)]
    terms = {
        (Rat(k1, kd), Rat(k2, kd)): PuiseuxSeries(
            {qexps[n]: Rat(c, scale) for n, c in enumerate(row) if c}, qorder
        )
        for (k1, k2), row in sums.items()
    }
    return BiLaurentSeries(terms, qorder, a.region)  # drops the keys that cancel


def product_coeff(factors, r1, r2):
    """The (r1, r2) coefficient of the product of `factors`, without
    building the product.

    The coefficient is the sum, over one key k_i of each factor with
    k_0 + ... + k_n = (r1, r2), of the products of their coefficients.
    The last factor's keys are iterated and the first factor's looked up,
    so for factors along pairwise independent unit directions, as in
    A(z1) B(z2) C(z1 z2), this is the one-dimensional sum
    sum_m A_(r1-m) B_(r2-m) C_m.  Key tuples whose valuations already
    reach the result order are skipped, and each coefficient is
    truncated to what the others' valuations leave of that order.

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
    total = sum(vals)
    qorder = min(f.qorder + total - v for f, v in zip(factors, vals))
    triples = [
        [(k, c, c.valuation()) for k, c in f.terms.items()] for f in factors
    ]
    first = {k: (c, v) for k, c, v in triples[0]}
    floors = [sum(vals[:i]) for i in range(len(factors))]

    def tuples(i, key, budget):
        # (coeff, valuation) of factors[:i+1] with keys summing to key and
        # valuations summing below budget
        if i == 0:
            hit = first.get(key)
            if hit is not None and hit[1] < budget:
                yield (hit,)
            return
        for k, c, v in triples[i]:
            if v + floors[i] >= budget:
                continue
            for head in tuples(i - 1, (key[0] - k[0], key[1] - k[1]), budget - v):
                yield head + ((c, v),)

    acc = q_zero(qorder)
    for pairs in tuples(len(factors) - 1, (rat(r1), rat(r2)), qorder):
        s = sum(v for _, v in pairs)
        term = None
        for c, v in pairs:
            c = c.truncate(min(c.order, qorder - s + v))
            term = c if term is None else term * c
        acc = acc + term
    return acc.truncate(qorder)


def bl_scalar_mul(a, s):
    """Multiply every coefficient by the one-variable series s(q)."""
    qorder = min(a.qorder + s.valuation(), s.order + a.qvaluation())
    terms = {}
    for k, c in a.terms.items():
        prod = c * s
        if prod.order > qorder:
            prod = prod.truncate(qorder)
        if not prod.is_zero():
            terms[k] = prod
    return BiLaurentSeries(terms, qorder, a.region, a.window)


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

    The guaranteed q-order shrinks conservatively by the most negative
    exponent shift over the retained keys; a finite window is required so
    that this shrink is well defined.
    """
    if a.window is None:
        raise ValueError("elliptic shift requires a finite window")
    if not a.terms:
        return a
    shifts = {k: m1 * k[0] + m2 * k[1] for k in a.terms}
    qorder = a.qorder + min(Rat(0), min(shifts.values()))
    terms = {}
    for k, c in a.terms.items():
        shifted = c.shift(shifts[k])
        if shifted.order > qorder:
            shifted = shifted.truncate(qorder)
        elif shifted.order < qorder:
            raise AssertionError("shift bookkeeping violated")
        if not shifted.is_zero():
            terms[k] = shifted
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
