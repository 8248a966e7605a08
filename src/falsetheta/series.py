"""Truncated formal Puiseux series in q with exact rational coefficients.

A series is a finite map {exponent -> coefficient} together with a
truncation order: every exponent strictly below `order` is represented
exactly, everything at or above it is unknown and silently dropped.
Exponents and coefficients are both exact rationals; no floating point
enters this layer.

The truncation contract composes under multiplication as

    order(a*b) = min(order(a) + val(b), order(b) + val(a))

where val() is the minimal stored exponent (defined as the order for the
empty series, which is the canonical zero).  Products run on integer
rows: each operand is converted once to a list of Python ints on a grid
q^((e0 + g i)/d) common to both, scaled by the lcm of its coefficient
denominators; one convolution, _mul_add, which bilaurent's products
share, multiplies the lists, and only the result is converted back to Rat.

Sums of q^(quadratic in n) are enumerated exactly, with no guessed box:
`quadratic_range` gives the integers n with a n^2 + b n + c < order, and
`lattice_points` the integer points of a positive-definite two-variable
exponent below the order, which `lattice_sum` sums with a weight.  Both
scale to integers and solve with integer square roots, so exactly the
qualifying indices are visited.
"""

from math import gcd, isqrt, lcm
from operator import add

from .rat import Rat, rat, rat_ceil, rat_str, parse_rat

__all__ = [
    "PuiseuxSeries",
    "zero",
    "one",
    "monomial",
    "pochhammer",
    "eta_series",
    "eta_product",
    "quadratic_range",
    "lattice_points",
    "lattice_sum",
    "series_to_json",
    "series_from_json",
]


class PuiseuxSeries:
    """Immutable truncated series sum_e c_e q^e with rational e, c_e."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        order = rat(order)
        clean = {}
        for e, c in terms.items():
            e = rat(e)
            c = rat(c)
            if c and e < order:
                clean[e] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- basic queries ----------------------------------------------------

    def valuation(self):
        """Minimal stored exponent; equals order for the zero series."""
        if not self.terms:
            return self.order
        return min(self.terms)

    def coeff(self, e):
        return self.terms.get(rat(e), Rat(0))

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = monomial(other, 0, self.order)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Rat(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return PuiseuxSeries(terms, order)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries({e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        if isinstance(other, int):
            other = monomial(other, 0, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, of order min(order(a) + val(b), order(b) + val(a)).

        Runs on integer rows: d is the lcm of both operands' exponent
        denominators, e0 each operand's smallest exponent times d, and g
        the gcd of all exponent differences within either operand, times
        d (1 if there are none).  Each operand becomes one list of ints
        over the lcm of its coefficient denominators, and one _mul_add
        convolves the two below the order.
        """
        if isinstance(other, int):
            return PuiseuxSeries(
                {e: c * other for e, c in self.terms.items()}, self.order
            )
        if not (self.terms and other.terms):
            order = min(self.order + other.valuation(), other.order + self.valuation())
            return _series({}, order)
        d = lcm(*(e.denominator for e in self.terms), *(e.denominator for e in other.terms))
        ua = [_times(e, d) for e in self.terms]
        ub = [_times(e, d) for e in other.terms]
        e0a, e0b = min(ua), min(ub)  # d val(a) and d val(b)
        order = min(self.order + Rat(e0b, d), other.order + Rat(e0a, d))
        g = gcd(*(x - e0a for x in ua), *(x - e0b for x in ub)) or 1
        dena = lcm(*(c.denominator for c in self.terms.values()))
        denb = lcm(*(c.denominator for c in other.terms.values()))
        dst = [0] * rat_ceil((order * d - e0a - e0b) / g)
        _mul_add(dst, 0, _int_row(ua, self.terms.values(), e0a, g, dena)[1],
                 _int_row(ub, other.terms.values(), e0b, g, denb)[1])
        e0, scale = e0a + e0b, dena * denb
        terms = {Rat(e0 + g * n, d): Rat(c, scale) for n, c in enumerate(dst) if c}
        return _series(terms, order)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = one(self.order + (n - 1) * self.valuation() if n else self.order)
        for _ in range(n):
            result = result * self
        return result

    def invert(self):
        """Multiplicative inverse; requires a nonzero leading term.

        Writing a = c q^v (1 + h) with val(h) > 0, the inverse is
        c^-1 q^-v sum_k (-h)^k.  The result order follows the truncation
        contract so that a * a.invert() == 1 up to the retained order.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        v = self.valuation()
        c = self.terms[v]
        rel = self.order - v  # relative precision of (1 + h)
        h = PuiseuxSeries(
            {e - v: q / c for e, q in self.terms.items() if e != v}, rel
        )
        geom = one(rel)
        power = one(rel)
        hv = h.valuation()
        k = 1
        while k * hv < rel and not h.is_zero():
            power = power * (-h)
            if power.is_zero():
                break
            geom = geom + power
            k += 1
        return PuiseuxSeries(
            {e - v: q / c for e, q in geom.terms.items()}, rel - v
        )

    def shift(self, e, c=1):
        """Multiply by the exact monomial c*q^e (order shifts by e)."""
        e = rat(e)
        c = rat(c)
        if not c:
            return zero(self.order + e)
        return PuiseuxSeries(
            {k + e: v * c for k, v in self.terms.items()}, self.order + e
        )

    def scale_q(self, k):
        """Substitute q -> q^k for positive rational k."""
        k = rat(k)
        if k <= 0:
            raise ValueError("scale factor must be positive")
        return PuiseuxSeries(
            {e * k: c for e, c in self.terms.items()}, self.order * k
        )

    def truncate(self, order):
        """Lower the truncation order (raising it is not meaningful)."""
        order = rat(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return _series({e: c for e, c in self.terms.items() if e < order}, order)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"O(q^{self.order})"
        bits = []
        for e, c in self.items():
            if e == 0:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(f"q^({e})")
            elif c == -1:
                bits.append(f"-q^({e})")
            else:
                bits.append(f"{c}*q^({e})")
        body = " + ".join(bits).replace("+ -", "- ")
        return f"{body} + O(q^{self.order})"


def _series(terms, order):
    """A PuiseuxSeries from terms that are already clean: Rat exponents
    below the Rat order, each with a nonzero Rat coefficient."""
    s = object.__new__(PuiseuxSeries)
    object.__setattr__(s, "terms", terms)
    object.__setattr__(s, "order", order)
    return s


def _times(x, d):
    """The int d*x, for a Rat x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


def _int_row(us, cs, e0, g, den):
    """(lo, ints) for the terms cs[j] q^(us[j]/d), us[j] ints on the grid
    e0 + g Z: ints[i] is den times the coefficient of q^((e0 + g (lo + i))/d)."""
    lo = (min(us) - e0) // g
    row = [0] * ((max(us) - e0) // g + 1 - lo)
    for u, c in zip(us, cs):
        row[(u - e0) // g - lo] = _times(c, den)
    return lo, row


def _mul_add(dst, s, x, y):
    """dst[s + i + j] += x[i] y[j] wherever s + i + j < len(dst)."""
    n = len(dst)
    if len(x) > len(y):
        x, y = y, x
    for i, c in enumerate(x[:n - s], s):
        if c:
            k = min(len(y), n - i)
            dst[i:i + k] = map(add, dst[i:i + k], map(c.__mul__, y[:k]))


def zero(order):
    return PuiseuxSeries({}, order)


def one(order):
    return PuiseuxSeries({Rat(0): Rat(1)}, order)


def monomial(c, e, order):
    return PuiseuxSeries({rat(e): rat(c)}, order)


# -- classical builders ------------------------------------------------------


def pochhammer(sign, s, t, n, order):
    """Truncated q-Pochhammer product prod_{j<n} (1 - sign*q^(s+j*t)).

    `n` is a nonnegative integer or None for the infinite product.  For
    the infinite product s > 0 is required (factors with s + j*t >= order
    contribute only beyond the truncation and are skipped); finite
    products require every factor exponent to be nonnegative.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = rat(s)
    t = rat(t)
    order = rat(order)
    if t <= 0:
        raise ValueError("step t must be positive")
    if n is None:
        if s <= 0:
            raise ValueError("infinite product requires s > 0")
        n = max(0, rat_ceil((order - s) / t))  # the factors below the order
    elif not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer or None")
    elif n and s < 0:
        raise ValueError("negative factor exponent in finite product")
    return _binomial_series([(sign, 0, s + j * t, 1) for j in range(n)], order)


def eta_product(powers, order):
    """prod_k (q^k; q^k)_infinity^powers[k], truncated below `order`.

    powers maps positive integers k to integer powers; the q^(k/24) of
    eta(k tau) is left to the caller.
    """
    factors = []
    for k, p in powers.items():
        if not isinstance(k, int) or k < 1 or not isinstance(p, int):
            raise ValueError("powers must map positive integers to integers")
        factors += [(1, 0, j, p) for j in range(k, rat_ceil(rat(order)), k)]
    return _binomial_series(factors, order)


def eta_series(scale, order):
    """q^(k/24) * (q^k; q^k)_infinity truncated below `order` (k = scale)."""
    pre = Rat(scale, 24)
    return eta_product({scale: 1}, rat(order) - pre).shift(pre)


# -- products of binomials -------------------------------------------------------


def _binomial_table(factors, order):
    """prod (1 - sign u^a q^e)^power over factors, as a table of ints.

    factors are tuples (sign, a, e, power) of integers and a rational
    e >= 0.  Returns (d, table), d the lcm of the denominators of the e;
    table maps m to the list of ints whose entry i is the coefficient of
    u^m q^(i/d), for every i/d < order.  Each factor multiplies the table
    in place.  A negative power takes the INNER expansion of the inverse,
    sum_k (sign u^a q^e)^k; for e = 0 that sum is infinite, so the table
    must divide by (1 - sign u^a) exactly, and a must not be 0.
    """
    factors = [(sign, a, rat(e), power) for sign, a, e, power in factors]
    d = lcm(1, *(e.denominator for _, _, e, _ in factors))
    n = max(0, rat_ceil(rat(order) * d))
    table = {0: [1] + [0] * (n - 1)} if n else {}
    for sign, a, e, power in factors:
        if e < 0 or (not a and not e and power < 0):
            raise ValueError(f"cannot expand (1 - {sign} u^{a} q^{e})^{power}")
        k = e.numerator * (d // e.denominator)
        for _ in range(abs(power) if k < n else 0):
            if power > 0:  # every row is read before it is written
                for m in sorted(table, reverse=a > 0):
                    dst = table.setdefault(m + a, [0] * n)
                    dst[k:] = [x - sign * y for x, y in zip(dst[k:], table[m])]
            elif not a:  # row[i] += sign * row[i - k], in increasing i
                for row in table.values():
                    for i in range(k, n):
                        row[i] += sign * row[i - k]
            else:  # rows in the direction of a: m is final before it feeds m + a
                step = 1 if a > 0 else -1
                rows = sorted(table)[::step]
                reach = a * (n // k) if k else 0  # how far the tail runs past rows[-1]
                for m in range(rows[0], rows[-1] + reach + step, step):
                    src = table.get(m, ())
                    if any(src[:n - k]):
                        if not k and (m + a - rows[-1]) * step > 0:
                            raise ValueError("the quotient by 1 - u^a is not exact")
                        dst = table.setdefault(m + a, [0] * n)
                        dst[k:] = [x + sign * y for x, y in zip(dst[k:], src)]
    return d, table


def _binomial_series(factors, order):
    """The one-variable product of _binomial_table, every a = 0."""
    d, table = _binomial_table(factors, order)
    return PuiseuxSeries({Rat(i, d): c for i, c in enumerate(table.get(0, ())) if c}, order)


# -- exact enumeration of quadratic exponents ----------------------------------


def _negative_range(alpha, beta, gamma, lower):
    """The integers x >= lower with alpha x^2 + beta x + gamma < 0.

    All arguments are integers (lower may be None) and alpha > 0.
    """
    disc = beta * beta - 4 * alpha * gamma
    if disc <= 0:
        return range(0)
    s = isqrt(disc)
    # s^2 <= disc < (s + 1)^2, so [lo, hi] contains both real roots;
    # shrink it to the integers where the quadratic is negative, of which
    # there may be none even though the discriminant is positive
    lo = (-beta - s - 1) // (2 * alpha)
    hi = -((beta - s - 1) // (2 * alpha))
    if lower is not None:
        lo = max(lo, lower)
    while lo <= hi and (alpha * lo + beta) * lo + gamma >= 0:
        lo += 1
    while hi >= lo and (alpha * hi + beta) * hi + gamma >= 0:
        hi -= 1
    return range(lo, hi + 1)


def _scaled(*vals):
    """(d, integers d*v) for rationals v, d the lcm of their denominators."""
    vals = [rat(v) for v in vals]
    d = lcm(*(v.denominator for v in vals))
    return d, [v.numerator * (d // v.denominator) for v in vals]


def quadratic_range(a, b, c, order, lower=None):
    """The integers n >= lower with a n^2 + b n + c < order, as a range.

    a, b, c and order are rationals with a > 0; lower is an integer or
    None for no lower bound.
    """
    _, (a, b, c, top) = _scaled(a, b, c, order)
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    return _negative_range(a, b, c - top, lower)


def lattice_points(form, linear, const, order, lower=(None, None)):
    """Yield (n1, n2, E(n)) for the integer points n with E(n) < order.

    E(n) = a n1^2 + b n1 n2 + c n2^2 + l1 n1 + l2 n2 + const, where
    form = (a, b, c) are the coefficients of that polynomial (b is the
    whole cross coefficient, not half of it) and linear = (l1, l2); all
    are rationals.  lower = (lo1, lo2) restricts the points to n_i >= lo_i,
    None leaving that coordinate unbounded.  Points come row by row in
    increasing n1, then n2.  Iteration raises ValueError unless the
    quadratic part is positive definite.
    """
    d, (a, b, c, l1, l2, k, top) = _scaled(*form, *linear, const, order)
    if a <= 0 or 4 * a * c - b * b <= 0:
        raise ValueError("quadratic part is not positive definite")
    # d E(n) < top has a real solution n2 in the row n1 iff the row's
    # discriminant (b n1 + l2)^2 - 4 c (a n1^2 + l1 n1 + k - top) is positive
    rows = _negative_range(
        4 * a * c - b * b, 4 * c * l1 - 2 * b * l2, 4 * c * (k - top) - l2 * l2, lower[0]
    )
    for n1 in rows:
        lin = b * n1 + l2
        cst = (a * n1 + l1) * n1 + k
        for n2 in _negative_range(c, lin, cst - top, lower[1]):
            yield n1, n2, Rat((c * n2 + lin) * n2 + cst, d)


def lattice_sum(form, linear, const, order, weight, lower=(None, None)):
    """sum of weight(n1, n2) q^E(n) over the points n that
    lattice_points(form, linear, const, order, lower) yields."""
    acc = {}
    for n1, n2, e in lattice_points(form, linear, const, order, lower):
        w = weight(n1, n2)
        if w:
            acc[e] = acc.get(e, 0) + w
    return PuiseuxSeries(acc, order)


# -- serialization ------------------------------------------------------------


def series_to_json(s):
    return {
        "order": rat_str(s.order),
        "terms": [
            {"exp": rat_str(e), "coeff": rat_str(c)} for e, c in s.items()
        ],
    }


def series_from_json(d):
    return PuiseuxSeries(
        {parse_rat(t["exp"]): parse_rat(t["coeff"]) for t in d["terms"]},
        parse_rat(d["order"]),
    )
