"""Truncated formal Puiseux series in q with exact rational coefficients.

A series is sum_i c_i q^((lo + i s)/qd), the c_i one row of Python ints
over a common denominator, with a truncation order top/qd: every
exponent strictly below the order is represented exactly, everything at
or above it is unknown and silently dropped.  qd, lo, s and top are
ints, so sums, products, truncations and shifts do integer arithmetic
only; no floating point enters this layer.  The fields are kept in one
canonical form, so equal series have equal fields; `order`,
`valuation()`, `terms`, `items`, `coeff` and the JSON read rational
exponents and coefficients off them.

The truncation contract composes under multiplication as

    order(a*b) = min(order(a) + val(b), order(b) + val(a))

where val() is the minimal stored exponent (defined as the order for the
empty series, which is the canonical zero).  Sums and products put both
operands over the lcm of their qd and spread each row onto the coarsest
grid common to both; a product is one convolution, _mul_add, which
bilaurent's products share.  The rows of a new series, a sum or a
product are laid out by _zeros, which refuses with ValueError one longer
than _MAX_ROW before allocating it.

Sums of q^(quadratic in n) are enumerated exactly, with no guessed box:
`quadratic_range` gives the integers n with a n^2 + b n + c < order, and
`lattice_rows` the integer points of a positive-definite two-variable
exponent below the order, as one range of n2 per n1; `lattice_points`
reads them off with their exponents, and `lattice_sum` sums them with a
weight, keyed by the integer exponent.  Both scale to integers and solve
with integer square roots, so exactly the qualifying indices are
visited.  The numeric layer sums its theta, eta and lattice-theta series
over ranges from the same integer solver, with coefficients that are the
exact rationals of its floats.
"""

from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import add, sub

from .rat import Rat, rat, rat_ceil, ratio_str, parse_rat, _positive_order, _ratio

# The most entries a row may have: terms whose exponents lie far apart on a
# fine grid, such as 0, 1/2^62 and 1, would otherwise lay out a row of
# billions of zeros.  The rows that the identities, the expansions and the
# tests build have under a thousand entries.
_MAX_ROW = 10**7

__all__ = [
    "PuiseuxSeries",
    "zero",
    "one",
    "monomial",
    "pochhammer",
    "eta_product",
    "eta_quotient",
    "quadratic_range",
    "lattice_rows",
    "lattice_points",
    "lattice_sum",
    "series_to_json",
    "series_from_json",
]


class PuiseuxSeries:
    """Immutable truncated series sum_i row[i]/den q^((lo + i s)/qd), exact
    below q^(top/qd)."""

    __slots__ = ("qd", "lo", "s", "top", "row", "den")

    def __init__(self, terms, order):
        qd, (top, *us) = _scaled(order, *terms)
        cs = [c if type(c) is int else rat(c) for c in terms.values()]
        self._store_terms(qd, {u: c for u, c in zip(us, cs) if c and u < top}, top)

    def _store_terms(self, qd, terms, top):
        """Store sum c q^(u/qd) over {u: c}, ints u < top and c ints or Rats,
        on the coarsest grid through the u."""
        den, cs = _scaled(*terms.values())
        lo = min(terms, default=top)
        g = gcd(*(u - lo for u in terms)) or 1
        row = _zeros((max(terms) - lo) // g + 1) if terms else []
        for u, c in zip(terms, cs):
            row[(u - lo) // g] = c
        return self._store(qd, lo, g, row, den, top)

    def _store(self, qd, lo, s, row, den, top):
        """Store sum_i row[i]/den q^((lo + i s)/qd), all below q^(top/qd),
        canonically: row[0] and row[-1] nonzero, nonzero indices of gcd 1
        (s = qd, the step 1, for one term), den > 0 coprime to the row and
        gcd(qd, lo, s, top) = 1; zero is lo = top, s = qd, [], den 1."""
        first = next(compress(count(), row), None)
        if first is None:
            lo, s, row, den = top, qd, [], 1
        else:
            hi = len(row) - next(compress(count(), reversed(row)))
            if first or hi < len(row):
                row = row[first:hi]
                lo += first * s
            g = gcd(*compress(count(), row))
            if not g:
                s = qd
            elif g > 1:
                row = row[::g]
                s *= g
            h = gcd(den, *row) if den != 1 else 1
            if h > 1:
                row = [c // h for c in row]
                den //= h
        g = gcd(qd, lo, s, top)
        if g > 1:
            qd, lo, s, top = qd // g, lo // g, s // g, top // g
        for name, x in zip(self.__slots__, (qd, lo, s, top, row, den)):
            object.__setattr__(self, name, x)
        return self

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def order(self):
        """The truncation order top/qd."""
        return Rat(self.top, self.qd)

    def valuation(self):
        """Minimal stored exponent; equals order for the zero series."""
        return Rat(self.lo, self.qd)

    def coeff(self, e):
        n, d = _ratio(e)
        u, r = divmod(n * self.qd, d)  # e = u/qd when r == 0
        i, r2 = divmod(u - self.lo, self.s)
        if not (r or r2) and 0 <= i < len(self.row):
            return Rat(self.row[i], self.den)
        return Rat(0)

    def is_zero(self):
        return not self.row

    def items(self):
        """The (exponent, coefficient) pairs, in increasing exponent."""
        qd, lo, s, den = self.qd, self.lo, self.s, self.den
        return [(Rat(lo + s * i, qd), Rat(c, den)) for i, c in enumerate(self.row) if c]

    @property
    def terms(self):
        """The map {exponent: coefficient} of the stored terms."""
        return dict(self.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """The sum, of the smaller order, on the coarsest grid that holds
        both operands' exponents."""
        if isinstance(other, int):
            other = _constant(other, self.qd, self.top)
        qd = lcm(self.qd, other.qd)
        ma, mb = qd // self.qd, qd // other.qd
        top = min(self.top * ma, other.top * mb)
        if not (self.row and other.row):
            return (self if self.row else other)._cut(qd, top)
        la, lb, sa, sb = self.lo * ma, other.lo * mb, self.s * ma, other.s * mb
        step = gcd(sa, sb, la - lb)
        den = lcm(self.den, other.den)
        xa = _spread(self.row, sa // step, den // self.den)
        xb = _spread(other.row, sb // step, den // other.den)
        oa, ob = max(la - lb, 0) // step, max(lb - la, 0) // step  # offsets from min(lo)
        dst = _zeros(max(oa + len(xa), ob + len(xb)))
        dst[oa:oa + len(xa)] = xa
        dst[ob:ob + len(xb)] = map(add, dst[ob:ob + len(xb)], xb)
        lo = min(la, lb)
        del dst[max(_ceil_div(top - lo, step), 0):]
        return _from_row(qd, lo, step, dst, den, top)

    __radd__ = __add__

    def __neg__(self):
        return _from_row(self.qd, self.lo, self.s, [-c for c in self.row], self.den, self.top)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, of order min(order(a) + val(b), order(b) + val(a)).

        Both operands go over the lcm of their qd, their rows are spread
        onto the gcd of the two steps, and one _mul_add convolves them
        below the order, over the product of the denominators.
        """
        if isinstance(other, int):
            return _from_row(self.qd, self.lo, self.s, [c * other for c in self.row],
                             self.den, self.top)
        qd = lcm(self.qd, other.qd)
        ma, mb = qd // self.qd, qd // other.qd
        la, lb, sa, sb = self.lo * ma, other.lo * mb, self.s * ma, other.s * mb
        top = min(self.top * ma + lb, other.top * mb + la)
        step = gcd(sa, sb)
        dst = _zeros(max(_ceil_div(top - la - lb, step), 0))
        _mul_add(dst, 0, _spread(self.row, sa // step), _spread(other.row, sb // step))
        return _from_row(qd, la + lb, step, dst, self.den * other.den, top)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        top = self.top + (n - 1) * self.lo if n else self.top
        result = _constant(1, self.qd, top)
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
        lead = self.row[0]
        sign = 1 if lead > 0 else -1
        # h = a / (c q^v) - 1, of the relative precision order - v
        h = _from_row(self.qd, 0, self.s, [0, *(sign * c for c in self.row[1:])], sign * lead,
                      self.top - self.lo)
        geom = power = _constant(1, h.qd, h.top)
        while power.lo * h.qd < h.top * power.qd:  # (-h)^k has valuation >= k val(h)
            power = power * (-h)
            geom = geom + power
        return geom.shift(Rat(-self.lo, self.qd), Rat(self.den, lead))

    def shift(self, e, c=1):
        """Multiply by the exact monomial c*q^e (order shifts by e)."""
        (n, d), (cn, cd) = _ratio(e), _ratio(c)
        qd = lcm(self.qd, d)
        m, u = qd // self.qd, n * (qd // d)
        row = [x * cn for x in self.row] if cn != 1 else self.row
        return _from_row(qd, self.lo * m + u, self.s * m, row, self.den * cd, self.top * m + u)

    def scale_q(self, k):
        """Substitute q -> q^k for positive rational k."""
        n, d = _ratio(k)
        if n <= 0:
            raise ValueError("scale factor must be positive")
        return _from_row(self.qd * d, self.lo * n, self.s * n, self.row, self.den, self.top * n)

    def truncate(self, order):
        """Lower the truncation order (raising it is not meaningful)."""
        n, d = _ratio(order)
        if n * self.qd > self.top * d:
            raise ValueError("cannot extend a truncated series")
        qd = lcm(self.qd, d)
        return self._cut(qd, n * (qd // d))

    def _cut(self, qd, top):
        """The series truncated to the order top/qd, no more than its own,
        for qd a multiple of its qd."""
        m = qd // self.qd
        if top == self.top * m:
            return self
        lo, s = self.lo * m, self.s * m
        return _from_row(qd, lo, s, self.row[:max(_ceil_div(top - lo, s), 0)], self.den, top)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def __hash__(self):
        return hash((self.qd, self.lo, self.s, self.top, self.den, tuple(self.row)))

    def __repr__(self):
        if not self.row:
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


def _from_row(qd, lo, s, row, den, top):
    """The series sum_i row[i]/den q^((lo + i s)/qd) for ints qd > 0, s > 0,
    den > 0 and lo, every exponent below top/qd, and the ints row, not
    copied."""
    return object.__new__(PuiseuxSeries)._store(qd, lo, s, row, den, top)


def _constant(c, qd, top):
    """The int c as a series of order top/qd."""
    return _from_row(qd, 0, qd, [c] if top > 0 else [], 1, top)


def _int_row(row, v, d, order):
    """The series sum_i row[i] q^(v + i/d) for the ints row, not copied, a
    rational v, an int d > 0 and a rational order above every exponent."""
    (vn, vd), (n, od) = _ratio(v), _ratio(order)
    qd = lcm(d, vd, od)
    return _from_row(qd, vn * (qd // vd), qd // d, row, 1, n * (qd // od))


def _zeros(n):
    """[0] * n, refusing with ValueError a row longer than _MAX_ROW before
    allocating it."""
    if n > _MAX_ROW:
        raise ValueError(f"a series row of {n} entries is longer than the {_MAX_ROW} allowed")
    return [0] * n


def _ceil_div(a, b):
    """ceil(a / b) for ints a and b > 0."""
    return -(-a // b)


def _scaled(*vals):
    """(d, integers d*v) for rationals v, d the lcm of their denominators."""
    vals = [v if type(v) is int else rat(v) for v in vals]
    d = lcm(*(v.denominator for v in vals))
    return d, [v.numerator * (d // v.denominator) for v in vals]


def _spread(row, k, f=1):
    """row times f, with k - 1 zeros between entries."""
    if f != 1:
        row = [c * f for c in row]
    if k == 1:
        return row
    out = _zeros(k * (len(row) - 1) + 1)
    out[::k] = row
    return out


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
    return monomial(0, 0, order)


def one(order):
    return monomial(1, 0, order)


def monomial(c, e, order):
    (cn, cd), (n, d), (on, od) = _ratio(c), _ratio(e), _ratio(order)
    qd = lcm(d, od)
    u, top = n * (qd // d), on * (qd // od)
    return _from_row(qd, u, qd, [cn] if u < top else [], cd, top)


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


def _check_powers(powers):
    if not all(isinstance(k, int) and k >= 1 and isinstance(p, int) for k, p in powers.items()):
        raise ValueError("powers must map positive integers to integers")
    return powers


def eta_product(powers, order):
    """prod_k (q^k; q^k)_infinity^powers[k], truncated below `order`, for
    powers mapping positive integers k to integers: the bare product, with
    none of eta_quotient's q^(k/24)."""
    top = rat_ceil(rat(order))
    factors = [(1, 0, j, p) for k, p in _check_powers(powers).items() for j in range(k, top, k)]
    return _binomial_series(factors, order)


def eta_quotient(powers, order):
    """prod_k eta(k tau)^powers[k], exact below the positive `order`, with
    eta(k tau) = q^(k/24) (q^k; q^k)_infinity: the eta_product shifted by
    its q^(sum_k k powers[k] / 24)."""
    pre = Rat(sum(k * p for k, p in _check_powers(powers).items()), 24)
    return eta_product(powers, _positive_order(order) - pre).shift(pre)


# -- products of binomials -------------------------------------------------------


def _divide(row, k, sign=1):
    """Divide the ints row in place by (1 - sign q^k) below its length."""
    for i in range(k, len(row)):
        row[i] += sign * row[i - k]


def _binomial_table(factors, order, start=None):
    """prod (1 - sign u^a q^e)^power over factors, as a table of ints.

    factors are tuples (sign, a, e, power) of integers and a rational
    e >= 0.  Returns (d, table), d the lcm of the denominators of the e;
    table maps m to the list of ints whose entry i is the coefficient of
    u^m q^(i/d), for every i/d < order.  Each factor multiplies the table
    in place.  A negative power takes the INNER expansion of the inverse,
    sum_k (sign u^a q^e)^k, which needs e > 0.  start, a (d, table) from
    an earlier call, is cut to the order and multiplied in place; an order
    past its rows' end or an e off its grid 1/d raises ValueError.
    """
    factors = [(sign, a, _ratio(e), power) for sign, a, e, power in factors]
    d, table = start or (lcm(1, *(ed for _, _, (_, ed), _ in factors)), None)
    on, od = _ratio(order)
    n = max(0, _ceil_div(on * d, od))
    if table is None:
        table = {}
        if n:  # the first row laid out; the later rows have its length
            table[0] = _zeros(n)
            table[0][0] = 1
    elif min(map(len, table.values()), default=0) < n:
        raise ValueError(f"cannot continue a table to order {order}: its rows end before it")
    for row in table.values():
        del row[n:]
    for sign, a, (en, ed), power in factors:
        if en < 0 or (not en and power < 0) or d % ed:
            raise ValueError(f"cannot expand (1 - {sign} u^{a} q^{Rat(en, ed)})^{power} "
                             f"on the grid 1/{d}")
        k = en * (d // ed)
        for _ in range(abs(power) if k < n else 0):
            if power > 0:  # every row is read before it is written
                for m in sorted(table, reverse=a > 0):
                    dst = table.setdefault(m + a, [0] * n)
                    dst[k:] = map(sub if sign > 0 else add, dst[k:], table[m])
            elif not a:
                for row in table.values():
                    _divide(row, k, sign)
            else:  # rows in the direction of a: m is final before it feeds m + a
                step = 1 if a > 0 else -1
                rows = sorted(table)[::step]
                reach = a * (n // k)  # how far the tail runs past rows[-1]
                for m in range(rows[0], rows[-1] + reach + step, step):
                    src = table.get(m, ())
                    if any(src[:n - k]):
                        dst = table.setdefault(m + a, [0] * n)
                        dst[k:] = map(add if sign > 0 else sub, dst[k:], src)
    return d, table


def _binomial_series(factors, order):
    """The one-variable product of _binomial_table, every a = 0."""
    d, table = _binomial_table(factors, order)
    return _int_row(table.get(0, []), 0, d, order)


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


def quadratic_range(a, b, c, order, lower=None):
    """The integers n >= lower with a n^2 + b n + c < order, as a range.

    a, b, c and order are rationals with a > 0; lower is an integer or
    None for no lower bound.
    """
    _, (a, b, c, top) = _scaled(a, b, c, order)
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    return _negative_range(a, b, c - top, lower)


def lattice_rows(form, linear, const, order, lower=(None, None)):
    """Yield (n1, range of n2) for the integer points n with E(n) < order.

    E(n) = a n1^2 + b n1 n2 + c n2^2 + l1 n1 + l2 n2 + const, where
    form = (a, b, c) are the coefficients of that polynomial (b is the
    whole cross coefficient, not half of it) and linear = (l1, l2); all
    are rationals.  lower = (lo1, lo2) restricts the points to n_i >= lo_i,
    None leaving that coordinate unbounded.  Rows come in increasing n1;
    a row's range may be empty.  Iteration raises ValueError unless the
    quadratic part is positive definite.
    """
    _, (a, b, c, l1, l2, k, top) = _scaled(*form, *linear, const, order)
    if a <= 0 or 4 * a * c - b * b <= 0:
        raise ValueError("quadratic part is not positive definite")
    # E(n) < order, scaled to integers, has a real solution n2 in the row
    # n1 iff the row's discriminant (b n1 + l2)^2 - 4 c (a n1^2 + l1 n1 +
    # k - top) is positive
    rows = _negative_range(
        4 * a * c - b * b, 4 * c * l1 - 2 * b * l2, 4 * c * (k - top) - l2 * l2, lower[0]
    )
    for n1 in rows:
        yield n1, _negative_range(c, b * n1 + l2, (a * n1 + l1) * n1 + k - top, lower[1])


def lattice_points(form, linear, const, order, lower=(None, None)):
    """Yield (n1, n2, E(n)) for the points of lattice_rows(form, linear,
    const, order, lower), row by row in increasing n1, then n2."""
    d, (a, b, c, l1, l2, k) = _scaled(*form, *linear, const)
    for n1, row in lattice_rows(form, linear, const, order, lower):
        lin = b * n1 + l2
        cst = (a * n1 + l1) * n1 + k
        for n2 in row:
            yield n1, n2, Rat((c * n2 + lin) * n2 + cst, d)


def lattice_sum(form, linear, const, order, weight, lower=(None, None)):
    """sum of weight(n1, n2) q^E(n) over the points n that
    lattice_points(form, linear, const, order, lower) yields, the weights
    added up by the int exponent d E(n) over the lcm d of the inputs'
    denominators."""
    d, (a, b, c, l1, l2, k, top) = _scaled(*form, *linear, const, order)
    acc = {}
    for n1, row in lattice_rows(form, linear, const, order, lower):
        lin = b * n1 + l2
        cst = (a * n1 + l1) * n1 + k
        for n2 in row:
            w = weight(n1, n2)
            if w:
                u = (c * n2 + lin) * n2 + cst
                acc[u] = acc.get(u, 0) + w
    return object.__new__(PuiseuxSeries)._store_terms(d, acc, top)


# -- serialization ------------------------------------------------------------


def _term_strs(a):
    """The (exponent, coefficient) pairs of items() as rat_str strings, read
    straight off the int row: exponent (lo + s i)/qd and coefficient c/den,
    each reduced by one gcd."""
    qd, lo, s, den = a.qd, a.lo, a.s, a.den
    return [(ratio_str(lo + s * i, qd), ratio_str(c, den)) for i, c in enumerate(a.row) if c]


def series_to_json(s):
    return {
        "order": ratio_str(s.top, s.qd),
        "terms": [{"exp": e, "coeff": c} for e, c in _term_strs(s)],
    }


def _json_field(d, name):
    """d[name] for a JSON object d; ValueError naming the field if d has none."""
    if not isinstance(d, dict) or name not in d:
        raise ValueError(f"the JSON object has no {name!r} field")
    return d[name]


def _json_list(d, name):
    """_json_field(d, name); ValueError naming the field if it is not a list."""
    value = _json_field(d, name)
    if not isinstance(value, list):
        raise ValueError(f"the JSON field {name!r} is not a list: {value!r}")
    return value


def series_from_json(d):
    """The series of a series_to_json document; a missing field or a
    malformed value raises ValueError."""
    terms = {parse_rat(_json_field(t, "exp")): parse_rat(_json_field(t, "coeff"))
             for t in _json_list(d, "terms")}
    return PuiseuxSeries(terms, parse_rat(_json_field(d, "order")))
