"""Two-variable Laurent series over PuiseuxSeries coefficients.

Keys are the exponents (e1, e2) of the elliptic units (z1, z2), stored
as int pairs (k1, k2) over kd, the least common key denominator: `rows`
maps (k1, k2) to the q-series of the key (k1/kd, k2/kd), and each
PuiseuxSeries keeps its q-exponents the same way, as ints over its qd;
`terms`, `coeff` and the JSON read rational keys off it, and `qorder` is
a Rat.  Operations meet on the lcm of their operands' kd and build their
results with _from_rows.

Every meromorphic factor is expanded in one annulus, the paper's
|q| < |z1|, |z2|, |z1 z2| < 1: 1/(1 - x) is sum_k x^k for |x| < 1.  A
Laurent polynomial is the same in every annulus, so no series records
one.  The JSON and the text output still name it, "region": ANNULUS, and
bl_from_json refuses any other, because a file may come from outside the
program.

bl_mul and product_coeff share one layout, _layout: it puts the int
exponents of every key's PuiseuxSeries over one denominator and spreads
the integer rows onto one grid of exponents, which they convolve with
series._mul_add, on which PuiseuxSeries products run too; each result
row becomes a series as is, from ints.  bl_mul walks the key pairs of
its two factors; product_coeff reads one coefficient of a(z1) b(z2)
c(z1 z2) from three series in z1 as a sum over the keys of c.  One-unit
builders build in z1 alone, and bl_on_unit moves a series onto z2 or z1 z2.
A caller that knows a product to be symmetric under a group acting
linearly on the keys passes bl_mul the keyword-only `orbit`, a map from
a key to the keys of its orbit: one key per orbit is convolved, and the
keys of the orbit share one series object.  Shared rows stay shared:
bl_scalar_mul, truncate_q, clip and bl_to_json map each row object once,
through _map_rows, and _layout spreads it once.

The optional `window` W marks a clip: keys outside |e1|, |e2| <= W were
dropped, so their coefficients are unknown and reading one raises.  It
is set only by `clip` and by builders that bound what they build, such
as the geometric series 1/(1 - u), whose key support at a fixed q-order
is otherwise unbounded.  bl_add keeps the smallest of its operands'
windows; bl_scalar_mul, truncate_q and bl_elliptic_shift keep their
operand's; bl_mul returns none, so a key outside a product's support
reads as zero.  Callers choose a window as an analysis parameter and
pair it with a compatible q-order.
"""

from math import gcd, lcm

from .rat import Rat, rat, rat_floor, rat_str, ratio_str, parse_rat
from .series import PuiseuxSeries, zero as q_zero, monomial as q_monomial
from .series import series_to_json, series_from_json
from .series import _ceil_div, _from_row, _json_field, _json_list, _mul_add, _scaled, _spread, _zeros

# The name of the one annulus every expansion is taken in.
ANNULUS = "INNER"

__all__ = [
    "BiLaurentSeries",
    "bl_monomial",
    "bl_add",
    "bl_mul",
    "product_coeff",
    "bl_on_unit",
    "bl_scalar_mul",
    "expand_inverse_one_minus",
    "bl_elliptic_shift",
    "UNIT_KEYS",
    "bl_to_json",
    "bl_from_json",
]


# key direction of each elliptic unit; z1*z2 is a derived direction
UNIT_KEYS = {"z1": (1, 0), "z2": (0, 1), "z12": (1, 1)}

# W(A2) on keys in root coordinates, the units of UNIT_KEYS its positive
# roots: each w as (det w, ((a, b), (c, d))), w(e) = (a e1 + b e2, c e1 + d e2)
_WEYL = (
    (1, ((1, 0), (0, 1))),  # the identity
    (-1, ((-1, 1), (0, 1))),  # s1
    (-1, ((1, 0), (1, -1))),  # s2
    (1, ((0, -1), (1, -1))),  # s1 s2
    (1, ((-1, 1), (-1, 0))),  # s2 s1
    (-1, ((0, -1), (-1, 0))),  # w0, the longest element
)


class BiLaurentSeries:
    """Immutable series sum_k rows[k](q) z1^(k1/kd) z2^(k2/kd)."""

    __slots__ = ("kd", "rows", "qorder", "window")

    def __init__(self, terms, qorder, window=None):
        kd, ks = _scaled(*(e for key in terms for e in key))
        rows = dict(zip(zip(ks[::2], ks[1::2]), terms.values()))
        self._store(kd, rows, rat(qorder), window)

    def _store(self, kd, rows, qorder, window):
        """Store rows over kd clipped to the window, truncated to qorder, zeros
        dropped and kd reduced; a kept coefficient below qorder raises."""
        if window is not None:
            lim = rat_floor(rat(window) * kd)
            rows = {k: c for k, c in rows.items() if abs(k[0]) <= lim and abs(k[1]) <= lim}
        # truncate raises if c.order < qorder
        clean = {k: t for k, t in _map_rows(rows, lambda c: c.truncate(qorder)).items() if t.row}
        g = gcd(kd, *(x for k in clean for x in k))
        if g > 1:
            kd //= g
            clean = {(k1 // g, k2 // g): c for (k1, k2), c in clean.items()}
        for name, x in zip(self.__slots__, (kd, clean, qorder, window)):
            object.__setattr__(self, name, x)
        return self

    def __setattr__(self, *a):
        raise AttributeError("BiLaurentSeries is immutable")

    def qvaluation(self):
        """Minimal coefficient valuation over all keys (qorder if empty)."""
        if not self.rows:
            return self.qorder
        qd = lcm(*(c.qd for c in self.rows.values()))
        return Rat(min(c.lo * (qd // c.qd) for c in self.rows.values()), qd)

    @property
    def terms(self):
        """The map {key: coefficient}, built on demand in increasing key."""
        kd = self.kd
        return {(Rat(k1, kd), Rat(k2, kd)): c for (k1, k2), c in sorted(self.rows.items())}

    def coeff(self, r1, r2):
        key = (rat(r1), rat(r2))
        if self.window is not None and (
            abs(key[0]) > self.window or abs(key[1]) > self.window
        ):
            raise ValueError(f"key {key} outside window {self.window}")
        k1, k2 = key[0] * self.kd, key[1] * self.kd
        if k1.denominator == k2.denominator == 1:  # else off the key lattice
            return self.rows.get((k1.numerator, k2.numerator), q_zero(self.qorder))
        return q_zero(self.qorder)

    def clip(self, window):
        """Drop keys outside |ei| <= window; reading one of them raises."""
        return _from_rows(self.kd, self.rows, self.qorder, window)

    def truncate_q(self, qorder):
        qorder = rat(qorder)
        if qorder > self.qorder:
            raise ValueError("cannot extend q-truncation")
        return _from_rows(self.kd, self.rows, qorder, self.window)

    def __eq__(self, other):
        if not isinstance(other, BiLaurentSeries):
            return NotImplemented
        return (
            self.qorder == other.qorder
            and self.kd == other.kd
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.qorder, self.kd, frozenset(self.rows)))

    def __repr__(self):
        n = len(self.rows)
        return (
            f"<BiLaurentSeries keys={n} "
            f"qorder={self.qorder} window={self.window}>"
        )


def _from_rows(kd, rows, qorder, window=None):
    """The series of rows {(k1, k2): PuiseuxSeries} over kd; see _store."""
    return object.__new__(BiLaurentSeries)._store(kd, rows, qorder, window)


def _map_rows(rows, fn):
    """{k: fn(c)} for the rows {k: c}, calling fn once per distinct row
    object: keys that share a row share its image."""
    done, out = {}, {}  # done: id(row) -> fn(row)
    for k, c in rows.items():
        i = id(c)
        if i not in done:
            done[i] = fn(c)
        out[k] = done[i]
    return out


def _common_rows(series):
    """(kd, [rows]): the lcm of the series' kd, and each one's rows over it."""
    kd, out = lcm(*(a.kd for a in series)), []
    for a in series:
        m = kd // a.kd
        out.append(a.rows if m == 1 else {(k1 * m, k2 * m): c for (k1, k2), c in a.rows.items()})
    return kd, out


def bl_monomial(coeff, e1, e2, qorder):
    """coeff(q) * z1^e1 z2^e2; coeff may be a PuiseuxSeries or a rational."""
    if not isinstance(coeff, PuiseuxSeries):
        coeff = q_monomial(coeff, 0, qorder)
    return BiLaurentSeries({(e1, e2): coeff}, qorder)


def bl_add(*operands):
    """The sum of one or more series in one pass over their rows, with their
    smallest qorder (every coefficient truncated to it) and smallest window."""
    (kd, each), rows = _common_rows(operands), {}
    for b, brows in zip(operands, each):
        for k, c in brows.items():
            rows[k] = rows[k] + c if k in rows else c
    windows = [b.window for b in operands if b.window is not None]
    return _from_rows(kd, rows, min(b.qorder for b in operands), min(windows, default=None))


def _layout(factors, qorder):
    """(rows, ntop, series) for products below qorder of the nonempty
    factors, given as their rows over one kd; a rows dict given twice, as
    in product_coeff(g, g, g, ...), is laid out once.

    Every row goes over qd, the lcm of the rows' qd and of the qorder's
    denominator, and is spread onto one grid of step g, the gcd of all
    steps and of the valuation differences within each factor: a key of
    valuation u/qd becomes (lo, ints), u = e0 + lo g for e0 its factor's
    least valuation, ints over the lcm of the factor's denominators.  A
    product of one row per factor starts at the sum of their lo, and its
    first ntop entries lie below the order; `series` makes it a series.
    """
    # each row object once, however many keys share it; keyed by id here,
    # not through _map_rows, as the grid needs every distinct row at once
    each = [list({id(s): s for s in f.values()}.values()) for f in factors]
    qd = lcm(qorder.denominator, *(s.qd for ss in each for s in ss))
    # (series, step, valuation) over qd for each row of each factor
    grid = [[(s, s.s * (qd // s.qd), s.lo * (qd // s.qd)) for s in ss] for ss in each]
    e0 = [min(u for _, _, u in fg) for fg in grid]
    g = gcd(*(x for fg, m in zip(grid, e0) for _, t, u in fg for x in (t, u - m)))
    scale, rows, done = 1, [], {}  # done: id(factor) -> its laid-out rows
    for f, fg, m in zip(factors, grid, e0):
        den = lcm(*(s.den for s, _, _ in fg))
        scale *= den
        if id(f) not in done:
            spread = {id(s): ((u - m) // g, _spread(s.row, t // g, den // s.den))
                      for s, t, u in fg}
            done[id(f)] = {k: spread[id(s)] for k, s in f.items()}
        rows.append(done[id(f)])
    v, top = sum(e0), qorder.numerator * (qd // qorder.denominator)
    return rows, _ceil_div(top - v, g), lambda row: _from_row(qd, v, g, row, scale, top)


def bl_mul(a, b, *, orbit=None):
    """Convolution product; q-truncation follows the one-variable rule

        qorder = min(a.qorder + qval(b), b.qorder + qval(a)).

    Every key pair whose rows start below the order, the keys of a taken
    by the start of their rows, is convolved by series._mul_add into its
    key sum's row; keys that cancel are dropped.  `orbit` maps an int key
    over the product's kd to the keys of its orbit under a group that the
    caller guarantees to be a symmetry of the product, so it must be
    linear: the first key of an orbit that the walk reaches is convolved,
    pairs that sum to its other keys are skipped, and they all share its
    series.  It is keyword-only, so that wrappers that unpack `a, b =
    args` keep working.
    """
    qorder = min(a.qorder + b.qvaluation(), b.qorder + a.qvaluation())
    kd, pair = _common_rows((a, b))
    if not all(pair):
        return _from_rows(kd, {}, qorder)
    (ra, rb), ntop, series = _layout(pair, qorder)
    ra = sorted(ra.items(), key=lambda kv: kv[1][0])
    sums, others = {}, set()  # others: the keys that an orbit's first key stands for
    for (b1, b2), (lb, y) in rb.items():
        for (a1, a2), (la, x) in ra:
            s = la + lb
            if s >= ntop:
                break
            k = (a1 + b1, a2 + b2)
            dst = sums.get(k)
            if dst is None:
                if k in others:
                    continue
                dst = sums[k] = _zeros(ntop)
                if orbit is not None:
                    others.update(orbit(k))
            _mul_add(dst, s, x, y)
    rows = {}
    for k, row in sums.items():
        rows.update(dict.fromkeys(orbit(k) if orbit else (k,), series(row)))
    return _from_rows(kd, rows, qorder)


def _refuse_off_z1(a, name):
    """Raise ValueError naming the first key of a that is not in z1 alone."""
    off = next((k for k in a.rows if k[1]), None)
    if off is not None:
        key = ", ".join(ratio_str(x, a.kd) for x in off)
        raise ValueError(f"{name} has the key ({key}), off z1")


def product_coeff(a, b, c, r1, r2):
    """The (r1, r2) coefficient of a(z1) b(z2) c(z1 z2) for three series in
    z1, without building the product: the sum sum_m a_(r1-m) b_(r2-m) c_m.

    Each key m of c looks up a at r1 - m and b at r2 - m, and a hit costs
    two series._mul_add.  A key of a factor off z1 raises ValueError; a
    key (r1, r2) off the lattice of key sums reads zero.  The order follows
    the bl_mul rule, min_i (qorder_i + sum_{j != i} qval_j), that of
    (a b) c: no leading terms of a b cancel.
    """
    factors = (a, b, c)
    for unit, f in zip(UNIT_KEYS, factors):
        _refuse_off_z1(f, f"product_coeff's {unit} factor")
    vals = [f.qvaluation() for f in factors]
    qorder = min(f.qorder + sum(vals) - v for f, v in zip(factors, vals))
    kd, rows = _common_rows(factors)
    k1, k2 = rat(r1) * kd, rat(r2) * kd
    if k1.denominator != 1 or k2.denominator != 1 or not all(rows):
        return q_zero(qorder)  # off the lattice of key sums, or an empty factor
    (ra, rb, rc), ntop, series = _layout(rows, qorder)
    dst = _zeros(ntop)
    for (m, _), (lc, z) in rc.items():
        ha, hb = ra.get((k1.numerator - m, 0)), rb.get((k2.numerator - m, 0))
        if ha is None or hb is None:
            continue
        (la, x), (lb, y) = ha, hb
        s = la + lb + lc
        if s < ntop:
            ab = [0] * min(len(x) + len(y) - 1, ntop - s)
            _mul_add(ab, 0, x, y)
            _mul_add(dst, s, ab, z)
    return series(dst)


def bl_on_unit(a, unit):
    """a(u), u = z1, z2 or z1 z2, for a series a(z1) in z1 alone, keeping
    its qorder, window and row objects: the key (e, 0) goes to e times the
    unit's UNIT_KEYS direction.  An unknown unit or a key off z1 raises ValueError."""
    if unit not in UNIT_KEYS:
        raise ValueError(f"unknown unit {unit!r}")
    _refuse_off_z1(a, "bl_on_unit's series")
    d1, d2 = UNIT_KEYS[unit]
    rows = {(e * d1, e * d2): c for (e, _), c in a.rows.items()}
    return _from_rows(a.kd, rows, a.qorder, a.window)


def bl_scalar_mul(a, s):
    """Multiply every coefficient by the one-variable series s(q), or by an
    int, which keeps the qorder; keys that share one row object share its
    product."""
    qorder = (a.qorder if isinstance(s, int)
              else min(a.qorder + s.valuation(), s.order + a.qvaluation()))
    return _from_rows(a.kd, _map_rows(a.rows, lambda c: c * s), qorder, a.window)


def expand_inverse_one_minus(n, qorder, zwindow=None):
    """INNER expansion of 1 / (1 - x), x = z1 * q^n.

    For n >= 0 this is sum_{k>=0} x^k; for n < 0 it is -sum_{k>=1} x^-k.
    n = 0 needs a window, which then bounds the keys; any window becomes
    the result's.
    """
    n = rat(n)
    qorder = rat(qorder)
    if n == 0 and zwindow is None:
        raise ValueError("n = 0 expansion requires a window")
    d, lead, k = 1, 1, 0
    if n < 0:
        # 1/(1 - x) = -x^-1/(1 - x^-1)
        d, n, lead, k = -1, -n, -1, 1
    rows = {}
    while k * n < qorder and (zwindow is None or k <= zwindow):
        rows[(k * d, 0)] = q_monomial(lead, k * n, qorder)
        k += 1
    return _from_rows(1, rows, qorder, zwindow)


def bl_elliptic_shift(a, m1, m2):
    """Substitute z_j -> z_j q^(m_j): key (e1, e2) picks up q^(m1 e1 + m2 e2).

    The q-order shrinks by (|m1| + |m2|) W, the most negative shift over
    the window |e1|, |e2| <= W: a key absent from the window, known zero
    only below the qorder, moves down too.  So a finite window is required.
    """
    if a.window is None:
        raise ValueError("elliptic shift requires a finite window")
    qorder = a.qorder - (abs(m1) + abs(m2)) * a.window
    rows = {k: c.shift(Rat(m1 * k[0] + m2 * k[1], a.kd)) for k, c in a.rows.items()}
    return _from_rows(a.kd, rows, qorder, a.window)


# -- serialization ------------------------------------------------------------


def _key_strs(a, fn):
    """(e1, e2, fn(row)) for each key of a in increasing key, the exponents
    as rat_str strings written from the int key over kd, and fn called once
    per distinct row object."""
    kd = a.kd
    return [(ratio_str(k1, kd), ratio_str(k2, kd), x)
            for (k1, k2), x in sorted(_map_rows(a.rows, fn).items())]


def bl_to_json(a):
    """The series as a JSON-ready dict.  Each distinct row object is
    serialized once: keys that share a row share one "series" dict.  A
    window that is an integer is written as that int, any other as its
    "num/den" string."""
    w = a.window
    if w is not None:
        w = rat(w)
        w = w.numerator if w.denominator == 1 else rat_str(w)
    terms = [{"e1": e1, "e2": e2, "series": j} for e1, e2, j in _key_strs(a, series_to_json)]
    return {"region": ANNULUS, "qorder": rat_str(a.qorder), "window": w, "terms": terms}


def _window_from_json(w):
    """A window as bl_to_json writes it: None, an int or a "num/den" string."""
    if w is None or (isinstance(w, int) and not isinstance(w, bool)):
        return w
    if isinstance(w, str):
        try:
            return parse_rat(w)
        except ValueError:
            pass
    raise ValueError(f"window must be null, an integer or a 'num/den' string, got {w!r}")


def bl_from_json(d):
    """The series of a bl_to_json document; a missing field or a malformed
    value raises ValueError."""
    region = _json_field(d, "region")
    if region != ANNULUS:
        raise ValueError(f"unsupported region {region!r}: every expansion is {ANNULUS}")
    terms = {
        (parse_rat(_json_field(t, "e1")), parse_rat(_json_field(t, "e2"))):
            series_from_json(_json_field(t, "series"))
        for t in _json_list(d, "terms")
    }
    qorder = parse_rat(_json_field(d, "qorder"))
    return BiLaurentSeries(terms, qorder, _window_from_json(_json_field(d, "window")))
