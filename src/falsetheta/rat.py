"""Exact rational scalars.

Everything in the formal layer is computed over arbitrary-precision
rationals; gmpy2.mpq is used when available (it is roughly an order of
magnitude faster than fractions.Fraction), with Fraction as fallback.
Both store lowest terms with positive denominator and hash identically.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    Rat = Fraction


def rat(x):
    """Coerce an int, string 'a/b', Fraction or Rat to Rat."""
    if isinstance(x, (int, str)):
        return Rat(x)
    if isinstance(x, Fraction):
        return Rat(x.numerator, x.denominator)
    if isinstance(x, float):
        raise TypeError("refusing float -> rational coercion; pass an exact value")
    return Rat(x.numerator, x.denominator)


def rat_str(r):
    """Render as 'num/den' (denominator always shown)."""
    return f"{r.numerator}/{r.denominator}"


def parse_rat(s):
    """Parse 'num/den' or a plain integer string."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Rat(int(num), int(den))
    return Rat(int(s))


def rat_floor(r):
    return r.numerator // r.denominator


def rat_ceil(r):
    return -((-r.numerator) // r.denominator)


def _positive_order(order, name="order"):
    """order as a Rat; ValueError unless it is positive."""
    order = rat(order)
    if order <= 0:
        raise ValueError(f"{name} must be positive, got {rat_str(order)}")
    return order
