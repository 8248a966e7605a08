"""Exact rational scalars.

Everything in the formal layer is computed over arbitrary-precision
rationals, the standard library's fractions.Fraction, which stores
lowest terms with a positive denominator.
"""

from fractions import Fraction
from math import gcd

Rat = Fraction


def rat(x):
    """Coerce an int, a string 'a/b' or a Rat to Rat."""
    if type(x) is Rat:
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> rational coercion; pass an exact value")
    return x if isinstance(x, Rat) else Rat(x)


def _ratio(x):
    """(numerator, denominator) of rat(x), building no Rat for an int."""
    if type(x) is not int:
        x = rat(x)
    return x.numerator, x.denominator


def rat_str(r):
    """Render as 'num/den' (denominator always shown)."""
    return f"{r.numerator}/{r.denominator}"


def ratio_str(n, d):
    """rat_str(Rat(n, d)) for ints n and d > 0, reduced by one gcd with no
    Rat built."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def parse_rat(s):
    """Parse 'num/den' or a plain integer string; anything else, a zero
    denominator or a value that is not a string included, raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"expected a 'num/den' string, got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = (int(x) for x in s.split("/"))  # ValueError unless two
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Rat(num, den)
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
