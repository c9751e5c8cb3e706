"""Helpers around fractions.Fraction: parsing, canonical formatting, signed
squares, and float views of rationals too large for a float.

Fraction already guarantees the invariants the exact kernel relies on
(always reduced, positive denominator, arbitrary precision), so it is used
directly as the rational scalar type everywhere in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = ["as_fraction", "rat_str", "SignedSquare", "split_float", "split_csqrt", "ldexp2"]


def as_fraction(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction.

    Strings must be integer or integer/integer; no decimals, so config files
    cannot smuggle rounded values into the exact pipeline. A bool is an int
    subclass, but a JSON true is not a number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(_int(num), _int(den))
        return Fraction(_int(text))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _int(text: str) -> int:
    """int(text) at any length. Past sys.get_int_max_str_digits() digits
    int() refuses even well-formed text; text in int()'s grammar (a sign,
    then decimal digits with single underscores between them) is then read
    through Decimal, and any other text keeps int()'s ValueError."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not all(part.isdecimal() for part in digits.split("_")):
            raise
        return int(Decimal(body.replace("_", "")))


def rat_str(q: Fraction) -> str:
    """Canonical decimal-free rendering: 'p' for integers, 'p/q' otherwise.

    The digits come from Decimal's exact integer conversion, which has no
    length limit; str(int) refuses integers past sys.get_int_max_str_digits().
    """
    q = Fraction(q)
    num = str(Decimal(q.numerator))
    if q.denominator == 1:
        return num
    return f"{num}/{Decimal(q.denominator)}"


def _csqrt(q: Fraction):
    # principal square root; negative input lands on the positive imaginary axis
    if q >= 0:
        return math.sqrt(q)
    return 1j * math.sqrt(-q)


def split_float(q) -> tuple[float, int]:
    """(f, e) with float(q) == f * 2**e, |f| in [1/2, 4) and e even.

    float(q) itself overflows once |q| passes about 2**1024; f never does.
    Scaling by a power of two commutes with rounding, so wherever float(q)
    is a normal float the product f * 2**e is that float bit for bit.
    """
    n, d = q.numerator, q.denominator
    if not n:
        return 0.0, 0
    e = (abs(n).bit_length() - d.bit_length()) & ~1
    return (n / (d << e) if e >= 0 else (n << -e) / d), e


def split_csqrt(q) -> tuple[object, int]:
    """(r, e) with _csqrt(q) == r * 2**e wherever _csqrt(q) is finite.

    r is float or, for negative q, purely imaginary complex, exactly as
    _csqrt rounds it; r * 2**e never overflows.
    """
    f, e = split_float(q)
    return _csqrt(f), e // 2


def ldexp2(z, e: int):
    """z * 2**e for a float or complex z, exact unless it leaves the normal range."""
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
    return math.ldexp(z, e)


@dataclass(frozen=True)
class SignedSquare:
    """An exact (value**2, sign) pair for quantities whose square is rational.

    Orthonormal recurrence and connection entries are of the form
    rational * sqrt(rational); storing the squared value keeps every
    comparison exact while ``value()`` gives the floating realization.
    A negative ``sq`` encodes a purely imaginary value (indefinite norms).
    """

    sq: Fraction
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")
        if (self.sign == 0) != (self.sq == 0):
            raise ValueError("sign is zero exactly when the square is zero")

    @classmethod
    def of(cls, value, scale) -> "SignedSquare":
        """The pair for value * sqrt(scale): (value**2 * scale, sign(value))."""
        value = as_fraction(value)
        return cls(value * value * scale, (value > 0) - (value < 0))

    def value(self):
        """Floating (possibly complex) realization sign * sqrt(sq)."""
        if self.sign == 0:
            return 0.0
        return self.sign * _csqrt(Fraction(self.sq))

    def __repr__(self):
        op = {1: "+", 0: "", -1: "-"}[self.sign]
        return f"{op}sqrt({rat_str(self.sq)})" if self.sign else "0"
