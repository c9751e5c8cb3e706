"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable

from .rationals import as_fraction, rat_str

__all__ = ["Poly"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((as_fraction(c),))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        c = as_fraction(c)
        if c == 0:
            return cls()
        return cls((_ZERO,) * k + (c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((_ZERO, _ONE))

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    # -- ring operations ----------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Poly()
            return Poly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly((_ONE,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and substitutions -------------------------------------
    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("negative derivative order")
        if order == 0:
            return self
        # d^order x^k = k!/(k-order)! x^(k-order)
        return Poly(tuple(perm(k, order) * c for k, c in enumerate(self.coeffs) if k >= order))

    def shift(self, c) -> "Poly":
        """Return q with q(x) = p(x + c)."""
        c = as_fraction(c)
        if c == 0 or self.is_zero:
            return self
        n = self.degree
        out = [_ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            # a * (x + c)^i expanded
            power = _ONE
            for j in range(i, -1, -1):
                out[j] += a * comb(i, j) * power
                power *= c
        return Poly(out)

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float, and complex points."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- misc -----------------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(rat_str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{rat_str(c)}*{xs}")
        return "Poly(" + " + ".join(terms) + ")"
