"""Dense rational polynomials checked against a symbolic oracle."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from opfold import Poly

from oracles import X, poly_to_sympy, sympy_to_coeffs

coeff = st.fractions(min_value=-50, max_value=50, max_denominator=20)
coeff_lists = st.lists(coeff, min_size=0, max_size=6)


def from_sympy(expr) -> Poly:
    return Poly(sympy_to_coeffs(expr)) if expr != 0 else Poly(())


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_ring_operations_match_oracle(a, b):
    p, q = Poly(a), Poly(b)
    sp_p, sp_q = poly_to_sympy(p), poly_to_sympy(q)
    assert poly_to_sympy(p + q) == sp.expand(sp_p + sp_q)
    assert poly_to_sympy(p - q) == sp.expand(sp_p - sp_q)
    assert poly_to_sympy(p * q) == sp.expand(sp_p * sp_q)


@given(coeff_lists, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_derivative_matches_oracle(a, order):
    p = Poly(a)
    got = poly_to_sympy(p.derivative(order))
    want = sp.expand(sp.diff(poly_to_sympy(p), X, order))
    assert got == want


@given(coeff_lists)
def test_derivative_order_zero_is_identity(a):
    p = Poly(a)
    assert p.derivative(0) == p


@given(coeff_lists, coeff)
@settings(max_examples=60)
def test_shift_matches_oracle(a, c):
    p = Poly(a)
    got = poly_to_sympy(p.shift(c))
    want = sp.expand(
        poly_to_sympy(p).subs(X, X + sp.Rational(c.numerator, c.denominator))
    )
    assert got == want


@given(coeff_lists, coeff)
@settings(max_examples=60)
def test_exact_evaluation_matches_oracle(a, point):
    p = Poly(a)
    val = poly_to_sympy(p).subs(X, sp.Rational(point.numerator, point.denominator))
    assert p(point) == Fraction(int(sp.Rational(val).p), int(sp.Rational(val).q))


def test_evaluation_handles_float_and_complex():
    p = Poly((1, -2, 1))
    assert p(3.0) == pytest.approx(4.0)
    assert p(1j) == pytest.approx((1 - 1j) ** 2)


@given(coeff_lists)
def test_trailing_zero_coefficients_are_trimmed(a):
    p = Poly(list(a) + [Fraction(0), Fraction(0)])
    assert p == Poly(a)
    if not p.is_zero:
        assert p.leading != 0


def test_structure_accessors():
    p = Poly((Fraction(1, 2), 0, 3))
    assert p.degree == 2
    assert p.leading == 3
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(1) == 0
    assert p.coeff(17) == 0
    assert Poly(()).is_zero
    assert Poly(()).degree == -1
    assert Poly(()).leading == 0


def test_constructors():
    assert Poly.x() == Poly((0, 1))
    assert Poly.constant(Fraction(5, 3)) == Poly((Fraction(5, 3),))
    assert Poly.monomial(3, 2) == Poly((0, 0, 0, 2))
    assert Poly.monomial(3, 0).is_zero
