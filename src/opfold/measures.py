"""Moment functionals and point-mass bilinear forms.

A measure enters the pipeline only through its moment sequence; every inner
product is evaluated as an exact linear functional on polynomial products,
so nothing here ever touches quadrature or floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .errors import ConfigError, InsufficientMoments, NotPositiveDefinite
from .linalg import Matrix, ldlt
from .poly import Poly
from .rationals import as_fraction

__all__ = [
    "MomentFunctional",
    "laguerre_moments",
    "hermite_moments",
    "christoffel_shift",
    "SobolevSpec",
    "BilinearForm",
    "sobolev_form",
    "measure_form",
    "gram_matrix",
    "symmetry_check",
]


@dataclass(frozen=True)
class MomentFunctional:
    """Linear functional on polynomials given by its moment table m_0, m_1, ..."""

    moments: tuple[Fraction, ...]
    label: str = "moments"

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(as_fraction(m) for m in self.moments))

    @property
    def count(self) -> int:
        return len(self.moments)

    def moment(self, k: int) -> Fraction:
        if k >= len(self.moments):
            raise InsufficientMoments(k, len(self.moments) - 1)
        return self.moments[k]

    def integrate(self, p: Poly) -> Fraction:
        if p.degree >= len(self.moments):
            raise InsufficientMoments(p.degree, len(self.moments) - 1)
        total = Fraction(0)
        for k, c in enumerate(p.coeffs):
            if c:
                total += c * self.moments[k]
        return total

    def bilinear(self, p: Poly, q: Poly) -> Fraction:
        return self.integrate(p * q)

    def hankel_positive_through(self, n: int) -> Optional[int]:
        """First k <= n whose leading principal Hankel minor is not positive.

        Returns None when all of them are positive (positive-definite
        through degree n). The LDL^T pivots of the Hankel matrix are the
        ratios of consecutive leading minors, so the first nonpositive
        pivot marks the first nonpositive minor.
        """
        hankel = Matrix.from_fn(n + 1, n + 1, lambda i, j: self.moment(i + j))
        try:
            ldlt(hankel, pivots="positive")
        except NotPositiveDefinite as exc:
            return exc.degree
        return None


def laguerre_moments(alpha: int, count: int) -> MomentFunctional:
    """Moments of x^alpha e^{-x} on the half line: m_k = (k + alpha)!."""
    if alpha < 0 or count < 1:
        raise ValueError("alpha must be >= 0 and count >= 1")
    return MomentFunctional(
        tuple(Fraction(factorial(k + alpha)) for k in range(count)),
        label=f"laguerre(alpha={alpha})",
    )


def hermite_moments(count: int) -> MomentFunctional:
    """Normalized Gaussian moments: m_0 = 1, m_{2k} = (2k-1)!!/2^k, odd zero."""
    if count < 1:
        raise ValueError("count must be >= 1")
    vals = []
    for k in range(count):
        if k % 2:
            vals.append(Fraction(0))
        else:
            half = k // 2
            dfact = 1
            for j in range(1, 2 * half, 2):
                dfact *= j
            vals.append(Fraction(dfact, 2**half))
    return MomentFunctional(tuple(vals), label="hermite(normalized)")


def christoffel_shift(mu: MomentFunctional, c, power: int) -> MomentFunctional:
    """Moments of (x - c)^power dmu via exact binomial expansion."""
    if power < 1:
        raise ValueError("power must be >= 1")
    c = as_fraction(c)
    if mu.count <= power:
        raise InsufficientMoments(power, mu.count - 1)
    new_count = mu.count - power
    weights = [comb(power, i) * (-c) ** (power - i) for i in range(power + 1)]
    vals = []
    for k in range(new_count):
        vals.append(sum((w * mu.moments[k + i] for i, w in enumerate(weights)), Fraction(0)))
    return MomentFunctional(tuple(vals), label=f"({mu.label})*(x-{c})^{power}")


@dataclass(frozen=True)
class SobolevSpec:
    """Base measure plus a point-mass quadratic form in derivative values at c."""

    base: MomentFunctional
    c: Fraction
    N: int
    M: Matrix

    def __post_init__(self):
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.N < 0:
            raise ConfigError("derivative order N must be >= 0")
        if self.M.shape != (self.N + 1, self.N + 1):
            raise ConfigError(f"mass matrix must be {self.N + 1}x{self.N + 1}")
        m = Matrix.rational(self.M.rows)
        object.__setattr__(self, "M", m)
        if m != m.transpose():
            raise ConfigError("mass matrix must be symmetric")
        try:
            ldlt(m, pivots="psd")
        except NotPositiveDefinite:
            raise ConfigError("mass matrix must be positive semi-definite") from None


class BilinearForm:
    """Symmetric bilinear form on polynomials with an explicit degree budget."""

    __slots__ = ("_fn", "max_degree", "label")

    def __init__(self, fn, max_degree: int, label: str = ""):
        self._fn = fn
        self.max_degree = max_degree
        self.label = label

    def __call__(self, p: Poly, q: Poly) -> Fraction:
        if p.degree > self.max_degree or q.degree > self.max_degree:
            raise InsufficientMoments(
                max(p.degree, q.degree) * 2, self.max_degree * 2
            )
        return self._fn(p, q)

    def __repr__(self):
        return f"BilinearForm({self.label or 'custom'}, max_degree={self.max_degree})"


def measure_form(mu: MomentFunctional) -> BilinearForm:
    """The plain integral form (f, g) -> L[f g]."""
    return BilinearForm(mu.bilinear, (mu.count - 1) // 2, label=mu.label)


def sobolev_form(spec: SobolevSpec) -> BilinearForm:
    """B(f, g) = L[f g] + sum_{j,k} M_{jk} f^(j)(c) g^(k)(c)."""
    mu, c, N, M = spec.base, spec.c, spec.N, spec.M
    mass_nonzero = not M.is_zero

    def fn(p: Poly, q: Poly) -> Fraction:
        total = mu.bilinear(p, q)
        if mass_nonzero:
            pd = [p.derivative(j)(c) for j in range(N + 1)]
            qd = [q.derivative(k)(c) for k in range(N + 1)]
            for j in range(N + 1):
                if pd[j] == 0:
                    continue
                for k in range(N + 1):
                    mjk = M[j, k]
                    if mjk and qd[k]:
                        total += mjk * pd[j] * qd[k]
        return total

    return BilinearForm(fn, (mu.count - 1) // 2, label=f"sobolev({mu.label}, c={c}, N={N})")


def gram_matrix(form: BilinearForm, n: int) -> Matrix:
    """Moment-basis Gram: (n+1)x(n+1) matrix of form(x^i, x^j)."""
    if n > form.max_degree:
        raise InsufficientMoments(2 * n, 2 * form.max_degree)
    mono = [Poly.monomial(k) for k in range(n + 1)]
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if j < i:
                row.append(rows[j][i])
            else:
                row.append(form(mono[i], mono[j]))
        rows.append(row)
    return Matrix(rows)


@dataclass(frozen=True)
class SymmetryReport:
    ok: bool
    counterexample: Optional[tuple[int, int]]
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None


def symmetry_check(form: BilinearForm, N: int, degree: int, c=0) -> SymmetryReport:
    """Test whether multiplication by (x-c)^{N+1} commutes symmetrically.

    Checks B((x-c)^{N+1} x^i, (x-c) x^j) = B((x-c) x^i, (x-c)^{N+1} x^j)
    over all monomial pairs i, j <= degree; returns the first failing pair.
    """
    c = as_fraction(c)
    if 2 * degree + N + 2 > 2 * form.max_degree:
        raise InsufficientMoments(2 * degree + N + 2, 2 * form.max_degree)
    lin = Poly((-c, Fraction(1)))
    high = lin ** (N + 1)
    for i in range(degree + 1):
        xi = Poly.monomial(i)
        hi, li = high * xi, lin * xi
        for j in range(degree + 1):
            xj = Poly.monomial(j)
            lhs = form(hi, lin * xj)
            rhs = form(li, high * xj)
            if lhs != rhs:
                return SymmetryReport(False, (i, j), lhs, rhs)
    return SymmetryReport(True, None)
