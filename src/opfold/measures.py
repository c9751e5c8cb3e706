"""Moment functionals and point-mass bilinear forms.

A measure enters the pipeline only through its moment sequence, and a
bilinear form only through its monomial Gram G[i][j] = B(x^i, x^j). The
Gram is written down in closed form, never by multiplying polynomials:
the moment Hankel m_{i+j}, plus for a point mass the rank-r update
sum_{a,b} M_ab v_a[i] v_b[j] with v_a[i] = i!/(i-a)! c^(i-a), r = N+1
the size of M. Each row is a slice of the Hankel, and the update touches
only the rows where some v_a[i] is nonzero, at c = 0 the first r. It is built
on first use, cached on the form as integer rows over one common
denominator, and every inner product, Gram slice and table downstream is
an exact integer matrix product against it. The shift (x-c)^m lives here
too: its integer row (shift_row), the Christoffel transform of a moment
sequence under it (christoffel_shift, which records what it shifted by),
and the check on the Gram that it is self-adjoint for the form
(symmetry_check). Nothing here touches quadrature or floating point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, gcd, lcm, perm
from operator import add, mul, sub
from typing import Optional

from .errors import ConfigError, InsufficientMoments, NotPositiveDefinite
from .linalg import Matrix, clear_denominators, ldlt
from .poly import Poly
from .rationals import as_fraction

__all__ = [
    "MomentFunctional",
    "laguerre_moments",
    "hermite_moments",
    "shift_row",
    "christoffel_shift",
    "SobolevSpec",
    "mass_matrix",
    "BilinearForm",
    "sobolev_form",
    "measure_form",
    "gram_matrix",
    "symmetry_check",
]


@dataclass(frozen=True)
class MomentFunctional:
    """Linear functional on polynomials given by its moment table m_0, m_1, ...

    _shift is the (mu, c, m) that christoffel_shift built it from as
    (x - c)^m dmu, else None; no constructor argument sets it."""

    moments: tuple[Fraction, ...]
    label: str = "moments"
    _shift: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(as_fraction(m) for m in self.moments))

    @property
    def count(self) -> int:
        return len(self.moments)

    def moment(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("moment index must be >= 0")
        if k >= len(self.moments):
            raise InsufficientMoments(k, len(self.moments) - 1)
        return self.moments[k]


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


def shift_row(c, m: int) -> tuple[list[int], int]:
    """(ints, den) with (x - c)^m = sum_i ints[i] x^i / den: for c = p/q,
    ints[i] = binom(m, i) (-p)^(m-i) q^i over den = q^m. A negative m
    raises ValueError."""
    if m < 0:
        raise ValueError("m must be >= 0")
    c = as_fraction(c)
    p, q = c.numerator, c.denominator
    return [comb(m, i) * (-p) ** (m - i) * q**i for i in range(m + 1)], q**m


def christoffel_shift(mu: MomentFunctional, c, power: int) -> MomentFunctional:
    """Moments of (x - c)^power dmu via exact binomial expansion: an
    integer dot product of the shift's row (shift_row) with the moments
    over one denominator. The result records (mu, c, power) in _shift."""
    if power < 1:
        raise ValueError("power must be >= 1")
    c = as_fraction(c)
    if mu.count <= power:
        raise InsufficientMoments(power, mu.count - 1)
    weights, wden = shift_row(c, power)
    ints, den = clear_denominators(mu.moments)
    vals = tuple(
        Fraction(sum(map(mul, weights, ints[k : k + power + 1])), den * wden)
        for k in range(mu.count - power)
    )
    out = MomentFunctional(vals, label=f"({mu.label})*(x-{c})^{power}")
    object.__setattr__(out, "_shift", (mu, c, power))
    return out


def mass_matrix(rows, N: int) -> Matrix:
    """The point-mass matrix as rationals.

    Raises ConfigError unless it is (N+1)x(N+1), symmetric and positive
    semi-definite; entries that do not parse as rationals raise what
    as_fraction raises.
    """
    m = Matrix.rational(rows)
    if m.shape != (N + 1, N + 1):
        raise ConfigError(f"mass matrix must be {N + 1}x{N + 1}, got {m.shape}")
    if m != m.transpose():
        raise ConfigError("mass matrix must be symmetric")
    try:
        ldlt(m, pivots="psd")
    except NotPositiveDefinite:
        raise ConfigError("mass matrix must be positive semi-definite") from None
    return m


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
        object.__setattr__(self, "M", mass_matrix(self.M.rows, self.N))


class BilinearForm:
    """B(f, g) = L[f g] + sum_{a,b} M_ab f^(a)(c) g^(b)(c), held as its Gram.

    M is None for the plain integral form. max_degree is the highest
    degree either argument may have: L[f g] needs moments through twice
    it. The monomial Gram is built in closed form the first time a degree
    is asked for, and rebuilt larger only when a higher one is.
    """

    __slots__ = ("mu", "c", "M", "max_degree", "label", "_gram")

    def __init__(self, mu: MomentFunctional, c=0, M: Optional[Matrix] = None, label: str = ""):
        self.mu = mu
        self.c = as_fraction(c)
        self.M = M
        self.max_degree = (mu.count - 1) // 2
        self.label = label
        self._gram: Optional[tuple[list[list[int]], int]] = None

    def gram(self, n: int) -> tuple[list[list[int]], int]:
        """(rows, den) with B(x^i, x^j) = rows[i][j] / den for i, j <= n.

        The rows are the cached ones and may extend past n; callers index,
        they do not copy or mutate. A negative n raises ValueError.
        """
        if n < 0:
            raise ValueError("degree must be >= 0")
        if n > self.max_degree:
            raise InsufficientMoments(2 * n, 2 * self.max_degree)
        if self._gram is None or len(self._gram[0]) <= n:
            self._gram = self._build(n)
        return self._gram

    def _build(self, n: int) -> tuple[list[list[int]], int]:
        """The Gram through degree n as integer rows over one denominator:
        the moment Hankel m_{i+j}, plus for a point mass the rank-r update
        sum_a v_a[i] W_a[j], W_a = sum_b M_ab v_b, r the size of M. Each row
        is a scaled slice of the Hankel, and the update is added only to
        rows i where some v_a[i] is nonzero: i >= a always, and at c = 0
        only the first r rows. The rows are reduced by their common gcd."""
        hankel, den = clear_denominators(self.mu.moments[: 2 * n + 1])
        if self.M is None or self.M.is_zero:
            return [hankel[i : i + n + 1] for i in range(n + 1)], den
        # with c = p/q, q^n v_a[i] = i!/(i-a)! p^(i-a) q^(n-i+a) is an integer
        p, q = self.c.numerator, self.c.denominator
        mass = [clear_denominators(r) for r in self.M.rows]
        dM = lcm(*(d for _, d in mass))
        mass = [[v * (dM // d) for v in r] for r, d in mass]
        V = [
            [perm(i, a) * p ** (i - a) * q ** (n - i + a) if i >= a else 0 for i in range(n + 1)]
            for a in range(len(mass))
        ]
        W = [[sum(m * v[j] for m, v in zip(row, V)) for j in range(n + 1)] for row in mass]
        # in integers: den * scale * G = scale * hankel + den * V^T (dM M) V
        scale = dM * q ** (2 * n)
        rows = []
        g = den * scale
        for i in range(n + 1):
            row = [h * scale for h in hankel[i : i + n + 1]]
            for v, w in zip(V, W):
                if v[i]:
                    f = den * v[i]
                    row = [h + f * u for h, u in zip(row, w)]
            if g > 1:
                g = gcd(g, *row)
            rows.append(row)
        den *= scale
        if g > 1:
            rows = [[v // g for v in r] for r in rows]
            den //= g
        return rows, den

    def __call__(self, p: Poly, q: Poly) -> Fraction:
        """B(p, q) = p^T G q."""
        top = max(p.degree, q.degree)
        if top > self.max_degree:
            raise InsufficientMoments(top * 2, self.max_degree * 2)
        if p.is_zero or q.is_zero:
            return Fraction(0)
        rows, den = self.gram(top)
        pi, dp = clear_denominators(p.coeffs)
        qi, dq = clear_denominators(q.coeffs)
        total = sum(a * sum(g * b for g, b in zip(rows[i], qi)) for i, a in enumerate(pi) if a)
        return Fraction(total, dp * dq * den)

    def __repr__(self):
        return f"BilinearForm({self.label or 'custom'}, max_degree={self.max_degree})"


def measure_form(mu: MomentFunctional) -> BilinearForm:
    """The plain integral form (f, g) -> L[f g]."""
    return BilinearForm(mu, label=mu.label)


def sobolev_form(spec: SobolevSpec) -> BilinearForm:
    """B(f, g) = L[f g] + sum_{j,k} M_{jk} f^(j)(c) g^(k)(c)."""
    mu = spec.base
    return BilinearForm(mu, spec.c, spec.M, label=f"sobolev({mu.label}, c={spec.c}, N={spec.N})")


def gram_matrix(form: BilinearForm, n: int) -> Matrix:
    """Moment-basis Gram: (n+1)x(n+1) matrix of form(x^i, x^j), sliced
    from the form's cached Gram; a negative n raises ValueError."""
    rows, den = form.gram(n)
    return Matrix(tuple(Fraction(v, den) for v in r[: n + 1]) for r in rows[: n + 1])


@dataclass(frozen=True)
class SymmetryReport:
    ok: bool
    counterexample: Optional[tuple[int, int]]
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None


def symmetry_check(form: BilinearForm, N: int, degree: int, c=0) -> SymmetryReport:
    """Test whether multiplication by K = (x-c)^{N+1} is self-adjoint:
    B(K x^a, x^b) = B(x^a, K x^b) for all a, b <= degree, that is
    sum_t k_t G[a+t][b] == sum_t k_t G[a][b+t] on the integer Gram G
    (which need not be symmetric), k = shift_row(c, N+1). One
    row-difference pass per a, or at c = 0 one slice comparison; the
    first failing pair in row-major order is returned with both sides.
    The Gram must reach degree + N + 1, else InsufficientMoments is raised
    before the scan; a negative N raises ValueError.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    k, kden = shift_row(c, N + 1)
    G, den = form.gram(max(degree + N + 1, 0))
    ts = [t for t, v in enumerate(k) if v]
    m = degree + 1
    for a in range(m):
        if len(ts) == 1 and G[a + ts[0]][:m] == G[a][ts[0] : ts[0] + m]:
            continue
        diff = [0] * m  # sum_t k_t (G[a+t][b] - G[a][b+t]) for b <= degree
        for t in ts:
            diff = list(map(add, diff, map(mul, repeat(k[t]), map(sub, G[a + t], G[a][t : t + m]))))
        b = next((b for b, v in enumerate(diff) if v), None)
        if b is not None:
            lhs = Fraction(sum(k[t] * G[a + t][b] for t in ts), den * kden)
            rhs = Fraction(sum(k[t] * G[a][b + t] for t in ts), den * kden)
            return SymmetryReport(False, (a, b), lhs, rhs)
    return SymmetryReport(True, None)

