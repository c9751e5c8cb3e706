"""Right-acting matrix differential operators on folded sequences.

Every question asks about one linear map, R_n D - Lambda_n R_n on the
folded blocks, whose integer equations one row builder reads off each
block's derivative table. Discovery solves them per unknown column with
linalg.exact_nullspace, the package's certified modular kernel: a prime
can only enlarge a nullspace, so the verified count equals the modular
dimension bound and the result is a proven exact basis, not a
heuristic. Scalar discovery is the 1x1 case, and eigen verification
evaluates the same equations at a given operator.

Minimal-order certification frees the eigenvalues: each diagonal entry of
Lambda_n joins the unknowns and is eliminated through the monic leading
coefficient of its row, leaving one homogeneous system over all operator
coefficients. An order is feasible when the solutions supported on that
order contain one whose eigenvalue ladder actually varies with n;
constant-ladder solutions (scalar shifts act on any sequence whatsoever,
and diagonal folds admit constant diagonal multipliers) certify nothing.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import perm
from typing import Callable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    IdentityViolated,
    Infeasible,
    NumericalInstability,
    Underdetermined,
)
from .linalg import Matrix, exact_nullspace
from .matfold import MatrixPolySequence, build_matrix_sequence
from .orthopoly import MonicSequence, int_block
from .poly import Poly
from .rationals import rat_str, as_fraction

__all__ = [
    "RightDifferentialOperator",
    "EigenvalueLadder",
    "EigenReport",
    "verify_eigen",
    "DiscoveryResult",
    "discover_operator",
    "MinOrderResult",
    "min_order_size",
    "min_order_check",
    "ScalarOperator",
    "apply_scalar",
    "scalar_eigenvalues",
    "discover_scalar",
    "cyclotomic_poly",
    "FoldConjugationData",
    "ConjugationResult",
    "conjugation_eval",
    "operator_to_json",
    "operator_from_json",
]


# -- operator types ------------------------------------------------------


@dataclass(frozen=True)
class RightDifferentialOperator:
    """F maps to sum_k (d^k F / dy^k) * D_k(y), coefficients on the right.

    coeffs[k] is the (N+1)x(N+1) matrix D_k with Poly entries. The top
    coefficient is nonzero except for the zero operator, which is stored
    with order 0.
    """

    order: int
    coeffs: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise DimensionMismatch("need exactly order+1 coefficient matrices")
        top = self.coeffs[self.order]
        top_zero = all(
            top[i, j].is_zero for i in range(top.nrows) for j in range(top.ncols)
        )
        if top_zero and self.order > 0:
            raise IdentityViolated("leading coefficient of the operator vanishes")

    @property
    def size(self) -> int:
        return self.coeffs[0].nrows

    @property
    def is_zero(self) -> bool:
        return self.order == 0 and all(
            self.coeffs[0][i, j].is_zero
            for i in range(self.size)
            for j in range(self.size)
        )


@dataclass(frozen=True)
class EigenvalueLadder:
    """n — diagonal eigenvalue matrix, exact."""

    fn: Callable[[int], Matrix]
    size: int

    def __call__(self, n: int) -> Matrix:
        m = self.fn(n)
        for i in range(m.nrows):
            for j in range(m.ncols):
                if i != j and m[i, j] != 0:
                    raise IdentityViolated("eigenvalue matrices must be diagonal")
        return m


# -- the eigen equations -------------------------------------------------


def _int_deriv_table(mat: Matrix, order: int):
    """(table, den): table[k][i][l] lists the coefficients of the k-th
    derivative of entry (i, l) of the Poly matrix mat, as integers over
    den, the common denominator of the block. No list has trailing zeros."""
    base, den = int_block(mat)
    table = [base]
    for k in range(1, order + 1):
        table.append(
            [[[perm(t + k, k) * a for t, a in enumerate(e[k:])] for e in row] for row in base]
        )
    return table, den


def _at(coeffs: list[int], t: int) -> int:
    return coeffs[t] if 0 <= t < len(coeffs) else 0


def _eigen_rows(table, i: int, bounds: Sequence[int]):
    """The equations of row i of R_n D - Lambda_n R_n, one per power of y.

    table is the derivative table of block n over its denominator den,
    and bounds[k] the degree bound of the entries of D_k (-1 when D_k is
    zero). Entry t is (terms, rhs): den times the coefficient of y^t in
    entry (i, j) of R_n D is the sum of c times the coefficient of y^d in
    (D_k)_{lj} over the terms (k, l, d, c), alike for every column j, and
    den times that of Lambda_n R_n is lambda_{n,i} rhs[j]. t runs over
    every power that either side reaches.
    """
    row = table[0][i]
    top = max(len(pol) + b for b, level in zip(bounds, table) for pol in level[i])
    eqs = []
    for t in range(max(top, *map(len, row))):
        terms = [
            (k, l, d, pol[t - d])
            for k, b in enumerate(bounds)
            for l, pol in enumerate(table[k][i])
            for d in range(max(t - len(pol) + 1, 0), min(b, t) + 1)
            if pol[t - d]
        ]
        eqs.append((terms, [_at(e, t) for e in row]))
    return eqs


# -- eigen verification --------------------------------------------------


@dataclass(frozen=True)
class EigenReport:
    ok: bool
    results: tuple[tuple[int, bool], ...]
    first_failure: Optional[int] = None
    residual: Optional[str] = None


def verify_eigen(
    R: MatrixPolySequence,
    op: RightDifferentialOperator,
    ladder: EigenvalueLadder,
    n_range: Sequence[int],
) -> EigenReport:
    """Exact residual check R_n . op - Lambda_n R_n = 0 per block.

    Runs on the raw folded blocks: a diagonal Lambda_n commutes with the
    per-row scaling that separates raw from orthonormal rows, but not with
    the row mixing of monic normalization, so raw rows are the honest
    place to verify.

    Each block evaluates discovery's equations (_eigen_rows) at the
    operator's coefficients over one common denominator, in integers;
    the residual Poly matrix is built only for the first failing block.
    """
    size = op.size
    bounds = [max(p.degree for row in m.rows for p in row) for m in op.coeffs]
    # coef[k * size + l][j]: the coefficients of (D_k)_{lj} over opden
    coef, opden = int_block(Matrix([row for m in op.coeffs for row in m.rows]))

    def action(terms, j: int) -> int:
        """den * opden times the y^t coefficient of column j of R_n D, for
        terms the equation of row i at that power."""
        return sum(c * _at(coef[k * size + l][j], d) for k, l, d, c in terms)

    results = []
    first = None
    res_repr = None
    for n in n_range:
        lam = ladder(n)
        F = R.mat(n)
        if F.ncols != size:
            raise DimensionMismatch(f"{F.shape} against operator size {size}")
        if lam.shape != (F.nrows, F.nrows):
            raise DimensionMismatch(f"{lam.shape} @ {F.shape}")
        table, den = _int_deriv_table(F, op.order)
        # resid[i][j][t]: the coefficient of y^t in entry (i, j) of the
        # residual, times scale[i] = den * opden * (denominator of lambda_{n,i})
        resid, scale = [], []
        for i in range(F.nrows):
            li = as_fraction(lam[i, i])
            eqs = _eigen_rows(table, i, bounds)
            resid.append(
                [
                    [
                        li.denominator * action(terms, j) - li.numerator * opden * rhs[j]
                        for terms, rhs in eqs
                    ]
                    for j in range(size)
                ]
            )
            scale.append(den * opden * li.denominator)
        good = not any(v for r in resid for e in r for v in e)
        results.append((n, good))
        if not good and first is None:
            first = n
            res_repr = repr(
                Matrix([[Poly(Fraction(v, s) for v in e) for e in r] for r, s in zip(resid, scale)])
            )
    return EigenReport(first is None, tuple(results), first, res_repr)


# -- discovery -----------------------------------------------------------


def _trimmed(mats: list[Matrix]) -> RightDifferentialOperator:
    """The operator with coefficient matrices mats, zero top ones dropped."""
    top = len(mats) - 1
    while top > 0 and all(p.is_zero for row in mats[top].rows for p in row):
        top -= 1
    return RightDifferentialOperator(top, tuple(mats[: top + 1]))


def _solution(basis: list[list[Fraction]], nuk: int, infeasible: str) -> list[Fraction]:
    """The solution of an augmented system [A | -b] from the nullspace
    basis of its nuk+1 columns, scaled to last coordinate 1. Raises
    Infeasible when no basis vector has that coordinate nonzero, and
    Underdetermined, carrying the basis, when there are several."""
    if all(v[nuk] == 0 for v in basis):
        raise Infeasible(infeasible)
    if len(basis) > 1:
        exc = Underdetermined(len(basis) - 1)
        exc.basis = basis
        raise exc
    (v,) = basis
    return [x / v[nuk] for x in v[:nuk]]


def _discover(
    R: MatrixPolySequence,
    ladder: Callable[[int], Matrix],
    bounds: Sequence[int],
    n_fit: int,
    infeasible: str,
) -> list[list[list[Poly]]]:
    """sol[j][k][l]: entry (l, j) of D_k, of degree at most bounds[k],
    such that R_n D = ladder(n) R_n on blocks 0..n_fit.

    The action couples only one column of every D_k at a time, so each
    column j is one augmented system [A | -b] of the equations of
    _eigen_rows; infeasible, formatted with j, is the message of its
    Infeasible.
    """
    size = R.block_size
    widths = [b + 1 for b in bounds]
    offsets = list(accumulate((size * w for w in widths), initial=0))
    nuk = offsets[-1]
    eqs = []
    for n in range(n_fit + 1):
        table, _ = _int_deriv_table(R.mat(n), len(bounds) - 1)
        lam = ladder(n)
        eqs += [(as_fraction(lam[i, i]), _eigen_rows(table, i, bounds)) for i in range(size)]
    sols = []
    for j in range(size):
        rows = []
        for lam, row_eqs in eqs:
            for terms, rhs in row_eqs:
                # the equation times den * (denominator of lambda), in integers
                row = [0] * (nuk + 1)
                for k, l, d, c in terms:
                    row[offsets[k] + l * widths[k] + d] = c * lam.denominator
                row[nuk] = -lam.numerator * rhs[j]
                if any(row):
                    rows.append(row)
        sol = _solution(exact_nullspace(rows, nuk + 1), nuk, infeasible.format(j=j))
        sols.append(
            [
                [Poly(sol[o + l * w : o + (l + 1) * w]) for l in range(size)]
                for o, w in zip(offsets, widths)
            ]
        )
    return sols


@dataclass(frozen=True)
class DiscoveryResult:
    operator: RightDifferentialOperator
    hom_dim: int
    column_dims: tuple[int, ...]


def discover_operator(
    R: MatrixPolySequence,
    ladder: EigenvalueLadder,
    order: int,
    degree_bound: int,
    n_fit: int,
) -> DiscoveryResult:
    """Solve for the operator coefficients by exact linear algebra.

    Each column gives an independent augmented system [A | -b]; a
    nullspace vector with nonzero last coordinate is a solution, and the
    vectors with zero last coordinate are homogeneous solutions. Any of
    them raises Underdetermined, so a returned operator is unique at this
    order and degree bound (hom_dim 0).
    """
    size = R.block_size
    message = f"no operator of order {order}, degree {degree_bound} fits column {{j}}"
    sols = _discover(R, ladder, [degree_bound] * (order + 1), n_fit, message)
    mats = [
        Matrix([[sols[j][k][l] for j in range(size)] for l in range(size)])
        for k in range(order + 1)
    ]
    return DiscoveryResult(_trimmed(mats), 0, (0,) * size)


# -- minimal order -------------------------------------------------------


def min_order_size(R: MatrixPolySequence, max_order: int, degree_bound: int, n_fit: int):
    """(rows, unknowns) of min_order_check's system over blocks 0..n_fit,
    zero rows included: row i of block n has degree n, so it gives
    size * (n + degree_bound + 1) equations, one of which eliminates
    lambda_{n,i}."""
    size = R.block_size
    rows = sum(size * (size * (n + degree_bound + 1) - 1) for n in range(n_fit + 1))
    return rows, (max_order + 1) * size * size * (degree_bound + 1)


@dataclass(frozen=True)
class MinOrderResult:
    min_order: int
    feasible: tuple[bool, ...]
    section_dims: tuple[int, ...]
    witness: Optional[RightDifferentialOperator]
    witness_ladder: Optional[tuple[tuple[Fraction, ...], ...]]


def min_order_check(
    R: MatrixPolySequence,
    max_order: int,
    degree_bound: int,
    n_fit: int,
) -> MinOrderResult:
    """Least operator order with a genuinely n-dependent eigenvalue ladder.

    Eigenvalues are free diagonal unknowns per block. Each lambda_{n,i} is
    eliminated via the coefficient of y^n in entry (i,i) of block n, which
    is 1 because the underlying scalars are monic; what remains is one
    homogeneous system over all operator coefficients up to max_order.
    Order m is feasible when the solutions with every coefficient of
    d^k/dy^k, k > m, equal to zero include one whose ladder varies with n.
    Solutions with ladders constant in n exist for any sequence (scalar
    shifts; constant diagonal multipliers when the fold is diagonal) and
    do not witness bispectrality, so they are excluded.

    The unknowns are ordered with the order k most significant, and the
    canonical RREF basis of the system's nullspace gives every vector a
    different highest nonzero unknown (its own free one). A solution
    free of d^k, k > m, is therefore a combination of the basis vectors
    whose highest unknown has order <= m: those span section m, and a
    ladder in it varies with n only if one of theirs does. The witness is
    the first basis vector of least order whose ladder varies.

    The verdict is a statement about blocks 0..n_fit. A meaningful
    infeasibility certificate needs the fitted window to overdetermine
    the coefficient unknowns; with too few blocks every order looks
    feasible and the reconstruction of an enormous nullspace may fail.
    """
    size = R.block_size
    _, nuk = min_order_size(R, max_order, degree_bound, n_fit)
    bounds = [degree_bound] * (max_order + 1)

    def uidx(k: int, l: int, j: int, d: int) -> int:
        return ((k * size + l) * size + j) * (degree_bound + 1) + d

    rows = []
    # pivots[(n, i)]: the nonzero (unknown index, coefficient) terms of
    # den_n lambda_{n,i}, read off the coefficient of y^n in entry (i, i);
    # dens[n] is the common denominator of block n
    pivots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    dens = []
    for n in range(n_fit + 1):
        table, den = _int_deriv_table(R.mat(n), max_order)
        dens.append(den)
        for i in range(size):
            if _at(table[0][i][i], n) != den:
                raise IdentityViolated(
                    f"block {n} row {i} is not monic in its own column"
                )
            eqs = _eigen_rows(table, i, bounds)
            pivot = eqs[n][0]
            pivots[(n, i)] = [(uidx(k, l, i, d), c) for k, l, d, c in pivot]
            for j in range(size):
                for t, (terms, rhs) in enumerate(eqs):
                    if j == i and t == n:
                        continue
                    # the row times den (den^2 when lambda is eliminated), in integers
                    rj = rhs[j]
                    scale = den if rj else 1
                    row = [0] * nuk
                    for k, l, d, c in terms:
                        row[uidx(k, l, j, d)] = c * scale
                    if rj:
                        for k, l, d, c in pivot:
                            row[uidx(k, l, i, d)] -= rj * c
                    if any(row):
                        rows.append(row)
    V = exact_nullspace(rows, nuk)
    per_order = size * size * (degree_bound + 1)
    orders = [max(c for c, x in enumerate(v) if x) // per_order for v in V]

    def ladder_values(vec: Sequence[Fraction]) -> list[list[Fraction]]:
        return [
            [sum(c * vec[idx] for idx, c in pivots[(n, i)]) / dens[n] for i in range(size)]
            for n in range(n_fit + 1)
        ]

    ladders = [ladder_values(v) for v in V]
    varying = [s for s, lv in enumerate(ladders) if any(row != lv[0] for row in lv[1:])]
    if not varying:
        raise Infeasible(
            f"no order up to {max_order} admits an n-dependent eigenvalue ladder"
        )
    w = min(varying, key=orders.__getitem__)
    min_order = orders[w]
    feasible = tuple(m >= min_order for m in range(max_order + 1))
    dims = tuple(sum(o <= m for o in orders) for m in range(max_order + 1))
    mats = [
        Matrix.from_fn(
            size, size, lambda l, j: Poly(V[w][uidx(k, l, j, 0) : uidx(k, l, j, degree_bound + 1)])
        )
        for k in range(min_order + 1)
    ]
    wl = tuple(tuple(row) for row in ladders[w])
    return MinOrderResult(min_order, feasible, dims, _trimmed(mats), wl)


# -- scalar operators ----------------------------------------------------


@dataclass(frozen=True)
class ScalarOperator:
    """sum_k c_k(x) d^k/dx^k with exact polynomial coefficients."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise DimensionMismatch("need exactly order+1 coefficients")
        if self.coeffs[self.order].is_zero and self.order > 0:
            raise IdentityViolated("leading coefficient vanishes")


def apply_scalar(op: ScalarOperator, p: Poly) -> Poly:
    out = Poly()
    for k in range(op.order + 1):
        out = out + op.coeffs[k] * p.derivative(k)
    return out


def discover_scalar(
    seq: MonicSequence,
    ladder: Callable[[int], Fraction],
    order: int,
    n_fit: int,
) -> ScalarOperator:
    """Exact scalar operator discovery with triangular degree profile.

    Discovery on the sequence's own 1x1 fold, members 0..n_fit, with
    deg c_k <= k, which keeps the operator degree-preserving.
    """
    fold = build_matrix_sequence(seq, 0)
    message = f"no scalar operator of order {order} fits"
    (sol,) = _discover(fold, lambda m: Matrix([[ladder(m)]]), range(order + 1), n_fit, message)
    return ScalarOperator(order, tuple(c for (c,) in sol))


# -- fold conjugation ----------------------------------------------------


def cyclotomic_poly(n: int) -> Poly:
    """n-th cyclotomic polynomial by exact recursive division."""
    num = Poly.monomial(n) - Poly.constant(1)
    out = num
    for d in range(1, n):
        if n % d == 0:
            q, r = divmod(out, cyclotomic_poly(d))
            if not r.is_zero:
                raise IdentityViolated("cyclotomic division left a remainder")
            out = q
    return out


@dataclass(frozen=True)
class FoldConjugationData:
    """Root-of-unity conjugation data for fold order N+1.

    B is stored by exponents: B_{jk} = w^{jk} with w the primitive
    (N+1)-th root of unity. Unitarity B conj(B)^T = (N+1) I is proven in
    the symbol algebra: each off-diagonal sum of w-powers is divisible by
    the (N+1)-th cyclotomic polynomial.
    """

    N: int

    @property
    def step(self) -> int:
        return self.N + 1

    def exponent(self, j: int, k: int) -> int:
        return (j * k) % self.step

    def check_b_unitary(self) -> bool:
        step = self.step
        phi = cyclotomic_poly(step)
        for j in range(step):
            for k in range(step):
                coeffs = [0] * step
                for l in range(step):
                    coeffs[((j - k) * l) % step] += 1
                p = Poly([Fraction(c) for c in coeffs])
                if j == k:
                    if p != Poly.constant(step):
                        raise IdentityViolated("diagonal Gram entry is not N+1")
                    continue
                q, r = divmod(p, phi)
                if not r.is_zero:
                    raise IdentityViolated(
                        f"B Gram entry ({j},{k}) not divisible by the cyclotomic"
                    )
        return True

    def w_float(self, precision: str = "double"):
        if precision == "double":
            import cmath

            return cmath.exp(2j * cmath.pi / self.step)
        from mpmath import mp, mpf

        return mp.expjpi(mpf(2) / self.step)


@dataclass(frozen=True)
class ConjugationResult:
    lhs: tuple
    rhs: tuple
    max_deviation: float


def _eigen_image(D: ScalarOperator, s: Poly, m: int) -> tuple[Fraction, Poly]:
    """(lambda_m, D s_m) for the degree-m member s, else raises.

    A monic leading coefficient pins lambda_m as the top coefficient of
    the image; the full identity D s_m = lambda_m s_m is then asserted
    exactly.
    """
    ds = apply_scalar(D, s)
    lam = ds.coeff(m)
    if ds != Poly.constant(lam) * s:
        raise IdentityViolated(f"degree-{m} member is not an eigenfunction")
    return lam, ds


def scalar_eigenvalues(
    D: ScalarOperator, seq: MonicSequence, count: int
) -> tuple[Fraction, ...]:
    """Exact eigenvalues lambda_m with D s_m = lambda_m s_m for m < count,
    else raises IdentityViolated naming the first failing degree."""
    return tuple(_eigen_image(D, seq.poly(m), m)[0] for m in range(count))


def conjugation_eval(
    D: ScalarOperator,
    R: MatrixPolySequence,
    n: int,
    y0,
    precision: str = "double",
) -> ConjugationResult | tuple[ConjugationResult, ...]:
    """Numerically realize the conjugated operator at one point or several.

    R is a raw fold about its centre c, with its scalars. Row j of block
    n times the fold-conjugated scalar operator evaluates, via the
    root-of-unity chain, to (D s_{(N+1)n+j}) at the rotated points
    c + w^k y0^{1/(N+1)}, pushed back through B^{-1} and the
    fractional-power diagonal. The result is compared against Lambda_n
    times R.mat(n) at y0, with Lambda the exact scalar eigenvalues. Only
    y0 > 0 is meaningful on this support.

    D is applied once to each member of block n, degrees (N+1)n through
    (N+1)n+N, and only those members are checked exactly to be
    eigenfunctions: the first that is not raises IdentityViolated naming
    its degree. The same images are evaluated at the rotated points.
    Looping n over 0..n_limit therefore checks every member of degree
    below (N+1)(n_limit+1).

    y0 is one point, giving one ConjugationResult, or a list or tuple of
    points, giving a tuple of results in the same order; the images and
    their exact check are then shared by all the points.
    """
    if R.monic or R.scalars is None:
        raise DimensionMismatch("conjugation needs a raw fold with its scalars")
    several = isinstance(y0, (list, tuple))
    points = tuple(as_fraction(y) for y in (y0 if several else (y0,)))
    if any(y <= 0 for y in points):
        raise NumericalInstability("evaluation point must be strictly positive")
    step = R.block_size
    # first, so that a block past the fold raises InsufficientSequence
    block = R.mat(n).rows
    lams, images = [], []
    for j in range(step):
        m = step * n + j
        lam, ds = _eigen_image(D, R.scalars.poly(m), m)
        lams.append(lam)
        # the image about the fold centre, evaluated at w^k y0^{1/(N+1)}
        images.append(ds.shift(R.c))
    if precision == "double":
        scope = contextlib.nullcontext()
    else:
        from mpmath import mp

        # mp precision is process-global; hold 50 digits only for this call
        scope = mp.workdps(50)
    with scope:
        w = FoldConjugationData(R.N).w_float(precision)
        results = tuple(
            _conjugate_at(images, lams, block, step, w, y, precision) for y in points
        )
    return results if several else results[0]


def _conjugate_at(images, lams, block, step: int, w, y0: Fraction, precision: str) -> ConjugationResult:
    """One ConjugationResult of conjugation_eval, at the point y0 > 0; w is
    the primitive step-th root of unity at the working precision."""
    if precision == "double":
        r = float(y0) ** (1.0 / step)
        y0f = float(y0)
        to_c = complex
    else:
        from mpmath import mp, mpf, mpc

        y0f = mpf(y0.numerator) / y0.denominator
        r = mp.power(y0f, mpf(1) / step)
        to_c = lambda q: mpc(mpf(q.numerator) / q.denominator)
    pts = [w**k * r for k in range(step)]
    m2 = [[ds(pt) for pt in pts] for ds in images]
    lhs = []
    for j in range(step):
        row = []
        for k in range(step):
            acc = 0
            for l in range(step):
                acc += m2[j][l] * w ** (-(l * k) % step)
            row.append(acc / step / r**k)
        lhs.append(row)
    rhs = []
    dev = 0.0
    scale = 1.0
    for j in range(step):
        lam = to_c(lams[j])
        row = []
        for k in range(step):
            val = lam * block[j][k](y0f)
            row.append(val)
            scale = max(scale, abs(val))
        rhs.append(row)
    for j in range(step):
        for k in range(step):
            dev = max(dev, abs(lhs[j][k] - rhs[j][k]))
    return ConjugationResult(
        tuple(tuple(r) for r in lhs),
        tuple(tuple(r) for r in rhs),
        float(dev / scale),
    )


# -- serialization -------------------------------------------------------


def operator_to_json(op: RightDifferentialOperator) -> dict:
    return {
        "order": op.order,
        "size": op.size,
        "coeffs": [
            [
                [
                    [rat_str(mat[i, j].coeff(t)) for t in range(mat[i, j].degree + 1)]
                    or ["0"]
                    for j in range(op.size)
                ]
                for i in range(op.size)
            ]
            for mat in op.coeffs
        ],
    }


def operator_from_json(data: dict) -> RightDifferentialOperator:
    size = data["size"]
    mats = []
    for coefs in data["coeffs"]:
        mats.append(
            Matrix(
                [
                    [
                        Poly([as_fraction(c) for c in coefs[i][j]])
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
            )
        )
    return RightDifferentialOperator(data["order"], tuple(mats))
