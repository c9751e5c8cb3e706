"""Right-acting matrix differential operators on folded sequences.

Eigen verification and operator discovery are exact: discovery assembles
one integer linear system per unknown column and takes its nullspace
with linalg.exact_nullspace, the package's certified modular kernel: a
prime can only enlarge a nullspace, so the verified count equals the
modular dimension bound and the result is a proven exact basis, not a
heuristic.

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
from math import perm
from typing import Callable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    IdentityViolated,
    Infeasible,
    NumericalInstability,
    Underdetermined,
)
from .linalg import Matrix, _int_rows, exact_nullspace, nullspace
from .matfold import MatrixPolySequence, fold_decompose, int_block
from .orthopoly import MonicSequence
from .poly import Poly
from .rationals import rat_str, as_fraction

__all__ = [
    "RightDifferentialOperator",
    "EigenvalueLadder",
    "apply_right",
    "EigenReport",
    "verify_eigen",
    "DiscoveryResult",
    "discover_operator",
    "MinOrderResult",
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


def apply_right(F: Matrix, op: RightDifferentialOperator) -> Matrix:
    """Exact action sum_k (d^k F) @ D_k."""
    if F.ncols != op.size:
        raise DimensionMismatch(f"{F.shape} against operator size {op.size}")
    out = None
    for k in range(op.order + 1):
        dk = F.map(lambda e: e.derivative(k)) if k else F
        term = dk @ op.coeffs[k]
        out = term if out is None else out + term
    return out


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
    """
    results = []
    first = None
    res_repr = None
    for n in n_range:
        lam = ladder(n).map(lambda v: Poly.constant(v))
        residual = apply_right(R.mat(n), op) - lam @ R.mat(n)
        good = all(
            residual[i, j].is_zero
            for i in range(residual.nrows)
            for j in range(residual.ncols)
        )
        results.append((n, good))
        if not good and first is None:
            first = n
            res_repr = repr(residual)
    return EigenReport(first is None, tuple(results), first, res_repr)


# -- discovery -----------------------------------------------------------


def _entry_coeff(p: Poly, k: int) -> Fraction:
    return p.coeff(k) if k >= 0 else Fraction(0)


def _int_deriv_table(R: MatrixPolySequence, n: int, order: int):
    """(table, den): table[k][i][l] lists the coefficients of the k-th
    y-derivative of entry (i, l) of block n, as integers over den, the
    common denominator of the block. No list has trailing zeros."""
    base, den = int_block(R.mat(n))
    table = [base]
    for k in range(1, order + 1):
        table.append(
            [[[perm(t + k, k) * a for t, a in enumerate(e[k:])] for e in row] for row in base]
        )
    return table, den


def _at(coeffs: list[int], t: int) -> int:
    return coeffs[t] if 0 <= t < len(coeffs) else 0


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

    The action couples only one column of every D_k at a time, so each
    column gives an independent augmented system [A | -b]; a nullspace
    vector with nonzero last coordinate is a solution, and the vectors
    with zero last coordinate are homogeneous solutions. Any of them
    raises Underdetermined, so a returned operator is unique at this
    order and degree bound (hom_dim 0).
    """
    size = R.block_size
    nuk = (order + 1) * size * (degree_bound + 1)
    cols = []
    for j in range(size):
        rows = []
        for n in range(n_fit + 1):
            derivs, _ = _int_deriv_table(R, n, order)
            lam = ladder(n)
            for i in range(size):
                # the row times den * (denominator of lambda_{n,i}), in integers
                lii = as_fraction(lam[i, i])
                maxdeg = max((len(derivs[0][i][l]) - 1 for l in range(size)), default=0)
                for t in range(maxdeg + degree_bound + 1):
                    row = [0] * (nuk + 1)
                    for k in range(order + 1):
                        for l in range(size):
                            pol = derivs[k][i][l]
                            for d in range(degree_bound + 1):
                                c = _at(pol, t - d)
                                if c:
                                    row[(k * size + l) * (degree_bound + 1) + d] = c * lii.denominator
                    row[nuk] = -lii.numerator * _at(derivs[0][i][j], t)
                    if any(row):
                        rows.append(row)
        cols.append(
            _solution(
                exact_nullspace(rows, nuk + 1),
                nuk,
                f"no operator of order {order}, degree {degree_bound} fits column {j}",
            )
        )
    mats = []
    for k in range(order + 1):
        rows = []
        for l in range(size):
            row = []
            for j in range(size):
                base = (k * size + l) * (degree_bound + 1)
                row.append(Poly(cols[j][base : base + degree_bound + 1]))
            rows.append(row)
        mats.append(Matrix(rows))
    return DiscoveryResult(_trimmed(mats), 0, (0,) * size)


# -- minimal order -------------------------------------------------------


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

    The verdict is a statement about blocks 0..n_fit. A meaningful
    infeasibility certificate needs the fitted window to overdetermine
    the coefficient unknowns; with too few blocks every order looks
    feasible and the reconstruction of an enormous nullspace may fail.
    """
    size = R.block_size
    nuk = (max_order + 1) * size * size * (degree_bound + 1)

    def uidx(k: int, l: int, j: int, d: int) -> int:
        return ((k * size + l) * size + j) * (degree_bound + 1) + d

    rows = []
    # pivots[(n, i)]: the nonzero (unknown index, coefficient) terms of
    # den_n lambda_{n,i}, read off the coefficient of y^n in entry (i, i);
    # dens[n] is the common denominator of block n
    pivots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    dens = []
    for n in range(n_fit + 1):
        derivs, den = _int_deriv_table(R, n, max_order)
        dens.append(den)
        for i in range(size):
            if _at(derivs[0][i][i], n) != den:
                raise IdentityViolated(
                    f"block {n} row {i} is not monic in its own column"
                )
            pivot = []
            for k in range(max_order + 1):
                for l in range(size):
                    pol = derivs[k][i][l]
                    for d in range(degree_bound + 1):
                        c = _at(pol, n - d)
                        if c:
                            pivot.append((uidx(k, l, i, d), c))
            pivots[(n, i)] = pivot
            maxdeg = max((len(derivs[0][i][l]) - 1 for l in range(size)), default=0)
            for j in range(size):
                for t in range(maxdeg + degree_bound + 1):
                    if j == i and t == n:
                        continue
                    # the row times den (den^2 when lambda is eliminated), in integers
                    rj = _at(derivs[0][i][j], t)
                    scale = den if rj else 1
                    row = [0] * nuk
                    for k in range(max_order + 1):
                        for l in range(size):
                            pol = derivs[k][i][l]
                            for d in range(degree_bound + 1):
                                c = _at(pol, t - d)
                                if c:
                                    row[uidx(k, l, j, d)] = c * scale
                    if rj:
                        for idx, c in pivot:
                            row[idx] -= rj * c
                    if any(row):
                        rows.append(row)
    V = exact_nullspace(rows, nuk)

    def ladder_values(vec: Sequence[Fraction]) -> list[list[Fraction]]:
        return [
            [sum(c * vec[idx] for idx, c in pivots[(n, i)]) / dens[n] for i in range(size)]
            for n in range(n_fit + 1)
        ]

    # a section vector is sum_s alpha_s V[s], so by linearity its ladder is
    # the same combination of the ladders of the basis vectors
    basis_ladders = [ladder_values(v) for v in V]

    def section_ladder(alpha: Sequence[Fraction]) -> list[list[Fraction]]:
        return [
            [sum(a * lv[n][i] for a, lv in zip(alpha, basis_ladders)) for i in range(size)]
            for n in range(n_fit + 1)
        ]

    feasible = []
    dims = []
    min_order = None
    witness_alpha = witness_ladder = None
    for m in range(max_order + 1):
        banned = [
            uidx(k, l, j, d)
            for k in range(m + 1, max_order + 1)
            for l in range(size)
            for j in range(size)
            for d in range(degree_bound + 1)
        ]
        if V:
            constraint = Matrix.from_fn(
                max(len(banned), 1),
                len(V),
                lambda r, s: V[s][banned[r]] if banned else Fraction(0),
            )
            alphas = nullspace(constraint)
        else:
            alphas = []
        dims.append(len(alphas))
        # the first section vector whose ladder varies with n witnesses m
        hit = None
        for alpha in alphas:
            lv = section_ladder(alpha)
            if any(row != lv[0] for row in lv[1:]):
                hit = (alpha, lv)
                break
        feasible.append(hit is not None)
        if hit is not None and min_order is None:
            min_order = m
            witness_alpha, witness_ladder = hit
    if min_order is None:
        raise Infeasible(
            f"no order up to {max_order} admits an n-dependent eigenvalue ladder"
        )
    witness_vec = [
        sum(a * v[c] for a, v in zip(witness_alpha, V)) for c in range(nuk)
    ]
    mats = []
    for k in range(min_order + 1):
        mats.append(
            Matrix.from_fn(
                size,
                size,
                lambda l, j: Poly(
                    witness_vec[
                        uidx(k, l, j, 0) : uidx(k, l, j, 0) + degree_bound + 1
                    ]
                ),
            )
        )
    wl = tuple(tuple(row) for row in witness_ladder)
    return MinOrderResult(min_order, tuple(feasible), tuple(dims), _trimmed(mats), wl)


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

    deg c_k <= k keeps the operator degree-preserving; unknowns are the
    coefficient triangles, equations match D s_m = lambda_m s_m
    coefficientwise for m <= n_fit.
    """
    nuk = (order + 1) * (order + 2) // 2
    offsets = [k * (k + 1) // 2 for k in range(order + 1)]
    rows = []
    for m in range(n_fit + 1):
        s = seq.poly(m)
        lam = as_fraction(ladder(m))
        for t in range(m + 1):
            row = [Fraction(0)] * (nuk + 1)
            for k in range(order + 1):
                dk = s.derivative(k)
                for d in range(k + 1):
                    c = _entry_coeff(dk, t - d)
                    if c:
                        row[offsets[k] + d] = c
            row[nuk] = -lam * s.coeff(t)
            if any(row):
                rows.append(row)
    sol = _solution(
        exact_nullspace(_int_rows(rows), nuk + 1), nuk, f"no scalar operator of order {order} fits"
    )
    coeffs = tuple(
        Poly(sol[offsets[k] : offsets[k] + k + 1]) for k in range(order + 1)
    )
    return ScalarOperator(order, coeffs)


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
    N: int,
    scalar_seq: MonicSequence,
    n: int,
    y0,
    precision: str = "double",
) -> ConjugationResult | tuple[ConjugationResult, ...]:
    """Numerically realize the conjugated operator at one point or several.

    Row j of block n times the fold-conjugated scalar operator evaluates,
    via the root-of-unity chain, to (D s_{(N+1)n+j}) at the rotated points
    w^k y0^{1/(N+1)}, pushed back through B^{-1} and the fractional-power
    diagonal. The result is compared against Lambda_n times the folded
    block at y0, with Lambda the exact scalar eigenvalues. Only y0 > 0 is
    meaningful on this support.

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
    several = isinstance(y0, (list, tuple))
    points = tuple(as_fraction(y) for y in (y0 if several else (y0,)))
    if any(y <= 0 for y in points):
        raise NumericalInstability("evaluation point must be strictly positive")
    step = N + 1
    members = [scalar_seq.poly(step * n + j) for j in range(step)]
    lams, images = [], []
    for j, s in enumerate(members):
        lam, ds = _eigen_image(D, s, step * n + j)
        lams.append(lam)
        images.append(ds)
    # row j of block n is the fold of member j
    block = [fold_decompose(s, N).parts for s in members]
    if precision == "double":
        scope = contextlib.nullcontext()
    else:
        from mpmath import mp

        # mp precision is process-global; hold 50 digits only for this call
        scope = mp.workdps(50)
    with scope:
        w = FoldConjugationData(N).w_float(precision)
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
