"""Folding scalar sequences into matrix orthogonal polynomials.

A scalar polynomial splits along exponent residues mod N+1; stacking the
folds of N+1 consecutive sequence members gives an (N+1)x(N+1) matrix
polynomial in the variable y = x^{N+1}. All matrix inner products reduce
to scalar form evaluations of the underlying polynomials, which keeps
every identity in rational arithmetic. Orthonormal block data is exposed
as squared rationals with signs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .banded import BlockTridiagonal
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    InsufficientSequence,
    SingularLeading,
    SingularMatrix,
)
from .linalg import Matrix, inverse
from .measures import BilinearForm
from .orthopoly import BandedRecurrence, MonicSequence
from .poly import Poly
from .rationals import SignedSquare

__all__ = [
    "FoldDecomposition",
    "fold_decompose",
    "MatrixPolySequence",
    "build_matrix_sequence",
    "matrix_gram",
    "MonicNormalization",
    "monic_normalize",
    "BlockTTRRCoeffs",
    "matrix_ttrr",
    "orthonormal_blocks",
    "leading_orthonormal_sq",
]


@dataclass(frozen=True)
class FoldDecomposition:
    """Components q_0..q_N with s(x) = sum_k x^k q_k(x^{N+1})."""

    parts: tuple[Poly, ...]

    @property
    def N(self) -> int:
        return len(self.parts) - 1

    def reassemble(self) -> Poly:
        step = len(self.parts)
        out = Poly()
        for k, q in enumerate(self.parts):
            lifted = q.stretch(step)
            out = out + Poly.monomial(k) * lifted
        return out


def fold_decompose(s: Poly, N: int) -> FoldDecomposition:
    """Split coefficients by exponent residue mod N+1."""
    step = N + 1
    buckets: list[list[Fraction]] = [[] for _ in range(step)]
    for e in range(s.degree + 1):
        q, r = divmod(e, step)
        bucket = buckets[r]
        while len(bucket) <= q:
            bucket.append(Fraction(0))
        bucket[q] = s.coeff(e)
    return FoldDecomposition(tuple(Poly(b) for b in buckets))


@dataclass(frozen=True)
class MatrixPolySequence:
    """Matrix polynomials in y with exact entries.

    Row j of block n is the fold of scalar number (N+1)n+j; monic means
    every block has identity leading coefficient. The source scalars are
    kept so inner products can be reduced to the scalar form.
    """

    mats: tuple[Matrix, ...]
    N: int
    monic: bool
    scalars: Optional[MonicSequence] = None

    def __len__(self) -> int:
        return len(self.mats)

    @property
    def block_size(self) -> int:
        return self.N + 1

    def mat(self, n: int) -> Matrix:
        if n >= len(self.mats):
            raise InsufficientSequence(
                f"block {n} requested, only {len(self.mats)} built"
            )
        return self.mats[n]

    def leading_coefficient(self, n: int) -> Matrix:
        m = self.mat(n)
        return m.map(lambda e: e.coeff(n))

    def row_scalar(self, n: int, i: int) -> Poly:
        """Reassemble row i of block n into its scalar polynomial."""
        m = self.mat(n)
        return FoldDecomposition(tuple(m[i, j] for j in range(m.ncols))).reassemble()


def build_matrix_sequence(seq: MonicSequence, N: int) -> MatrixPolySequence:
    """Stack folds of N+1 consecutive scalars into matrix blocks.

    Entry (i,j) of block n collects the exponents congruent to j mod N+1
    of scalar (N+1)n+i, so its degree is at most floor(((N+1)n+i-j)/(N+1));
    the bound is asserted.
    """
    step = N + 1
    nblocks = len(seq) // step
    mats = []
    for n in range(nblocks):
        rows = []
        for i in range(step):
            parts = fold_decompose(seq.poly(step * n + i), N).parts
            for j, q in enumerate(parts):
                if q.degree > (step * n + i - j) // step:
                    raise IdentityViolated(
                        f"fold degree bound violated at block {n} entry ({i},{j})"
                    )
            rows.append(parts)
        mats.append(Matrix(rows))
    return MatrixPolySequence(tuple(mats), N, monic=False, scalars=seq)


def matrix_gram(
    R: MatrixPolySequence, n: int, m: int, form: Optional[BilinearForm] = None
) -> Matrix:
    """Block inner product by scalar reduction.

    Entry (i,j) equals the scalar form applied to the reassembled rows;
    no quadrature against the matrix weight is ever performed. Blocks of
    a folded orthogonal sequence are diagonal for n = m and vanish
    otherwise.
    """
    if form is None:
        if R.scalars is None:
            raise DimensionMismatch("no scalar form available for this sequence")
        form = R.scalars.form
    rows_n = [R.row_scalar(n, i) for i in range(R.block_size)]
    rows_m = [R.row_scalar(m, j) for j in range(R.block_size)]
    return Matrix.from_fn(
        R.block_size, R.block_size, lambda i, j: form(rows_n[i], rows_m[j])
    )


@dataclass(frozen=True)
class MonicNormalization:
    """Monic blocks P_n with the leading coefficients that were divided out."""

    sequence: MatrixPolySequence
    leadings: tuple[Matrix, ...]


def monic_normalize(R: MatrixPolySequence) -> MonicNormalization:
    """Left-divide each block by its leading coefficient.

    Folding a degree-graded monic sequence gives lower-triangular leading
    coefficients with unit diagonal entries on the top row pattern; any
    singular leading coefficient raises SingularLeading.
    """
    mats = []
    leadings = []
    ident = Matrix.identity(R.block_size)
    for n in range(len(R)):
        lead = R.leading_coefficient(n)
        try:
            linv = inverse(lead)
        except SingularMatrix as exc:
            raise SingularLeading(f"leading coefficient of block {n} is singular") from exc
        scaled = linv.map(lambda v: Poly.constant(v)) @ R.mat(n)
        if scaled.map(lambda e: e.coeff(n)) != ident:
            raise IdentityViolated(f"block {n} failed to become monic")
        mats.append(scaled)
        leadings.append(lead)
    seq = MatrixPolySequence(tuple(mats), R.N, monic=True, scalars=R.scalars)
    return MonicNormalization(seq, tuple(leadings))


@dataclass(frozen=True)
class BlockTTRRCoeffs:
    """Three-term block recurrence data: monic holds the block Jacobi
    operator (diagonal D_n, subdiagonal C_n, identity superdiagonal)
    extracted with zero residual."""

    monic: BlockTridiagonal


def int_block(mat: Matrix, step: int = 1, offset: int = 0):
    """(rows, den): entry (i, j) of a Poly matrix as a list of integers over
    one denominator den for the whole block, with the coefficient of y^t
    placed at power step*t + offset (step 2 and offset 0 or 1 give the
    rows of P(x^2) and x P(x^2)). A zero entry is the empty list."""
    den = math.lcm(*(c.denominator for row in mat.rows for p in row for c in p.coeffs))
    rows = []
    for row in mat.rows:
        out = []
        for p in row:
            cs = [0] * (step * len(p.coeffs) + offset - step + 1) if p.coeffs else []
            for t, c in enumerate(p.coeffs):
                cs[step * t + offset] = c.numerator * (den // c.denominator)
            out.append(cs)
        rows.append(out)
    return rows, den


def recurrence_holds(cur, nxt, terms) -> bool:
    """Whether z cur = nxt + sum(coef @ blk for coef, blk in terms) holds
    exactly, z the polynomial variable.

    cur, nxt and every blk are (rows, den) from int_block; every coef is a
    square matrix of rationals acting on the left. The identity is
    multiplied through by one common denominator, so each side is an
    integer combination of integer coefficient rows, and every
    coefficient of the residual must vanish.
    """
    (cr, cden), (nr, nden) = cur, nxt
    dens = [cden, nden]
    for coef, (_, den) in terms:
        dens.append(den * math.lcm(*(v.denominator for row in coef.rows for v in row)))
    K = math.lcm(*dens)
    mults = [
        (
            [[v.numerator * (K // (v.denominator * den)) for v in row] for row in coef.rows],
            rows,
        )
        for coef, (rows, den) in terms
    ]
    up, down = K // cden, K // nden
    size = len(cr)
    for i in range(size):
        for j in range(size):
            res = [0] * max(
                len(cr[i][j]) + 1,
                len(nr[i][j]),
                *(len(rows[l][j]) for _, rows in mults for l in range(size)),
            )
            for t, a in enumerate(cr[i][j]):
                res[t + 1] += up * a
            for t, a in enumerate(nr[i][j]):
                res[t] -= down * a
            for coef, rows in mults:
                for l, u in enumerate(coef[i]):
                    if u:
                        for t, a in enumerate(rows[l][j]):
                            res[t] -= u * a
            if any(res):
                return False
    return True


def matrix_ttrr(R: MatrixPolySequence) -> BlockTTRRCoeffs:
    """Extract the block recurrence y P_n = P_{n+1} + D_n P_n + C_n P_{n-1}.

    Blocks multiply on the left. P_n is monic, so D_n and C_n are read
    from the coefficients of y P_n - P_{n+1} at y^n and y^{n-1} (the
    latter after removing D_n P_n). The residual must then vanish as an
    exact polynomial identity, checked over the integer coefficient rows
    of each block with one denominator per block (recurrence_holds);
    anything nonzero raises IdentityViolated. Needs at least two blocks.
    """
    if not R.monic:
        raise IdentityViolated("block recurrence extraction expects monic blocks")
    m = len(R)
    if m < 2:
        raise InsufficientSequence("need at least two blocks for a recurrence step")
    b = R.block_size
    blocks = [int_block(R.mat(n)) for n in range(m)]

    def coeff(n: int, t: int) -> list[list[Fraction]]:
        rows, den = blocks[n]
        return [[Fraction(e[t] if 0 <= t < len(e) else 0, den) for e in row] for row in rows]

    diag = []
    sub = []
    for n in range(m - 1):
        top, nxt = coeff(n, n - 1), coeff(n + 1, n)
        D = Matrix.from_fn(b, b, lambda i, j: top[i][j] - nxt[i][j])
        terms = [(D, blocks[n])]
        diag.append(D)
        if n > 0:
            low, nlow = coeff(n, n - 2), coeff(n + 1, n - 1)
            C = Matrix.from_fn(
                b,
                b,
                lambda i, j: low[i][j] - nlow[i][j] - sum(D[i, l] * top[l][j] for l in range(b)),
            )
            terms.append((C, blocks[n - 1]))
            sub.append(C)
        if not recurrence_holds(blocks[n], blocks[n + 1], terms):
            raise IdentityViolated(f"block recurrence residual nonzero at n={n}")
    ident = Matrix.identity(b)
    return BlockTTRRCoeffs(
        BlockTridiagonal(tuple(diag), tuple(sub), tuple(ident for _ in range(len(diag) - 1)))
    )


def orthonormal_blocks(rec: BandedRecurrence, N: int) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Orthonormal block recurrence entries as SignedSquare matrices.

    With H the raw table of the N+1-st shift power against the scalar
    sequence, {B_n}_{ij} and {A_n}_{ij} are H entries scaled by the two
    squared norms; only squares and signs are rational, so that is what
    is exposed.
    """
    step = N + 1
    nblocks = rec.size // step

    def block(n: int, m: int) -> Matrix:
        return Matrix.from_fn(
            step, step, lambda i, j: rec.orthonormal_entry(step * n + i, step * m + j)
        )

    return (
        tuple(block(n, n + 1) for n in range(nblocks - 1)),
        tuple(block(n, n) for n in range(nblocks)),
    )


def leading_orthonormal_sq(scalars: MonicSequence, N: int, n: int) -> Matrix:
    """Squared leading coefficient of the orthonormal block, with signs.

    Entry (i,j) of the block-n leading coefficient is the x^{(N+1)n+j}
    coefficient of scalar (N+1)n+i divided by its norm, so the square and
    the sign are rational data.
    """
    step = N + 1
    return Matrix.from_fn(
        step,
        step,
        lambda i, j: SignedSquare.of(
            scalars.poly(step * n + i).coeff(step * n + j),
            1 / scalars.norm_sq(step * n + i),
        ),
    )
