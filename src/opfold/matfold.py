"""Folding scalar sequences into matrix orthogonal polynomials.

A scalar polynomial's Taylor coefficients at the fold centre c split along
exponent residues mod N+1; stacking the folds of N+1 consecutive sequence
members gives an (N+1)x(N+1) matrix polynomial in y = (x-c)^{N+1}, the
multiplication that is symmetric for the form. All matrix inner products
reduce to scalar form evaluations of the underlying polynomials, which
keeps every identity in rational arithmetic. Orthonormal block data is exposed
as squared rationals with signs.
"""
from __future__ import annotations

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
from .orthopoly import BandedRecurrence, MonicSequence, three_term_steps
from .poly import Poly
from .rationals import SignedSquare, as_fraction

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
    """Components q_0..q_N with s(x) = sum_k (x-c)^k q_k((x-c)^{N+1})."""

    parts: tuple[Poly, ...]
    c: Fraction = Fraction(0)

    @property
    def N(self) -> int:
        return len(self.parts) - 1

    def reassemble(self) -> Poly:
        step = len(self.parts)
        out = Poly()
        for k, q in enumerate(self.parts):
            out = out + Poly.monomial(k) * q.stretch(step)
        return out.shift(-self.c)


def fold_decompose(s: Poly, N: int, c=0) -> FoldDecomposition:
    """Split the Taylor coefficients of s at c by exponent residue mod N+1."""
    c = as_fraction(c)
    taylor = s.shift(c).coeffs
    return FoldDecomposition(tuple(Poly(taylor[r :: N + 1]) for r in range(N + 1)), c)


@dataclass(frozen=True)
class MatrixPolySequence:
    """Matrix polynomials in y with exact entries.

    Row j of block n is the fold about c of scalar number (N+1)n+j; monic
    means every block has identity leading coefficient. The source scalars
    are kept so inner products can be reduced to the scalar form.
    """

    mats: tuple[Matrix, ...]
    N: int
    monic: bool
    scalars: Optional[MonicSequence] = None
    c: Fraction = Fraction(0)

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
        return FoldDecomposition(tuple(m[i, j] for j in range(m.ncols)), self.c).reassemble()


def build_matrix_sequence(seq: MonicSequence, N: int, c=0) -> MatrixPolySequence:
    """Stack folds about c of N+1 consecutive scalars into matrix blocks.

    Entry (i,j) of block n collects the powers of (x-c) congruent to j
    mod N+1 of scalar (N+1)n+i, so its degree is at most
    floor(((N+1)n+i-j)/(N+1)); the bound is asserted.
    """
    c = as_fraction(c)
    step = N + 1
    mats = []
    for n in range(len(seq) // step):
        rows = []
        for i in range(step):
            parts = fold_decompose(seq.poly(step * n + i), N, c).parts
            for j, q in enumerate(parts):
                if q.degree > (step * n + i - j) // step:
                    raise IdentityViolated(
                        f"fold degree bound violated at block {n} entry ({i},{j})"
                    )
            rows.append(parts)
        mats.append(Matrix(rows))
    return MatrixPolySequence(tuple(mats), N, monic=False, scalars=seq, c=c)


def matrix_gram(R: MatrixPolySequence, n: int, m: int) -> Matrix:
    """Block inner product by scalar reduction.

    Entry (i,j) equals the scalar form applied to the rows reassembled
    about the fold centre; no quadrature against the matrix weight is ever
    performed. Blocks of a folded orthogonal sequence are diagonal for
    n = m and vanish otherwise.
    """
    if R.scalars is None:
        raise DimensionMismatch("no scalar form available for this sequence")
    rows_n = [R.row_scalar(n, i) for i in range(R.block_size)]
    rows_m = [R.row_scalar(m, j) for j in range(R.block_size)]
    return Matrix.from_fn(
        R.block_size, R.block_size, lambda i, j: R.scalars.form(rows_n[i], rows_m[j])
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
    seq = MatrixPolySequence(tuple(mats), R.N, monic=True, scalars=R.scalars, c=R.c)
    return MonicNormalization(seq, tuple(leadings))


@dataclass(frozen=True)
class BlockTTRRCoeffs:
    """Three-term block recurrence data: monic holds the block Jacobi
    operator (diagonal D_n, subdiagonal C_n, identity superdiagonal)
    extracted with zero residual."""

    monic: BlockTridiagonal


def matrix_ttrr(R: MatrixPolySequence) -> BlockTTRRCoeffs:
    """Extract the block recurrence y P_n = P_{n+1} + D_n P_n + C_n P_{n-1}.

    The extraction and its exact residual check over integer coefficient
    rows are orthopoly.three_term_steps on the monic blocks, of which
    jacobi_matrix is the 1x1 case; a nonzero residual raises
    IdentityViolated. Needs at least two blocks.
    """
    if not R.monic:
        raise IdentityViolated("block recurrence extraction expects monic blocks")
    if len(R) < 2:
        raise InsufficientSequence("need at least two blocks for a recurrence step")
    steps = list(three_term_steps(R.mats, "block recurrence"))
    diag = tuple(D for _, D, _ in steps)
    sub = tuple(C for _, _, C in steps[1:])
    return BlockTTRRCoeffs(BlockTridiagonal(diag, sub, (Matrix.identity(R.block_size),) * len(sub)))


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
