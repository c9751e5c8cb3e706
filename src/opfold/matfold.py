"""Folding scalar sequences into matrix orthogonal polynomials.

A scalar polynomial's Taylor coefficients at the fold centre c split along
exponent residues mod N+1; stacking the folds of N+1 consecutive sequence
members gives an (N+1)x(N+1) matrix polynomial in y = (x-c)^{N+1}, the
multiplication that is symmetric for the form. The block inner product
pairs each fold row, interleaved back into its scalar's integer row, with
the form's monomial Gram. Orthonormal block data is exposed as squared
rationals with signs. The block three-term recurrence of a fold
built here from a monic_sequence output is proven by that sequence's
shift-symmetry certificate (proof in matrix_ttrr); any other fold has each
step's residual checked over integer coefficient rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .banded import BlockTridiagonal
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    InsufficientSequence,
    SingularLeading,
    SingularMatrix,
)
from .linalg import Matrix, clear_denominators, inverse
from .orthopoly import (
    BandedRecurrence, MonicSequence, _shift_proven, checked_index, coeff_at, int_block, three_term_steps
)
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


def fold_decompose(s: Poly, N: int, c=0) -> FoldDecomposition:
    """Split the Taylor coefficients of s at c by exponent residue mod N+1;
    a negative N raises ValueError."""
    if N < 0:
        raise ValueError("N must be >= 0")
    c = as_fraction(c)
    taylor = s.shift(c).coeffs
    return FoldDecomposition(tuple(Poly(taylor[r :: N + 1]) for r in range(N + 1)), c)


@dataclass(frozen=True)
class MatrixPolySequence:
    """Matrix polynomials in y with exact entries.

    Row j of block n is the fold about c of scalar number (N+1)n+j; monic
    means every block has identity leading coefficient. The source scalars
    are kept for their form, whose Gram gives the block inner product.
    int_blocks[n] is block n as (rows, den) in the form of
    orthopoly.int_block. build_matrix_sequence and monic_normalize carry
    them, and mats is built from them on first read (==, hash and repr
    too); a sequence built by hand reads them off mats. The builders also
    mark, in a private _folded, whether the blocks are the fold of
    scalars (or its monic normalization).
    """

    mats: tuple[Matrix, ...]
    N: int
    monic: bool
    scalars: Optional[MonicSequence] = None
    c: Fraction = Fraction(0)
    int_blocks: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):  # by hand only: the builders do not call it
        object.__setattr__(self, "int_blocks", tuple(map(int_block, self.mats)))

    def __getattr__(self, name: str):  # reached only when lookup fails: mats not yet made
        if name != "mats":
            raise AttributeError(name)
        mats = [[[Poly(Fraction(a, d) for a in e) for e in r] for r in rows] for rows, d in self.int_blocks]
        object.__setattr__(self, name, tuple(map(Matrix, mats)))
        return self.mats

    def __len__(self) -> int:
        return len(self.int_blocks)

    @property
    def block_size(self) -> int:
        return self.N + 1

    def mat(self, n: int) -> Matrix:
        n = checked_index(n, len(self), "block")  # before mats is read
        return self.mats[n]

    def int_block(self, n: int):
        """Block n as (rows, den): int_blocks[n]."""
        return self.int_blocks[checked_index(n, len(self), "block")]

    def leading_coefficient(self, n: int) -> Matrix:
        rows, den = self.int_block(n)
        return Matrix([[Fraction(coeff_at(e, n), den) for e in row] for row in rows])


def _carrying(blocks, N: int, monic: bool, scalars, c, folded: bool) -> MatrixPolySequence:
    seq = object.__new__(MatrixPolySequence)  # mats is left to the view
    vars(seq).update(N=N, monic=monic, scalars=scalars, c=c, int_blocks=tuple(blocks), _folded=folded)
    return seq


def _reduced(rows, den: int):
    """(rows, den) over the least common denominator, trailing zeros
    dropped: the form int_block gives the same matrix."""
    g = den
    for row in rows:
        for e in row:
            while e and not e[-1]:
                e.pop()
            if g > 1:
                g = gcd(g, *e)
    if g > 1:
        rows = [[[a // g for a in e] for e in row] for row in rows]
    return rows, den // g


def _taylor_row(ints, den: int, c: Fraction):
    """(t, den') with t[k] / den' the coefficient of (x-c)^k in s, given
    s = sum ints[i] x^i / den and c = p/q: with f(X) = q^m s(X/q) den,
    m = deg s, an integer polynomial, s(c+u) = f(p + q u) / (den q^m),
    and f(p + v) is an integer Taylor shift by p."""
    if not c:
        return ints, den
    p, q, m = c.numerator, c.denominator, max(len(ints) - 1, 0)
    t = [a * q ** (m - i) for i, a in enumerate(ints)]
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            t[j] += p * t[j + 1]
    return [a * q**k for k, a in enumerate(t)], den * q**m


def build_matrix_sequence(seq: MonicSequence, N: int, c=0) -> MatrixPolySequence:
    """Stack folds about c of N+1 consecutive scalars into matrix blocks.

    Entry (i,j) of block n collects the powers of (x-c) congruent to j
    mod N+1 of scalar (N+1)n+i, so its degree is at most
    floor(((N+1)n+i-j)/(N+1)); the bound is asserted. The folds are
    sliced from integer Taylor rows at c of the sequence's int_rows, and
    each block is carried as (rows, den) on int_blocks. A negative N
    raises ValueError.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    c = as_fraction(c)
    step = N + 1
    scalars = [(r, r[-1]) for r in seq.int_rows]
    blocks = []
    for n in range(len(seq) // step):
        ks = range(step * n, step * n + step)
        taylor = [_taylor_row(*scalars[k], c) for k in ks]
        den = lcm(*(d for _, d in taylor))
        rows = [[[a * (den // d) for a in t[j::step]] for j in range(step)] for t, d in taylor]
        block = _reduced(rows, den)
        for i, row in enumerate(block[0]):
            for j, e in enumerate(row):
                if len(e) - 1 > (step * n + i - j) // step:
                    raise IdentityViolated(
                        f"fold degree bound violated at block {n} entry ({i},{j})"
                    )
        blocks.append(block)
    return _carrying(blocks, N, False, seq, c, True)


def matrix_gram(R: MatrixPolySequence, n: int, m: int) -> Matrix:
    """Block inner product from the integer rows against the form's Gram.

    Row i holds the parts e_j of a scalar s = sum_j (x-c)^j e_j((x-c)^{N+1}),
    so t[j + (N+1)a] = e_j[a] is its Taylor row at c. The Taylor row of
    s(u+c) at -c is s's monomial row u (_taylor_row), and entry (i,j) is
    u_i^T G u_j over the denominators, G the form's monomial Gram; no Poly
    is built. Blocks of a folded orthogonal sequence are diagonal for
    n = m and vanish otherwise.
    """
    if R.scalars is None:
        raise DimensionMismatch("no scalar form available for this sequence")
    step, form = R.block_size, R.scalars.form

    def monomial_rows(k: int):
        rows, den = R.int_block(k)
        for row in rows:  # the parts carry no trailing zeros, so t carries none
            t = [0] * max(j + step * (len(e) - 1) + 1 for j, e in enumerate(row))
            for j, e in enumerate(row):
                t[j : j + step * len(e) : step] = e
            yield _taylor_row(t, den, -R.c)

    us, vs = list(monomial_rows(n)), list(monomial_rows(m))
    top = max(len(u) for u, _ in us + vs) - 1
    G, gden = form.gram(max(top, 0))  # past the moments: InsufficientMoments
    Gv = [([sum(map(mul, G[k], v)) for k in range(top + 1)], dv) for v, dv in vs]
    return Matrix([[Fraction(sum(map(mul, u, w)), du * dv * gden) for w, dv in Gv] for u, du in us])


@dataclass(frozen=True)
class MonicNormalization:
    """Monic blocks P_n with the leading coefficients that were divided out."""

    sequence: MatrixPolySequence
    leadings: tuple[Matrix, ...]


def _lead_inverse(lead: Matrix, n: int) -> list[list[Fraction]]:
    """The rows of L^-1, L the leading coefficient of block n: by forward
    substitution when L is unit lower triangular, else by elimination."""
    size = lead.nrows
    if any(lead[i, j] != int(i == j) for i in range(size) for j in range(i, size)):
        try:
            return inverse(lead).rows
        except SingularMatrix as exc:
            raise SingularLeading(f"leading coefficient of block {n} is singular") from exc
    inv: list[list] = []
    for i in range(size):
        inv.append([int(i == j) - sum(lead[i, k] * inv[k][j] for k in range(j, i)) for j in range(size)])
    return inv


def _lincomb(coefs, polys) -> list[int]:
    """sum(u * p for u, p in zip(coefs, polys)) over integer coefficient lists."""
    acc = [0] * max(map(len, polys))
    for u, p in zip(coefs, polys):
        if u:
            for t, a in enumerate(p):
                acc[t] += u * a
    return acc


def monic_normalize(R: MatrixPolySequence) -> MonicNormalization:
    """Left-divide each block by its leading coefficient.

    The leading coefficient L_n is read off the integer rows of block n,
    and L_n^-1 is applied to them in integers. A fold of a monic
    sequence has unit lower triangular leading coefficients: entry (i,j)
    of block n has degree below n when i < j, and the diagonal holds the
    leading coefficients of the scalars. Any singular leading
    coefficient raises SingularLeading.
    """
    blocks, leadings = [], []
    for n in range(len(R)):
        rows, den = R.int_block(n)
        lead = R.leading_coefficient(n)
        inv = _lead_inverse(lead, n)
        ints, iden = clear_denominators([v for row in inv for v in row])
        cols = list(zip(*rows))
        size = len(rows)
        scaled = [[_lincomb(ints[i * size : (i + 1) * size], col) for col in cols] for i in range(size)]
        brows, bden = block = _reduced(scaled, den * iden)
        if any(
            coeff_at(e, n) != bden * (i == j) for i, row in enumerate(brows) for j, e in enumerate(row)
        ):
            raise IdentityViolated(f"block {n} failed to become monic")
        blocks.append(block)
        leadings.append(lead)
    seq = _carrying(blocks, R.N, True, R.scalars, R.c, vars(R).get("_folded", False))
    return MonicNormalization(seq, tuple(leadings))


@dataclass(frozen=True)
class BlockTTRRCoeffs:
    """Three-term block recurrence data: monic holds the block Jacobi
    operator (diagonal D_n, subdiagonal C_n, identity superdiagonal)
    extracted with zero residual."""

    monic: BlockTridiagonal


def matrix_ttrr(R: MatrixPolySequence) -> BlockTTRRCoeffs:
    """Extract the block recurrence y P_n = P_{n+1} + D_n P_n + C_n P_{n-1}.

    The extraction is orthopoly.three_term_steps on the monic blocks, of
    which jacobi_matrix is the 1x1 case; a nonzero residual raises
    IdentityViolated. Needs at least two blocks.

    The residual is proven zero, not checked, when R is the monic
    normalization of a fold built here from a monic_sequence output whose
    form has y = (x-c)^{N+1} self-adjoint on degree len(scalars) - N - 2,
    for the fold's own c and N (orthopoly._shift_proven). Then each
    scalar row m of block n <= len(R) - 2 has its band expansion
    y s_m = sum_{|k-m| <= N+1} H_mk s_k (proof in banded_recurrence), its
    members in blocks n-1 .. n+1, and since the fold of a polynomial is
    unique, the raw blocks satisfy
    y R_n = A_n R_{n+1} + B_n R_n + C_n R_{n-1} with constant A_n, B_n,
    C_n. With P_n = L_n^{-1} R_n monic of degree n, comparing the
    coefficients of y^{n+1} forces the coefficient of P_{n+1} to be I, and
    those of y^n and y^{n-1} then give D_n and C_n, the ones read off: the
    residual vanishes. Any other R has each residual checked over integer
    coefficient rows.
    """
    if not R.monic:
        raise IdentityViolated("block recurrence extraction expects monic blocks")
    if len(R) < 2:
        raise InsufficientSequence("need at least two blocks for a recurrence step")
    blocks = [R.int_block(n) for n in range(len(R))]
    proven = vars(R).get("_folded", False) and _shift_proven(R.scalars, R.c, R.N)
    steps = list(three_term_steps(blocks, "block recurrence", proven))
    diag = tuple(D for _, D, _ in steps)
    sub = tuple(C for _, _, C in steps[1:])
    return BlockTTRRCoeffs(BlockTridiagonal(diag, sub, (Matrix.identity(R.block_size),) * len(sub)))


def orthonormal_blocks(rec: BandedRecurrence) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Orthonormal block recurrence entries as SignedSquare matrices.

    With H the raw table of the N+1-st shift power against the scalar
    sequence, rec.N its own, {B_n}_{ij} and {A_n}_{ij} are H entries
    scaled by the two squared norms; only squares and signs are rational,
    so that is what is exposed.
    """
    step = rec.N + 1
    nblocks = rec.size // step

    def block(n: int, m: int) -> Matrix:
        return Matrix.from_fn(
            step, step, lambda i, j: rec.orthonormal_entry(step * n + i, step * m + j)
        )

    return (
        tuple(block(n, n + 1) for n in range(nblocks - 1)),
        tuple(block(n, n) for n in range(nblocks)),
    )


def leading_orthonormal_sq(R: MatrixPolySequence, n: int) -> Matrix:
    """Squared leading coefficient of the orthonormal block, with signs.

    Entry (i,j) is entry (i,j) of the leading coefficient of block n of
    the raw fold R, the (x-c)^{(N+1)n+j} Taylor coefficient of scalar
    (N+1)n+i, divided by that scalar's norm, so the square and the sign
    are rational data.
    """
    if R.monic or R.scalars is None:
        raise DimensionMismatch("leading orthonormal blocks need a raw fold with its scalars")
    step = R.block_size
    lead = R.leading_coefficient(n)
    return Matrix.from_fn(
        step,
        step,
        lambda i, j: SignedSquare.of(lead[i, j], 1 / R.scalars.norm_sq(step * n + i)),
    )
