"""Banded operator truncations and block-tridiagonal containers.

A BandedOperator stores an (size x size) truncation of a semi-infinite
banded operator as its band only, together with its declared bandwidths;
the dense constructor rejects entries outside the band, and from_fn
computes the band and nothing else. Trust windows for identities on
truncations (which leading rows of a product are those of the infinite
operator) are computed at the call sites that know the semantics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BandViolation, DimensionMismatch, InsufficientSequence
from .linalg import Matrix
from .rationals import as_fraction

__all__ = ["BandedOperator", "BlockTridiagonal"]


class BandedOperator:
    """band[i] holds row i over the columns max(0, i - lower) .. i + upper
    that fit the size; every other entry is zero."""

    __slots__ = ("size", "lower", "upper", "band")

    def __init__(self, size: int, lower: int, upper: int, rows: Sequence[Sequence]):
        rs = tuple(tuple(as_fraction(v) for v in r) for r in rows)
        if len(rs) != size or any(len(r) != size for r in rs):
            raise DimensionMismatch("banded storage must be size x size")
        for i in range(size):
            for j in range(size):
                if (j - i > upper or i - j > lower) and rs[i][j] != 0:
                    raise BandViolation(f"nonzero entry at ({i},{j}) outside band ({lower},{upper})")
        self.size, self.lower, self.upper = size, lower, upper
        self.band = tuple(tuple(rs[i][j] for j in self._cols(i)) for i in range(size))

    @classmethod
    def from_fn(cls, size: int, lower: int, upper: int, fn: Callable[[int, int], object]) -> "BandedOperator":
        """Entry (i, j) is fn(i, j) in the band; fn is called nowhere else."""
        op = cls.__new__(cls)
        op.size, op.lower, op.upper = size, lower, upper
        op.band = tuple(tuple(as_fraction(fn(i, j)) for j in op._cols(i)) for i in range(size))
        return op

    def _cols(self, i: int) -> range:
        return range(max(0, i - self.lower), min(self.size, i + self.upper + 1))

    def entry(self, i: int, j: int) -> Fraction:
        if 0 <= i < self.size and 0 <= j < self.size and -self.lower <= j - i <= self.upper:
            return self.band[i][j - max(0, i - self.lower)]
        return Fraction(0)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense size x size rows, built on each call."""
        zero, cols = (Fraction(0),), map(self._cols, range(self.size))
        return tuple(zero * c.start + r + zero * (self.size - c.stop) for r, c in zip(self.band, cols))

    def to_matrix(self) -> Matrix:
        return Matrix(self.rows)

    def _nonzero(self) -> tuple:
        return tuple(
            (i, j, v) for i, r in enumerate(self.band) for j, v in zip(self._cols(i), r) if v
        )

    @property
    def is_symmetric(self) -> bool:
        return all(self.entry(j, i) == v for i, j, v in self._nonzero())

    def __eq__(self, other):
        if not isinstance(other, BandedOperator):
            return NotImplemented
        return self.size == other.size and self._nonzero() == other._nonzero()

    def __hash__(self):
        return hash((self.size, self._nonzero()))

    def __repr__(self):
        return f"BandedOperator(size={self.size}, lower={self.lower}, upper={self.upper})"


@dataclass(frozen=True)
class BlockTridiagonal:
    """Block-tridiagonal truncation: diag blocks D_n, sub C_n (row n+1), sup U_n."""

    diag: tuple[Matrix, ...]
    sub: tuple[Matrix, ...]
    sup: tuple[Matrix, ...]

    def __post_init__(self):
        if self.diag:
            b = self.diag[0].nrows
            for m in (*self.diag, *self.sub, *self.sup):
                if m.shape != (b, b):
                    raise DimensionMismatch("all blocks must share one square size")
        if len(self.sub) != max(0, len(self.diag) - 1) or len(self.sup) != len(self.sub):
            raise DimensionMismatch("need exactly nblocks-1 off-diagonal blocks")

    @property
    def nblocks(self) -> int:
        return len(self.diag)

    @property
    def block_size(self) -> int:
        return self.diag[0].nrows if self.diag else 0

    def agree_through(self, other: "BlockTridiagonal", nblocks: int) -> bool:
        """Exact equality of the leading nblocks-sized triangles of both
        operators; InsufficientSequence unless both have nblocks blocks."""
        built = min(self.nblocks, other.nblocks)
        if not 0 <= nblocks <= built:
            raise InsufficientSequence(
                f"agreement through {nblocks} blocks requested, only {built} built"
            )
        if self.block_size != other.block_size:
            return False
        for n in range(nblocks):
            if self.diag[n] != other.diag[n]:
                return False
            if n + 1 < nblocks and (self.sub[n] != other.sub[n] or self.sup[n] != other.sup[n]):
                return False
        return True
