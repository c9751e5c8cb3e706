"""Banded operator truncations and block-tridiagonal containers.

A BandedOperator stores an (size x size) truncation of a semi-infinite
banded operator together with its declared bandwidths; construction
rejects entries outside the band. Trust windows for identities on
truncations (which leading rows of a product are those of the infinite
operator) are computed at the call sites that know the semantics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BandViolation, DimensionMismatch
from .linalg import Matrix
from .rationals import as_fraction

__all__ = ["BandedOperator", "BlockTridiagonal"]


class BandedOperator:
    __slots__ = ("size", "lower", "upper", "rows")

    def __init__(self, size: int, lower: int, upper: int, rows: Sequence[Sequence]):
        rs = tuple(tuple(as_fraction(v) for v in r) for r in rows)
        if len(rs) != size or any(len(r) != size for r in rs):
            raise DimensionMismatch("banded storage must be size x size")
        for i in range(size):
            for j in range(size):
                if (j - i > upper or i - j > lower) and rs[i][j] != 0:
                    raise BandViolation(f"nonzero entry at ({i},{j}) outside band ({lower},{upper})")
        self.size = size
        self.lower = lower
        self.upper = upper
        self.rows = rs

    @classmethod
    def from_fn(cls, size: int, lower: int, upper: int, fn: Callable[[int, int], object]) -> "BandedOperator":
        rows = [
            [fn(i, j) if (-lower <= j - i <= upper) else Fraction(0) for j in range(size)]
            for i in range(size)
        ]
        return cls(size, lower, upper, rows)

    def entry(self, i: int, j: int) -> Fraction:
        if 0 <= i < self.size and 0 <= j < self.size:
            return self.rows[i][j]
        return Fraction(0)

    def to_matrix(self) -> Matrix:
        return Matrix(self.rows)

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.size) for j in range(i)
        )

    def __eq__(self, other):
        if not isinstance(other, BandedOperator):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    def __hash__(self):
        return hash((self.size, self.rows))

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
        """Exact equality of the leading nblocks-sized triangles of both operators."""
        if self.block_size != other.block_size:
            return False
        for n in range(nblocks):
            if self.diag[n] != other.diag[n]:
                return False
            if n + 1 < nblocks and (self.sub[n] != other.sub[n] or self.sup[n] != other.sup[n]):
                return False
        return True
