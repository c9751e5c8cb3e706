"""Exact dense matrices and the package's exact elimination kernels.

Matrix is generic over its entry ring (rationals for numeric work,
Poly entries for polynomial matrices); the kernels below require
Fraction entries. This module is the only home of exact elimination:

- solve_linear: fraction-free Bareiss over denominator-cleared rows;
- ldlt: the one symmetric (optionally banded) LDL^T, whose pivot policy
  covers the banded H = T T* factorization, Hankel positive-definiteness
  and PSD tests;
- exact_nullspace / nullspace: a certified multi-modular nullspace.
  Elimination runs modulo primes drawn lazily from a deterministic
  stream of 61-bit primes; the candidate basis is rationally
  reconstructed and verified exactly over the integers, and the number
  of primes is bounded by the Hadamard bound of the input. The GF(p)
  step is a sparse elimination with deferred reduction (pivot rows held
  as their nonzero entries, entries reduced mod p only when read as a
  multiplier, back substitution from the rightmost pivot); its output is
  the canonical RREF mod p. The first prime tries a certificate from the
  rows so far whenever a run of rows that leave the rank unchanged
  reaches twice the longest before it (or 1): all rows have no larger
  nullity over Q than a prefix has mod p, so that many vectors verified
  against every row are the whole nullspace.

Everything here is pure Python: numpy would cost more to import than a
whole verify-paper setup takes.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NumericalInstability,
    SingularMatrix,
)
from .rationals import as_fraction

__all__ = ["Matrix", "solve_linear", "inverse", "ldlt", "exact_nullspace", "nullspace"]


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(r) for r in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", rs)

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int, zero=Fraction(0)) -> "Matrix":
        return cls(tuple((zero,) * ncols for _ in range(nrows)))

    @classmethod
    def from_fn(cls, nrows: int, ncols: int, fn: Callable[[int, int], object]) -> "Matrix":
        return cls(tuple(tuple(fn(i, j) for j in range(ncols)) for i in range(nrows)))

    @classmethod
    def rational(cls, rows: Iterable[Iterable]) -> "Matrix":
        """Build with every entry coerced through as_fraction."""
        return cls(tuple(tuple(as_fraction(v) for v in r) for r in rows))

    # -- structure ----------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i: int):
        return self.rows[i]

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, scalar):
        return Matrix(tuple(tuple(a * scalar for a in r) for r in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        cols = other.ncols
        out = []
        for ra in self.rows:
            orow = []
            for j in range(cols):
                acc = None
                for a, rb in zip(ra, other.rows):
                    term = a * rb[j]
                    acc = term if acc is None else acc + term
                orow.append(acc if acc is not None else Fraction(0))
            out.append(tuple(orow))
        return Matrix(tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows))) if self.rows else self

    def map(self, fn: Callable) -> "Matrix":
        return Matrix(tuple(tuple(fn(a) for a in r) for r in self.rows))

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"Matrix([{body}])"


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, den) with values[i] == ints[i] / den, den the lcm of the
    denominators of the int or Fraction values."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_rows(mat_rows: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row by row (row scaling leaves solution sets alone)."""
    return [clear_denominators([as_fraction(v) for v in r])[0] for r in mat_rows]


def solve_linear(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b exactly via fraction-free Bareiss elimination.

    a must be square with Fraction entries; b is a matrix of right-hand
    sides (one per column). Raises SingularMatrix when no unique solution
    exists.
    """
    if not a.is_square:
        raise DimensionMismatch("coefficient matrix must be square")
    n = a.nrows
    if b.nrows != n:
        raise DimensionMismatch("right-hand side has wrong row count")
    m = b.ncols
    work = _int_rows([list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k] != 0), None)
        if piv is None:
            raise SingularMatrix(f"rank deficiency at column {k}")
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
        pk = work[k][k]
        for i in range(k + 1, n):
            lik = work[i][k]
            row = work[i]
            prow = work[k]
            for j in range(k + 1, n + m):
                row[j] = (row[j] * pk - lik * prow[j]) // prev
            row[k] = 0
        prev = pk
    # back substitution with exact rationals
    sol = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(m):
            acc = Fraction(work[i][n + j])
            for k in range(i + 1, n):
                acc -= work[i][k] * sol[k][j]
            sol[i][j] = acc / work[i][i]
    return Matrix(tuple(tuple(r) for r in sol))


def inverse(a: Matrix) -> Matrix:
    return solve_linear(a, Matrix.identity(a.nrows))


_PIVOT_POLICIES = ("nonzero", "positive", "psd")


def ldlt(g: Matrix, bandwidth: Optional[int] = None, pivots: str = "nonzero"):
    """Symmetric factorization g = L D L^T with unit lower L.

    Returns (L rows, D pivots) as plain lists. With a bandwidth, entries
    of g and L farther than that below the diagonal are taken as zero.
    The pivot policy decides which pivots are fatal:

    - "nonzero": a zero pivot raises SingularMatrix (quasi-definite
      inputs are legal);
    - "positive": the first nonpositive pivot raises NotPositiveDefinite;
    - "psd": a negative pivot, or a zero pivot whose remaining column is
      not all zero, raises NotPositiveDefinite; a zero pivot over a zero
      column is skipped, so the call decides positive semidefiniteness.

    A negative bandwidth raises ValueError.
    """
    if pivots not in _PIVOT_POLICIES:
        raise ValueError(f"pivot policy must be one of {_PIVOT_POLICIES}")
    if bandwidth is not None and bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    n = g.nrows
    w = n if bandwidth is None else bandwidth
    a = g.rows
    L = [[Fraction(0)] * n for _ in range(n)]
    D: list[Fraction] = []
    for j in range(n):
        Lj = L[j]
        d = as_fraction(a[j][j])
        for k in range(max(0, j - w), j):
            d -= Lj[k] * Lj[k] * D[k]
        if d < 0 and pivots != "nonzero" or d == 0 and pivots == "positive":
            raise NotPositiveDefinite(j, d)
        if d == 0 and pivots == "nonzero":
            raise SingularMatrix(f"zero pivot at index {j}")
        D.append(d)
        Lj[j] = Fraction(1)
        for i in range(j + 1, min(n, j + w + 1)):
            Li = L[i]
            v = as_fraction(a[i][j])
            for k in range(max(0, i - w), j):
                v -= Li[k] * Lj[k] * D[k]
            if d == 0:
                if v != 0:
                    raise NotPositiveDefinite(j, d)
            else:
                Li[j] = v / d
    return L, D


# -- certified nullspace via modular elimination --------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic witness set for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The deterministic stream of primes above 2**61, in increasing order."""
    candidate = (1 << 61) + 1
    while True:
        if _is_probable_prime(candidate):
            yield candidate
        candidate += 2


def _mod_reduce(tails: dict, raw, ncols: int, p: int) -> bool:
    """Eliminate one integer row mod p against the pivot rows in tails;
    if it raises the rank, store it as a new pivot row and return True.

    Each pivot row is held as its nonzero (column, value) pairs right of
    its lead, normalised to lead 1, keyed by its lead. The row is reduced
    against the pivots in increasing column order with deferred
    reduction: an entry is taken mod p only when it is read as a
    multiplier, and the row once more when it becomes a pivot.
    """
    row = list(raw)
    lead = None
    for c in range(ncols):
        x = row[c]
        if not x:
            continue
        x %= p
        if not x:
            continue
        tail = tails.get(c)
        if tail is None:
            if lead is None:
                lead = c
            continue
        row[c] = 0
        for j, v in tail:
            row[j] -= x * v
    if lead is None:
        return False
    inv = pow(row[lead] % p, p - 2, p)
    tail = []
    for j in range(lead + 1, ncols):
        x = row[j]
        if x:
            x = x * inv % p
            if x:
                tail.append((j, x))
    tails[lead] = tail
    return True


def _mod_rref(tails: dict, ncols: int, p: int):
    """(pivot_cols, free_cols, vector) of the pivot rows in tails, with
    vector(f) the canonical RREF null vector mod p at free column f.

    Back substitution runs from the rightmost pivot, so each pivot row it
    reads is already reduced to free columns; a vector is built only when
    asked for.
    """
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(tails, reverse=True):
        acc: dict[int, int] = {}
        for j, v in tails[c]:
            right = reduced.get(j)
            if right is None:
                acc[j] = acc.get(j, 0) + v
            else:
                for f, w in right.items():
                    acc[f] = acc.get(f, 0) - v * w
        reduced[c] = {f: w % p for f, w in acc.items() if w % p}

    def vector(f: int) -> list[int]:
        vec = [0] * ncols
        vec[f] = 1
        for c, right in reduced.items():
            w = right.get(f)
            if w:
                vec[c] = p - w
        return vec

    free = [c for c in range(ncols) if c not in tails]
    return tuple(sorted(tails)), free, vector


def _rational_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """Wang reconstruction: p/q = a mod m with |p|, q <= sqrt(m/2)."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1 * (1 if s1 > 0 else -1), abs(s1))


def _verify_null_vector(int_rows, vec: list[Fraction]) -> bool:
    ints = _int_rows([vec])[0]
    idx = [i for i, v in enumerate(ints) if v]
    return all(not sum(row[i] * ints[i] for i in idx) for row in int_rows)


def _reconstruct_basis(residues, modulus: int, int_rows) -> Optional[list[list[Fraction]]]:
    """Rational lift of every residue vector, or None unless all verify.

    residues may be lazy: each vector is read only once those before it
    have verified, so a failure costs one vector, not a basis."""
    basis = []
    for v in residues:
        vec = []
        for x in v:
            q = _rational_reconstruct(x, modulus)
            if q is None:
                return None
            vec.append(q)
        if not _verify_null_vector(int_rows, vec):
            return None
        basis.append(vec)
    return basis


def exact_nullspace(int_rows, ncols: int) -> list[list[Fraction]]:
    """Proven exact nullspace basis of an integer matrix (canonical RREF).

    Modular elimination gives the structure and a dimension upper bound
    (reduction mod p never shrinks a nullspace); candidates are rationally
    reconstructed and verified over the integers, which makes the basis a
    certificate rather than a guess. Primes come lazily from a fixed
    deterministic stream, so runs are reproducible.

    Every prime eliminates the rows one at a time, in their order. The
    first, while no structure is chosen, also attempts a certificate
    from the rows so far whenever the rank has stopped growing: at the
    first row that leaves the rank unchanged, and again each time a run
    of such rows reaches twice the longest run before it. Let k be the
    nullity mod p of the prefix. The nullity over Q of all rows is at
    most that of the prefix, which is at most k, so k vectors verified
    against every row, each with the identity on its own free column,
    span the whole nullspace. A null vector whose last nonzero entry is
    at f proves that f is a free column over Q, so they are also the
    canonical RREF basis: the same basis as from all rows. The attempt
    first tests the first free column's vector mod p against the row
    after the prefix, and is dropped before any reconstruction when that
    row does not annihilate it: a verified basis vector is null for every
    row, so its residues are null mod p for that row, and the test never
    drops an attempt that would succeed. Otherwise it reconstructs and
    verifies that vector before it builds the others. If no attempt
    succeeds, that prime's elimination goes on to the last row.

    From there on the structure with the fewest free columns, then the
    smallest pivot columns, wins; only primes that agree on it are
    combined by CRT. Every basis entry is a ratio of minors bounded by
    the Hadamard bound H of the rows, so once the combined modulus
    exceeds 2 H^2 a correct structure must verify, and failing that
    raises NumericalInstability.
    """
    rows = [r for r in int_rows if any(r)]
    key = residues = modulus = limit = None
    for p in _primes():
        tails: dict[int, list[tuple[int, int]]] = {}
        run = longest = 0
        for i, raw in enumerate(rows):
            if _mod_reduce(tails, raw, ncols, p):
                longest, run = max(longest, run), 0
                continue
            run += 1
            if key is None and run == max(1, 2 * longest):
                _, free, vector = _mod_rref(tails, ncols, p)
                if free and i + 1 < len(rows) and sum(map(mul, rows[i + 1], vector(free[0]))) % p:
                    continue
                candidate = _reconstruct_basis(map(vector, free), p, rows)
                if candidate is not None:
                    return candidate
        piv, free, vector = _mod_rref(tails, ncols, p)
        basis = [vector(f) for f in free]
        structure = (len(free), piv)
        if key is None or structure < key:
            key, residues, modulus = structure, basis, p
        elif structure == key:
            # CRT: one inverse of the old modulus per prime serves every entry
            inv = pow(modulus % p, p - 2, p)
            for v, w in zip(residues, basis):
                for c in range(ncols):
                    v[c] += modulus * ((w[c] - v[c]) * inv % p)
            modulus *= p
        else:
            continue
        candidate = _reconstruct_basis(residues, modulus, rows)
        if candidate is not None:
            return candidate
        if limit is None:
            # 2 H^2, only once a reconstruction has failed: most systems
            # verify at their first prime and never need it
            limit = 2 * prod(sum(v * v for v in r) for r in rows)
        if modulus > limit:
            raise NumericalInstability(
                "rational reconstruction failed past the Hadamard bound"
            )


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Exact rational nullspace basis of a (canonical RREF convention)."""
    return exact_nullspace(_int_rows(a.rows), a.ncols)
