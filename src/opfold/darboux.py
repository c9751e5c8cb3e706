"""Factorization engine: banded Cholesky-type splits, the shifted-Jacobi
power identity, and block LU/UL Darboux swaps with zeta extraction.

Exact assertions all live in the monic-conjugated picture; the orthonormal
statements (which involve square roots) are re-checked in floating point
with transpose as the adjoint. H = T T* and (J-c)^{N+1} = T* T are Gram
products of the rows and of the columns of a banded T, and one kernel
checks both inside the band, as integer dot products over one
denominator per row or column. Each square root is held as a float and
a power of two that is applied only to orthonormal entries, which stay
near 1 where the norms overflow a float. The interlaced recurrence is
checked as its two identities in the folded variable y = (x-c)^{N+1},
for any N and c, exact over integer coefficient rows; at N = 1, c = 0
they read x W_n = W_{n+1} + zeta_n W_{n-1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional

from .banded import BandedOperator, BlockTridiagonal
from .errors import DimensionMismatch, IdentityViolated, SingularMatrix, SingularPivotBlock
from .linalg import Matrix, clear_denominators, ldlt, solve_linear
from .orthopoly import (
    BandedRecurrence, ConnectionMatrix, JacobiMatrix, checked_index, int_block, recurrence_holds
)
from .rationals import as_fraction, ldexp2, rat_str, split_csqrt, split_float

__all__ = [
    "BandFactorization",
    "band_symmetric_factorize",
    "verify_h_factorization",
    "verify_ul_identity",
    "ZetaSequence",
    "BlockLU",
    "block_lu",
    "darboux_swap",
    "w_interlace_check",
]


@dataclass(frozen=True)
class BandFactorization:
    """Unit-lower banded factor with diagonal pivots: H_raw = T D T^t.

    pivots[j] is the squared norm of the j-th shifted-basis polynomial, so
    the orthonormal factor entry squares to T^2 * pivot_j / nu_n.
    """

    T_monic: BandedOperator
    pivots: tuple[Fraction, ...]
    bandwidth: int

    @property
    def size(self) -> int:
        return self.T_monic.size


def band_symmetric_factorize(
    H_raw: BandedOperator, bandwidth: int, require_positive: bool = True
) -> BandFactorization:
    """Banded LDL^T of a symmetric table; L inherits the lower bandwidth.

    Factoring a leading principal submatrix gives the leading principal
    part of the semi-infinite factorization, so every returned row is
    trusted. With require_positive a nonpositive pivot raises
    NotPositiveDefinite; otherwise only a zero pivot is fatal. A negative
    bandwidth raises ValueError (from ldlt).
    """
    if not H_raw.is_symmetric:
        raise IdentityViolated("factorization input is not symmetric")
    L, D = ldlt(
        H_raw.to_matrix(), bandwidth, "positive" if require_positive else "nonzero"
    )
    T = BandedOperator.from_fn(H_raw.size, bandwidth, 0, lambda i, j: L[i][j])
    return BandFactorization(T, tuple(D), bandwidth)


@dataclass(frozen=True)
class FactorizationReport:
    exact_ok: bool
    trusted_rows: int
    float_max_rel: float
    worst_entry: Optional[tuple[int, int]] = None


FLOAT_TOL = 1e-12  # relative, on orthonormal entries near 1


def _band(size: int, width: int, i: int) -> range:
    return range(max(0, i - width), min(size, i + width + 1))


def _orthonormal(value, left, right):
    """Float of value * left / right, with value a rational and left, right
    split roots (r, e); the exponents are applied to the quotient only,
    which stays near 1 where the roots themselves overflow a float."""
    f, e = split_float(value)
    return ldexp2(complex(f) * left[0] / right[0], e + left[1] - right[1])


def _dot(lo_a: int, a: list, lo_b: int, b: list):
    """Sum of a_k b_k over the indices k both lines cover, in increasing
    order from 0, where a_k is a[k - lo_a] and b_k is b[k - lo_b]."""
    first = max(lo_a, lo_b)
    stop = min(lo_a + len(a), lo_b + len(b))
    if first >= stop:
        return 0
    return sum(map(mul, a[first - lo_a : stop - lo_a], b[first - lo_b : stop - lo_b]))


def _band_gram(width: int, a: list, b: list, target: list, message: str, floats):
    """Check target = A B^t on the pairs |i - j| <= width, row by row,
    exactly and then in floats; the report has a row per target line.

    Line i of A, of B and of the target is (lo, ints, den): row i from
    column lo on, as integers over one denominator. Entry (i, j) of A B^t
    is one integer dot product, compared with the target by
    cross-multiplication; only the first mismatch builds the Fractions
    that message formats with i and j. floats() then gives the float lines
    (lo, values) of one matrix F and the float target rows {j: value},
    checked against F F^t to FLOAT_TOL relative to the largest target
    entry (or 1). Each float sum adds the same nonzero terms in the same
    order as the dense product, so the report is that of the dense check
    bit for bit.
    """
    size = len(target)
    for i, (lo, t, tden) in enumerate(target):
        lo_a, x, aden = a[i]
        for j in _band(size, width, i):
            lo_b, y, bden = b[j]
            acc = _dot(lo_a, x, lo_b, y)
            if t[j - lo] * aden * bden != tden * acc:
                product, want = Fraction(acc, aden * bden), Fraction(t[j - lo], tden)
                raise IdentityViolated(
                    message.format(i=i, j=j, product=rat_str(product), target=rat_str(want))
                )
    lines, ftarget = floats()
    err, scale, worst = 0.0, 1.0, None
    for i in range(size):
        for j in _band(size, width, i):
            t = ftarget[i][j]
            scale = max(scale, abs(t))
            d = abs(t - _dot(*lines[i], *lines[j]))
            if d > err:
                err, worst = d, (i, j)
    rel = err / scale
    if rel > FLOAT_TOL:
        raise IdentityViolated(f"orthonormal float check failed: {rel} at {worst}")
    return FactorizationReport(True, size, rel, worst)


def verify_h_factorization(rec: BandedRecurrence, fact: BandFactorization) -> FactorizationReport:
    """Check H = T T^* both ways, inside the band (_band_gram).

    Exact route: the raw table is the product of the rows of T and of
    T diag(pivots). Float route: the orthonormal factor T_monic[n][j]
    sqrt(p_j) / sqrt(nu_n), with actual square roots (complex when
    quasi-definite), against the orthonormal recurrence entries
    raw / sqrt(nu_i nu_j). Outside the band the raw table is zero by
    construction and the factor sums are empty. Each root is held as a
    float and a power of two, applied only to the orthonormal entry, so
    no float ever holds a norm.
    """
    n = rec.size
    L, D = fact.T_monic, fact.pivots
    width = max(fact.bandwidth, L.lower, rec.raw.lower, rec.raw.upper)
    # row i of L and of L diag(D) over its columns lo..i, of raw over the band
    rows, scaled, raw = [], [], []
    for i in range(n):
        lo = max(0, i - fact.bandwidth)
        Li = [L.entry(i, k) for k in range(lo, i + 1)]
        rows.append((lo, *clear_denominators(Li)))
        scaled.append((lo, *clear_denominators([v * D[k] for k, v in enumerate(Li, lo)])))
        hi = [rec.raw.entry(i, j) for j in _band(n, width, i)]
        raw.append((max(0, i - width), *clear_denominators(hi)))

    def floats():
        sp = [split_csqrt(p) for p in D]
        sn = [split_csqrt(v) for v in rec.norms_sq]
        one = (1.0, 0)
        lines, targets = [], []
        for i in range(n):
            ks = _band(i + 1, L.lower, i)
            lines.append((ks.start, [_orthonormal(L.entry(i, k), sp[k], sn[i]) for k in ks]))
            row = {}
            for j in _band(n, width, i):
                sij = (sn[i][0] * sn[j][0], sn[i][1] + sn[j][1])
                row[j] = _orthonormal(rec.raw.entry(i, j), one, sij)
            targets.append(row)
        return lines, targets

    message = "H != T diag T^t at entry ({i},{j}): {product} vs {target}"
    return _band_gram(width, rows, scaled, raw, message, floats)


def _band_power(diag: list, upper: list, lower: list, k: int) -> list[dict]:
    """Rows {column: value} of the k-th power of the complex tridiagonal
    matrix with diagonal diag, superdiagonal upper and subdiagonal lower
    (entry (l, l+1) is upper[l], entry (l+1, l) is lower[l]). Every entry
    adds the products of the dense product that can be nonzero, in the
    dense order."""
    n = len(diag)

    def entry(l: int, j: int):
        return diag[j] if l == j else upper[l] if j > l else lower[j]

    rows = [{i: 1.0 + 0j} for i in range(n)]
    for _ in range(k):
        rows = [
            {
                j: sum(row[l] * entry(l, j) for l in range(j - 1, j + 2) if l in row)
                for j in range(max(0, min(row) - 1), min(n, max(row) + 2))
            }
            for row in rows
        ]
    return rows


def _int_shift_power(diag: list, lam, k: int, nrows: int) -> list[tuple[int, list[int], int]]:
    """Rows 0..nrows-1 of the k-th power of the tridiagonal matrix with
    rational diagonal diag, ones above it and lam below it (entry
    (l+1, l) is lam[l]), each as (lo, ints, den): entry (i, lo + t) is
    ints[t] / den. Row i of a power is a walk of its own, e_i^t times the
    matrix k times; each step puts the row over one new denominator, the
    lcm of those of the entries it reads."""
    n = len(diag)
    d = [(v.numerator, v.denominator) for v in diag]
    low = [(v.numerator, v.denominator) for v in lam]
    rows = []
    for i in range(nrows):
        lo, row, den = i, [1], 1
        for _ in range(k):
            size = len(row)
            first = max(0, lo - 1)
            # the step reads diag over the row's columns, lam left of them
            scale = lcm(
                *(d[j][1] for j in range(lo, lo + size)),
                *(low[j][1] for j in range(first, lo + size - 1)),
            )
            new = []
            for j in range(first, min(n, lo + size + 1)):
                t = j - lo  # row[t - 1], row[t], row[t + 1] meet columns j-1, j, j+1
                v = row[t - 1] * scale if t >= 1 else 0
                if 0 <= t < size:
                    v += row[t] * d[j][0] * (scale // d[j][1])
                if t < size - 1:
                    v += row[t + 1] * low[j][0] * (scale // low[j][1])
                new.append(v)
            lo, row, den = first, new, den * scale
        rows.append((lo, row, den))
    return rows


def verify_ul_identity(jac: JacobiMatrix, c, N: int, conn: ConnectionMatrix) -> FactorizationReport:
    """Check (J - c)^{N+1} = T^* T on rows unaffected by truncation,
    inside the band |j-k| <= N+1 outside which both sides vanish.

    Monic-conjugated exact form: (J_monic - c)^{N+1} is the product of
    the columns of T diag(d) and of diag(1/nu) T (_band_gram), each
    trusted row of the power over one denominator (_int_shift_power).
    Orthonormal float form: the same identity with materialized square
    roots, a banded float power, and the roots held as in
    verify_h_factorization. A negative N raises ValueError.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    c = as_fraction(c)
    m = conn.size
    nu = conn.from_norms_sq
    d = conn.to_norms_sq
    T = conn.T_monic
    jsize = jac.size
    shifted = [b - c for b in jac.b]
    trusted = min(m - (N + 1), jsize - (N + 1))
    if trusted <= 0:
        raise IdentityViolated("truncation too small to trust any row")
    if len(d) < jsize:
        raise DimensionMismatch(f"norm list covers {len(d)} rows, Jacobi truncation has {jsize}")
    # column j of T diag(d) and of diag(1/nu) T over its rows j..j+N+1
    # (cut at the truncation)
    cols = [[T.entry(n, j) for n in range(j, min(m, j + N + 2))] for j in range(trusted)]
    a, b = [], []
    for j, Tj in enumerate(cols):
        a.append((j, *clear_denominators([d[j] * v for v in Tj])))
        b.append((j, *clear_denominators([v / nu[n] for n, v in enumerate(Tj, j)])))
    power = _int_shift_power(shifted, jac.lam, N + 1, trusted)

    # orthonormal float route; off-diagonals materialize as the ratio of
    # successive norm roots so the branch stays consistent when norms are
    # negative (sqrt(d_{i+1})/sqrt(d_i) can differ from sqrt(lam) by sign)
    def floats():
        sd = [split_csqrt(v) for v in d]
        snu = [split_csqrt(v) for v in nu]
        off = [_orthonormal(1, sd[i + 1], sd[i]) for i in range(jsize - 1)]
        powf = _band_power([complex(v) for v in shifted], off, off, N + 1)
        lines = [
            (j, [_orthonormal(v, sd[j], snu[n]) for n, v in enumerate(Tj, j)])
            for j, Tj in enumerate(cols)
        ]
        return lines, powf

    message = f"(J-c)^{N + 1} != T^*T at entry ({{i}},{{j}}): {{target}} vs {{product}}"
    return _band_gram(N + 1, a, b, power, message, floats)


# -- block Darboux ------------------------------------------------------


@dataclass(frozen=True)
class ZetaSequence:
    """Blocks zeta_0, zeta_1, ... of the interlaced recurrence; zeta_0 = 0."""

    zetas: tuple[Matrix, ...]

    def __post_init__(self):
        if self.zetas and not self.zetas[0].is_zero:
            raise IdentityViolated("zeta_0 must vanish")

    def __len__(self) -> int:
        return len(self.zetas)

    def zeta(self, k: int) -> Matrix:
        return self.zetas[checked_index(k, len(self), "zeta")]


@dataclass(frozen=True)
class BlockLU:
    """Unit-lower/upper block-bidiagonal pair assembled from zetas.

    L has identity diagonal and subdiagonal zeta_2, zeta_4, ...; U has
    diagonal zeta_1, zeta_3, ... and identity superdiagonal.
    """

    zetas: ZetaSequence
    block_size: int
    nblocks: int


def _right_divide(c: Matrix, a: Matrix) -> Matrix:
    """Solve X a = c for X."""
    return solve_linear(a.transpose(), c.transpose()).transpose()


def block_lu(blockJ: BlockTridiagonal) -> BlockLU:
    """LU split of a monic block Jacobi operator with zeta extraction.

    Matching coefficients row by row gives the forward recursion
    zeta_{2n+1} = diag_n - zeta_{2n} and zeta_{2n+2} zeta_{2n+1} = sub_n,
    the latter solved by exact right division. The product LU is
    compared with the input as a guard on the divisions.
    """
    b = blockJ.block_size
    m = blockJ.nblocks
    ident = Matrix.identity(b)
    for n in range(m - 1):
        if blockJ.sup[n] != ident:
            raise IdentityViolated("expected a monic block Jacobi (identity superdiagonal)")
    zetas = [Matrix.zeros(b, b)]
    for n in range(m):
        odd = blockJ.diag[n] - zetas[2 * n]
        zetas.append(odd)
        if n < m - 1:
            try:
                even = _right_divide(blockJ.sub[n], odd)
            except SingularMatrix as exc:
                raise SingularPivotBlock(2 * n + 1) from exc
            zetas.append(even)
    seq = ZetaSequence(tuple(zetas))
    lu = BlockLU(seq, b, m)
    for n in range(m):
        if seq.zeta(2 * n) + seq.zeta(2 * n + 1) != blockJ.diag[n]:
            raise IdentityViolated(f"LU diagonal mismatch at block {n}")
        if n < m - 1 and seq.zeta(2 * n + 2) @ seq.zeta(2 * n + 1) != blockJ.sub[n]:
            raise IdentityViolated(f"LU subdiagonal mismatch at block {n + 1}")
    return lu


def darboux_swap(lu: BlockLU) -> BlockTridiagonal:
    """Commute the factors: UL is block tridiagonal with diagonal
    zeta_{2n+1} + zeta_{2n+2} and subdiagonal zeta_{2n+1} zeta_{2n}.

    One block is lost to truncation: a size-m LU yields m-1 trusted UL
    block rows.
    """
    b = lu.block_size
    m = lu.nblocks - 1
    ident = Matrix.identity(b)
    z = lu.zetas.zeta
    diag = tuple(z(2 * n + 1) + z(2 * n + 2) for n in range(m))
    sub = tuple(z(2 * n + 1) @ z(2 * n) for n in range(1, m))
    sup = tuple(ident for _ in range(m - 1))
    return BlockTridiagonal(diag, sub, sup)


def w_interlace_check(P_mats, Q_mats, zetas: ZetaSequence, count: int) -> list[int]:
    """Verify the interlaced recurrence exactly, in y = (x-c)^{N+1}.

    P and Q are monic matrix polynomials in y, for any N and c. Step 2k
    is P_k = Q_k + zeta_{2k} Q_{k-1} and step 2k+1 is
    y Q_k = P_{k+1} + zeta_{2k+1} P_k, each one exact polynomial identity
    in y over the integer coefficient rows of the blocks, one denominator
    per block (orthopoly.recurrence_holds). At N = 1, c = 0, with
    W_{2k} = P_k(x^2) and W_{2k+1} = x Q_k(x^2), they read
    x W_n = W_{n+1} + zeta_n W_{n-1}. Returns the checked indices; raises
    IdentityViolated(n) on the first nonzero residual.
    """
    P = [int_block(m) for m in P_mats[: count // 2 + 1]]
    Q = [int_block(m) for m in Q_mats[: (count + 1) // 2]]
    checked = []
    for n in range(count):
        k, odd = divmod(n, 2)
        zeta = zetas.zeta(n).rows
        if odd:
            holds = recurrence_holds(Q[k], P[k + 1], [(zeta, P[k])])
        else:
            # zeta_0 multiplies W_{-1} = 0
            holds = recurrence_holds(P[k], Q[k], [(zeta, Q[k - 1])] if k else [], (1,))
        if not holds:
            raise IdentityViolated(f"interlaced recurrence failed at n={n}")
        checked.append(n)
    return checked
