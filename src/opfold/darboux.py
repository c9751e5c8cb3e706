"""Factorization engine: banded Cholesky-type splits, the shifted-Jacobi
power identity, and block LU/UL Darboux swaps with zeta extraction.

Exact assertions all live in the monic-conjugated picture; the orthonormal
statements (which involve square roots) are re-checked in floating point
with transpose as the adjoint. H = T T* and (J-c)^{N+1} = T* T are
identities between banded operators, so both routes visit only the band,
and each square root is held as a float and a power of two that is
applied only to orthonormal entries, which stay near 1 where the norms
overflow a float. The interlaced recurrence is checked in the folded
variable y = x^2, as exact polynomial identities over integer
coefficient rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .banded import BandedOperator, BlockTridiagonal
from .errors import DimensionMismatch, IdentityViolated, SingularMatrix, SingularPivotBlock
from .linalg import Matrix, ldlt, solve_linear
from .orthopoly import BandedRecurrence, ConnectionMatrix, JacobiMatrix, int_block, recurrence_holds
from .rationals import as_fraction, ldexp2, split_csqrt, split_float

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
    NotPositiveDefinite; otherwise only a zero pivot is fatal.
    """
    if not H_raw.is_symmetric:
        raise IdentityViolated("factorization input is not symmetric")
    L, D = ldlt(
        H_raw.to_matrix(), bandwidth, "positive" if require_positive else "nonzero"
    )
    T = BandedOperator(H_raw.size, bandwidth, 0, L)
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


def verify_h_factorization(rec: BandedRecurrence, fact: BandFactorization) -> FactorizationReport:
    """Check H = T T^* both ways, inside the band.

    Exact route: raw table equals T diag(pivots) T^t entrywise. Float
    route: the orthonormal factor T_monic[n][j] sqrt(p_j) / sqrt(nu_n),
    with actual square roots (complex when quasi-definite), against the
    orthonormal recurrence entries raw / sqrt(nu_i nu_j), transpose as
    adjoint. Both routes visit only the pairs |i-j| <= bandwidth, row by
    row: outside the band the raw table is zero by construction and the
    factor sums are empty. Each root is held as a float and a power of
    two, and the power is applied only to the orthonormal entry, so no
    float ever holds a norm; the float sums add the same nonzero terms in
    the same order as the dense product, so the report is that of the
    dense check bit for bit.
    """
    n = rec.size
    L, D = fact.T_monic, fact.pivots
    width = max(fact.bandwidth, L.lower, rec.raw.lower, rec.raw.upper)
    for i in range(n):
        for j in _band(n, width, i):
            acc = Fraction(0)
            for k in range(max(0, max(i, j) - fact.bandwidth), min(i, j) + 1):
                acc += L.entry(i, k) * L.entry(j, k) * D[k]
            if acc != rec.raw.entry(i, j):
                raise IdentityViolated(
                    f"H != T diag T^t at entry ({i},{j}): {acc} vs {rec.raw.entry(i, j)}"
                )
    sp = [split_csqrt(p) for p in D]
    sn = [split_csqrt(v) for v in rec.norms_sq]
    one = (1.0, 0)
    Tf = [
        {k: _orthonormal(L.entry(i, k), sp[k], sn[i]) for k in _band(i + 1, L.lower, i)}
        for i in range(n)
    ]
    worst = None
    err = 0.0
    scale = 1.0
    for i in range(n):
        for j in _band(n, width, i):
            ks = range(max(0, max(i, j) - L.lower), min(i, j) + 1)
            lhs = sum(Tf[i][k] * Tf[j][k] for k in ks)
            sij = (sn[i][0] * sn[j][0], sn[i][1] + sn[j][1])
            rhs = _orthonormal(rec.raw.entry(i, j), one, sij)
            scale = max(scale, abs(rhs))
            d = abs(lhs - rhs)
            if d > err:
                err, worst = d, (i, j)
    rel = err / scale
    if rel > FLOAT_TOL:
        raise IdentityViolated(f"orthonormal float check failed: {rel} at {worst}")
    return FactorizationReport(True, n, rel, worst)


def _band_power(diag: list, upper: list, lower: list, k: int, one) -> list[dict]:
    """Rows {column: value} of the k-th power of the tridiagonal matrix
    with diagonal diag, superdiagonal upper and subdiagonal lower (entry
    (l, l+1) is upper[l], entry (l+1, l) is lower[l]); one is the unit of
    the entries' ring. Every entry adds the products of the dense product
    that can be nonzero, in the dense order."""
    n = len(diag)

    def entry(l: int, j: int):
        return diag[j] if l == j else upper[l] if j > l else lower[j]

    rows = [{i: one} for i in range(n)]
    for _ in range(k):
        rows = [
            {
                j: sum(row[l] * entry(l, j) for l in range(j - 1, j + 2) if l in row)
                for j in range(max(0, min(row) - 1), min(n, max(row) + 2))
            }
            for row in rows
        ]
    return rows


def verify_ul_identity(jac: JacobiMatrix, c, N: int, conn: ConnectionMatrix) -> FactorizationReport:
    """Check (J - c)^{N+1} = T^* T on rows unaffected by truncation.

    Monic-conjugated exact form: (J_monic - c)^{N+1} = diag(d) K with
    K_{jk} = sum_n T_monic[n][j] T_monic[n][k] / nu_n. Orthonormal float
    form: the same identity with materialized square roots, transpose as
    adjoint, checked to FLOAT_TOL relative. Both sides vanish for
    |j-k| > N+1, so both routes visit only the band, row by row; the float
    power is a banded product, and the roots are held as a float and a
    power of two as in verify_h_factorization, so the report is that of
    the dense check bit for bit.
    """
    c = as_fraction(c)
    m = conn.size
    nu = conn.from_norms_sq
    d = conn.to_norms_sq
    T = conn.T_monic
    jsize = jac.size
    # (J_monic - c)^{N+1}: unit superdiagonal, lam below
    shifted = [b - c for b in jac.b]
    power = _band_power(shifted, [Fraction(1)] * (jsize - 1), jac.lam, N + 1, Fraction(1))
    trusted = min(m - (N + 1), jsize - (N + 1))
    if trusted <= 0:
        raise IdentityViolated("truncation too small to trust any row")
    worst = None
    for j in range(trusted):
        for k in _band(trusted, N + 1, j):
            acc = Fraction(0)
            for n in range(max(j, k), min(m - 1, min(j, k) + N + 1) + 1):
                acc += T.entry(n, j) * T.entry(n, k) / nu[n]
            lhs = power[j][k]
            if lhs != d[j] * acc:
                raise IdentityViolated(
                    f"(J-c)^{N + 1} != T^*T at entry ({j},{k}): {lhs} vs {d[j] * acc}"
                )
    # orthonormal float route; off-diagonals materialize as the ratio of
    # successive norm roots so the branch stays consistent when norms are
    # negative (sqrt(d_{i+1})/sqrt(d_i) can differ from sqrt(lam) by sign)
    sd = [split_csqrt(v) for v in d]
    snu = [split_csqrt(v) for v in nu]
    if len(sd) < jsize:
        raise DimensionMismatch(
            f"norm list covers {len(sd)} rows, Jacobi truncation has {jsize}"
        )
    off = [_orthonormal(1, sd[i + 1], sd[i]) for i in range(jsize - 1)]
    powf = _band_power([complex(v) for v in shifted], off, off, N + 1, 1.0 + 0j)
    # the orthonormal connection entries the trusted window reads
    tf = [
        {j: _orthonormal(T.entry(n, j), sd[j], snu[n]) for j in _band(trusted, N + 1, n) if j <= n}
        for n in range(m)
    ]
    err, scale = 0.0, 1.0
    for j in range(trusted):
        for k in _band(trusted, N + 1, j):
            rhs = 0j
            for n in range(max(j, k), min(m - 1, min(j, k) + N + 1) + 1):
                rhs += tf[n][j] * tf[n][k]
            lhs = powf[j][k]
            scale = max(scale, abs(lhs))
            dd = abs(lhs - rhs)
            if dd > err:
                err, worst = dd, (j, k)
    rel = err / scale
    if rel > FLOAT_TOL:
        raise IdentityViolated(f"orthonormal float check failed: {rel} at {worst}")
    return FactorizationReport(True, trusted, rel, worst)


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
        return self.zetas[k]


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
    the latter solved by exact right division. The reassembled LU is
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
    """Verify x W_n = W_{n+1} + zeta_n W_{n-1} exactly, in y = x^2.

    W_{2n} = P_n(x^2) and W_{2n+1} = x Q_n(x^2); inputs are the monic
    matrix polynomials in the folded variable y. Step 2k of the
    recurrence is x times P_k = Q_k + zeta_{2k} Q_{k-1}, and step 2k+1 is
    y Q_k = P_{k+1} + zeta_{2k+1} P_k with y = x^2, so each step is one
    exact polynomial identity in y over the integer coefficient rows of
    the blocks, one denominator per block (orthopoly.recurrence_holds).
    Returns the list of checked indices; raises IdentityViolated(n) on
    the first nonzero residual.
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
