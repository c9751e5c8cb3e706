"""Monic orthogonal sequences, recurrence operators, and connection matrices.

Everything is generated from a BilinearForm's monomial Gram G. The monic
sequence comes from the form's own short recurrence: multiplication by
(x-c)^r, r the size of the point-mass matrix, is symmetric for the form,
so s_k is (x-c)^r s_{k-r} minus its components along the 2r members
before it, each an integer dot product against G; s_i^T G s_j = 0 is then
checked in integers for all i < j. The recurrence and connection tables
are integer matrix products: with S the denominator-cleared coefficient
rows of a monic sequence and K the multiplication by (x-c)^{N+1}, the
recurrence table is S (K G) S^T and the connection table is
S_from G_to S_to^T diag(1/d). Each table is then checked a second way, as
the polynomial expansion it claims, on the rows the truncation determines.
Every polynomial identity is checked over integer coefficient rows
(recurrence_holds); three_term_steps extracts monic three-term
recurrences, scalar (jacobi_matrix) and block (matfold.matrix_ttrr).
Square roots never appear: orthonormal data is exposed as squared
rationals plus signs, and every operator identity has a monic-conjugated
form that stays in Fraction arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .banded import BandedOperator
from .errors import (
    BandViolation,
    IdentityViolated,
    InsufficientMoments,
    NotPositiveDefinite,
    SingularMatrix,
    SymmetryViolated,
)
from .linalg import Matrix, clear_denominators
from .measures import BilinearForm
from .poly import Poly
from .rationals import SignedSquare, as_fraction

__all__ = [
    "MonicSequence",
    "monic_sequence",
    "JacobiMatrix",
    "jacobi_matrix",
    "BandedRecurrence",
    "banded_recurrence",
    "ConnectionMatrix",
    "connection_matrix",
]


@dataclass(frozen=True)
class MonicSequence:
    """Monic polynomials s_0..s_n orthogonal under a bilinear form.

    norms_sq[k] = B(s_k, s_k); entries may be negative in quasi-definite
    mode, never zero.
    """

    polys: tuple[Poly, ...]
    norms_sq: tuple[Fraction, ...]
    form: BilinearForm

    def __len__(self) -> int:
        return len(self.polys)

    def poly(self, n: int) -> Poly:
        return self.polys[n]

    def norm_sq(self, n: int) -> Fraction:
        return self.norms_sq[n]

    @property
    def is_positive(self) -> bool:
        return all(v > 0 for v in self.norms_sq)


def monic_sequence(form: BilinearForm, n_max: int, require_positive: bool = True) -> MonicSequence:
    """Generate s_0..s_{n_max} by the form's own banded recurrence.

    Let q = (x-c)^r with r the size of the point-mass matrix, or q = x and
    r = 1 when there is no mass or it is zero. Every derivative of order
    below r of q f vanishes at c, so B(q f, g) = L[q f g] = B(f, q g), and
    q s_{k-r} is orthogonal to every s_j with j < k - 2r:

        s_k = q s_{k-r} - sum_{j=max(0,k-2r)}^{k-1} B(q s_{k-r}, s_j)/d_j s_j,

    with d_j = B(s_j, s_j); for k < r the start is x^k against every j < k.
    Each s_j is held as integer coefficients over one denominator together
    with its Gram image G s_j (G the form's cached integer Gram), so every
    inner product and pivot is an integer dot product and only the
    combination of the window is rational. The result is certified a
    second way: s_i^T G s_j must vanish in integers for all i < j, else
    IdentityViolated.

    The d_k are the LDL^T pivots of the Gram, which are unique, so the
    pivot policy is that of ldlt: with require_positive the first
    nonpositive pivot raises NotPositiveDefinite(k, d); without it, only a
    zero pivot (loss of quasi-definiteness) raises SingularMatrix.
    """
    G, gden = form.gram(n_max)
    if form.M is None or form.M.is_zero:
        r, shift = 1, Poly.x()
    else:
        r = form.M.nrows
        shift = Poly((-form.c, Fraction(1))) ** r
    qc, _ = clear_denominators(shift.coeffs)
    S: list[list[int]] = []  # s_j = S[j] / S[j][j]
    GS: list[list[int]] = []  # G S[j] on rows 0 .. j + 2r, as far as n_max
    P: list[int] = []  # S[j]^T G S[j]; d_j = P[j] / (gden S[j][j]^2)
    polys: list[Poly] = []
    norms: list[Fraction] = []
    for k in range(n_max + 1):
        if k < r:
            u = [0] * k + [1]
        else:
            u = [0] * (k + 1)
            for i, a in enumerate(S[k - r]):
                if a:
                    for t, b in enumerate(qc):
                        u[i + t] += a * b
        # s_k is proportional to u - sum_j (H_j / P_j) S_j, H_j = u^T G S_j
        window = range(max(0, k - 2 * r), k)
        coef = [Fraction(sum(map(mul, u, GS[j])), P[j]) for j in window]
        scale = lcm(*(f.denominator for f in coef))
        w = [scale * a for a in u]
        for j, f in zip(window, coef):
            if f:
                m = f.numerator * (scale // f.denominator)
                for i, a in enumerate(S[j]):
                    w[i] -= m * a
        g = gcd(*w)  # w[k] is scale times the positive leading term of u
        s = [a // g for a in w]
        gs = [sum(map(mul, G[i], s)) for i in range(min(n_max, k + 2 * r) + 1)]
        for i in range(k):
            if sum(map(mul, S[i], gs)):
                raise IdentityViolated(f"monic sequence not orthogonal: s_{i}, s_{k}")
        p = sum(map(mul, s, gs))
        d = Fraction(p, gden * s[k] * s[k])
        if require_positive and d <= 0:
            raise NotPositiveDefinite(k, d)
        if d == 0:
            raise SingularMatrix(f"zero pivot at index {k}")
        S.append(s)
        GS.append(gs)
        P.append(p)
        polys.append(Poly(Fraction(a, s[k]) for a in s))
        norms.append(d)
    return MonicSequence(tuple(polys), tuple(norms), form)


def int_block(mat: Matrix):
    """(rows, den): entry (i, j) of a Poly matrix as the list of its
    coefficients, integers over one denominator den for the whole block.
    A zero entry is the empty list."""
    den = lcm(*(c.denominator for row in mat.rows for p in row for c in p.coeffs))
    rows = [[[c.numerator * (den // c.denominator) for c in p.coeffs] for p in row] for row in mat.rows]
    return rows, den


def recurrence_holds(cur, nxt, terms, mult=(0, 1)) -> bool:
    """Whether q cur = nxt + sum(coef @ blk for coef, blk in terms) holds
    exactly, q the polynomial with integer coefficients mult (by default
    the variable z).

    cur, nxt and every blk are (rows, den) from int_block; every coef is a
    square matrix of rationals, given by its rows, acting on the left. The
    identity is multiplied through by one common denominator, so each side
    is an integer combination of integer coefficient rows, and every
    coefficient of the residual must vanish.
    """
    (cr, cden), (nr, nden) = cur, nxt
    dens = [cden, nden]
    for coef, (_, den) in terms:
        dens.append(den * lcm(*(v.denominator for row in coef for v in row)))
    K = lcm(*dens)
    mults = [
        ([[v.numerator * (K // (v.denominator * den)) for v in row] for row in coef], rows)
        for coef, (rows, den) in terms
    ]
    ups = [(s, K // cden * q) for s, q in enumerate(mult) if q]
    down = K // nden
    size = len(cr)
    for i in range(size):
        for j in range(size):
            res = [0] * max(
                len(cr[i][j]) + len(mult) - 1,
                len(nr[i][j]),
                *(len(rows[l][j]) for _, rows in mults for l in range(size)),
            )
            for s, u in ups:
                for t, a in enumerate(cr[i][j]):
                    res[t + s] += u * a
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


def three_term_steps(mats: Sequence[Matrix], label: str):
    """Yield (n, D_n, C_n) of z P_n = P_{n+1} + D_n P_n + C_n P_{n-1} for
    n = 0 .. len(mats) - 2, with C_0 None.

    mats are the square matrix polynomials P_n in z, monic of degree n; a
    scalar sequence is the 1x1 case. Blocks multiply on the left. D_n and
    C_n are read from the coefficients of z P_n - P_{n+1} at z^n and
    z^{n-1} (the latter after removing D_n P_n). The residual must then
    vanish as an exact polynomial identity over the integer coefficient
    rows of each block, one denominator per block (recurrence_holds),
    before step n is yielded; otherwise IdentityViolated names the label
    and n.
    """
    blocks = [int_block(m) for m in mats]

    def coeff(n: int, t: int) -> Matrix:
        """The coefficient of z^t in P_n."""
        rows, den = blocks[n]
        return Matrix([[Fraction(e[t] if 0 <= t < len(e) else 0, den) for e in row] for row in rows])

    for n in range(len(mats) - 1):
        top = coeff(n, n - 1)
        D = top - coeff(n + 1, n)
        terms = [(D.rows, blocks[n])]
        C = None
        if n > 0:
            C = coeff(n, n - 2) - coeff(n + 1, n - 1) - D @ top
            terms.append((C.rows, blocks[n - 1]))
        if not recurrence_holds(blocks[n], blocks[n + 1], terms):
            raise IdentityViolated(f"{label} residual nonzero at n={n}")
        yield n, D, C


_ZERO_BLOCK = ([[[]]], 1)  # the 1x1 zero polynomial


@dataclass(frozen=True)
class JacobiMatrix:
    """Monic three-term recurrence data: x s_n = s_{n+1} + b_n s_n + lam_n s_{n-1}."""

    b: tuple[Fraction, ...]  # b_0 .. b_m
    lam: tuple[Fraction, ...]  # lam_1 .. lam_m (lam[k-1] = lam_k)

    @property
    def size(self) -> int:
        return len(self.b)


def jacobi_matrix(seq: MonicSequence) -> JacobiMatrix:
    """Extract the monic TTRR exactly, with two independent consistency checks.

    The sequence is its own 1x1 fold, so the extraction is three_term_steps
    on 1x1 blocks: the residual must vanish over integer coefficient rows,
    and the product coefficient must equal the norm ratio
    lam_n = ||s_n||^2 / ||s_{n-1}||^2.
    """
    if len(seq) < 2:
        raise ValueError("need at least two polynomials")
    b: list[Fraction] = []
    lam: list[Fraction] = []
    for n, D, C in three_term_steps([Matrix([[p]]) for p in seq.polys], "three-term"):
        b.append(D[0, 0])
        if C is not None:
            if C[0, 0] != seq.norm_sq(n) / seq.norm_sq(n - 1):
                raise IdentityViolated(f"product coefficient disagrees with norm ratio at n={n}")
            lam.append(C[0, 0])
    return JacobiMatrix(tuple(b), tuple(lam))


@dataclass(frozen=True)
class BandedRecurrence:
    """Band-(N+1) recurrence of a Sobolev-type sequence under (x-c)^{N+1}.

    raw[n][k]   = B((x-c)^{N+1} s_n, s_k)      (symmetric table)
    monic[n][k] = raw[n][k] / ||s_k||^2        (expansion coefficients)
    """

    raw: BandedOperator
    monic: BandedOperator
    norms_sq: tuple[Fraction, ...]
    c: Fraction
    N: int

    @property
    def size(self) -> int:
        return self.raw.size

    def orthonormal_entry(self, n: int, k: int) -> SignedSquare:
        """Orthonormal entry raw[n][k] / sqrt(nu_n nu_k) by square and sign."""
        scale = 1 / (self.norms_sq[n] * self.norms_sq[k])
        return SignedSquare.of(self.raw.entry(n, k), scale)

    def orthonormal_sq(self, n: int, k: int) -> Fraction:
        return self.orthonormal_entry(n, k).sq

    def orthonormal_sign(self, n: int, k: int) -> int:
        return self.orthonormal_entry(n, k).sign


def banded_recurrence(seq: MonicSequence, c, N: int) -> BandedRecurrence:
    """Build the recurrence table for multiplication by (x-c)^{N+1}.

    raw = S (K G) S^T over denominator-cleared integer rows, scanned row
    by row. Entries with |n-k| > N+1 are asserted to vanish (this is
    exactly the symmetry of the multiplication operator for the
    generating form); the monic expansion
    (x-c)^{N+1} s_n = sum_k monic[n][k] s_k is re-verified over integer
    coefficient rows (recurrence_holds) on rows unaffected by truncation.
    """
    c = as_fraction(c)
    size = len(seq)
    top = seq.form.max_degree
    shift = Poly((-c, Fraction(1))) ** (N + 1)
    kc, kden = clear_denominators(shift.coeffs)
    S = [int_block(Matrix([[p]])) for p in seq.polys]
    G, gden = seq.form.gram(min(size + N, top))
    cols = range(min(size, top + 1))
    # (K G)[i][j] = kden gden B((x-c)^{N+1} x^i, x^j), for rows whose
    # shifted monomial fits the degree budget
    KG = [
        [sum(k * G[i + t][j] for t, k in enumerate(kc)) for j in cols]
        for i in range(min(size, top - N))
    ]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(size):
        if n + N + 1 > top:
            raise InsufficientMoments(2 * (n + N + 1), 2 * top)
        [[sn]], dn = S[n]
        w = [sum(a * KG[i][j] for i, a in enumerate(sn) if a) for j in cols]
        for k in range(size):
            if k > top:
                raise InsufficientMoments(2 * k, 2 * top)
            [[sk]], dk = S[k]
            h = sum(a * b for a, b in zip(w, sk))
            if abs(n - k) <= N + 1:
                rows[n][k] = Fraction(h, dn * dk * kden * gden)
            elif h:
                # above the band this vanishes by plain orthogonality; below
                # it vanishes only when multiplication by the shift is
                # symmetric for the form, so this is the real test
                v = Fraction(h, dn * dk * kden * gden)
                raise SymmetryViolated(
                    f"entry ({n},{k}) = {v} outside band {N + 1}; "
                    "multiplication by the shift is not symmetric for this form"
                )
    raw = BandedOperator(size, N + 1, N + 1, rows)
    monic = BandedOperator.from_fn(
        size, N + 1, N + 1, lambda n, k: raw.entry(n, k) / seq.norm_sq(k)
    )
    # the expansion (x-c)^{N+1} s_n = sum_k monic[n][k] s_k on trusted rows
    for n in range(size - (N + 1)):
        band = range(max(0, n - N - 1), min(size, n + N + 2))
        terms = [([[monic.entry(n, k)]], S[k]) for k in band]
        if not recurrence_holds((S[n][0], S[n][1] * kden), _ZERO_BLOCK, terms, kc):
            raise IdentityViolated(f"banded expansion failed at row {n}")
    return BandedRecurrence(raw, monic, seq.norms_sq, c, N)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Banded change of basis: s_n = sum_j T_monic[n][j] p_j.

    from_norms_sq are the s-norms under the s-form, to_norms_sq the
    p-norms under the p-form; both feed the orthonormal squared view
    T_orth[n][j]^2 = T_monic[n][j]^2 * d_j / nu_n.
    """

    T_monic: BandedOperator
    from_norms_sq: tuple[Fraction, ...]
    to_norms_sq: tuple[Fraction, ...]
    N: int

    @property
    def size(self) -> int:
        return self.T_monic.size

    def orthonormal_sq(self, n: int, j: int) -> Fraction:
        scale = self.to_norms_sq[j] / self.from_norms_sq[n]
        return SignedSquare.of(self.T_monic.entry(n, j), scale).sq


def connection_matrix(
    seq_from: MonicSequence,
    seq_to: MonicSequence,
    N: int,
) -> ConnectionMatrix:
    """Connection coefficients of seq_from in the seq_to basis.

    Entries are inner products under seq_to's own form (the one that
    makes it orthogonal), S_from G_to S_to^T diag(1/d) over
    denominator-cleared integer rows, and are then cross-validated by
    checking s_n = sum_j T[n][j] p_j over integer coefficient rows
    (recurrence_holds) - two genuinely different routes to the same
    numbers. Entries below the (N+1)-th subdiagonal must
    vanish.
    """
    form_to = seq_to.form
    top = form_to.max_degree
    size = min(len(seq_from), len(seq_to))
    G, gden = form_to.gram(min(size - 1, top))
    S_to = [int_block(Matrix([[p]])) for p in seq_to.polys[:size]]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(size):
        if n > top:
            raise InsufficientMoments(2 * n, 2 * top)
        s_n = int_block(Matrix([[seq_from.poly(n)]]))
        [[sn]], dn = s_n
        w = [sum(a * G[i][j] for i, a in enumerate(sn) if a) for j in range(n + 1)]
        for j in range(n + 1):
            [[sj]], dj = S_to[j]
            h = sum(a * b for a, b in zip(w, sj))
            if j >= n - (N + 1):
                rows[n][j] = Fraction(h, dn * dj * gden) / seq_to.norm_sq(j)
            elif h:
                v = Fraction(h, dn * dj * gden) / seq_to.norm_sq(j)
                raise BandViolation(f"connection entry ({n},{j}) = {v} below band {N + 1}")
        terms = [([[rows[n][j]]], S_to[j]) for j in range(max(0, n - N - 1), n + 1)]
        if not recurrence_holds(s_n, _ZERO_BLOCK, terms, (1,)):
            raise IdentityViolated(f"basis expansion disagrees with inner products at row {n}")
    T = BandedOperator(size, N + 1, 0, rows)
    return ConnectionMatrix(T, seq_from.norms_sq, seq_to.norms_sq, N)
