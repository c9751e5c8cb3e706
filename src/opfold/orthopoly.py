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
S_from G_to S_to^T diag(1/d). Each table is then checked a second way,
polynomially, on the rows the truncation determines. Square roots never
appear: orthonormal data is exposed as squared rationals plus signs, and
every operator identity has a monic-conjugated form that stays in
Fraction arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .banded import BandedOperator
from .errors import (
    BandViolation,
    IdentityViolated,
    InsufficientMoments,
    NotPositiveDefinite,
    SingularMatrix,
    SymmetryViolated,
)
from .linalg import clear_denominators
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

    The residual after matching coefficients must be the zero polynomial,
    and the product coefficient must equal the norm ratio
    lam_n = ||s_n||^2 / ||s_{n-1}||^2.
    """
    m = len(seq) - 1
    if m < 1:
        raise ValueError("need at least two polynomials")
    x = Poly.x()
    b: list[Fraction] = []
    lam: list[Fraction] = []
    for n in range(m):
        t = x * seq.poly(n) - seq.poly(n + 1)
        bn = t.coeff(n)
        r = t - bn * seq.poly(n)
        b.append(bn)
        if n == 0:
            if not r.is_zero:
                raise IdentityViolated(f"three-term residual nonzero at n=0: {r!r}")
            continue
        ln = r.coeff(n - 1)
        if not (r - ln * seq.poly(n - 1)).is_zero:
            raise IdentityViolated(f"three-term residual nonzero at n={n}")
        if ln != seq.norm_sq(n) / seq.norm_sq(n - 1):
            raise IdentityViolated(f"product coefficient disagrees with norm ratio at n={n}")
        lam.append(ln)
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
    generating form); the monic expansion is re-verified polynomially on
    rows unaffected by truncation.
    """
    c = as_fraction(c)
    size = len(seq)
    top = seq.form.max_degree
    shift = Poly((-c, Fraction(1))) ** (N + 1)
    kc, kden = clear_denominators(shift.coeffs)
    S = [clear_denominators(p.coeffs) for p in seq.polys]
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
        sn, dn = S[n]
        w = [sum(a * KG[i][j] for i, a in enumerate(sn) if a) for j in cols]
        for k in range(size):
            if k > top:
                raise InsufficientMoments(2 * k, 2 * top)
            sk, dk = S[k]
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
    # polynomial re-verification of the expansion on trusted rows
    for n in range(size - (N + 1)):
        acc = Poly()
        for k in range(max(0, n - N - 1), min(size, n + N + 2)):
            acc = acc + monic.entry(n, k) * seq.poly(k)
        if acc != shift * seq.poly(n):
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
    reconstructing seq_from polynomially - two genuinely different routes
    to the same numbers. Entries below the (N+1)-th subdiagonal must
    vanish.
    """
    form_to = seq_to.form
    top = form_to.max_degree
    size = min(len(seq_from), len(seq_to))
    G, gden = form_to.gram(min(size - 1, top))
    S_to = [clear_denominators(p.coeffs) for p in seq_to.polys[:size]]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(size):
        if n > top:
            raise InsufficientMoments(2 * n, 2 * top)
        sn, dn = clear_denominators(seq_from.poly(n).coeffs)
        w = [sum(a * G[i][j] for i, a in enumerate(sn) if a) for j in range(n + 1)]
        for j in range(n + 1):
            sj, dj = S_to[j]
            h = sum(a * b for a, b in zip(w, sj))
            if j >= n - (N + 1):
                rows[n][j] = Fraction(h, dn * dj * gden) / seq_to.norm_sq(j)
            elif h:
                v = Fraction(h, dn * dj * gden) / seq_to.norm_sq(j)
                raise BandViolation(f"connection entry ({n},{j}) = {v} below band {N + 1}")
        recon = Poly()
        for j in range(max(0, n - N - 1), n + 1):
            recon = recon + rows[n][j] * seq_to.poly(j)
        if recon != seq_from.poly(n):
            raise IdentityViolated(f"basis expansion disagrees with inner products at row {n}")
    T = BandedOperator(size, N + 1, 0, rows)
    return ConnectionMatrix(T, seq_from.norms_sq, seq_to.norms_sq, N)
