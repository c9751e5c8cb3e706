"""Monic orthogonal sequences, recurrence operators, and connection matrices.

Everything is generated from a BilinearForm's monomial Gram G. The monic
sequence comes from the form's own short recurrence: multiplication by
(x-c)^r, r the size of the point-mass matrix, is symmetric for the form,
so s_k is (x-c)^r s_{k-r} minus its components along the 2r members
before it, each an integer dot product against G. That symmetry is
checked once on G, in integers; given it, G s_k vanishes below row k-2r
(proof in monic_sequence), so G s_k is formed from row k-2r and checked
to vanish on rows k-2r .. k-1. For a Gram without it G s_k is checked
on every row below k, so the same pair is named as not orthogonal.
Every sequence carries its members as integer rows: monic_sequence its
certified ones, a sequence built by hand those read off its members,
which it certifies by the same integer check the first time a table
needs them orthogonal. The recurrence table H, for f_n = (x-c)^{N+1} s_n,
and the connection T, for f_n = s_n, are one table B(f_n, p_k) on a band,
built by one kernel (_band_rows): each entry an integer dot product with
a few rows of G p_k. Each row is the expansion it claims, which makes the
entries off the band vanish, and three_term_steps extracts monic
three-term recurrences, scalar (jacobi_matrix) and block
(matfold.matrix_ttrr). Each of these identities is proved by a Gram
certificate when its sequences came from monic_sequence on a symmetric
Gram (proofs in the table docstrings): H and both three-term tables by
the shift symmetry measures.symmetry_check, which monic_sequence records
for its own shift and any other shift is checked for once (_shift_proven),
and T by the Christoffel shift that built its target's moments
(_christoffel_proven). Any other input has each row checked over integer
coefficient rows (recurrence_holds); a band row that fails is read whole,
that row only, to name its first nonzero entry off the band.
Square roots never appear: orthonormal data is exposed as squared
rationals plus signs, and every operator identity has a monic-conjugated
form that stays in Fraction arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Sequence

from .banded import BandedOperator
from .errors import (
    BandViolation,
    DimensionMismatch,
    IdentityViolated,
    InsufficientMoments,
    InsufficientSequence,
    NotPositiveDefinite,
    SingularMatrix,
    SymmetryViolated,
)
from .linalg import Matrix, clear_denominators
from .measures import BilinearForm, shift_row, symmetry_check
from .poly import Poly
from .rationals import SignedSquare, as_fraction, rat_str

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
    mode, never zero. int_rows[k] is the primitive integer row of s_k,
    s_k = int_rows[k] / int_rows[k][-1]. monic_sequence builds and
    certifies the rows, and polys is built from them on first read (==,
    hash and repr too). A sequence built by hand reads its rows off polys,
    refusing a member that is zero or not monic (IdentityViolated) and a
    zero norm (SingularMatrix), and is certified once, the first time
    certified_rows is called.
    """

    polys: tuple[Poly, ...]
    norms_sq: tuple[Fraction, ...]
    form: BilinearForm
    int_rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):  # by hand only: monic_sequence does not call it
        if len(self.polys) != len(self.norms_sq):
            raise DimensionMismatch(f"{len(self.polys)} members but {len(self.norms_sq)} norms")
        for k, (p, d) in enumerate(zip(self.polys, self.norms_sq)):
            if p.coeffs[-1:] != (1,):
                raise IdentityViolated(f"member {k} is not monic")
            if not d:
                raise SingularMatrix(f"zero norm at index {k}")
        rows = (tuple(clear_denominators(p.coeffs)[0]) for p in self.polys)
        object.__setattr__(self, "int_rows", tuple(rows))

    def __getattr__(self, name: str):  # reached only when lookup fails: polys not yet built
        if name != "polys":
            raise AttributeError(name)
        object.__setattr__(self, name, tuple(Poly(Fraction(a, r[-1]) for a in r) for r in self.int_rows))
        return self.polys

    def __len__(self) -> int:
        return len(self.norms_sq)

    def poly(self, n: int) -> Poly:
        n = checked_index(n, len(self), "polynomial")  # before polys is read
        return self.polys[n]

    def norm_sq(self, n: int) -> Fraction:
        return self.norms_sq[checked_index(n, len(self), "polynomial")]

    @property
    def is_positive(self) -> bool:
        return all(v > 0 for v in self.norms_sq)

    def certified_rows(self) -> tuple[tuple[int, ...], ...]:
        """int_rows, known orthogonal under the form: monic_sequence
        certified its own, and a sequence built by hand is certified here,
        once (_certify)."""
        if "_certified" not in vars(self):
            _certify(self)
            object.__setattr__(self, "_certified", True)
        return self.int_rows


def _certify(seq: MonicSequence) -> None:
    """monic_sequence's integer check on the members the form has moments
    for, which are all that a table reads before it runs out of moments:
    s_k has degree k, and G s_k vanishes on every row i < k, else
    IdentityViolated names the first such pair."""
    top = min(len(seq.int_rows), seq.form.max_degree + 1) - 1
    G, _ = seq.form.gram(max(top, 0))
    for k, s in enumerate(seq.int_rows[: top + 1]):
        if len(s) != k + 1:
            raise IdentityViolated(f"monic sequence member s_{k} has degree {len(s) - 1}")
        i = next((i for i in range(k) if sum(map(mul, G[i], s))), None)
        if i is not None:
            raise IdentityViolated(f"monic sequence not orthogonal: s_{i}, s_{k}")


def checked_index(n: int, size: int, what: str) -> int:
    """n, if 0 <= n < size; else InsufficientSequence names what was asked."""
    if not 0 <= n < size:
        raise InsufficientSequence(f"{what} {n} requested, only {size} built")
    return n


def _times(q, s) -> list[int]:
    """The integer coefficients of the product q s, given theirs: one slice
    pass per nonzero coefficient of q."""
    out = [0] * (len(s) + len(q) - 1)
    for t, b in enumerate(q):
        if b:
            out[t : t + len(s)] = map(add, out[t : t + len(s)], map(mul, repeat(b), s))
    return out


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
    combination of the window is rational.

    The result is certified in integers: G s_k must vanish on every row
    i < k, that is s_k is orthogonal to every monomial of lower degree,
    else IdentityViolated names the first such i. The symmetry above is
    not assumed but checked once on the Gram by measures.symmetry_check,
    sum_t q_t G[a+t][b] == sum_t q_t G[a][b+t] for all a, b <= n_max - r,
    O(n_max^2 r). When it holds, G s_k is formed only on rows k-2r .. k+2r
    and checked on rows k-2r .. k-1, because the rows below vanish: for
    i < k - 2r, by induction on k,

        B(s_i, s_k) = B(s_i, q s_{k-r}) = B(q s_i, s_{k-r}) = 0,

    the window terms dropping since each s_j with j > i is orthogonal to
    s_i, and the last step since deg(q s_i) = i + r < k - r. Then
    d_k = s_k[k] (G s_k)[k] over the common denominators. When the check
    fails, the same loop forms G s_k from row 0, so every row below k is
    checked and the first non-orthogonal pair is named as before.

    The d_k are the LDL^T pivots of the Gram, which are unique, so the
    pivot policy is that of ldlt: with require_positive the first
    nonpositive pivot raises NotPositiveDefinite(k, d); without it, only a
    zero pivot (loss of quasi-definiteness) raises SingularMatrix. A
    negative n_max raises ValueError.

    When the Gram is symmetric (M None or symmetric), the sequence records
    the symmetry check's verdict for (c, r-1) in a private _verdicts, which
    the tables read as a certificate (_shift_proven).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    G, gden = form.gram(n_max)
    r, c = (1, 0) if form.M is None or form.M.is_zero else (form.M.nrows, form.c)
    qc, _ = shift_row(c, r)
    symmetric = symmetry_check(form, r - 1, n_max - r, c).ok
    S: list[list[int]] = []  # s_j = S[j] / S[j][j]
    GS: list[list[int]] = []  # G S[j] on rows first[j] .. j + 2r, as far as n_max
    first: list[int] = []
    P: list[int] = []  # S[j]^T G S[j]; d_j = P[j] / (gden S[j][j]^2)
    norms: list[Fraction] = []
    for k in range(n_max + 1):
        u = [0] * k + [1] if k < r else _times(qc, S[k - r])
        # s_k is proportional to u - sum_j (H_j / P_j) S_j, H_j = u^T G S_j
        window = range(max(0, k - 2 * r), k)
        coef = [Fraction(sum(map(mul, u[first[j] :], GS[j])), P[j]) for j in window]
        scale = lcm(*(f.denominator for f in coef))
        w = [scale * a for a in u]
        for j, f in zip(window, coef):
            if f:
                m = f.numerator * (scale // f.denominator)
                for i, a in enumerate(S[j]):
                    w[i] -= m * a
        g = gcd(*w)  # w[k] is scale times the positive leading term of u
        s = [a // g for a in w]
        lo = window.start if symmetric else 0
        gs = [sum(map(mul, G[i], s)) for i in range(lo, min(n_max, k + 2 * r) + 1)]
        for i in range(lo, k):
            if gs[i - lo]:
                raise IdentityViolated(f"monic sequence not orthogonal: s_{i}, s_{k}")
        p = s[k] * gs[k - lo]
        d = Fraction(p, gden * s[k] * s[k])
        if require_positive and d <= 0:
            raise NotPositiveDefinite(k, d)
        if d == 0:
            raise SingularMatrix(f"zero pivot at index {k}")
        S.append(s)
        GS.append(gs)
        first.append(lo)
        P.append(p)
        norms.append(d)
    seq = object.__new__(MonicSequence)  # polys is left to the view
    vars(seq).update(norms_sq=tuple(norms), form=form, int_rows=tuple(map(tuple, S)), _certified=True)
    if form.M is None or form.M == form.M.transpose():
        vars(seq)["_verdicts"] = {(c, r - 1): symmetric}
    return seq


def _shift_proven(seq: MonicSequence, c, N: int) -> bool:
    """Whether seq came from monic_sequence on a symmetric Gram, so its
    members are orthogonal on both sides and its norms are theirs, and
    multiplication by (x-c)^{N+1} is self-adjoint for its form on degree
    len(seq) - N - 2 (measures.symmetry_check). monic_sequence recorded
    the verdict for its own shift; any other is checked once and recorded.
    A sequence built by hand is never proved."""
    verdicts = vars(seq).get("_verdicts")
    if verdicts is None:
        return False
    if (c, N) not in verdicts:
        verdicts[c, N] = symmetry_check(seq.form, N, len(seq) - N - 2, c).ok
    return verdicts[c, N]


def int_block(mat: Matrix):
    """(rows, den): entry (i, j) of a Poly matrix as the list of its
    coefficients, integers over one denominator den for the whole block.
    A zero entry is the empty list."""
    den = lcm(*(c.denominator for row in mat.rows for p in row for c in p.coeffs))
    rows = [[[c.numerator * (den // c.denominator) for c in p.coeffs] for p in row] for row in mat.rows]
    return rows, den


def coeff_at(coeffs, t: int) -> int:
    """Entry t of an integer coefficient list, 0 beyond it."""
    return coeffs[t] if 0 <= t < len(coeffs) else 0


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


def three_term_steps(blocks: Sequence, label: str, proven: bool = False):
    """Yield (n, D_n, C_n) of z P_n = P_{n+1} + D_n P_n + C_n P_{n-1} for
    n = 0 .. len(blocks) - 2, with C_0 None.

    blocks are the square matrix polynomials P_n in z, monic of degree n,
    each as (rows, den) from int_block; a scalar sequence is the 1x1 case.
    Blocks multiply on the left. D_n and C_n are read in integers from
    the coefficients of z P_n - P_{n+1} at z^n and z^{n-1} (the latter
    after removing D_n P_n). Unless the caller has proven the recurrence,
    the residual must then vanish as an exact polynomial identity over
    the integer coefficient rows (recurrence_holds) before step n is
    yielded; otherwise IdentityViolated names the label and n.
    """

    def coeff(n: int, t: int) -> list:
        """den_n times the coefficient of z^t in P_n."""
        return [[coeff_at(e, t) for e in row] for row in blocks[n][0]]

    for n in range(len(blocks) - 1):
        a, b = blocks[n][1], blocks[n + 1][1]
        top = coeff(n, n - 1)
        # a b D_n, and a a b C_n
        d = [[u * b - v * a for u, v in zip(r, s)] for r, s in zip(top, coeff(n + 1, n))]
        D = Matrix([[Fraction(v, a * b) for v in row] for row in d])
        terms = [(D.rows, blocks[n])]
        C = None
        if n > 0:
            dtop = [[sum(map(mul, row, col)) for col in zip(*top)] for row in d]
            c = [
                [u * a * b - v * a * a - w for u, v, w in zip(r, s, t)]
                for r, s, t in zip(coeff(n, n - 2), coeff(n + 1, n - 1), dtop)
            ]
            C = Matrix([[Fraction(v, a * a * b) for v in row] for row in c])
            terms.append((C.rows, blocks[n - 1]))
        if not (proven or recurrence_holds(blocks[n], blocks[n + 1], terms)):
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
    on 1x1 blocks: the residual must vanish, and the product coefficient
    must equal the norm ratio lam_n = ||s_n||^2 / ||s_{n-1}||^2.

    The residual R_n = x s_n - s_{n+1} - b_n s_n - lam_n s_{n-1} is proven
    zero, not checked, when multiplication by x is self-adjoint for the
    form on degree <= len - 2 (_shift_proven with c = 0, N = 0). The reads
    of b_n and lam_n leave R_n of degree <= n - 2, and for i <= n - 2

        B(x^i, R_n) = B(x^i, x s_n) = B(x^{i+1}, s_n) = 0,

    the members dropping since s_j is orthogonal to every polynomial of
    degree below j, and the last step since i + 1 < n. So the Gram's
    leading (n-1)x(n-1) block, whose LDL^T pivots are the nonzero norms,
    maps the coefficients of R_n to zero: R_n = 0. Otherwise each residual
    is checked over integer coefficient rows.
    """
    if len(seq) < 2:
        raise InsufficientSequence("need at least two polynomials")
    b: list[Fraction] = []
    lam: list[Fraction] = []
    blocks = [([[r]], r[-1]) for r in seq.int_rows]
    for n, D, C in three_term_steps(blocks, "three-term", _shift_proven(seq, 0, 0)):
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
        """Orthonormal entry raw[n][k] / sqrt(nu_n nu_k) by square and sign;
        an index outside the table raises InsufficientSequence."""
        n, k = (checked_index(i, self.size, "recurrence index") for i in (n, k))
        scale = 1 / (self.norms_sq[n] * self.norms_sq[k])
        return SignedSquare.of(self.raw.entry(n, k), scale)

    def orthonormal_sq(self, n: int, k: int) -> Fraction:
        return self.orthonormal_entry(n, k).sq

    def orthonormal_sign(self, n: int, k: int) -> int:
        return self.orthonormal_entry(n, k).sign


def _first_below(G, ks, rows, lo: int):
    """(k, h) for the first k < lo with h = ks^T G rows[k] nonzero, or None.
    rows[k] has degree k, so ks^T G is needed on its first lo columns
    only, and it vanishes there exactly when every such h does."""
    v = [sum(map(mul, ks, col)) for col in islice(zip(*G), max(lo, 0))]
    if any(v):
        for k in range(lo):
            h = sum(map(mul, v, rows[k]))
            if h:
                return k, h
    return None


def _band_rows(rows, seq_to: MonicSequence, lower: int, upper: int, violation, proven: bool):
    """(raw, monic), row by row over the band: raw[n][k] = B(f_n, p_k) and
    monic[n][k] = raw[n][k] / d_k for n-lower <= k <= n+upper, B and the
    p_k the form and members of seq_to, rows[n] = (f, den) the integer
    row of f_n = f / den, of degree n + upper.

    Entry (n, k) is f from column k dotted with G p_k, formed once on rows
    k .. k+lower+upper (G p_k vanishes above row k). Row n is checked
    before row n+1 is read: where the truncation fits, n < len(rows) -
    upper, f_n = sum_k monic[n][k] p_k over integer rows (recurrence_holds)
    unless the caller has proven it, and on the last upper rows f^T G
    vanishes below the band. With
    violation = (error, below, expansion), a failed row's first nonzero
    entry below the band raises error(below) formatted with n, k, raw,
    monic and lower; without one, IdentityViolated(expansion) with n.
    """
    error, below, expansion = violation
    size, top = len(rows), seq_to.form.max_degree
    P = seq_to.certified_rows()
    hi = min(size - 1 + upper, top)
    G, gden = seq_to.form.gram(hi)
    images = []  # G p_k on rows k .. k+lower+upper, as far as hi
    for k, p in enumerate(P[:size]):
        images.append([sum(map(mul, G[i], p)) for i in range(k, min(hi, k + lower + upper) + 1)])

    def entry(n: int, k: int, h: int) -> Fraction:
        return Fraction(h, rows[n][1] * P[k][-1] * gden)

    raw_rows, monic_rows = [], []
    for n, (f, den) in enumerate(rows):
        if n + upper > top:
            raise InsufficientMoments(2 * (n + upper), 2 * top)
        if len(f) != n + upper + 1:
            raise IdentityViolated(f"monic sequence member s_{n} has degree {len(f) - 1 - upper}")
        band = range(max(0, n - lower), min(size, n + upper + 1))
        raw = [entry(n, k, sum(map(mul, f[k:], images[k]))) for k in band]
        monic = [e / seq_to.norm_sq(k) for e, k in zip(raw, band)]
        terms = [([[e]], ([[P[k]]], P[k][-1])) for e, k in zip(monic, band)]
        fits = n < size - upper
        if not fits or not (proven or recurrence_holds(([[f]], den), _ZERO_BLOCK, terms, (1,))):
            # f^T G p_k = 0 for all k < n-lower if and only if f^T G x^j = 0
            # for all j < n-lower, the p_k being triangular
            hit = _first_below(G, f, P, n - lower)
            if hit:
                k, e = hit[0], entry(n, *hit)
                m = rat_str(e / seq_to.norm_sq(k))
                raise error(below.format(n=n, k=k, raw=rat_str(e), monic=m, lower=lower))
            if fits:
                raise IdentityViolated(expansion.format(n=n))
        raw_rows.append(raw)
        monic_rows.append(monic)
    return raw_rows, monic_rows


def banded_recurrence(seq: MonicSequence, c, N: int) -> BandedRecurrence:
    """Build the recurrence table for multiplication by (x-c)^{N+1}.

    _band_rows of f_n = (x-c)^{N+1} s_n against seq itself, |n-k| <= N+1,
    each f_n formed once in integers. A row whose entry below the band is
    nonzero raises SymmetryViolated; one whose expansion fails without
    such an entry raises IdentityViolated. A negative N raises ValueError.

    The expansion of the rows that fit, n <= len - N - 2, is proven, not
    checked, when K = (x-c)^{N+1} is self-adjoint for the form on degree
    len - N - 2 (_shift_proven; monic_sequence's own verdict when c and N
    are its own). With d_k = B(s_k, s_k) nonzero and the members
    orthogonal on both sides, f_n = K s_n = sum_k B(f_n, s_k)/d_k s_k over
    k <= n + N + 1, and for k < n - N - 1

        B(K s_n, s_k) = B(s_n, K s_k) = 0,

    since deg(K s_k) = k + N + 1 < n. So f_n is its band expansion. The
    last N+1 rows keep their Gram test below the band.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    c = as_fraction(c)
    w = N + 1
    kc, kden = shift_row(c, w)
    rows = [(_times(kc, s), s[-1] * kden) for s in seq.int_rows]  # (x-c)^{N+1} s_n
    raw_rows, monic_rows = _band_rows(rows, seq, w, w, (
        SymmetryViolated,
        "entry ({n},{k}) = {raw} outside band {lower}; "
        "multiplication by the shift is not symmetric for this form",
        "banded expansion failed at row {n}",
    ), _shift_proven(seq, c, N))
    raw = BandedOperator.from_fn(len(seq), w, w, lambda n, k: raw_rows[n][k - max(0, n - w)])
    monic = BandedOperator.from_fn(len(seq), w, w, lambda n, k: monic_rows[n][k - max(0, n - w)])
    return BandedRecurrence(raw, monic, seq.norms_sq, c, N)


def _christoffel_proven(seq_from: MonicSequence, seq_to: MonicSequence, N: int) -> bool:
    """Whether connection_matrix's proof holds for these sequences."""
    src, dst = seq_from.form, seq_to.form
    if not (type(src) is type(dst) is BilinearForm and dst.mu._shift and (dst.M is None or dst.M.is_zero)):
        return False
    mu, c, m = dst.mu._shift
    mass_ok = src.M is None or src.M.is_zero or src.c == c and src.M.nrows <= N + 1
    return m == N + 1 and mu == src.mu and mass_ok and all("_verdicts" in vars(s) for s in (seq_from, seq_to))


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
        """T_orth[n][j]^2; an index outside the table raises InsufficientSequence."""
        n, j = (checked_index(i, self.size, "connection index") for i in (n, j))
        scale = self.to_norms_sq[j] / self.from_norms_sq[n]
        return SignedSquare.of(self.T_monic.entry(n, j), scale).sq


def connection_matrix(
    seq_from: MonicSequence,
    seq_to: MonicSequence,
    N: int,
) -> ConnectionMatrix:
    """Connection coefficients of seq_from in the seq_to basis.

    The monic table of _band_rows of f_n = s_n against seq_to, under its
    own form, n-(N+1) <= j <= n. A member s_n not of degree n raises
    IdentityViolated; a row whose entry below the band is nonzero raises
    BandViolation, and one whose expansion fails without such an entry
    IdentityViolated. A negative N raises ValueError.

    The expansions are proven, not checked, when seq_to's form is the
    Christoffel transform of seq_from's by construction (_christoffel_proven):
    both sequences came from monic_sequence on symmetric Grams, both forms
    are BilinearForm itself (a subclass may override gram), seq_to's form
    has no point mass and its moments are christoffel_shift(mu, c, N+1) of
    seq_from's moments mu, and seq_from's form has no point mass or one of
    at most N+1 rows at c. With K = (x-c)^{N+1} = sum_t k_t x^t, and m_l
    and m'_l = sum_t k_t m_{l+t} the moments of the two forms,

        B_to(x^i, x^j) = m'_{i+j} = sum_t k_t m_{i+j+t} = B_from(x^i, K x^j),

    the point part of B_from dropping out because every derivative of
    order <= N of K x^j vanishes at c. So B_to(f, g) = B_from(f, K g), and
    for k < n - N - 1

        B_to(s_n, p_k) = B_from(s_n, K p_k) = 0,

    since deg(K p_k) = k + N + 1 < n. The p_k being orthogonal on both
    sides with nonzero norms, s_n is its band expansion. Any other input,
    hand-typed target moments among them, has its rows checked.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    rows = [(s, s[-1]) for s in seq_from.int_rows[: len(seq_to)]]
    _, T_rows = _band_rows(rows, seq_to, N + 1, 0, (
        BandViolation,
        "connection entry ({n},{k}) = {monic} below band {lower}",
        "basis expansion disagrees with inner products at row {n}",
    ), _christoffel_proven(seq_from, seq_to, N))
    T = BandedOperator.from_fn(len(rows), N + 1, 0, lambda n, j: T_rows[n][j - max(0, n - N - 1)])
    return ConnectionMatrix(T, seq_from.norms_sq, seq_to.norms_sq, N)
