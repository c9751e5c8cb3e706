"""Independent oracles for the test suite.

Almost everything in this module is computed with sympy over exact
rationals, through formulas and algorithms deliberately different from the
library code paths they check. Conversions in and out go through plain
Fractions so a disagreement can only come from the mathematics, not the
carrier. These exceptions keep a replaced library route as the second,
independent one: fraction_christoffel_shift, the Fraction sum of weighted
moments that christoffel_shift was before it worked over integers;
IntEchelon, an incremental integer row echelon that used
to be the library's nullspace engine; dense_mod_nullspace, the dense GF(p)
elimination the modular kernel used before it went sparse; the
pairwise_* functions, which evaluate a bilinear form one pair of
polynomials at a time (a full polynomial product against the moments plus
derivative values at the point), as the library did before it held each
form as its monomial Gram; ldlt_monic_sequence, the Fraction LDL^T of
the Gram plus the inverse of its unit lower factor, which generated the
monic sequence before the form's own banded recurrence did;
dense_monic_sequence, that recurrence with G s_k formed and checked on
every row below k, as monic_sequence certified it before it checked the
Gram's shift symmetry once and G s_k only inside the window; the
eager_* functions, which build the Poly members of a monic sequence and
of its fold and monic normalization from the integer rows, one Fraction
per coefficient, as the builders did before the members became views
built on first read; the
dense_verify_* and poly_* routes of the Darboux and fold identities:
H = T T* and (J-c)^(N+1) = T* T checked over every entry pair with
dense float products, and the three-term, block and interlaced
recurrences, the banded expansion and the connection reconstruction
peeled and compared as Poly sums and Poly matrices, as the library did
before it checked them inside the band and over integer rows;
poly_verify_eigen, the residual R_n D - Lambda_n R_n formed in Poly
matrix arithmetic through apply_right, as verify_eigen did before it
evaluated discovery's integer equations; section_min_order, which
takes one nullspace per order of the hand-eliminated system
(fraction_min_order_rows) for the sections of min_order_check, as the
library did before it read them off one RREF basis and let the kernel
eliminate the eigenvalues;
all_rows_nullspace, exact_nullspace with every prime eliminating all
rows through mod_nullspace, as it did before it certified from the rows
that reach full rank;
scan_eigen_rows, which scans every (k, l, d) for each power, as
_eigen_rows did before it made one pass over the nonzero coefficients;
and the fold reassembly (stretch, reassemble, row_scalar and
poly_matrix_gram), which rebuilds each fold row as a scalar Poly and
evaluates the form once per pair through BilinearForm.__call__, as
matrix_gram did before it paired the fold's integer rows with the Gram.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import mul
from types import SimpleNamespace

import sympy as sp

from opfold.banded import BandedOperator, BlockTridiagonal
from opfold.darboux import FactorizationReport
from opfold.errors import (
    BandViolation,
    DimensionMismatch,
    IdentityViolated,
    InsufficientMoments,
    InsufficientSequence,
    NotPositiveDefinite,
    NumericalInstability,
    SingularLeading,
    SingularMatrix,
    SymmetryViolated,
)
from opfold.bispec import EigenReport
from opfold.linalg import (
    Matrix,
    _int_rows,
    _mod_reduce,
    _mod_rref,
    _primes,
    _reconstruct_basis,
    clear_denominators,
    exact_nullspace,
    inverse,
    ldlt,
    nullspace,
)
from opfold.matfold import FoldDecomposition, MatrixPolySequence, MonicNormalization, _taylor_row
from opfold.measures import gram_matrix
from opfold.orthopoly import (
    BandedRecurrence,
    ConnectionMatrix,
    JacobiMatrix,
    MonicSequence,
    coeff_at,
)
from opfold.poly import Poly
from opfold.rationals import _csqrt, as_fraction

X = sp.Symbol("x")


def to_frac(v) -> Fraction:
    r = sp.Rational(v)
    return Fraction(int(r.p), int(r.q))


def poly_to_sympy(p) -> sp.Expr:
    return sum(
        (sp.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(p.coeffs)),
        sp.Integer(0),
    )


def sympy_to_coeffs(expr) -> list[Fraction]:
    poly = sp.Poly(sp.expand(expr), X)
    out = [Fraction(0)] * (poly.degree() + 1)
    for (k,), c in poly.terms():
        r = sp.Rational(c)
        out[k] = Fraction(int(r.p), int(r.q))
    return out


def laguerre_moment_integral(alpha: int, k: int) -> Fraction:
    """Direct integral of x^k against x^alpha e^{-x} on (0, oo)."""
    val = sp.integrate(X ** (k + alpha) * sp.exp(-X), (X, 0, sp.oo))
    return to_frac(val)


def laguerre_moment(alpha: int, k: int) -> Fraction:
    return Fraction(int(sp.factorial(k + alpha)))


def hermite_moment_integral(k: int) -> Fraction:
    """Integral of x^k e^{-x^2}/sqrt(pi) over the real line."""
    val = sp.integrate(X**k * sp.exp(-(X**2)), (X, -sp.oo, sp.oo)) / sp.sqrt(sp.pi)
    return to_frac(sp.simplify(val))


def hermite_moment(k: int) -> Fraction:
    if k % 2:
        return Fraction(0)
    m = k // 2
    return Fraction(int(sp.factorial2(2 * m - 1)), 2**m)


def shifted_moment(moment_fn, c, power: int, k: int) -> Fraction:
    """k-th moment of (x-c)^power d mu via symbolic expansion."""
    expr = sp.expand((X - sp.Rational(c.numerator, c.denominator)) ** power * X**k)
    total = sp.Integer(0)
    for (j,), coeff in sp.Poly(expr, X).terms():
        m = moment_fn(j)
        total += coeff * sp.Rational(m.numerator, m.denominator)
    return to_frac(total)


def fraction_christoffel_shift(mu, c, power: int) -> tuple[Fraction, ...]:
    """Moments of (x-c)^power d mu as a Fraction sum of binomial weights
    times moments, as christoffel_shift computed them before it cleared
    denominators."""
    c = as_fraction(c)
    weights = [comb(power, i) * (-c) ** (power - i) for i in range(power + 1)]
    return tuple(
        sum((w * mu.moments[k + i] for i, w in enumerate(weights)), Fraction(0))
        for k in range(mu.count - power)
    )


def bilinear(moment_fn, c, M_rows, f: sp.Expr, g: sp.Expr) -> Fraction:
    """Sobolev-type pairing: integral part from moments plus the
    derivative mass quadratic form at the point c."""
    prod = sp.Poly(sp.expand(f * g), X)
    total = sp.Integer(0)
    for (k,), coeff in prod.terms():
        m = moment_fn(k)
        total += coeff * sp.Rational(m.numerator, m.denominator)
    cs = sp.Rational(c.numerator, c.denominator)
    for i, row in enumerate(M_rows):
        fi = sp.diff(f, X, i).subs(X, cs)
        for j, mij in enumerate(row):
            if mij == 0:
                continue
            gj = sp.diff(g, X, j).subs(X, cs)
            total += sp.Rational(mij.numerator, mij.denominator) * fi * gj
    return to_frac(total)


def monic_gram_schmidt(pair, n_max: int):
    """Monic orthogonal family for an arbitrary pairing callable.

    pair(f, g) must return a Fraction for sympy polynomial arguments.
    Returns (polys, norms) with polys[n] a sympy expression of degree n.
    """
    polys: list[sp.Expr] = []
    norms: list[Fraction] = []
    for n in range(n_max + 1):
        p = X**n
        for k in range(n):
            coef = pair(X**n, polys[k]) / norms[k]
            p = p - sp.Rational(coef.numerator, coef.denominator) * polys[k]
        p = sp.expand(p)
        polys.append(p)
        norms.append(pair(p, p))
    return polys, norms


def hankel_minor(moments: list[Fraction], n: int) -> Fraction:
    """Leading (n+1)x(n+1) moment-matrix determinant."""
    m = sp.Matrix(
        n + 1,
        n + 1,
        lambda i, j: sp.Rational(moments[i + j].numerator, moments[i + j].denominator),
    )
    return to_frac(m.det())


def nullspace_basis(rows: list[list[int]]):
    """Exact rational nullspace via sympy, as lists of Fractions."""
    m = sp.Matrix(rows)
    return [[to_frac(v) for v in vec] for vec in m.nullspace()]


def nullspace_dim(rows: list[list[int]]) -> int:
    m = sp.Matrix(rows)
    return m.cols - m.rank()


def in_span(rows: list[list[int]], vec: list[Fraction]) -> bool:
    """True when vec lies in the span of the given nullspace rows' kernel,
    i.e. the matrix annihilates vec."""
    m = sp.Matrix(rows)
    v = sp.Matrix([[sp.Rational(x.numerator, x.denominator)] for x in vec])
    return (m * v).is_zero_matrix


def is_psd_by_minors(rows) -> bool:
    """Symmetric matrix test: every principal minor is >= 0."""
    m = sp.Matrix([[sp.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in r] for r in rows])
    n = m.rows
    return all(
        m.extract(list(idx), list(idx)).det() >= 0
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    )


class IntEchelon:
    """Incremental integer row echelon over a fixed column count.

    Rows arrive as Fraction/int vectors; each is denominator-cleared and
    reduced against the stored pivot rows with two-product updates,
    stripping the content gcd periodically. Gives the rank, the pivot
    columns and the canonical rational nullspace.
    """

    _STRIP_EVERY = 24

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivots: dict[int, list[int]] = {}
        self._cols: list[int] = []  # sorted pivot columns

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self._cols)

    @staticmethod
    def _strip(row: list[int]) -> None:
        g = 0
        for v in row:
            if v:
                g = gcd(g, v)
                if g == 1:
                    return
        if g > 1:
            for i, v in enumerate(row):
                row[i] = v // g

    def reduce(self, row) -> list[int]:
        """Return the residual of row against the current echelon."""
        work = _int_rows([row])[0]
        if len(work) != self.ncols:
            raise DimensionMismatch("row length mismatch")
        steps = 0
        for c in self._cols:
            v = work[c]
            if v == 0:
                continue
            p = self._pivots[c]
            pc = p[c]
            g = gcd(v, pc)
            mult_row, mult_piv = pc // g, v // g
            # pivot row is zero before column c, but work may not be:
            # the whole row has to carry the scaling.
            if mult_row != 1:
                for i in range(c):
                    work[i] *= mult_row
            for i in range(c, self.ncols):
                work[i] = work[i] * mult_row - p[i] * mult_piv
            steps += 1
            if steps % self._STRIP_EVERY == 0:
                self._strip(work)
        self._strip(work)
        return work

    def add(self, row) -> bool:
        """Insert a row; returns True when it increased the rank."""
        res = self.reduce(row)
        lead = next((i for i, v in enumerate(res) if v != 0), None)
        if lead is None:
            return False
        if res[lead] < 0:
            res = [-v for v in res]
        self._pivots[lead] = res
        insort(self._cols, lead)
        return True

    def rref_rows(self) -> dict[int, list[Fraction]]:
        """Fully reduced rows keyed by pivot column, pivot normalized to 1."""
        rows: dict[int, list[Fraction]] = {}
        for c in reversed(self._cols):
            r = [Fraction(v) for v in self._pivots[c]]
            piv = r[c]
            r = [v / piv for v in r]
            for c2 in self._cols:
                if c2 > c and r[c2] != 0:
                    factor = r[c2]
                    done = rows[c2]
                    for i in range(c2, self.ncols):
                        r[i] -= factor * done[i]
            rows[c] = r
        return rows

    def nullspace(self) -> list[list[Fraction]]:
        """Canonical basis of the solution set of (stored rows) @ x = 0.

        One vector per free column in ascending order, unit entry at the
        free column.
        """
        rref = self.rref_rows()
        pivot_set = set(self._cols)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for c in self._cols:
                if c < f:
                    vec[c] = -rref[c][f]
            basis.append(vec)
        return basis


def echelon_nullspace(rows, ncols: int) -> list[list[Fraction]]:
    ech = IntEchelon(ncols)
    for r in rows:
        ech.add(r)
    return ech.nullspace()


def dense_mod_nullspace(int_rows, ncols: int, p: int):
    """Dense RREF nullspace over GF(p): (pivot_cols, free_cols, basis).

    The library's modular kernel before it went sparse: every row is
    reduced mod p up front, updated in full against the pivots in the
    order they were found, and the whole pivot set is back-substituted
    against every other pivot row.
    """
    piv_rows: list[list[int]] = []
    piv_cols: list[int] = []
    for raw in int_rows:
        row = [x % p for x in raw]
        for pr, pc in zip(piv_rows, piv_cols):
            f = row[pc]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, pr)]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [a * inv % p for a in row]
        piv_rows.append(row)
        piv_cols.append(lead)
    order = sorted(range(len(piv_cols)), key=lambda t: piv_cols[t])
    for idx in range(len(order) - 1, -1, -1):
        r = order[idx]
        prow = piv_rows[r]
        pc = piv_cols[r]
        for other in range(len(piv_rows)):
            if other == r:
                continue
            f = piv_rows[other][pc]
            if f:
                piv_rows[other] = [
                    (a - f * b) % p for a, b in zip(piv_rows[other], prow)
                ]
    pivset = set(piv_cols)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for pr, pc in zip(piv_rows, piv_cols):
            v[pc] = (-pr[f]) % p
        basis.append(v)
    return tuple(sorted(piv_cols)), free, basis


def mod_nullspace(int_rows, ncols: int, p: int):
    """RREF nullspace over GF(p) of all rows: (pivot_cols, free_cols,
    basis), from the library's sparse kernels (_mod_reduce on every row,
    then _mod_rref). The RREF mod p is canonical: the result does not
    depend on row order."""
    tails: dict[int, list[tuple[int, int]]] = {}
    for raw in int_rows:
        _mod_reduce(tails, raw, ncols, p)
    piv, free, vector = _mod_rref(tails, ncols, p)
    return piv, free, [vector(f) for f in free]


def all_rows_nullspace(int_rows, ncols: int) -> list[list[Fraction]]:
    """exact_nullspace as it was before it certified from a prefix of the
    rows: every prime, the first one too, eliminates all rows before a
    reconstruction is attempted. Structure choice, CRT and the Hadamard
    stop are the library's."""
    rows = [r for r in int_rows if any(r)]
    if not rows:
        return [[Fraction(int(c == f)) for c in range(ncols)] for f in range(ncols)]
    key = residues = modulus = limit = None
    for p in _primes():
        piv, free, basis = mod_nullspace(rows, ncols, p)
        structure = (len(free), piv)
        if key is None or structure < key:
            key, residues, modulus = structure, basis, p
        elif structure == key:
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
            limit = 2 * prod(sum(v * v for v in r) for r in rows)
        if modulus > limit:
            raise NumericalInstability("rational reconstruction failed past the Hadamard bound")


def scan_eigen_rows(table, i: int, bounds):
    """bispec._eigen_rows as it was before its one pass over the nonzero
    coefficients: for every power t, a scan of every (k, l, d) that
    reads the coefficient of y^(t-d)."""
    row = table[0][i]
    top = max(len(pol) + b for b, level in zip(bounds, table) for pol in level[i])
    eqs = []
    for t in range(max(top, *map(len, row))):
        terms = [
            (k, l, d, pol[t - d])
            for k, b in enumerate(bounds)
            for l, pol in enumerate(table[k][i])
            for d in range(max(t - len(pol) + 1, 0), min(b, t) + 1)
            if pol[t - d]
        ]
        eqs.append((terms, [coeff_at(e, t) for e in row]))
    return eqs


def pairwise_form(form):
    """The pairing of a BilinearForm evaluated from its definition.

    L[f g] comes from the full product f g against the moment table, the
    point part from derivative values at c; the degree budget is the one
    BilinearForm.__call__ enforces.
    """
    mu, c, M, top = form.mu, form.c, form.M, form.max_degree

    def pair(p, q):
        if p.degree > top or q.degree > top:
            raise InsufficientMoments(max(p.degree, q.degree) * 2, top * 2)
        total = sum((a * mu.moments[k] for k, a in enumerate((p * q).coeffs)), Fraction(0))
        if M is not None:
            pd = [p.derivative(j)(c) for j in range(M.nrows)]
            qd = [q.derivative(k)(c) for k in range(M.nrows)]
            for j in range(M.nrows):
                for k in range(M.nrows):
                    total += M[j, k] * pd[j] * qd[k]
        return total

    return pair


def pairwise_gram(form, n: int) -> list[list[Fraction]]:
    if n > form.max_degree:
        raise InsufficientMoments(2 * n, 2 * form.max_degree)
    pair = pairwise_form(form)
    return [[pair(Poly.monomial(i), Poly.monomial(j)) for j in range(n + 1)] for i in range(n + 1)]


def pairwise_symmetry_check(form, N: int, degree: int, c):
    """(ok, counterexample, lhs, rhs) of the symmetry scan, pair by pair:
    B(K x^a, x^b) against B(x^a, K x^b), K = (x-c)^{N+1}, for a, b <= degree.
    The moment budget, degree + N + 1 on either side, is checked first."""
    if degree + N + 1 > form.max_degree:
        raise InsufficientMoments(2 * (degree + N + 1), 2 * form.max_degree)
    pair = pairwise_form(form)
    K = Poly((-c, Fraction(1))) ** (N + 1)
    for a in range(degree + 1):
        xa = Poly.monomial(a)
        for b in range(degree + 1):
            xb = Poly.monomial(b)
            lhs, rhs = pair(K * xa, xb), pair(xa, K * xb)
            if lhs != rhs:
                return False, (a, b), lhs, rhs
    return True, None, None, None


def pairwise_recurrence_raw(seq, c, N: int) -> list[list[Fraction]]:
    """raw[n][k] = B((x-c)^{N+1} s_n, s_k) inside the band, one pairing per
    entry; a nonzero entry outside it raises SymmetryViolated."""
    size = len(seq)
    pair = pairwise_form(seq.form)
    shift = Poly((-c, Fraction(1))) ** (N + 1)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(size):
        shifted = shift * seq.poly(n)
        for k in range(size):
            v = pair(shifted, seq.poly(k))
            if abs(n - k) > N + 1:
                if v != 0:
                    raise SymmetryViolated(
                        f"entry ({n},{k}) = {v} outside band {N + 1}; "
                        "multiplication by the shift is not symmetric for this form"
                    )
            else:
                rows[n][k] = v
    return rows


def poly_banded_recurrence(seq, c, N: int):
    """banded_recurrence from the pairwise table, with the expansion
    (x-c)^{N+1} s_n = sum_k monic[n][k] s_k re-checked as a Poly sum on
    the trusted rows."""
    c = as_fraction(c)
    size = len(seq)
    raw = BandedOperator(size, N + 1, N + 1, pairwise_recurrence_raw(seq, c, N))
    monic = BandedOperator.from_fn(
        size, N + 1, N + 1, lambda n, k: raw.entry(n, k) / seq.norm_sq(k)
    )
    shift = Poly((-c, Fraction(1))) ** (N + 1)
    for n in range(size - (N + 1)):
        acc = Poly()
        for k in range(max(0, n - N - 1), min(size, n + N + 2)):
            acc = acc + monic.entry(n, k) * seq.poly(k)
        if acc != shift * seq.poly(n):
            raise IdentityViolated(f"banded expansion failed at row {n}")
    return BandedRecurrence(raw, monic, seq.norms_sq, c, N)


def poly_connection_matrix(seq_from, seq_to, N: int):
    """connection_matrix with one pairing per entry and each row rebuilt
    as a Poly sum of the seq_to basis, row by row."""
    pair = pairwise_form(seq_to.form)
    size = min(len(seq_from), len(seq_to))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(size):
        for j in range(n + 1):
            v = pair(seq_from.poly(n), seq_to.poly(j)) / seq_to.norm_sq(j)
            if j >= n - (N + 1):
                rows[n][j] = v
            elif v:
                raise BandViolation(f"connection entry ({n},{j}) = {v} below band {N + 1}")
        recon = Poly()
        for j in range(max(0, n - N - 1), n + 1):
            recon = recon + rows[n][j] * seq_to.poly(j)
        if recon != seq_from.poly(n):
            raise IdentityViolated(f"basis expansion disagrees with inner products at row {n}")
    T = BandedOperator(size, N + 1, 0, rows)
    return ConnectionMatrix(T, seq_from.norms_sq, seq_to.norms_sq, N)


def poly_jacobi_matrix(seq):
    """jacobi_matrix peeled in Poly arithmetic: b_n and lam_n are read off
    x s_n - s_{n+1} and multiplied back, the remainder must be the zero
    polynomial and lam_n the norm ratio."""
    m = len(seq) - 1
    if m < 1:
        raise InsufficientSequence("need at least two polynomials")
    x = Poly.x()
    b = []
    lam = []
    for n in range(m):
        t = x * seq.poly(n) - seq.poly(n + 1)
        bn = t.coeff(n)
        r = t - bn * seq.poly(n)
        b.append(bn)
        if n == 0:
            if not r.is_zero:
                raise IdentityViolated("three-term residual nonzero at n=0")
            continue
        ln = r.coeff(n - 1)
        if not (r - ln * seq.poly(n - 1)).is_zero:
            raise IdentityViolated(f"three-term residual nonzero at n={n}")
        if ln != seq.norm_sq(n) / seq.norm_sq(n - 1):
            raise IdentityViolated(f"product coefficient disagrees with norm ratio at n={n}")
        lam.append(ln)
    return JacobiMatrix(tuple(b), tuple(lam))


def unit_lower_inverse(L) -> list[list[Fraction]]:
    """Inverse of a unit lower triangular matrix by forward substitution."""
    n = len(L)
    M = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        M[j][j] = Fraction(1)
        for i in range(j + 1, n):
            acc = Fraction(0)
            for k in range(j, i):
                acc -= L[i][k] * M[k][j]
            M[i][j] = acc
    return M


def ldlt_monic_sequence(form, n_max: int, require_positive: bool = True):
    """s_0..s_{n_max} from the Fraction LDL^T of the monomial Gram.

    The rows of L^{-1} are the monic coefficient vectors and the pivots
    the squared norms, with ldlt's pivot policy deciding which pivots are
    fatal.
    """
    g = gram_matrix(form, n_max)
    L, D = ldlt(g, pivots="positive" if require_positive else "nonzero")
    inv = unit_lower_inverse(L)
    polys = tuple(Poly(inv[n][: n + 1]) for n in range(n_max + 1))
    return MonicSequence(polys, tuple(D), form)


def dense_monic_sequence(form, n_max: int, require_positive: bool = True):
    """Generate s_0..s_{n_max} by the form's own banded recurrence, with
    G s_k formed on rows 0 .. k + 2r and checked on every row below k.

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
    second way: G s_k must vanish in integers on every row i < k, that is
    s_k is orthogonal to every monomial of lower degree, else
    IdentityViolated names the first such i.

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
            if gs[i]:
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
    seq = MonicSequence(tuple(polys), tuple(norms), form)
    object.__setattr__(seq, "int_rows", tuple(map(tuple, S)))
    return seq


def eager_polys(seq) -> tuple:
    """The members of a certified sequence as monic_sequence built them:
    each integer row over its leading entry, one Fraction per coefficient."""
    return tuple(Poly(Fraction(a, s[k]) for a in s) for k, s in enumerate(seq.int_rows))


def eager_fold_mats(seq, N: int, c=0) -> tuple:
    """The blocks of build_matrix_sequence(seq, N, c) as it built them:
    entry (i, j) of block n is the residue-j slice of the Taylor row at c
    of member (N+1)n+i, which about 0 is the member's own Fractions."""
    c, step = as_fraction(c), N + 1
    polys = eager_polys(seq)
    mats = []
    for n in range(len(seq) // step):
        ks = range(step * n, step * n + step)
        taylor = [_taylor_row(list(seq.int_rows[k]), seq.int_rows[k][-1], c) for k in ks]
        rows = [polys[k].coeffs if not c else [Fraction(a, d) for a in t] for k, (t, d) in zip(ks, taylor)]
        mats.append(Matrix([[Poly(p[j::step]) for j in range(step)] for p in rows]))
    return tuple(mats)


def eager_monic_mats(R) -> tuple:
    """The blocks of a monic_normalize result R as it built them: each
    carried integer block over its denominator, one Fraction per
    coefficient."""
    return tuple(
        Matrix([[Poly(Fraction(a, bden) for a in e) for e in row] for row in brows])
        for brows, bden in R.int_blocks
    )


def stretch(p, k: int):
    """q with q(x) = p(x**k)."""
    return Poly(p.coeff(i // k) if i % k == 0 else 0 for i in range(p.degree * k + 1))


def reassemble(dec: FoldDecomposition):
    """The scalar s(x) = sum_k (x-c)^k q_k((x-c)^{N+1}) of a fold: each
    part stretched and multiplied by x^k, summed, then shifted by -c."""
    out = Poly()
    for k, q in enumerate(dec.parts):
        out = out + Poly.monomial(k) * stretch(q, len(dec.parts))
    return out.shift(-dec.c)


def row_scalar(R, n: int, i: int):
    """Row i of block n of R reassembled into its scalar polynomial."""
    rows, den = R.int_block(n)
    return reassemble(FoldDecomposition(tuple(Poly(Fraction(a, den) for a in e) for e in rows[i]), R.c))


def poly_matrix_gram(R, n: int, m: int):
    """matrix_gram with entry (i, j) the scalar form, called on the Polys
    of rows i of block n and j of block m."""
    rows_n = [row_scalar(R, n, i) for i in range(R.block_size)]
    rows_m = [row_scalar(R, m, j) for j in range(R.block_size)]
    return Matrix.from_fn(R.block_size, R.block_size, lambda i, j: R.scalars.form(rows_n[i], rows_m[j]))


def _deriv_table(R, n: int, order: int):
    mats = [R.mat(n)]
    for _ in range(order):
        mats.append(mats[-1].map(lambda e: e.derivative()))
    return mats


def _coeff(p, k: int) -> Fraction:
    return p.coeff(k) if k >= 0 else Fraction(0)


def fraction_scalar_rows(seq, ladder, order: int, n_fit: int):
    """The augmented system [A | -b] of discover_scalar, as dense Fraction
    rows built from Poly derivatives."""
    nuk = (order + 1) * (order + 2) // 2
    offsets = [k * (k + 1) // 2 for k in range(order + 1)]
    rows = []
    for m in range(n_fit + 1):
        s = seq.poly(m)
        lam = as_fraction(ladder(m))
        derivs = [s.derivative(k) for k in range(order + 1)]
        for t in range(m + 1):
            row = [Fraction(0)] * (nuk + 1)
            for k in range(order + 1):
                for d in range(k + 1):
                    c = _coeff(derivs[k], t - d)
                    if c:
                        row[offsets[k] + d] = c
            row[nuk] = -lam * s.coeff(t)
            if any(row):
                rows.append(row)
    return rows


def fraction_discovery_rows(R, ladder, order: int, degree_bound: int, n_fit: int, j: int):
    """The augmented system [A | -b] of discover_operator for column j, as
    dense Fraction rows built from Poly derivatives."""
    size = R.block_size
    nuk = (order + 1) * size * (degree_bound + 1)
    rows = []
    for n in range(n_fit + 1):
        derivs = _deriv_table(R, n, order)
        lam = ladder(n)
        for i in range(size):
            maxdeg = max((derivs[0][i, l].degree for l in range(size)), default=0)
            for t in range(maxdeg + degree_bound + 1):
                row = [Fraction(0)] * (nuk + 1)
                for k in range(order + 1):
                    for l in range(size):
                        for d in range(degree_bound + 1):
                            c = _coeff(derivs[k][i, l], t - d)
                            if c:
                                row[(k * size + l) * (degree_bound + 1) + d] = c
                row[nuk] = -lam[i, i] * _coeff(derivs[0][i, j], t)
                if any(row):
                    rows.append(row)
    return rows


def fraction_min_order_rows(R, max_order: int, degree_bound: int, n_fit: int):
    """The homogeneous min-order system with each lambda_{n,i} eliminated
    by hand through the coefficient of y^n in entry (i, i), as
    min_order_check built it before the kernel eliminated the
    eigenvalues, as dense Fraction rows built from Poly derivatives."""
    size = R.block_size
    nuk = (max_order + 1) * size * size * (degree_bound + 1)

    def uidx(k, l, j, d):
        return ((k * size + l) * size + j) * (degree_bound + 1) + d

    rows = []
    for n in range(n_fit + 1):
        derivs = _deriv_table(R, n, max_order)
        for i in range(size):
            pivot = [
                (uidx(k, l, i, d), _coeff(derivs[k][i, l], n - d))
                for k in range(max_order + 1)
                for l in range(size)
                for d in range(degree_bound + 1)
            ]
            maxdeg = max((derivs[0][i, l].degree for l in range(size)), default=0)
            for j in range(size):
                for t in range(maxdeg + degree_bound + 1):
                    if j == i and t == n:
                        continue
                    row = [Fraction(0)] * nuk
                    for k in range(max_order + 1):
                        for l in range(size):
                            for d in range(degree_bound + 1):
                                c = _coeff(derivs[k][i, l], t - d)
                                if c:
                                    row[uidx(k, l, j, d)] = c
                    rj = _coeff(derivs[0][i, j], t)
                    for idx, c in pivot:
                        row[idx] -= rj * c
                    if any(row):
                        rows.append(row)
    return rows


def fraction_min_order_eigen_rows(R, max_order: int, degree_bound: int, n_fit: int):
    """The system min_order_check hands the kernel, as dense Fraction rows
    built from Poly derivatives: lambda_{n,i} is the unknown at column
    n * size + i, before the operator coefficients, and the y^n equation
    of entry (i, i), which pins it, comes before every other row."""
    size = R.block_size
    nlam = size * (n_fit + 1)
    ncols = nlam + (max_order + 1) * size * size * (degree_bound + 1)

    def uidx(k, l, j, d):
        return nlam + ((k * size + l) * size + j) * (degree_bound + 1) + d

    pins, rows = [], []
    for n in range(n_fit + 1):
        derivs = _deriv_table(R, n, max_order)
        for i in range(size):
            maxdeg = max((derivs[0][i, l].degree for l in range(size)), default=0)
            for j in range(size):
                for t in range(maxdeg + degree_bound + 1):
                    row = [Fraction(0)] * ncols
                    for k in range(max_order + 1):
                        for l in range(size):
                            for d in range(degree_bound + 1):
                                c = _coeff(derivs[k][i, l], t - d)
                                if c:
                                    row[uidx(k, l, j, d)] = c
                    row[n * size + i] = -_coeff(derivs[0][i, j], t)
                    if any(row):
                        (pins if (j, t) == (i, n) else rows).append(row)
    return pins + rows


def apply_right(F, op) -> Matrix:
    """Exact action sum_k (d^k F) @ D_k, as Poly matrix products."""
    if F.ncols != op.size:
        raise DimensionMismatch(f"{F.shape} against operator size {op.size}")
    out = None
    for k in range(op.order + 1):
        dk = F.map(lambda e: e.derivative(k)) if k else F
        term = dk @ op.coeffs[k]
        out = term if out is None else out + term
    return out


def poly_verify_eigen(R, op, ladder, n_range) -> EigenReport:
    """verify_eigen with the residual R_n . op - Lambda_n R_n formed in
    Poly matrix arithmetic."""
    results = []
    first = None
    res_repr = None
    for n in n_range:
        lam = ladder(n).map(lambda v: Poly.constant(v))
        residual = apply_right(R.mat(n), op) - lam @ R.mat(n)
        good = all(
            residual[i, j].is_zero
            for i in range(residual.nrows)
            for j in range(residual.ncols)
        )
        results.append((n, good))
        if not good and first is None:
            first = n
            res_repr = repr(residual)
    return EigenReport(first is None, tuple(results), first, res_repr)


def section_min_order(R, max_order: int, degree_bound: int, n_fit: int):
    """(min_order, feasible, section_dims) of min_order_check, by a
    nullspace per order: section m is the nullspace, over the basis of
    the fraction rows' nullspace, of every d^k coordinate with k > m; it
    is feasible when one of its vectors has a ladder that varies with n,
    each ladder read as the y^n coefficients of the diagonal of R_n D
    through apply_right."""
    size = R.block_size
    per_order = size * size * (degree_bound + 1)
    nuk = (max_order + 1) * per_order

    def uidx(k, l, j, d):
        return ((k * size + l) * size + j) * (degree_bound + 1) + d

    V = exact_nullspace(_int_rows(fraction_min_order_rows(R, max_order, degree_bound, n_fit)), nuk)

    def ladder(vec):
        # apply_right reads only order, size and coeffs, and a section
        # vector may leave the top coefficients zero
        op = SimpleNamespace(
            order=max_order,
            size=size,
            coeffs=[
                Matrix.from_fn(
                    size,
                    size,
                    lambda l, j: Poly(vec[uidx(k, l, j, 0) : uidx(k, l, j, 0) + degree_bound + 1]),
                )
                for k in range(max_order + 1)
            ],
        )
        return [
            tuple(apply_right(R.mat(n), op)[i, i].coeff(n) for i in range(size))
            for n in range(n_fit + 1)
        ]

    basis_ladders = [ladder(v) for v in V]
    feasible, dims = [], []
    for m in range(max_order + 1):
        banned = range((m + 1) * per_order, nuk)
        constraint = lambda r, s: V[s][banned[r]] if banned else Fraction(0)
        alphas = nullspace(Matrix.from_fn(max(len(banned), 1), len(V), constraint)) if V else []
        dims.append(len(alphas))
        combined = (
            [
                [sum(a * lv[n][i] for a, lv in zip(alpha, basis_ladders)) for i in range(size)]
                for n in range(n_fit + 1)
            ]
            for alpha in alphas
        )
        feasible.append(any(any(row != lv[0] for row in lv) for lv in combined))
    min_order = next((m for m, f in enumerate(feasible) if f), None)
    return min_order, tuple(feasible), tuple(dims)


def dense_verify_h(rec, fact, float_tol: float = 1e-12):
    """verify_h_factorization over all n^2 entry pairs, with the dense
    float orthonormal factor and square roots taken of the norms
    themselves (which overflow a float past about degree 100)."""
    n = rec.size
    L, D = fact.T_monic, fact.pivots
    worst = None
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for k in range(max(0, max(i, j) - fact.bandwidth), min(i, j) + 1):
                acc += L.entry(i, k) * L.entry(j, k) * D[k]
            if acc != rec.raw.entry(i, j):
                raise IdentityViolated(
                    f"H != T diag T^t at entry ({i},{j}): {acc} vs {rec.raw.entry(i, j)}"
                )
    size = fact.size
    sp = [_csqrt(p) for p in D]
    sn = [_csqrt(v) for v in rec.norms_sq]
    Tf = [
        [complex(L.entry(i, j)) * sp[j] / sn[i] for j in range(size)]
        for i in range(size)
    ]
    err = 0.0
    scale = 1.0
    for i in range(n):
        for j in range(n):
            lhs = sum(Tf[i][k] * Tf[j][k] for k in range(min(i, j) + 1))
            rhs = complex(rec.raw.entry(i, j)) / (sn[i] * sn[j])
            scale = max(scale, abs(rhs))
            d = abs(lhs - rhs)
            if d > err:
                err, worst = d, (i, j)
    rel = err / scale
    if rel > float_tol:
        raise IdentityViolated(f"orthonormal float check failed: {rel} at {worst}")
    return FactorizationReport(True, n, rel, worst)


def shift_power(jac, c, k: int) -> list[list[Fraction]]:
    """(J - c)^k as dense rows, J the monic Jacobi matrix of jac (b_n on
    the diagonal, ones above it, lam_n below it). Each product sums over
    the three rows of J that can be nonzero in the column."""
    c = as_fraction(c)
    n = jac.size

    def entry(i, j):
        if i == j:
            return jac.b[i] - c
        if j == i + 1:
            return Fraction(1)
        if i == j + 1:
            return jac.lam[j]
        return Fraction(0)

    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [
            [sum(row[l] * entry(l, j) for l in range(max(0, j - 1), min(n, j + 2))) for j in range(n)]
            for row in power
        ]
    return power


def dense_verify_ul(jac, c, N: int, conn, float_tol: float = 1e-12):
    """verify_ul_identity over all trusted pairs, with the exact dense
    power of shift_power and a dense O(n^3) float power."""
    c = as_fraction(c)
    m = conn.size
    nu = conn.from_norms_sq
    d = conn.to_norms_sq
    T = conn.T_monic
    jsize = jac.size
    power = shift_power(jac, c, N + 1)
    trusted = min(m - (N + 1), jsize - (N + 1))
    if trusted <= 0:
        raise IdentityViolated("truncation too small to trust any row")
    worst = None
    for j in range(trusted):
        for k in range(trusted):
            acc = Fraction(0)
            for n in range(max(j, k), min(m - 1, min(j, k) + N + 1) + 1):
                acc += T.entry(n, j) * T.entry(n, k) / nu[n]
            lhs = power[j][k]
            if lhs != d[j] * acc:
                raise IdentityViolated(
                    f"(J-c)^{N + 1} != T^*T at entry ({j},{k}): {lhs} vs {d[j] * acc}"
                )
    sd = [_csqrt(v) for v in d]
    snu = [_csqrt(v) for v in nu]
    if len(sd) < jsize:
        raise DimensionMismatch(
            f"norm list covers {len(sd)} rows, Jacobi truncation has {jsize}"
        )
    jf = [[0.0 + 0j] * jsize for _ in range(jsize)]
    for i in range(jsize):
        jf[i][i] = complex(jac.b[i] - c)
        if i + 1 < jsize:
            off = sd[i + 1] / sd[i]
            jf[i][i + 1] = off
            jf[i + 1][i] = off
    powf = [[1.0 + 0j if i == j else 0j for j in range(jsize)] for i in range(jsize)]
    for _ in range(N + 1):
        powf = [
            [sum(powf[i][l] * jf[l][j] for l in range(jsize)) for j in range(jsize)]
            for i in range(jsize)
        ]
    err, scale = 0.0, 1.0
    for j in range(trusted):
        for k in range(trusted):
            rhs = 0j
            for n in range(max(j, k), min(m - 1, min(j, k) + N + 1) + 1):
                tnj = complex(T.entry(n, j)) * sd[j] / snu[n]
                tnk = complex(T.entry(n, k)) * sd[k] / snu[n]
                rhs += tnj * tnk
            lhs = powf[j][k]
            scale = max(scale, abs(lhs))
            dd = abs(lhs - rhs)
            if dd > err:
                err, worst = dd, (j, k)
    rel = err / scale
    if rel > float_tol:
        raise IdentityViolated(f"orthonormal float check failed: {rel} at {worst}")
    return FactorizationReport(True, trusted, rel, worst)


def poly_monic_normalize(R):
    """monic_normalize in Poly matrix arithmetic: each block is multiplied
    on the left by the inverse of its leading coefficient, read off its
    Poly entries and inverted by elimination, and the product must have
    identity leading coefficient."""
    mats = []
    leadings = []
    ident = Matrix.identity(R.block_size)
    for n in range(len(R)):
        lead = R.mat(n).map(lambda e: e.coeff(n))
        try:
            linv = inverse(lead)
        except SingularMatrix as exc:
            raise SingularLeading(f"leading coefficient of block {n} is singular") from exc
        scaled = linv @ R.mat(n)
        if scaled.map(lambda e: e.coeff(n)) != ident:
            raise IdentityViolated(f"block {n} failed to become monic")
        mats.append(scaled)
        leadings.append(lead)
    seq = MatrixPolySequence(tuple(mats), R.N, monic=True, scalars=R.scalars, c=R.c)
    return MonicNormalization(seq, tuple(leadings))


def poly_matrix_ttrr(R):
    """The monic block Jacobi of matrix_ttrr, peeled degree by degree in
    Poly arithmetic: D_n and C_n are read off the residual and multiplied
    back, and the remaining matrix polynomial must be zero."""
    if not R.monic:
        raise IdentityViolated("block recurrence extraction expects monic blocks")
    m = len(R)
    if m < 2:
        raise InsufficientSequence("need at least two blocks for a recurrence step")
    y = Poly.x()
    diag = []
    sub = []
    for n in range(m - 1):
        r = R.mat(n).map(lambda e: y * e) - R.mat(n + 1)
        D = r.map(lambda e: e.coeff(n))
        r = r - D.map(lambda v: Poly.constant(v)) @ R.mat(n)
        diag.append(D)
        if n > 0:
            C = r.map(lambda e: e.coeff(n - 1))
            r = r - C.map(lambda v: Poly.constant(v)) @ R.mat(n - 1)
            sub.append(C)
        if not all(r[i, j].is_zero for i in range(r.nrows) for j in range(r.ncols)):
            raise IdentityViolated(f"block recurrence residual nonzero at n={n}")
    ident = Matrix.identity(R.block_size)
    return BlockTridiagonal(tuple(diag), tuple(sub), tuple(ident for _ in range(len(diag) - 1)))


def poly_w_interlace_check(P_mats, Q_mats, zetas, count: int) -> list[int]:
    """w_interlace_check with W_n built as a matrix of stretched Polys and
    the identity compared as matrix polynomials."""

    def w(k: int):
        if k < 0:
            b = P_mats[0].nrows
            return Matrix.zeros(b, b, zero=Poly())
        half, odd = divmod(k, 2)
        mat = (Q_mats if odd else P_mats)[half]
        stretched = mat.map(lambda e: stretch(e, 2))
        if odd:
            return stretched.map(lambda e: Poly.x() * e)
        return stretched

    x = Poly.x()
    checked = []
    for n in range(count):
        lhs = w(n).map(lambda e: x * e)
        rhs = w(n + 1) + zetas.zeta(n).map(lambda v: Poly.constant(v)) @ w(n - 1)
        if lhs != rhs:
            raise IdentityViolated(f"interlaced recurrence failed at n={n}")
        checked.append(n)
    return checked
