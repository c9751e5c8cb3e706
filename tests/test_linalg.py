"""Dense exact linear algebra checked against a symbolic oracle."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from opfold import (
    DimensionMismatch,
    Matrix,
    NotPositiveDefinite,
    SingularMatrix,
    inverse,
    nullspace,
    solve_linear,
)
from opfold import linalg
from opfold.linalg import _primes, exact_nullspace, ldlt

import oracles

entry = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def square(n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def to_sympy(m: Matrix) -> sp.Matrix:
    return sp.Matrix(
        m.nrows,
        m.ncols,
        lambda i, j: sp.Rational(m.rows[i][j].numerator, m.rows[i][j].denominator),
    )


@given(square(3), square(3))
@settings(max_examples=40)
def test_product_and_sum_match_oracle(a, b):
    ma, mb = Matrix.rational(a), Matrix.rational(b)
    assert to_sympy(ma @ mb) == to_sympy(ma) * to_sympy(mb)
    assert to_sympy(ma + mb) == to_sympy(ma) + to_sympy(mb)
    assert to_sympy(ma - mb) == to_sympy(ma) - to_sympy(mb)
    assert to_sympy(ma.transpose()) == to_sympy(ma).T


@given(square(3), st.lists(entry, min_size=3, max_size=3))
@settings(max_examples=40)
def test_solve_matches_oracle_or_flags_singular(a, rhs):
    ma = Matrix.rational(a)
    b = Matrix.rational([[v] for v in rhs])
    sa = to_sympy(ma)
    if sa.det() == 0:
        with pytest.raises(SingularMatrix):
            solve_linear(ma, b)
        return
    x = solve_linear(ma, b)
    assert to_sympy(ma @ x) == to_sympy(b)
    assert to_sympy(x) == sa.LUsolve(to_sympy(b))


@given(square(3))
@settings(max_examples=40)
def test_inverse_matches_oracle_or_flags_singular(a):
    ma = Matrix.rational(a)
    sa = to_sympy(ma)
    if sa.det() == 0:
        with pytest.raises(SingularMatrix):
            inverse(ma)
        return
    inv = inverse(ma)
    assert to_sympy(ma @ inv) == sp.eye(3)
    assert to_sympy(inv @ ma) == sp.eye(3)


@given(
    st.lists(st.lists(entry, min_size=4, max_size=4), min_size=2, max_size=5)
)
@settings(max_examples=40)
def test_nullspace_dimension_and_membership_match_oracle(rows):
    ma = Matrix.rational(rows)
    sa = to_sympy(ma)
    basis = nullspace(ma)
    assert len(basis) == sa.cols - sa.rank()
    for vec in basis:
        col = sp.Matrix([[sp.Rational(v.numerator, v.denominator)] for v in vec])
        assert (sa * col).is_zero_matrix
    if basis:
        stacked = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in vec] for vec in basis])
        assert stacked.rank() == len(basis)


def test_constructors_and_shape():
    eye = Matrix.identity(3)
    assert eye.is_square and eye.shape == (3, 3)
    assert eye @ eye == eye
    z = Matrix.zeros(2, 3)
    assert z.is_zero and z.shape == (2, 3)
    built = Matrix.from_fn(2, 2, lambda i, j: Fraction(i + 2 * j))
    assert built.rows == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(3)))
    assert built.row(1) == (Fraction(1), Fraction(3))
    assert built.transpose().row(1) == (Fraction(2), Fraction(3))
    mapped = built.map(lambda v: 2 * v)
    assert mapped.rows[1][1] == 6


def test_dimension_mismatch_raises():
    a = Matrix.rational([[1, 2], [3, 4]])
    b = Matrix.rational([[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(DimensionMismatch):
        a + b


def test_solve_refuses_a_non_square_system_and_a_short_right_hand_side():
    with pytest.raises(DimensionMismatch, match="must be square"):
        solve_linear(Matrix.rational([[1, 2]]), Matrix.rational([[1]]))
    with pytest.raises(DimensionMismatch, match="wrong row count"):
        solve_linear(Matrix.identity(2), Matrix.rational([[1]]))


def test_nullspace_survives_an_unlucky_first_prime():
    p0 = int(sp.nextprime(2**61))  # first prime of the modular stream
    assert nullspace(Matrix([[p0, 1]])) == [[Fraction(-1, p0), Fraction(1)]]


def test_nullspace_of_a_row_with_300_bit_entries():
    a, b = 2**299 + 5, -(2**300) + 3
    assert nullspace(Matrix([[a, b]])) == [[Fraction(-b, a), Fraction(1)]]


big = st.one_of(
    st.integers(-(2**300), 2**300),
    st.integers(-3, 3),
    st.just(0),
)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_nullspace_matches_the_integer_echelon_oracle(nr, nc, data):
    rows = [[data.draw(big) for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and data.draw(st.booleans()):
        # a dependent row keeps rank deficiency in play
        rows.append([x - 2 * y for x, y in zip(rows[0], rows[1])])
    assert nullspace(Matrix.rational(rows)) == oracles.echelon_nullspace(rows, nc)


@st.composite
def sparse_int_rows(draw):
    """Integer matrices with 0-30 rows and 1-30 columns, density 0.1-1,
    entries up to 2**200, and zero and duplicate rows mixed in."""
    nrows, ncols = draw(st.integers(0, 30)), draw(st.integers(1, 30))
    density = draw(st.floats(0.1, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() >= density:
            return 0
        bits = rng.choice((2, 200))
        return rng.randint(-(2**bits), 2**bits)

    rows = []
    for _ in range(nrows):
        kind = rng.choice(("random", "random", "random", "zero", "duplicate"))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate" and rows:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows, ncols


# the first prime of the modular stream, and two small primes that make
# zero pivots (entries divisible by p) common
KERNEL_PRIMES = (next(_primes()), 7, 101)


@given(sparse_int_rows(), st.sampled_from(KERNEL_PRIMES))
@settings(max_examples=150, deadline=None)
def test_sparse_mod_nullspace_matches_the_dense_oracle(system, p):
    rows, ncols = system
    assert oracles.mod_nullspace(rows, ncols, p) == oracles.dense_mod_nullspace(rows, ncols, p)


def test_sparse_mod_nullspace_with_a_zero_pivot_mod_p():
    # mod 7 the first column vanishes in row 0 and the rows become dependent
    rows = [[7, 1, 2], [14, 2, 4], [1, 0, 0]]
    for p in KERNEL_PRIMES:
        assert oracles.mod_nullspace(rows, 3, p) == oracles.dense_mod_nullspace(rows, 3, p)
    assert oracles.mod_nullspace(rows, 3, 7)[:2] == ((0, 1), [2])


@st.composite
def redundant_systems(draw):
    """Integer systems of rank r <= ncols whose r independent rows come
    in order with integer combinations of the rows before them between
    and after them: runs of rows that leave the rank unchanged sit
    among the rows that raise it, and at the end."""
    ncols = draw(st.integers(1, 12))
    rank = draw(st.integers(0, ncols))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(2**80), 2**80)))

    fresh = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    while fresh or rng.random() < 0.8:
        if fresh and (not rows or rng.random() < 0.4):
            rows.append(fresh.pop())
            continue
        picks = rng.sample(rows, min(len(rows), 3)) if rows else [[0] * ncols]
        coef = [rng.randint(-3, 3) for _ in picks]
        rows.append([sum(k * r[c] for k, r in zip(coef, picks)) for c in range(ncols)])
    return rows, ncols


@given(redundant_systems())
@settings(max_examples=150, deadline=None)
def test_exact_nullspace_matches_the_all_rows_route(system):
    rows, ncols = system
    assert exact_nullspace(rows, ncols) == oracles.all_rows_nullspace(rows, ncols)


def test_a_prefix_candidate_that_a_later_row_refutes_is_not_returned(monkeypatch):
    # row 1 repeats row 0, so the rows so far are tried; their vector
    # (1, 1, 0) solves both of them but not row 2, which raises the rank:
    # the attempt is dropped mod p against row 2 before any
    # reconstruction, and the one reconstruction is of all three rows
    rows = [[1, -1, 0], [2, -2, 0], [0, 1, -1]]
    tried, prefixes = [], []
    reconstruct, rref = linalg._reconstruct_basis, linalg._mod_rref

    def spy(residues, modulus, int_rows):
        residues = list(residues)
        tried.append(residues)
        return reconstruct(residues, modulus, int_rows)

    def spy_rref(tails, ncols, p):
        piv, free, vector = rref(tails, ncols, p)
        prefixes.append([vector(f) for f in free])
        return piv, free, vector

    monkeypatch.setattr(linalg, "_reconstruct_basis", spy)
    monkeypatch.setattr(linalg, "_mod_rref", spy_rref)
    assert exact_nullspace(rows, 3) == [[1, 1, 1]] == oracles.all_rows_nullspace(rows, 3)
    first = prefixes[0][0]
    assert first == [1, 1, 0]
    assert [sum(a * x for a, x in zip(r, first)) for r in rows] == [0, 0, 1]
    assert tried == [[[1, 1, 1]]]


def test_ldlt_pivot_policies():
    indefinite = Matrix.rational([[1, 2], [2, 1]])
    L, D = ldlt(indefinite)
    assert D == [1, -3] and L[1][0] == 2
    with pytest.raises(NotPositiveDefinite) as exc:
        ldlt(indefinite, pivots="positive")
    assert (exc.value.degree, exc.value.pivot) == (1, -3)
    with pytest.raises(NotPositiveDefinite):
        ldlt(indefinite, pivots="psd")
    singular_psd = Matrix.rational([[0, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert ldlt(singular_psd, pivots="psd")[1] == [0, 1, 0]
    with pytest.raises(SingularMatrix):
        ldlt(singular_psd)
    with pytest.raises(NotPositiveDefinite):
        ldlt(singular_psd, pivots="positive")
    with pytest.raises(NotPositiveDefinite):
        ldlt(Matrix.rational([[0, 1], [1, 0]]), pivots="psd")
    with pytest.raises(ValueError):
        ldlt(indefinite, pivots="pivoted")


@given(square(4))
@settings(max_examples=40)
def test_banded_ldlt_matches_dense_on_a_banded_matrix(a):
    # symmetrize and cut to bandwidth 1; whenever the dense factorization
    # exists the banded one must agree with it and reproduce the input
    band = Matrix.from_fn(
        4, 4, lambda i, j: a[min(i, j)][max(i, j)] if abs(i - j) <= 1 else Fraction(0)
    )
    try:
        dense = ldlt(band)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            ldlt(band, bandwidth=1)
        return
    L, D = ldlt(band, bandwidth=1)
    assert (L, D) == dense
    lm = Matrix(L)
    assert lm @ Matrix.from_fn(4, 4, lambda i, j: D[i] if i == j else Fraction(0)) @ lm.transpose() == band


def test_ldlt_refuses_a_negative_bandwidth():
    with pytest.raises(ValueError, match="bandwidth must be >= 0"):
        linalg.ldlt(Matrix.rational([[2, 1], [1, 2]]), -1)
