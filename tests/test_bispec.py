"""Differential-operator layer: the tabulated order-8 operator, exact
eigen verification, nullspace-based discovery, minimal-order certificates,
the scalar route, and the root-of-unity conjugation check."""

import functools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import opfold.bispec
from opfold.bispec import exact_nullspace
from opfold.linalg import _int_rows

import oracles


# -- tabulated operator and ladder ----------------------------------------


def test_reference_operator_shape_and_low_coefficients():
    ref, lad = op.reference_operator()
    assert ref.order == 8
    assert ref.size == 2
    d0 = ref.coeffs[0]
    assert d0[0, 0] == op.Poly(())
    assert d0[0, 1] == op.Poly(())
    assert d0[1, 0] == op.Poly.constant(Fraction(-3))
    assert d0[1, 1] == op.Poly.constant(Fraction(3))
    assert lad(0).rows == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(3)))
    assert lad(1).rows == ((Fraction(9), Fraction(0)), (Fraction(0), Fraction(27)))


def test_ladder_diagonal_carries_both_scalar_families():
    _, lad = op.reference_operator()
    for n in range(12):
        m = lad(n)
        assert m[0, 0] == op.reference_scalar_ladder(2 * n)
        assert m[1, 1] == op.reference_scalar_ladder(2 * n + 1)
        assert m[0, 1] == 0 and m[1, 0] == 0


def test_eigen_identity_on_folded_blocks(canon):
    ref, lad = op.reference_operator()
    rep = op.verify_eigen(canon["fold"], ref, lad, range(9))
    assert rep.ok
    assert rep.first_failure is None
    assert all(good for _, good in rep.results)


def test_eigen_check_reads_no_poly_block(canon):
    # the block shapes come from the integer rows, so a fresh fold keeps
    # its Poly view unbuilt
    ref, lad = op.reference_operator()
    fold = op.build_matrix_sequence(canon["seq"], 1)
    assert op.verify_eigen(fold, ref, lad, range(9)).ok
    assert "mats" not in vars(fold)


def test_eigen_identity_spot_rows(canon):
    # block 0 row 1 is the constant row (-1, 1) and maps to 3 times itself;
    # block 1 row 0 is (y, -2) and maps to 9 times itself
    fold = canon["fold"]
    ref, _ = op.reference_operator()
    m0, m1 = fold.mat(0), fold.mat(1)
    assert [m0[1, 0], m0[1, 1]] == [op.Poly((-1,)), op.Poly((1,))]
    assert [m1[0, 0], m1[0, 1]] == [op.Poly((0, 1)), op.Poly((-2,))]
    img0 = oracles.apply_right(m0, ref)
    img1 = oracles.apply_right(m1, ref)
    three = op.Poly.constant(Fraction(3))
    nine = op.Poly.constant(Fraction(9))
    assert [img0[1, 0], img0[1, 1]] == [three * m0[1, 0], three * m0[1, 1]]
    assert [img1[0, 0], img1[0, 1]] == [nine * m1[0, 0], nine * m1[0, 1]]


def test_eigen_check_localizes_a_perturbed_coefficient(canon):
    ref, lad = op.reference_operator()
    bumped = list(ref.coeffs)
    d3 = [[bumped[3][i, j] for j in range(2)] for i in range(2)]
    d3[0][0] = d3[0][0] + op.Poly.constant(Fraction(1))
    bumped[3] = op.Matrix(d3)
    broken = op.RightDifferentialOperator(8, tuple(bumped))
    rep = op.verify_eigen(canon["fold"], broken, lad, range(6))
    assert not rep.ok
    assert rep.first_failure is not None
    assert rep.residual


def test_eigen_check_localizes_a_perturbed_eigenvalue(canon):
    ref, lad = op.reference_operator()

    def skewed(n):
        m = lad(n)
        if n == 3:
            return op.Matrix(
                [[m[0, 0] + 1, Fraction(0)], [Fraction(0), m[1, 1]]]
            )
        return m

    bad = op.EigenvalueLadder(skewed, 2)
    assert op.verify_eigen(canon["fold"], ref, bad, range(3)).ok
    rep = op.verify_eigen(canon["fold"], ref, bad, range(6))
    assert not rep.ok
    assert rep.first_failure == 3
    assert rep.results[3] == (3, False)


def test_zero_operator_with_zero_ladder_passes(canon):
    zero = op.Matrix([[op.Poly(()), op.Poly(())], [op.Poly(()), op.Poly(())]])
    zop = op.RightDifferentialOperator(0, (zero,))
    zlad = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[0, 0], [0, 0]]), 2
    )
    assert op.verify_eigen(canon["fold"], zop, zlad, range(4)).ok


def test_operator_and_ladder_guards():
    zero = op.Matrix([[op.Poly(()), op.Poly(())], [op.Poly(()), op.Poly(())]])
    with pytest.raises(op.IdentityViolated):
        op.RightDifferentialOperator(1, (zero, zero))
    with pytest.raises(op.DimensionMismatch):
        op.RightDifferentialOperator(2, (zero,))
    # a negative order is refused before the top coefficient is read
    with pytest.raises(op.DimensionMismatch, match="order >= 0"):
        op.RightDifferentialOperator(-1, ())
    skew = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[0, 1], [0, 0]]), 2
    )
    with pytest.raises(op.IdentityViolated):
        skew(0)
    with pytest.raises(op.DimensionMismatch):
        oracles.apply_right(op.Matrix([[op.Poly((1,))]]), op.reference_operator()[0])


def test_zero_operator_fails_the_worked_ladder_at_block_zero(canon):
    # block 0 row 1 is (-1, 1) with eigenvalue 3, which the zero operator
    # cannot match, although every one of its degree bounds is -1
    zero = op.Matrix([[op.Poly(()), op.Poly(())], [op.Poly(()), op.Poly(())]])
    zop = op.RightDifferentialOperator(0, (zero,))
    _, lad = op.reference_operator()
    rep = op.verify_eigen(canon["fold"], zop, lad, range(3))
    assert rep.first_failure == 0 and not rep.results[0][1]
    assert rep == oracles.poly_verify_eigen(canon["fold"], zop, lad, range(3))


def test_eigen_check_with_fractional_eigenvalues(canon):
    # a third of the operator has a third of the ladder, so eigenvalues
    # with denominators verify; moving one by 1/2 leaves the residual
    # -1/2 times that row of the block
    ref, lad = op.reference_operator()
    third = op.RightDifferentialOperator(8, tuple(m * Fraction(1, 3) for m in ref.coeffs))
    lad3 = op.EigenvalueLadder(lambda n: lad(n) * Fraction(1, 3), 2)
    assert op.verify_eigen(canon["fold"], third, lad3, range(6)).ok

    def skewed(n):
        m = lad3(n)
        return op.Matrix([[m[0, 0] + Fraction(1, 2) * (n == 2), 0], [0, m[1, 1]]])

    rep = op.verify_eigen(canon["fold"], third, op.EigenvalueLadder(skewed, 2), range(6))
    assert rep.first_failure == 2
    m2 = canon["fold"].mat(2)
    half = op.Poly.constant(Fraction(-1, 2))
    want = op.Matrix([[half * m2[0, 0], half * m2[0, 1]], [op.Poly(()), op.Poly(())]])
    assert rep.residual == repr(want)


def _operator(mats) -> op.RightDifferentialOperator:
    mats = list(mats)
    while len(mats) > 1 and all(p.is_zero for row in mats[-1].rows for p in row):
        mats.pop()
    return op.RightDifferentialOperator(len(mats) - 1, tuple(mats))


def _outcome(verify, *args):
    try:
        return verify(*args)
    except Exception as exc:  # the two routes must raise alike
        return type(exc), str(exc)


_HERMITE_LADDER = op.EigenvalueLadder(
    lambda n: op.Matrix.rational([[-4 * n, 0], [0, -2 * (2 * n + 1)]]), 2
)
nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@pytest.fixture(scope="module")
def eigen_cases(canon, hermite):
    ref, lad = op.reference_operator()
    found = op.discover_operator(hermite["fold"], _HERMITE_LADDER, 2, 1, 6).operator
    return {
        "worked": (canon["fold"], ref, lad),
        "hermite": (hermite["fold"], found, _HERMITE_LADDER),
    }


def _changed_pair(D, lad, data):
    """D and lad with at most one change each, drawn from data."""
    size = D.size
    mats = [[[m[i, j] for j in range(size)] for i in range(size)] for m in D.coeffs]
    zeros = [[op.Poly(())] * size for _ in range(size)]
    change = data.draw(st.sampled_from(["none", "bump", "zero matrix", "zero", "scale", "size"]))
    if change == "bump":
        k, i, j = (data.draw(st.integers(0, top)) for top in (D.order, size - 1, size - 1))
        mats[k][i][j] += op.Poly.monomial(data.draw(st.integers(0, 3)), data.draw(nonzero))
    elif change == "zero matrix":
        mats[data.draw(st.integers(0, D.order))] = zeros
    elif change == "zero":
        mats = [zeros]
    elif change == "scale":
        # a rational multiple of a true pair is true
        s = data.draw(nonzero)
        mats = [[[p * s for p in row] for row in m] for m in mats]
        lad = op.EigenvalueLadder(lambda n, base=lad: base(n) * s, size)
    elif change == "size":
        mats = [[[op.Poly((1,))] * (size + 1) for _ in range(size + 1)]]
    D = _operator(op.Matrix(m) for m in mats)
    change = data.draw(st.sampled_from(["none", "bump", "zero", "size"]))
    if change == "bump":
        n0, i0 = data.draw(st.integers(0, 7)), data.draw(st.integers(0, size - 1))
        delta = data.draw(nonzero)

        def bumped(n, base=lad):
            step = lambda i, j: delta if (n, i, j) == (n0, i0, i0) else 0
            return base(n) + op.Matrix.from_fn(size, size, step)

        lad = op.EigenvalueLadder(bumped, size)
    elif change == "zero":
        lad = op.EigenvalueLadder(lambda n: op.Matrix.zeros(size, size), size)
    elif change == "size":
        lad = op.EigenvalueLadder(lambda n: op.Matrix.zeros(size + 1, size + 1), size + 1)
    return D, lad


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verify_eigen_matches_the_poly_route(eigen_cases, data):
    fold, D, lad = eigen_cases[data.draw(st.sampled_from(["worked", "hermite"]))]
    D, lad = _changed_pair(D, lad, data)
    n_range = range(data.draw(st.integers(0, 7)))
    got = _outcome(op.verify_eigen, fold, D, lad, n_range)
    assert got == _outcome(oracles.poly_verify_eigen, fold, D, lad, n_range)


# -- exact nullspace -------------------------------------------------------


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_nullspace_matches_sympy(nr, nc, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    basis = exact_nullspace(rows, nc)
    smat = sp.Matrix(rows)
    assert len(basis) == nc - smat.rank()
    # canonical RREF: every vector's highest nonzero unknown is its own,
    # which min_order_check reads its sections from
    tops = [max(c for c, x in enumerate(v) if x) for v in basis]
    assert tops == sorted(set(tops))
    for vec in basis:
        assert all(
            sum(Fraction(rows[i][j]) * vec[j] for j in range(nc)) == 0
            for i in range(nr)
        )
    if basis:
        assert oracles.nullspace_dim([list(v) for v in basis]) == 0 or sp.Matrix(
            [list(map(sp.Rational, map(str, v))) for v in basis]
        ).rank() == len(basis)


def test_nullspace_of_no_constraints_is_full():
    basis = exact_nullspace([], 3)
    assert len(basis) == 3
    assert exact_nullspace([[0, 0, 0]], 3) == basis


def test_exact_nullspace_survives_an_unlucky_first_prime():
    # the first prime divides the pivot entry, so that prime alone sees
    # the wrong pivot column
    p0 = int(sp.nextprime(2**61))  # first prime of the modular stream
    assert exact_nullspace([[p0, 1]], 2) == [[Fraction(-1, p0), Fraction(1)]]


def test_exact_nullspace_takes_as_many_primes_as_the_entries_need():
    a, b = 3**189 + 2, -(5**129) - 4  # about 300 bits each
    assert exact_nullspace([[a, b]], 2) == [[Fraction(-b, a), Fraction(1)]]


@pytest.mark.parametrize(
    "rows, ncols, primes",
    [
        ([[3**189 + 2, -(5**129) - 4]], 2, 10),  # 2 H^2 has 601 bits
        ([[1, 2, 3], [4, 5, 6]], 3, 1),
        ([[2**200 + 1, 3, 0], [0, 7**90, 5]], 3, 15),
    ],
)
def test_exact_nullspace_gives_up_once_past_the_hadamard_bound(monkeypatch, rows, ncols, primes):
    # with every reconstruction failing, the primes run until their product
    # passes 2 H^2, H the Hadamard bound of the rows; the bound is worked
    # out only after the first failure, and the count must not move
    seen = []
    stream = op.linalg._primes
    monkeypatch.setattr(op.linalg, "_reconstruct_basis", lambda *args: None)
    monkeypatch.setattr(op.linalg, "_primes", lambda: (seen.append(p) or p for p in stream()))
    with pytest.raises(op.NumericalInstability, match="past the Hadamard bound"):
        exact_nullspace(rows, ncols)
    assert len(seen) == primes
    bound = 2 * math.prod(sum(v * v for v in r) for r in rows)
    assert math.prod(seen) > bound >= math.prod(seen[:-1])


# -- discovery -------------------------------------------------------------


def test_discovery_recovers_the_classical_fold_operator(hermite):
    # ladder diag(-4n, -2(2n+1)) is the fold of the first-derivative
    # eigenvalues -2m split by parity
    lad = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[-4 * n, 0], [0, -2 * (2 * n + 1)]]), 2
    )
    res = op.discover_operator(hermite["fold"], lad, 2, 1, 6)
    got = res.operator
    assert got.order == 2
    assert res.hom_dim == 0
    assert res.column_dims == (0, 0)
    expect = [
        op.Matrix([[op.Poly(()), op.Poly(())], [op.Poly(()), op.Poly((-2,))]]),
        op.Matrix(
            [[op.Poly((2, -4)), op.Poly(())], [op.Poly(()), op.Poly((6, -4))]]
        ),
        op.Matrix(
            [[op.Poly((0, 4)), op.Poly(())], [op.Poly(()), op.Poly((0, 4))]]
        ),
    ]
    for k in range(3):
        for i in range(2):
            for j in range(2):
                assert got.coeffs[k][i, j] == expect[k][i, j], (k, i, j)
    assert op.verify_eigen(hermite["fold"], got, lad, range(7)).ok


def test_discovery_rejects_an_infeasible_order(hermite):
    lad = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[-4 * n, 0], [0, -2 * (2 * n + 1)]]), 2
    )
    with pytest.raises(op.Infeasible):
        op.discover_operator(hermite["fold"], lad, 1, 0, 6)


def test_discovery_flags_an_underdetermined_window(hermite):
    lad = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[-4 * n, 0], [0, -2 * (2 * n + 1)]]), 2
    )
    with pytest.raises(op.Underdetermined):
        op.discover_operator(hermite["fold"], lad, 2, 1, 1)


_SCALAR_LADDER = lambda m: Fraction(-2 * m)
_NEGATIVE_SIZES = [
    ("discover_operator", "fold", (_HERMITE_LADDER, -1, 1, 6), "order"),
    ("discover_operator", "fold", (_HERMITE_LADDER, 2, -1, 6), "degree_bound"),
    ("discover_operator", "fold", (_HERMITE_LADDER, 2, 1, -1), "n_fit"),
    ("discover_scalar", "seq", (_SCALAR_LADDER, -1, 6), "order"),
    ("discover_scalar", "seq", (_SCALAR_LADDER, 2, -1), "n_fit"),
    ("min_order_check", "fold", (-1, 2, 6), "max_order"),
    ("min_order_check", "fold", (4, -1, 6), "degree_bound"),
    ("min_order_check", "fold", (4, 2, -1), "n_fit"),
    ("min_order_size", "fold", (-1, 2, 6), "max_order"),
    ("min_order_size", "fold", (4, -1, 6), "degree_bound"),
    ("min_order_size", "fold", (4, 2, -1), "n_fit"),
    ("scalar_eigenvalues", "D seq", (-1,), "count"),
]


@pytest.mark.parametrize(
    "fn, member, sizes, name",
    [pytest.param(*case, id=f"{case[0]}-{case[3]}") for case in _NEGATIVE_SIZES],
)
def test_a_negative_size_is_refused_before_any_row_is_built(
    hermite, monkeypatch, fn, member, sizes, name
):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(opfold.bispec, "_int_deriv_table", no_rows)
    # member names the hermite fixture's entries passed before the sizes
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        getattr(opfold.bispec, fn)(*map(hermite.__getitem__, member.split()), *sizes)


# -- minimal order ---------------------------------------------------------


def test_min_order_certificate_for_the_fold(hermite):
    res = op.min_order_check(hermite["fold"], 4, 2, 6)
    assert res.min_order == 2
    assert res.feasible == (False, False, True, True, True)
    assert res.section_dims == (2, 2, 4, 4, 6)
    assert res.witness is not None and res.witness.order == 2
    wl = res.witness_ladder
    # the witness ladder must genuinely vary with n
    assert len({wl[n] for n in range(7)}) > 1
    wrapped = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[wl[n][0], 0], [0, wl[n][1]]]), 2
    )
    assert op.verify_eigen(hermite["fold"], res.witness, wrapped, range(7)).ok


def test_min_order_certificate_for_the_canonical_fold(canon):
    # the verify-paper window: orders up to 8, coefficient degree 6, blocks 0..10
    res = op.min_order_check(canon["fold"], 8, 6, 10)
    assert res.min_order == 8
    assert res.feasible == (False,) * 8 + (True,)
    assert res.section_dims == (1,) * 8 + (2,)
    assert res.witness is not None and res.witness.order == 8
    wl = res.witness_ladder
    assert len(wl) == 11 and len(set(wl)) > 1
    wrapped = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[wl[n][0], 0], [0, wl[n][1]]]), 2
    )
    assert op.verify_eigen(canon["fold"], res.witness, wrapped, range(11)).ok


@pytest.fixture(scope="module")
def laguerre_c1():
    """Laguerre alpha 0 with derivative mass at c = 1, folded about c: the
    seven blocks of a run at n_max 6."""
    deg = 13
    mu = op.laguerre_moments(0, 2 * (deg + 3) + 2)
    M = op.Matrix.rational([[0, 0], [0, 1]])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(1), 1, M)), deg)
    return op.build_matrix_sequence(seq, 1, 1)


def _assert_witness(fold, res, n_fit):
    assert res.witness.order == res.min_order
    wl = res.witness_ladder
    assert len(wl) == n_fit + 1 and len(set(wl)) > 1
    wrapped = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[wl[n][0], 0], [0, wl[n][1]]]), 2
    )
    assert op.verify_eigen(fold, res.witness, wrapped, range(n_fit + 1)).ok


def test_min_order_off_the_worked_case(laguerre_c1):
    # tens of basis vectors from a nullspace that takes several primes
    assert len(laguerre_c1) == 7
    res = op.min_order_check(laguerre_c1, 8, 6, 6)
    assert res.min_order == 6
    assert res.feasible == (False,) * 6 + (True,) * 3
    assert res.section_dims == (1, 1, 1, 1, 1, 1, 14, 42, 70)
    _assert_witness(laguerre_c1, res, 6)


def test_min_order_refuses_a_block_row_not_monic_in_its_own_column(hermite):
    # lambda_{1,0} is pinned by the leading coefficient of row 0 of block
    # 1, which must be 1
    mats = list(hermite["fold"].mats)
    assert op.min_order_check(op.MatrixPolySequence(tuple(mats), 1, monic=False), 4, 2, 6).min_order == 2
    mats[1] = op.Matrix([[2 * e for e in mats[1].row(0)], mats[1].row(1)])
    bad = op.MatrixPolySequence(tuple(mats), 1, monic=False)
    with pytest.raises(op.IdentityViolated, match="^block 1 row 0 is not monic in its own column$"):
        op.min_order_check(bad, 4, 2, 6)


@pytest.mark.parametrize(
    "case, window",
    [("canon", (8, 6, 10)), ("hermite", (4, 2, 6)), ("laguerre_c1", (8, 6, 6))],
)
def test_min_order_sections_match_the_per_order_route(request, case, window):
    fixture = request.getfixturevalue(case)
    fold = fixture if case == "laguerre_c1" else fixture["fold"]
    res = op.min_order_check(fold, *window)
    got = (res.min_order, res.feasible, res.section_dims)
    assert got == oracles.section_min_order(fold, *window)
    _assert_witness(fold, res, window[2])


def _proportional(int_row, frac_row) -> bool:
    k = next(i for i, v in enumerate(frac_row) if v)
    ratio = Fraction(int_row[k]) / frac_row[k]
    return ratio > 0 and all(a == ratio * b for a, b in zip(int_row, frac_row))


def test_integer_systems_match_the_fraction_rows_on_the_canonical_fold(canon, monkeypatch):
    # discovery (one system per column), the min-order system and the
    # scalar discovery system of the verify-paper window, captured where
    # they reach the nullspace kernel: each is the fraction system on the
    # degree profile, and its basis is the full-bound system's basis
    # restricted to the unknowns the profile keeps
    captured = []

    def capture(rows, ncols):
        basis = exact_nullspace(rows, ncols)
        captured.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(op.bispec, "exact_nullspace", capture)
    fold = canon["fold"]
    _, ladder = op.reference_operator()
    op.discover_operator(fold, ladder, 8, 6, 12)
    op.min_order_check(fold, 8, 6, 10)
    op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    monkeypatch.undo()
    disc, mino = op.bispec._degree_profile(8, 6, 12), op.bispec._degree_profile(8, 6, 10)
    assert disc == mino == [0, 1, 2, 3, 4, 5, 6, 6, 6]
    expected = [oracles.fraction_discovery_rows(fold, ladder, 8, 6, 12, j, disc) for j in range(2)]
    expected.append(oracles.fraction_min_order_eigen_rows(fold, 8, 6, 10, mino))
    expected.append(oracles.fraction_scalar_rows(canon["seq"], op.reference_scalar_ladder, 8, 16))
    full = [oracles.fraction_discovery_rows(fold, ladder, 8, 6, 12, j) for j in range(2)]
    full.append(oracles.fraction_min_order_eigen_rows(fold, 8, 6, 10))
    full.append(expected[-1])
    kept = [oracles.profile_columns(2, 6, disc) + [9 * 2 * 7]] * 2
    kept.append(list(range(22)) + [22 + c for c in oracles.profile_columns(4, 6, mino)])
    kept.append(list(range(46)))
    assert len(captured) == 4
    for (rows, ncols, basis), frac_rows, full_rows, cols in zip(captured, expected, full, kept):
        assert all(type(v) is int for r in rows for v in r)
        assert len(rows) == len(frac_rows)
        assert all(_proportional(a, b) for a, b in zip(rows, frac_rows))
        assert basis == exact_nullspace(_int_rows(frac_rows), ncols)
        full_basis = exact_nullspace(_int_rows(full_rows), len(full_rows[0]))
        assert ncols == len(cols) and basis == [[v[c] for c in cols] for v in full_basis]
        assert all(not any(v[c] for c in set(range(len(v))) - set(cols)) for v in full_basis)


def test_min_order_size_counts_the_system_min_order_check_builds(canon, monkeypatch):
    captured = []
    monkeypatch.setattr(op.bispec, "exact_nullspace", lambda rows, ncols: captured.append((rows, ncols)) or [])
    with pytest.raises(op.Infeasible):
        op.min_order_check(canon["fold"], 8, 6, 10)
    monkeypatch.undo()
    rows, unknowns = op.bispec.min_order_size(canon["fold"], 8, 6, 10)
    # the gate counts the full-bound window: every row of block n, row i,
    # runs over 2 columns and n + 7 powers, less the one that eliminates
    # lambda_{n,i}
    assert (rows, unknowns) == (sum(2 * (2 * (n + 7) - 1) for n in range(11)), 9 * 2 * 2 * 7)
    # the kernel sees the degree profile (D_k of degree min(k, 6)) and the
    # 22 eigenvalues of blocks 0..10, each an unknown with the row that
    # pins it
    ((built, ncols),) = captured
    assert (len(built), ncols) == (264, 2 * 2 * 42 + 22)
    assert ncols <= unknowns + 22 and len(built) <= rows + 22


def test_the_verify_paper_systems_give_the_all_rows_bases(canon, monkeypatch):
    # the two discovery columns, the min-order system and the scalar
    # discovery system: each certified from the rows that reach full rank
    captured = []
    monkeypatch.setattr(
        op.bispec, "exact_nullspace", lambda rows, ncols: captured.append((rows, ncols)) or exact_nullspace(rows, ncols)
    )
    fold = canon["fold"]
    _, ladder = op.reference_operator()
    op.discover_operator(fold, ladder, 8, 6, 12)
    op.min_order_check(fold, 8, 6, 10)
    op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    monkeypatch.undo()
    assert [(len(rows), ncols) for rows, ncols in captured] == [(182, 85), (182, 85), (264, 190), (153, 46)]
    for rows, ncols in captured:
        assert exact_nullspace(rows, ncols) == oracles.all_rows_nullspace(rows, ncols)


# -- degree profile --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sobolev_fold(family: str, c: Fraction, N: int, mass: int):
    """(seq, fold): a Sobolev family with mass times e_N e_N^T at c, folded
    about c into blocks 0..6. Mass 0 is the plain family, where low orders
    are feasible."""
    deg = 7 * (N + 1) - 1
    count = 2 * (deg + N + 2) + 2
    mu = op.hermite_moments(count) if family == "hermite" else op.laguerre_moments(int(family[-1]), count)
    M = op.Matrix.rational([[mass * (i == j == N) for j in range(N + 1)] for i in range(N + 1)])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, M)), deg)
    return seq, op.build_matrix_sequence(seq, N, c)


@st.composite
def profile_cases(draw):
    """(seq, fold, order, degree_bound, n_fit) with n_fit on both sides of
    the order."""
    family = draw(st.sampled_from(["laguerre0", "laguerre1", "hermite"]))
    c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]))
    N = draw(st.integers(0, 2))
    mass = draw(st.integers(0, 1))
    order = draw(st.integers(0, 4))
    degree_bound = draw(st.integers(0, 3))
    n_fit = draw(st.integers(max(order - 2, 0), order + 2))
    return (*_sobolev_fold(family, c, N, mass), order, degree_bound, n_fit)


@given(profile_cases(), st.data())
@settings(max_examples=80, deadline=None)
def test_the_profile_systems_match_the_full_bound_route(case, data):
    # the profile drops only unknowns that vanish in every solution, so
    # every result, error and message is the full-bound route's
    seq, fold, order, degree_bound, n_fit = case
    size = fold.block_size
    window = (order, degree_bound, n_fit)
    res = _outcome(op.min_order_check, fold, *window)
    assert res == _outcome(oracles.full_bound_min_order, fold, *window)
    if isinstance(res, op.MinOrderResult) and data.draw(st.booleans()):
        # the witness ladder: discovery at its order has a solution
        wl = res.witness_ladder
        lam = lambda n: op.Matrix.rational([[wl[n][i] if i == j else 0 for j in range(size)] for i in range(size)])
    else:
        a = data.draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        step = lambda m: a[0] + a[1] * m + a[2] * m * m
        lam = lambda n: op.Matrix.rational(
            [[step(size * n + i) if i == j else 0 for j in range(size)] for i in range(size)]
        )
    ladder = op.EigenvalueLadder(lam, size)
    got = _outcome(op.discover_operator, fold, ladder, *window)
    assert got == _outcome(oracles.full_bound_discovery, fold, ladder, *window)
    # a scalar operator of order <= 3, coefficient c_k of degree <= k + 1
    k_top = data.draw(st.integers(0, 3))
    coeffs = [op.Poly(data.draw(st.lists(st.integers(-2, 2), max_size=k + 2))) for k in range(k_top + 1)]
    if coeffs[-1].is_zero:
        coeffs[-1] = op.Poly((1,))
    D = op.ScalarOperator(k_top, tuple(coeffs))
    count = data.draw(st.integers(0, len(seq)))
    lams = _outcome(op.scalar_eigenvalues, D, seq, count)
    assert lams == _outcome(oracles.poly_scalar_eigenvalues, D, seq, count)


@pytest.mark.parametrize(
    "bump, message",
    [
        # y^1 right of row 0's own column: not lower triangular
        ((0, 1, 1), "^block 1 row 0 reaches past y\\^1, or right of its own column at y\\^1$"),
        # y^2 in row 1: past the block's degree
        ((1, 0, 2), "^block 1 row 1 reaches past y\\^1, or right of its own column at y\\^1$"),
        # y^1 left of row 1's own column: a unit lower-triangular leading
        # coefficient, so the fold is accepted
        ((1, 0, 1), None),
    ],
)
def test_a_fold_outside_the_profile_precondition_is_refused(hermite, bump, message):
    i, l, t = bump
    mats = list(hermite["fold"].mats)
    extra = lambda a, b: op.Poly.monomial(t) if (a, b) == (i, l) else op.Poly(())
    mats[1] = op.Matrix.from_fn(2, 2, lambda a, b: mats[1][a, b] + extra(a, b))
    bad = op.MatrixPolySequence(tuple(mats), 1, monic=False)
    for call in (
        lambda: op.min_order_check(bad, 4, 2, 6),
        lambda: op.discover_operator(bad, _HERMITE_LADDER, 2, 1, 6),
    ):
        if message is None:
            got = _outcome(call)
            assert not (isinstance(got, tuple) and got[0] is op.IdentityViolated), got
        else:
            with pytest.raises(op.IdentityViolated, match=message):
                call()


def test_a_ladder_of_the_wrong_size_is_refused_before_any_row_is_built(hermite, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(opfold.bispec, "_int_deriv_table", no_rows)
    small = op.EigenvalueLadder(lambda n: op.Matrix.rational([[n]]), 1)
    with pytest.raises(op.DimensionMismatch, match="^\\(1, 1\\) @ \\(2, 2\\)$"):
        op.discover_operator(hermite["fold"], small, 2, 1, 6)


@st.composite
def eigen_tables(draw):
    """(table, i, bounds) for _eigen_rows: the derivative table of a
    random integer block of size 1-3 and degree < 6, with degree bounds
    from -1 (a zero coefficient) to 4, one per order up to 3."""
    size = draw(st.integers(1, 3))
    entry = st.lists(st.integers(-3, 3), max_size=6)
    base = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size))
    bounds = draw(st.lists(st.integers(-1, 4), min_size=1, max_size=4))
    table, _ = op.bispec._int_deriv_table((base, 1), len(bounds) - 1)
    return table, draw(st.integers(0, size - 1)), bounds


@given(eigen_tables())
@example((op.bispec._int_deriv_table(([[[2, 0, 1], [1]], [[], [0, 3]]], 1), 2)[0], 1, [-1, 2, 0]))
@settings(max_examples=150, deadline=None)
def test_eigen_rows_match_the_per_power_scan(case):
    assert op.bispec._eigen_rows(*case) == oracles.scan_eigen_rows(*case)


# -- scalar route ----------------------------------------------------------


def test_scalar_discovery_matches_the_tabulated_coefficients(canon):
    D = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    assert D.coeffs[0] == op.Poly(())
    assert D.coeffs[1] == op.Poly((-3, 3))
    assert D.coeffs[2] == op.Poly((-3, -3, Fraction(3, 2)))
    assert D.coeffs[8] == op.Poly((0, 0, 0, 0, Fraction(1, 4)))


def test_scalar_eigenvalues_match_the_quartic_ladder(canon):
    D = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    lams = op.scalar_eigenvalues(D, canon["seq"], 11)
    assert lams == tuple(op.reference_scalar_ladder(m) for m in range(11))
    s4 = canon["seq"].poly(4)
    assert op.apply_scalar(D, s4) == op.Poly.constant(lams[4]) * s4


def test_the_integer_images_are_the_poly_images(canon, hermite):
    # every member of both families: the image formed over integer rows
    # is apply_scalar's Poly image, and its top coefficient the eigenvalue
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    for D, seq in ((D8, canon["seq"]), (hermite["D"], hermite["seq"])):
        coef = op.bispec.int_block(op.Matrix([D.coeffs]))
        for m in range(len(seq)):
            lam, img, scale = op.bispec._eigen_image(coef, seq.int_rows[m], m)
            ds = op.apply_scalar(D, seq.poly(m))
            assert op.Poly(Fraction(v, scale) for v in img) == ds
            assert lam == ds.coeff(m) and ds == op.Poly.constant(lam) * seq.poly(m)


def test_scalar_discovery_on_the_gaussian_family(hermite):
    D = op.discover_scalar(hermite["seq"], lambda m: Fraction(-2 * m), 2, 6)
    assert D.coeffs == (op.Poly(()), op.Poly((0, -2)), op.Poly((1,)))
    assert D.coeffs == hermite["D"].coeffs


def test_scalar_eigenvalue_extraction_rejects_non_eigenfunctions(canon):
    ddx = op.ScalarOperator(1, (op.Poly(()), op.Poly((1,))))
    with pytest.raises(op.IdentityViolated):
        op.scalar_eigenvalues(ddx, canon["seq"], 5)


def test_scalar_operator_guards():
    with pytest.raises(op.DimensionMismatch):
        op.ScalarOperator(2, (op.Poly((1,)),))
    with pytest.raises(op.DimensionMismatch, match="order >= 0"):
        op.ScalarOperator(-1, ())
    with pytest.raises(op.IdentityViolated):
        op.ScalarOperator(1, (op.Poly((1,)), op.Poly(())))


# -- conjugation -----------------------------------------------------------


def test_conjugated_operator_matches_the_block_action(canon, hermite):
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    r = op.conjugation_eval(D8, canon["fold"], 1, Fraction(1, 2))
    assert r.max_deviation < 1e-12
    for y0 in (Fraction(1, 2), Fraction(3)):
        for n in range(4):
            rh = op.conjugation_eval(hermite["D"], hermite["fold"], n, y0)
            assert rh.max_deviation < 1e-12, (y0, n)


def test_conjugation_reads_no_poly_block(hermite):
    # block n is evaluated from the fold's integer rows, so the Poly view
    # of the whole fold is never built
    R = op.build_matrix_sequence(hermite["seq"], 1)
    grid = [Fraction(1, 2), Fraction(3)]
    got = [op.conjugation_eval(hermite["D"], R, n, grid) for n in range(len(R))]
    assert "mats" not in vars(R)
    assert got == [op.conjugation_eval(hermite["D"], hermite["fold"], n, grid) for n in range(len(R))]
    assert all(r.max_deviation < 1e-12 for rs in got for r in rs)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(-3, 2)])
@pytest.mark.parametrize("N", [1, 2])
def test_conjugation_about_a_nonzero_centre(hermite, c, N):
    # the images are evaluated at c + w^k y0^(1/(N+1)) and compared with
    # the fold about c, so the deviation stays at rounding level
    D, seq = hermite["D"], hermite["seq"]
    R = op.build_matrix_sequence(seq, N, c)
    lams = op.scalar_eigenvalues(D, seq, len(R) * (N + 1))
    for n in range(len(R)):
        for y0 in (Fraction(1, 2), Fraction(3)):
            r = op.conjugation_eval(D, R, n, y0)
            assert r.max_deviation < 1e-12, (n, y0)
            block = R.mat(n)
            want = [
                complex(lams[(N + 1) * n + j]) * block[j, k](float(y0))
                for j in range(N + 1)
                for k in range(N + 1)
            ]
            assert [v for row in r.rhs for v in row] == pytest.approx(want, rel=1e-15)
    with pytest.raises(op.DimensionMismatch):
        op.conjugation_eval(D, op.monic_normalize(R).sequence, 0, Fraction(1, 2))
    # past the last block (at N = 2 two members of the next one exist)
    with pytest.raises(op.InsufficientSequence):
        op.conjugation_eval(D, R, len(R), Fraction(1, 2))


def test_a_negative_block_index_is_refused(hermite):
    # block -1 must not wrap to the last block of the fold
    R, D = hermite["fold"], hermite["D"]
    found = op.discover_operator(R, _HERMITE_LADDER, 2, 1, 6).operator
    assert op.verify_eigen(R, found, _HERMITE_LADDER, [len(R) - 1]).ok
    with pytest.raises(op.InsufficientSequence, match="block -1 requested"):
        R.mat(-1)
    with pytest.raises(op.InsufficientSequence, match="block -1 requested"):
        op.verify_eigen(R, found, _HERMITE_LADDER, [-1])
    with pytest.raises(op.InsufficientSequence, match="block -1 requested"):
        op.conjugation_eval(D, R, -1, Fraction(1, 2))


def test_conjugation_checks_the_eigen_identity_on_block_n(hermite):
    # adding d^3/dx^3 leaves degrees 0..2 eigenfunctions and breaks degree 3,
    # the second member of block 1 at N=1
    c0, c1, c2 = hermite["D"].coeffs
    D = op.ScalarOperator(3, (c0, c1, c2, op.Poly((1,))))
    assert op.conjugation_eval(D, hermite["fold"], 0, Fraction(1, 2)).max_deviation < 1e-12
    with pytest.raises(op.IdentityViolated, match="degree-3 member"):
        op.conjugation_eval(D, hermite["fold"], 1, Fraction(1, 2))
    with pytest.raises(op.IdentityViolated, match="degree-3 member"):
        op.scalar_eigenvalues(D, hermite["seq"], 6)


def test_conjugation_requires_a_positive_point(canon):
    D8 = op.ScalarOperator(1, (op.Poly(()), op.Poly((0, 1))))
    with pytest.raises(op.NumericalInstability):
        op.conjugation_eval(D8, canon["fold"], 1, Fraction(-1))
    with pytest.raises(op.NumericalInstability):
        op.conjugation_eval(D8, canon["fold"], 1, Fraction(0))


# -- serialization ---------------------------------------------------------


def test_operator_json_round_trip():
    import json

    ref, _ = op.reference_operator()
    data = json.loads(json.dumps(op.operator_to_json(ref)))
    assert op.operator_from_json(data) == ref


@pytest.mark.parametrize(
    "coeffs",
    [
        [[["1"]]],  # 1x1, the example that raised IndexError
        [[["1"], ["0"]]],  # one row of two
        [[["1"], ["0"]], [["1"]]],  # a short second row
        [[["1"], ["0"]], [["0"], ["1"]], [["0"], ["0"]]],  # three rows
    ],
)
def test_operator_json_with_a_wrongly_sized_coefficient_is_refused(coeffs):
    with pytest.raises(op.DimensionMismatch, match="^coefficient matrix 0 is not 2x2$"):
        op.operator_from_json({"size": 2, "order": 0, "coeffs": [coeffs]})
