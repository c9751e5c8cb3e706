"""Differential-operator layer: the tabulated order-8 operator, exact
eigen verification, nullspace-based discovery, minimal-order certificates,
the scalar route, and the root-of-unity conjugation check."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import opfold as op
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
    # they reach the nullspace kernel
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
    expected = [oracles.fraction_discovery_rows(fold, ladder, 8, 6, 12, j) for j in range(2)]
    expected.append(oracles.fraction_min_order_rows(fold, 8, 6, 10))
    expected.append(oracles.fraction_scalar_rows(canon["seq"], op.reference_scalar_ladder, 8, 16))
    assert len(captured) == 4
    for (rows, ncols, basis), frac_rows in zip(captured, expected):
        assert all(type(v) is int for r in rows for v in r)
        assert len(rows) == len(frac_rows)
        assert all(_proportional(a, b) for a, b in zip(rows, frac_rows))
        assert basis == exact_nullspace(_int_rows(frac_rows), ncols)


def test_min_order_size_counts_the_system_min_order_check_builds(canon, monkeypatch):
    captured = []
    monkeypatch.setattr(op.bispec, "exact_nullspace", lambda rows, ncols: captured.append((rows, ncols)) or [])
    with pytest.raises(op.Infeasible):
        op.min_order_check(canon["fold"], 8, 6, 10)
    monkeypatch.undo()
    rows, unknowns = op.bispec.min_order_size(canon["fold"], 8, 6, 10)
    # every row of block n, row i, runs over 2 columns and n + 7 powers,
    # less the one that eliminates lambda_{n,i}
    assert (rows, unknowns) == (sum(2 * (2 * (n + 7) - 1) for n in range(11)), 9 * 2 * 2 * 7)
    ((built, ncols),) = captured
    assert ncols == unknowns and len(built) <= rows


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
    with pytest.raises(op.IdentityViolated):
        op.ScalarOperator(1, (op.Poly((1,)), op.Poly(())))


# -- conjugation -----------------------------------------------------------


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 31):
        assert oracles.poly_to_sympy(op.cyclotomic_poly(n)) == sp.expand(
            sp.cyclotomic_poly(n, oracles.X)
        )


def test_root_of_unity_change_of_basis_is_unitary():
    for N in range(1, 6):
        data = op.FoldConjugationData(N)
        assert data.step == N + 1
        assert data.check_b_unitary()
        assert data.exponent(2, 3) == (6 % (N + 1))


def test_float_roots_agree_between_precisions():
    for N in (1, 2, 4):
        data = op.FoldConjugationData(N)
        wd = data.w_float("double")
        we = data.w_float("extended")
        assert abs(complex(we.real, we.imag) - wd) < 1e-14
        assert abs(wd ** data.step - 1) < 1e-12


def test_conjugated_operator_matches_the_block_action(canon, hermite):
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    r = op.conjugation_eval(D8, canon["fold"], 1, Fraction(1, 2))
    assert r.max_deviation < 1e-12
    for y0 in (Fraction(1, 2), Fraction(3)):
        for n in range(4):
            rh = op.conjugation_eval(hermite["D"], hermite["fold"], n, y0)
            assert rh.max_deviation < 1e-12, (y0, n)


def test_conjugation_extended_precision_tightens_the_residual(canon):
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    r = op.conjugation_eval(
        D8, canon["fold"], 1, Fraction(1, 2), precision="extended"
    )
    assert float(r.max_deviation) < 1e-40


def test_extended_conjugation_leaves_the_global_precision_alone(hermite):
    from mpmath import mp

    with mp.workdps(15):
        # a leak would show here as mp.dps == 50
        r = op.conjugation_eval(
            hermite["D"], hermite["fold"], 2, Fraction(1, 2), precision="extended"
        )
        assert mp.dps == 15
    assert float(r.max_deviation) < 1e-40


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
