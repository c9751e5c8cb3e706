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
    img0 = op.apply_right(m0, ref)
    img1 = op.apply_right(m1, ref)
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
        op.apply_right(op.Matrix([[op.Poly((1,))]]), op.reference_operator()[0])


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
    r = op.conjugation_eval(D8, 1, canon["seq"], 1, Fraction(1, 2))
    assert r.max_deviation < 1e-12
    for y0 in (Fraction(1, 2), Fraction(3)):
        for n in range(4):
            rh = op.conjugation_eval(hermite["D"], 1, hermite["seq"], n, y0)
            assert rh.max_deviation < 1e-12, (y0, n)


def test_conjugation_extended_precision_tightens_the_residual(canon):
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    r = op.conjugation_eval(
        D8, 1, canon["seq"], 1, Fraction(1, 2), precision="extended"
    )
    assert float(r.max_deviation) < 1e-40


def test_extended_conjugation_leaves_the_global_precision_alone(hermite):
    from mpmath import mp

    with mp.workdps(15):
        # a leak would show here as mp.dps == 50
        r = op.conjugation_eval(
            hermite["D"], 1, hermite["seq"], 2, Fraction(1, 2), precision="extended"
        )
        assert mp.dps == 15
    assert float(r.max_deviation) < 1e-40


def test_conjugation_checks_the_eigen_identity_on_block_n(hermite):
    # adding d^3/dx^3 leaves degrees 0..2 eigenfunctions and breaks degree 3,
    # the second member of block 1 at N=1
    c0, c1, c2 = hermite["D"].coeffs
    D = op.ScalarOperator(3, (c0, c1, c2, op.Poly((1,))))
    assert op.conjugation_eval(D, 1, hermite["seq"], 0, Fraction(1, 2)).max_deviation < 1e-12
    with pytest.raises(op.IdentityViolated, match="degree-3 member"):
        op.conjugation_eval(D, 1, hermite["seq"], 1, Fraction(1, 2))
    with pytest.raises(op.IdentityViolated, match="degree-3 member"):
        op.scalar_eigenvalues(D, hermite["seq"], 6)


def test_conjugation_requires_a_positive_point(canon):
    D8 = op.ScalarOperator(1, (op.Poly(()), op.Poly((0, 1))))
    with pytest.raises(op.NumericalInstability):
        op.conjugation_eval(D8, 1, canon["seq"], 1, Fraction(-1))
    with pytest.raises(op.NumericalInstability):
        op.conjugation_eval(D8, 1, canon["seq"], 1, Fraction(0))


# -- serialization ---------------------------------------------------------


def test_operator_json_round_trip():
    import json

    ref, _ = op.reference_operator()
    data = json.loads(json.dumps(op.operator_to_json(ref)))
    assert op.operator_from_json(data) == ref
