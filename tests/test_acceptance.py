"""End-to-end acceptance checks, one per advertised guarantee.

Each test is a single pass/fail line for one claim: exact closed-form
recurrence coefficients, the two factorization identities over the full
parameter grid, block Darboux extraction against the tabulated displays,
matrix recurrence coefficients up to a sign similarity, interlaced
recurrences, the order-8 operator (verification, discovery, minimal
order), numerical conjugation, and the shift-symmetry property. Tabulated
displays that disagree with the exact computation are pinned by strict
xfail companions rather than loosened."""

from fractions import Fraction

import pytest

import opfold as op
import oracles

from conftest import mass_last_derivative, moment_count


def test_criterion_01_recurrence_closed_forms_exact_through_20(canon):
    rec = canon["rec"]
    for n in range(21):
        a2, b2, cdiag = op.reference_abc(n)
        assert rec.orthonormal_sq(n, n + 2) == a2, n
        assert rec.orthonormal_sq(n, n + 1) == b2, n
        assert rec.raw.entry(n, n) / rec.norms_sq[n] == cdiag, n
    assert op.reference_abc(0) == (Fraction(12), Fraction(8), Fraction(2))


def test_criterion_02_factorization_identities_exact_on_grid(theorem_grid):
    for case in theorem_grid:
        label = (case["alpha"], case["c"], case["N"])
        hrep, ul = case["hrep"], case["ul_T"]
        assert hrep.exact_ok, label
        assert hrep.trusted_rows >= 21, label
        assert hrep.float_max_rel <= 1e-10, label
        assert ul.exact_ok, label
        assert ul.trusted_rows >= 21, label
        assert ul.float_max_rel <= 1e-10, label
    spot = next(
        c
        for c in theorem_grid
        if (c["alpha"], c["c"], c["N"]) == (0, Fraction(0), 1)
    )
    jac, conn = spot["jac"], spot["conn"]
    assert oracles.shift_power(jac, 0, 2)[0][0] == 12
    assert [conn.orthonormal_sq(n, 0) for n in range(3)] == [2, 4, 6]


def test_criterion_03_plain_measure_connection_same_identity(theorem_grid):
    for case in theorem_grid:
        label = (case["alpha"], case["c"], case["N"])
        ul = case["ul_C"]
        assert ul.exact_ok, label
        assert ul.trusted_rows >= 21, label
        assert ul.float_max_rel <= 1e-10, label


def test_criterion_04_block_darboux_lu_ul_and_displays(
    block_pipeline, verify_paper
):
    blockJ = block_pipeline["blockJ"]
    lu = block_pipeline["lu"]
    swap = block_pipeline["swap"]
    z = lu.zetas.zeta
    for n in range(11):
        assert z(2 * n + 1) + z(2 * n) == blockJ.diag[n], n
        if n < 10:
            assert z(2 * n + 2) @ z(2 * n + 1) == blockJ.sub[n], n
    assert swap.agree_through(block_pipeline["blockJQ"], 11)
    for n in range(1, 11):
        ev, od = op.reference_zeta(n)
        assert z(2 * n - 1) == ev, n
        assert z(2 * n) == od, n
    for n in range(11):
        s_ref, p_ref = op.reference_sum_product(n)
        assert z(2 * n + 2) + z(2 * n + 1) == s_ref, n
        assert z(2 * n + 1) @ z(2 * n) == p_ref, n
    assert (z(2) + z(1)).rows == (
        (Fraction(-12), Fraction(8)),
        (Fraction(-120), Fraction(60)),
    )
    # the product comparison ships as a REPORT with per-n booleans
    rep = verify_paper["report"]
    assert rep["notes"]["darboux-product-display"]["status"] == "REPORT"
    booleans = [
        row["product_match"]
        for row in rep["tasks"]["darboux"]["rows"]
        if "product_match" in row
    ]
    assert len(booleans) >= 11 and all(booleans)


@pytest.mark.xfail(
    strict=True,
    reason="the two tabulated factor displays carry interchanged odd/even "
    "labels; the corrected pairing is asserted in the passing criterion "
    "test above",
)
def test_criterion_04_zeta_displays_as_printed(block_pipeline):
    z = block_pipeline["lu"].zetas.zeta
    ev, od = op.reference_zeta(1)
    assert z(2) == ev
    assert z(1) == od


def test_criterion_05_matrix_ttrr_displays_modulo_sign_similarity(canon):
    A, B = op.orthonormal_blocks(canon["rec"], 1)
    eps = op.similarity_from_block(B[0], op.reference_block_ttrr(0)[1])
    for n in range(11):
        refA, refB = op.reference_block_ttrr(n)
        assert op.apply_similarity(A[n], eps) == refA, n
        assert op.apply_similarity(B[n], eps) == refB, n
        assert A[n][0, 1].sq == 0, n
    b0 = B[0]
    assert b0[0, 0].sq == 4 and b0[0, 0].sign == 1
    assert b0[1, 1].sq == 49 and b0[1, 1].sign == 1
    assert b0[0, 1].sq == 8


def test_criterion_06_interlaced_recurrence_exact_through_20(block_pipeline):
    P = block_pipeline["P"]
    Q = block_pipeline["Q"]
    checked = op.w_interlace_check(
        [P.mat(n) for n in range(len(P))],
        [Q.mat(n) for n in range(len(Q))],
        block_pipeline["lu"].zetas,
        21,
    )
    assert checked == list(range(21))


def test_criterion_07_operator_eigen_identity_exact(canon):
    ref, lad = op.reference_operator()
    rep = op.verify_eigen(canon["fold"], ref, lad, range(9))
    assert rep.ok and rep.first_failure is None
    m0, m1 = canon["fold"].mat(0), canon["fold"].mat(1)
    img0 = oracles.apply_right(m0, ref)
    img1 = oracles.apply_right(m1, ref)
    three = op.Poly.constant(Fraction(3))
    nine = op.Poly.constant(Fraction(9))
    assert [m0[1, 0], m0[1, 1]] == [op.Poly((-1,)), op.Poly((1,))]
    assert [img0[1, 0], img0[1, 1]] == [three * m0[1, 0], three * m0[1, 1]]
    assert [m1[0, 0], m1[0, 1]] == [op.Poly((0, 1)), op.Poly((-2,))]
    assert [img1[0, 0], img1[0, 1]] == [nine * m1[0, 0], nine * m1[0, 1]]


def test_criterion_08_discovery_and_minimal_order_certificate(canon):
    ref, lad = op.reference_operator()
    res = op.discover_operator(canon["fold"], lad, 8, 6, 12)
    assert res.operator == ref
    assert res.hom_dim == 0
    assert res.column_dims == (0, 0)
    mres = op.min_order_check(canon["fold"], 8, 6, 10)
    assert mres.min_order == 8
    assert mres.feasible == (False,) * 8 + (True,)
    assert mres.section_dims == (1,) * 8 + (2,)


def test_criterion_09_conjugation_matches_ladder_numerically(hermite, canon):
    D = hermite["D"]
    lams = op.scalar_eigenvalues(D, hermite["seq"], 14)
    for n in range(7):
        assert lams[2 * n] == -4 * n
        assert lams[2 * n + 1] == -2 * (2 * n + 1)
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(10)]
    for y0 in grid:
        for n in range(7):
            r = op.conjugation_eval(D, hermite["fold"], n, y0)
            assert r.max_deviation < 1e-10, (y0, n)
    D8 = op.discover_scalar(canon["seq"], op.reference_scalar_ladder, 8, 16)
    for y0 in grid:
        for n in range(7):
            r = op.conjugation_eval(D8, canon["fold"], n, y0)
            assert r.max_deviation < 1e-8, (y0, n)


def test_criterion_10_shift_symmetry_property():
    mu = op.laguerre_moments(0, 60)
    for c in (Fraction(0), Fraction(1)):
        for N in (1, 2):
            for M in (
                op.Matrix.identity(N + 1).map(Fraction),
                mass_last_derivative(N),
            ):
                form = op.sobolev_form(op.SobolevSpec(mu, c, N, M))
                rep = op.symmetry_check(form, N, 12, c)
                assert rep.ok and rep.counterexample is None, (c, N)
    # mass pinned at the origin, multiplication shifted elsewhere
    M = op.Matrix.rational([[0, 0], [0, 1]])
    form = op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, M))
    rep = op.symmetry_check(form, 1, 12, Fraction(1))
    assert not rep.ok
    assert rep.counterexample is not None
    assert rep.lhs != rep.rhs
