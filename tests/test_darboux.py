"""Band factorization, the shift-power identity, and the block LU/UL swap."""

from fractions import Fraction

import pytest

import opfold as op
from opfold import darboux
import oracles


def test_band_factor_pivots_are_the_shifted_norms(canon):
    fact = op.band_symmetric_factorize(canon["rec"].raw, 2)
    pair = lambda f, g: oracles.bilinear(
        lambda k: Fraction(int(oracles.sp.factorial(k + 2))), Fraction(0), [[Fraction(0)]], f, g
    )
    _, norms = oracles.monic_gram_schmidt(pair, 6)
    for n in range(7):
        assert fact.pivots[n] == norms[n]
    assert fact.pivots[0] == 2


def test_band_factor_matches_connection_coefficients(canon):
    fact = op.band_symmetric_factorize(canon["rec"].raw, 2)
    conn = op.connection_matrix(canon["seq"], canon["shifted"], 1)
    for i in range(conn.size):
        for j in range(conn.size):
            assert fact.T_monic.entry(i, j) == conn.T_monic.entry(i, j)


def test_band_factor_of_identity_is_identity():
    eye = op.BandedOperator.from_fn(5, 0, 0, lambda i, j: 1)
    fact = op.band_symmetric_factorize(eye, 1)
    assert fact.T_monic == eye
    assert all(p == 1 for p in fact.pivots)


def test_factorization_report_is_exact_and_tight(canon):
    fact = op.band_symmetric_factorize(canon["rec"].raw, 2)
    report = op.verify_h_factorization(canon["rec"], fact)
    assert report.exact_ok
    assert report.trusted_rows >= 21
    assert report.float_max_rel < 1e-12


def test_indefinite_pivots_flagged_then_admitted():
    mu = op.laguerre_moments(0, 40)
    c = Fraction(1)
    M = op.Matrix.rational([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, 2, M)), 12)
    rec = op.banded_recurrence(seq, c, 2)
    with pytest.raises(op.NotPositiveDefinite):
        op.band_symmetric_factorize(rec.raw, 3)
    fact = op.band_symmetric_factorize(rec.raw, 3, require_positive=False)
    report = op.verify_h_factorization(rec, fact)
    assert report.exact_ok
    assert any(p < 0 for p in fact.pivots[: report.trusted_rows])


def test_shift_power_identity_spot_values(canon):
    conn = op.connection_matrix(canon["seq"], canon["shifted"], 1)
    jac = op.jacobi_matrix(canon["shifted"])
    report = op.verify_ul_identity(jac, Fraction(0), 1, conn)
    assert report.exact_ok
    square = oracles.shift_power(jac, 0, 2)
    assert square[0][0] == 12
    assert jac.b[0] ** 2 + jac.lam[0] == 12
    assert sum(conn.orthonormal_sq(n, 0) for n in range(3)) == 2 + 4 + 6


def test_shift_power_identity_holds_for_plain_measure_route(canon):
    conn0 = op.connection_matrix(canon["base"], canon["shifted"], 1)
    jac = op.jacobi_matrix(canon["shifted"])
    report = op.verify_ul_identity(jac, Fraction(0), 1, conn0)
    assert report.exact_ok
    assert report.float_max_rel < 1e-12


def test_block_lu_reassembles_the_block_jacobi(block_pipeline):
    lu = block_pipeline["lu"]
    blockJ = block_pipeline["blockJ"]
    z = lu.zetas.zeta
    assert z(0).is_zero
    # U has diagonal zeta_{2n+1}, L has subdiagonal zeta_{2n+2}
    for n in range(lu.nblocks):
        assert z(2 * n + 1) + z(2 * n) == blockJ.diag[n]
    for n in range(lu.nblocks - 1):
        assert z(2 * n + 2) @ z(2 * n + 1) == blockJ.sub[n]


def test_darboux_swap_is_the_shifted_fold_recurrence(block_pipeline):
    swap = block_pipeline["swap"]
    blockJQ = block_pipeline["blockJQ"]
    assert swap.agree_through(blockJQ, min(swap.nblocks, 11))


def test_tabulated_zeta_displays_transcribe_as_printed():
    even, odd = op.reference_zeta(1)
    assert even == op.Matrix.rational([[0, 2], [-3, 9]])
    assert odd == op.Matrix.rational([[-12, 6], [-117, 51]])


def test_zeta_closed_forms_match_under_corrected_pairing(block_pipeline):
    z = block_pipeline["lu"].zetas
    for n in range(1, 11):
        even_display, odd_display = op.reference_zeta(n)
        assert z.zeta(2 * n - 1) == even_display
        assert z.zeta(2 * n) == odd_display


@pytest.mark.xfail(
    strict=True,
    reason="the tabulated closed-form displays carry interchanged odd/even "
    "labels; the corrected-pairing test above is the passing counterpart",
)
def test_zeta_closed_forms_match_as_labeled(block_pipeline):
    z = block_pipeline["lu"].zetas
    even_display, odd_display = op.reference_zeta(1)
    assert z.zeta(2) == even_display
    assert z.zeta(1) == odd_display


def test_zeta_sum_display_matches(block_pipeline):
    z = block_pipeline["lu"].zetas
    for n in range(11):
        total, _ = op.reference_sum_product(n)
        assert z.zeta(2 * n + 2) + z.zeta(2 * n + 1) == total
    total0, _ = op.reference_sum_product(0)
    assert total0 == op.Matrix.rational([[-12, 8], [-120, 60]])


def test_zeta_product_display_matches_under_true_labels(block_pipeline):
    z = block_pipeline["lu"].zetas
    for n in range(11):
        _, prod = op.reference_sum_product(n)
        assert z.zeta(2 * n + 1) @ z.zeta(2 * n) == prod


def test_zeta_indices_outside_the_sequence_are_refused(block_pipeline):
    # -1 must not wrap to the last zeta, and one past the end is a typed error
    zero = op.Matrix.rational([[0, 0], [0, 0]])
    for z in (op.ZetaSequence((zero, op.Matrix.identity(2), zero)), block_pipeline["lu"].zetas):
        size = len(z)
        for k in (-1, -size, size):
            message = f"^zeta {k} requested, only {size} built$"
            with pytest.raises(op.InsufficientSequence, match=message):
                z.zeta(k)
        assert z.zeta(size - 1) is z.zetas[-1]


def test_interlaced_recurrence_and_corruption_detection(block_pipeline, canon):
    P = block_pipeline["P"]
    Q = block_pipeline["Q"]
    z = block_pipeline["lu"].zetas
    P_mats = [P.mat(n) for n in range(len(P))]
    Q_mats = [Q.mat(n) for n in range(len(Q))]
    checked = op.w_interlace_check(P_mats, Q_mats, z, 21)
    assert checked == list(range(21))
    corrupted = op.ZetaSequence(
        z.zetas[:3] + (z.zetas[3] + op.Matrix.identity(2),) + z.zetas[4:]
    )
    with pytest.raises(op.IdentityViolated):
        op.w_interlace_check(P_mats, Q_mats, corrupted, 21)


# float_max_rel (as float.hex) and worst_entry of verify_h_factorization and
# of verify_ul_identity on the Sobolev and on the base connection, on three
# grid configurations and the deep one: the float sums add the products of
# the dense route in its order, so any reordering shows in these bits.
_FLOAT_PINS = {
    (0, 0, 1, 15): [
        ("0x1.6d1b9530830c5p-53", (13, 13)),
        ("0x1.e01e01e01e01ep-53", (9, 9)),
        ("0x1.e01e01e01e01ep-53", (10, 10)),
    ],
    (1, 1, 2, 16): [
        ("0x1.68ed4fae5d5bcp-53", (15, 15)),
        ("0x1.5fd8a6c0ff4abp-53", (5, 4)),
        ("0x1.197a1f00cc3bcp-53", (5, 4)),
    ],
    (2, 1, 1, 15): [
        ("0x1.4f3fba81000dep-53", (14, 14)),
        ("0x1.b197c73e8326fp-53", (9, 10)),
        ("0x1.b197c73e8326fp-52", (11, 11)),
    ],
    (0, 0, 1, 40): [
        ("0x1.aa6c7f2b50826p-52", (37, 37)),
        ("0x1.d7b1b1001d7b2p-53", (30, 30)),
        ("0x1.d7b1b1001d7b2p-53", (34, 34)),
    ],
}


@pytest.mark.parametrize("alpha, cnum, N, deg", sorted(_FLOAT_PINS))
def test_float_cross_checks_keep_their_bits(alpha, cnum, N, deg):
    mu = op.laguerre_moments(alpha, 2 * (deg + N + 2) + 2)
    mass = op.Matrix.rational([[int(i == j == N) for j in range(N + 1)] for i in range(N + 1)])
    c = Fraction(cnum)
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, mass)), deg)
    rec = op.banded_recurrence(seq, c, N)
    fact = op.band_symmetric_factorize(rec.raw, N + 1, require_positive=False)
    shifted = op.monic_sequence(
        op.measure_form(op.christoffel_shift(mu, c, N + 1)), deg, require_positive=False
    )
    jac = op.jacobi_matrix(shifted)
    base = op.monic_sequence(op.measure_form(mu), deg)
    reports = [
        op.verify_h_factorization(rec, fact),
        op.verify_ul_identity(jac, c, N, op.connection_matrix(seq, shifted, N)),
        op.verify_ul_identity(jac, c, N, op.connection_matrix(base, shifted, N)),
    ]
    got = [(r.float_max_rel, r.worst_entry) for r in reports]
    assert got == [(float.fromhex(h), w) for h, w in _FLOAT_PINS[alpha, cnum, N, deg]]


def test_a_negative_band_width_is_refused(canon):
    with pytest.raises(ValueError, match="bandwidth must be >= 0"):
        op.band_symmetric_factorize(canon["rec"].raw, -1)


def test_a_singular_first_odd_zeta_is_a_singular_pivot_block():
    # zeta_1 = diag_0 - zeta_0 = diag_0, which cannot divide sub_0
    one = op.Matrix.identity(2)
    blockJ = op.BlockTridiagonal((op.Matrix.rational([[1, 0], [0, 0]]), one), (one,), (one,))
    with pytest.raises(op.SingularPivotBlock) as info:
        op.block_lu(blockJ)
    assert info.value.index == 1


def test_a_table_that_is_not_symmetric_is_not_factored():
    table = op.BandedOperator.from_fn(3, 1, 1, lambda i, j: 2 if i > j else 1)
    with pytest.raises(op.IdentityViolated, match="not symmetric"):
        op.band_symmetric_factorize(table, 1)


@pytest.mark.parametrize(
    "deg, jac_deg, error, message",
    [
        (1, 1, op.IdentityViolated, "truncation too small to trust any row"),
        (12, 20, op.DimensionMismatch, "norm list covers 13 rows, Jacobi truncation has 20"),
    ],
)
def test_the_ul_identity_needs_a_trusted_row_and_every_norm(deg, jac_deg, error, message, monkeypatch):
    # the worked case's connection to degree deg, against the Jacobi
    # matrix of its Christoffel shift to degree jac_deg; both refusals
    # come before any exact work
    mu = op.laguerre_moments(0, 2 * (max(deg, jac_deg) + 3) + 2)
    M = op.Matrix.rational([[0, 0], [0, 1]])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, M)), deg)
    shifted = op.measure_form(op.christoffel_shift(mu, 0, 2))
    conn = op.connection_matrix(seq, op.monic_sequence(shifted, deg), 1)
    jac = op.jacobi_matrix(op.monic_sequence(shifted, jac_deg))

    def no_exact_work(*args):
        raise AssertionError("exact work before the refusal")

    for name in ("clear_denominators", "_int_shift_power"):
        monkeypatch.setattr(darboux, name, no_exact_work)
    with pytest.raises(error, match=f"^{message}$"):
        op.verify_ul_identity(jac, 0, 1, conn)


def test_a_zeta_sequence_starts_at_zero():
    with pytest.raises(op.IdentityViolated, match="zeta_0 must vanish"):
        op.ZetaSequence((op.Matrix.identity(2),))


def test_block_lu_needs_an_identity_superdiagonal():
    one = op.Matrix.identity(2)
    blockJ = op.BlockTridiagonal((one, one), (one,), (2 * one,))
    with pytest.raises(op.IdentityViolated, match="identity superdiagonal"):
        op.block_lu(blockJ)
