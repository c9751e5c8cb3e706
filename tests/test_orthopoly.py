"""Monic sequences, recurrence extraction, and connection coefficients,
each checked against an independent Gram-Schmidt oracle."""

from fractions import Fraction

import pytest
import sympy as sp

import opfold as op
import oracles


def sobolev_pair(alpha, c, M_rows, count=40):
    mu = op.laguerre_moments(alpha, count)
    return lambda f, g: oracles.bilinear(lambda k: mu.moment(k), c, M_rows, f, g)


CANON_M = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_worked_family_matches_gram_schmidt_oracle(canon):
    pair = sobolev_pair(0, Fraction(0), CANON_M)
    polys, norms = oracles.monic_gram_schmidt(pair, 8)
    seq = canon["seq"]
    for n in range(9):
        assert [c for c in seq.poly(n).coeffs] == oracles.sympy_to_coeffs(polys[n])
        assert seq.norm_sq(n) == norms[n]
    assert seq.poly(1) == op.Poly((-1, 1))


def test_shifted_family_matches_gram_schmidt_oracle(canon):
    pair = sobolev_pair(2, Fraction(0), [[Fraction(0)]])
    polys, norms = oracles.monic_gram_schmidt(pair, 6)
    shifted = canon["shifted"]
    for n in range(7):
        assert [c for c in shifted.poly(n).coeffs] == oracles.sympy_to_coeffs(polys[n])
        assert shifted.norm_sq(n) == norms[n]
    assert shifted.poly(1) == op.Poly((-3, 1))


def test_orthogonality_and_monicity(canon):
    seq, form = canon["seq"], canon["form"]
    for n in range(13):
        assert seq.poly(n).leading == 1
        assert seq.poly(n).degree == n
    for n in range(10):
        for m in range(n):
            assert form(seq.poly(n), seq.poly(m)) == 0
    assert seq.is_positive


def test_classical_three_term_coefficients():
    mu = op.laguerre_moments(0, 20)
    seq = op.monic_sequence(op.measure_form(mu), 7)
    jac = op.jacobi_matrix(seq)
    for n in range(6):
        assert jac.b[n] == 2 * n + 1
    for k in range(5):
        assert jac.lam[k] == (k + 1) ** 2


def test_shifted_three_term_spots(canon):
    jac = op.jacobi_matrix(canon["shifted"])
    assert jac.b[0] == 3
    assert jac.lam[0] == 3
    assert jac.lam[0] == canon["shifted"].norm_sq(1) / canon["shifted"].norm_sq(0)


def test_three_term_needs_two_polynomials():
    mu = op.laguerre_moments(0, 8)
    seq = op.monic_sequence(op.measure_form(mu), 0)
    with pytest.raises(op.InsufficientSequence, match="need at least two polynomials"):
        op.jacobi_matrix(seq)


def test_indefinite_functional_is_flagged_or_admitted():
    # odd shift power with the point inside the support: sign-changing weight
    shifted = op.christoffel_shift(op.laguerre_moments(0, 24), Fraction(1), 3)
    form = op.measure_form(shifted)
    with pytest.raises(op.NotPositiveDefinite):
        op.monic_sequence(form, 6)
    seq = op.monic_sequence(form, 6, require_positive=False)
    assert not seq.is_positive
    assert all(seq.norm_sq(n) != 0 for n in range(7))
    for n in range(7):
        assert seq.poly(n).leading == 1


def test_band_recurrence_spots_match_direct_pairings(canon):
    rec = canon["rec"]
    pair = sobolev_pair(0, Fraction(0), CANON_M)
    polys, norms = oracles.monic_gram_schmidt(pair, 4)
    x2 = oracles.X**2
    for k in range(3):
        raw = pair(x2 * polys[0], polys[k])
        assert rec.raw.entry(0, k) == raw
    assert rec.raw.entry(0, 0) / rec.norms_sq[0] == 2
    assert rec.orthonormal_sq(0, 1) == 8
    assert rec.orthonormal_sq(0, 2) == 12


def test_band_recurrence_structure(canon):
    rec = canon["rec"]
    assert rec.raw.lower == 2 and rec.raw.upper == 2
    assert rec.raw.entry(0, 3) == 0 and rec.raw.entry(3, 0) == 0
    assert all(
        rec.orthonormal_sq(i, j) == rec.orthonormal_sq(j, i)
        for i in range(rec.size)
        for j in range(i)
    )
    trusted = rec.size - 3
    for n in range(trusted):
        assert rec.orthonormal_sq(n, n + 2) != 0


def test_closed_form_coefficients_match_oracle_for_small_index(canon):
    rec = canon["rec"]
    for n in range(6):
        a2, b2, cdiag = op.reference_abc(n)
        assert rec.orthonormal_sq(n, n + 2) == a2
        assert rec.orthonormal_sq(n, n + 1) == b2
        assert rec.raw.entry(n, n) / rec.norms_sq[n] == cdiag
    assert op.reference_abc(0) == (Fraction(12), Fraction(8), Fraction(2))


def test_connection_spots_match_pairing_oracle(canon):
    conn = op.connection_matrix(canon["seq"], canon["shifted"], 1)
    pair_s = sobolev_pair(0, Fraction(0), CANON_M)
    pair_p = sobolev_pair(2, Fraction(0), [[Fraction(0)]])
    s_polys, s_norms = oracles.monic_gram_schmidt(pair_s, 3)
    p_polys, p_norms = oracles.monic_gram_schmidt(pair_p, 3)
    for n in range(3):
        inner = pair_p(s_polys[n], p_polys[0])
        assert conn.orthonormal_sq(n, 0) == inner * inner / (s_norms[n] * p_norms[0])
    assert conn.orthonormal_sq(0, 0) == 2
    assert conn.orthonormal_sq(1, 0) == 4
    assert conn.orthonormal_sq(2, 0) == 6


def test_connection_reconstructs_the_expanded_family(canon):
    conn = op.connection_matrix(canon["seq"], canon["shifted"], 1)
    seq, shifted = canon["seq"], canon["shifted"]
    for n in range(9):
        total = op.Poly(())
        for j in range(max(0, n - 2), n + 1):
            total = total + conn.T_monic.entry(n, j) * shifted.poly(j)
        assert total == seq.poly(n)


def test_connection_band_is_enforced(canon):
    with pytest.raises(op.BandViolation):
        op.connection_matrix(canon["seq"], canon["shifted"], 0)


@pytest.mark.parametrize("k", [5, 9])
def test_a_connection_source_member_of_the_wrong_degree_is_refused(canon, k):
    # x s_k in place of s_k: its row must not be truncated at the Gram's
    # last row and read as an entry below the band
    mu, form = canon["mu"], canon["form"]
    seq = op.monic_sequence(form, 9)
    shifted = op.monic_sequence(op.measure_form(op.christoffel_shift(mu, Fraction(0), 2)), 9)
    polys = list(seq.polys)
    polys[k] = op.Poly.x() * polys[k]
    bad = op.MonicSequence(tuple(polys), seq.norms_sq, form)
    with pytest.raises(op.IdentityViolated, match=f"monic sequence member s_{k} has degree {k + 1}"):
        op.connection_matrix(bad, shifted, 1)


def test_orthonormal_indices_outside_the_table_are_refused(canon):
    # -1 must not read as an entry off the band, nor may the row past the
    # table, where the connection still has a source norm
    mu, form = canon["mu"], canon["form"]
    rec = op.banded_recurrence(op.monic_sequence(form, 9), Fraction(0), 1)
    shifted = op.monic_sequence(op.measure_form(op.christoffel_shift(mu, Fraction(0), 2)), 9)
    conn = op.connection_matrix(op.monic_sequence(form, 12), shifted, 1)
    assert rec.size == conn.size == 10 and len(conn.from_norms_sq) == 13
    for read, what in (
        (rec.orthonormal_sq, "recurrence"),
        (rec.orthonormal_sign, "recurrence"),
        (conn.orthonormal_sq, "connection"),
    ):
        for n, k, bad in ((-1, 0, -1), (0, -1, -1), (10, 9, 10), (9, 10, 10)):
            with pytest.raises(op.InsufficientSequence, match=f"{what} index {bad} requested, only 10 built"):
                read(n, k)
        assert read(9, 0) == 0  # off the band inside the table
    assert rec.orthonormal_sq(9, 8) == canon["rec"].orthonormal_sq(9, 8) != 0
    assert conn.orthonormal_sq(9, 8) != 0


def test_member_indices_outside_the_sequence_are_refused(canon):
    # -1 must not wrap to the last member or row, and no accessor builds
    # the Poly members to say so
    mu = canon["mu"]
    seq = op.monic_sequence(op.measure_form(mu), 5)
    hand = op.MonicSequence(seq.polys[:3], seq.norms_sq[:3], seq.form)
    fold = op.build_matrix_sequence(op.monic_sequence(canon["form"], 5), 1)
    for s, size in ((op.monic_sequence(op.measure_form(mu), 5), 6), (hand, 3)):
        for n in (-1, -size, size):
            for read in (s.poly, s.norm_sq):
                message = f"polynomial {n} requested, only {size} built"
                with pytest.raises(op.InsufficientSequence, match=message):
                    read(n)
        assert s is hand or "polys" not in vars(s)
        assert s.poly(size - 1) == seq.poly(size - 1) and s.norm_sq(0) == seq.norm_sq(0)
    for read in (fold.mat, fold.int_block, fold.leading_coefficient):
        for n in (-1, 3):
            with pytest.raises(op.InsufficientSequence, match=f"block {n} requested, only 3 built"):
                read(n)
    assert "mats" not in vars(fold)


def test_a_hand_built_zero_norm_is_refused(canon):
    # the tables divide by every norm, so a zero one is refused where it is built
    seq = op.monic_sequence(canon["form"], 10)
    norms = list(seq.norms_sq)
    norms[3] = Fraction(0)
    with pytest.raises(op.SingularMatrix, match="zero norm at index 3"):
        op.MonicSequence(seq.polys, tuple(norms), seq.form)


@pytest.mark.parametrize("N", [-1, -2, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda cn, N: op.banded_recurrence(cn["seq"], 0, N),
        lambda cn, N: op.connection_matrix(cn["seq"], cn["shifted"], N),
        lambda cn, N: op.verify_ul_identity(
            op.jacobi_matrix(cn["shifted"]), 0, N, op.connection_matrix(cn["seq"], cn["shifted"], 1)
        ),
        lambda cn, N: op.build_matrix_sequence(cn["seq"], N),
        lambda cn, N: op.symmetry_check(cn["form"], N, 5),
    ],
    ids=[
        "banded_recurrence",
        "connection_matrix",
        "verify_ul_identity",
        "build_matrix_sequence",
        "symmetry_check",
    ],
)
def test_a_negative_band_order_is_refused(canon, call, N):
    with pytest.raises(ValueError, match="N must be >= 0"):
        call(canon, N)
