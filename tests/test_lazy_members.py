"""Poly members as views over the certified integer rows.

monic_sequence, build_matrix_sequence and monic_normalize carry their
results as integer rows (int_rows, int_blocks) and build the public Poly
members (polys, mats) only when they are first read. tests/oracles.py
keeps the eager construction the builders used before (eager_polys,
eager_fold_mats, eager_monic_mats). On Laguerre and Hermite Sobolev
forms at N = 0..3 and c in {0, 1, 1/2, -2}, their Christoffel shifts,
folds about c and monic normalizations, every view must equal the eager
members, and equality, hashing and repr must read as those of a sequence
built by hand from the same members; the leading coefficients, read off
the integer rows, must equal those of the Poly blocks. The deep
benchmark chain must build no member at all.
"""

import copy
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles

MEASURES = {"laguerre0": lambda count: op.laguerre_moments(0, count), "hermite": op.hermite_moments}
CENTRES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]


def _sequences(measure: str, c: Fraction, N: int, deg: int, b) -> list:
    """The Sobolev sequence with mass b b^T at c and, when it is
    quasi-definite, the sequence of the Christoffel shift by (x-c)^(N+1)."""
    mu = MEASURES[measure](2 * (deg + N + 2) + 2)
    mass = op.Matrix.rational([[x * y for y in b] for x in b])
    seqs = [op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, mass)), deg)]
    try:
        shifted = op.measure_form(op.christoffel_shift(mu, c, N + 1))
        seqs.append(op.monic_sequence(shifted, deg, require_positive=False))
    except op.SingularMatrix:
        pass  # not quasi-definite: no shifted sequence
    return seqs


def _reads_as(built, view: str, members, by_hand) -> None:
    """The view of a built sequence equals the members, and ==, hash and
    repr, each made first on its own unread copy, equal by_hand's."""
    fresh = [copy.copy(built) for _ in range(3)]
    assert all(view not in vars(s) for s in [built, *fresh])
    assert not hasattr(built, "members")  # no other missing name reads as a view
    assert fresh[0] == by_hand
    assert hash(fresh[1]) == hash(by_hand)
    assert repr(fresh[2]) == repr(by_hand)
    assert getattr(built, view) == members
    assert len(built) == len(by_hand) == len(members)


@given(
    st.sampled_from(sorted(MEASURES)),
    st.sampled_from(CENTRES),
    st.integers(0, 3).flatmap(
        lambda N: st.tuples(
            st.just(N),
            st.integers(0, 3 * N + 5),
            st.lists(st.integers(-2, 2), min_size=N + 1, max_size=N + 1),
        )
    ),
)
@example("laguerre0", Fraction(0), (1, 9, [0, 1]))
@example("hermite", Fraction(1, 2), (3, 11, [1, 0, -1, 2]))
@example("laguerre0", Fraction(1), (2, 8, [0, 0, 1]))
@example("hermite", Fraction(-2), (0, 0, [1]))
@settings(max_examples=60, deadline=None)
def test_views_equal_the_eager_members(measure, c, case):
    N, deg, b = case
    for seq in _sequences(measure, c, N, deg, b):
        hand = op.MonicSequence(oracles.eager_polys(seq), seq.norms_sq, seq.form)
        _reads_as(seq, "polys", oracles.eager_polys(seq), hand)
        raw = op.build_matrix_sequence(seq, N, c)
        raw_mats = oracles.eager_fold_mats(seq, N, c)
        raw_hand = op.MatrixPolySequence(raw_mats, N, False, seq, c)
        _reads_as(raw, "mats", raw_mats, raw_hand)
        for n, m in enumerate(raw_mats):
            assert raw.leading_coefficient(n) == m.map(lambda e: e.coeff(n))
        P = op.monic_normalize(raw).sequence
        P_hand = oracles.poly_monic_normalize(raw_hand).sequence
        assert oracles.eager_monic_mats(P) == P_hand.mats
        _reads_as(P, "mats", P_hand.mats, P_hand)


def test_the_deep_chain_builds_no_member():
    """The deep benchmark configuration, degree 40 of the worked family:
    every table reads the integer rows, so no Poly member is built."""
    deg, N, c = 40, 1, Fraction(0)
    mu = op.laguerre_moments(0, 2 * (deg + N + 2) + 2)
    mass = op.Matrix.rational([[0, 0], [0, 1]])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, mass)), deg)
    shifted = op.monic_sequence(
        op.measure_form(op.christoffel_shift(mu, c, N + 1)), deg, require_positive=False
    )
    base = op.monic_sequence(op.measure_form(mu), deg)
    op.banded_recurrence(seq, c, N)
    jac = op.jacobi_matrix(shifted)
    for source in (seq, base):
        assert op.verify_ul_identity(jac, c, N, op.connection_matrix(source, shifted, N)).exact_ok
    folds = [op.build_matrix_sequence(s, N, c) for s in (seq, shifted)]
    monic = [op.monic_normalize(R).sequence for R in folds]
    op.block_lu(op.matrix_ttrr(monic[0]).monic)
    op.matrix_ttrr(monic[1])
    assert not [s for s in (seq, shifted, base) if "polys" in vars(s)]
    assert not [R for R in folds + monic if "mats" in vars(R)]
    # a read builds the view once and keeps it
    assert seq.poly(3) is seq.polys[3] and "polys" in vars(seq)
    assert seq.polys == oracles.eager_polys(seq)


def _fresh_hermite_fold(hermite):
    """The degree-13 Hermite sequence and its fold at N = 1 (7 blocks),
    built anew so that no view has been read."""
    seq = op.monic_sequence(op.measure_form(hermite["mu"]), 13)
    return seq, op.build_matrix_sequence(seq, 1)


def test_row_scalars_read_no_poly_block(hermite):
    # matrix_gram reads the integer blocks; the oracle reassembles each row from them
    seq, R = _fresh_hermite_fold(hermite)
    assert op.matrix_gram(R, 0, 0) == op.matrix_gram(hermite["fold"], 0, 0)
    assert "mats" not in vars(R)
    scalars = [oracles.row_scalar(R, n, i) for n in range(len(R)) for i in range(2)]
    assert scalars == list(oracles.eager_polys(seq))
    assert "mats" not in vars(R) and "polys" not in vars(seq)


def test_the_block_gram_builds_no_poly_member(hermite):
    # every block pair of the fold and its monic normalization, from the integer rows
    seq, R = _fresh_hermite_fold(hermite)
    P = op.monic_normalize(R).sequence
    for S in (R, P):
        for n in range(len(S)):
            for m in range(len(S)):
                op.matrix_gram(S, n, m)
    assert "polys" not in vars(seq)
    assert "mats" not in vars(R) and "mats" not in vars(P)


def test_conjugation_reads_no_poly_member(hermite):
    # block 0 needs members 0 and 1 only, read off the integer rows
    seq, R = _fresh_hermite_fold(hermite)
    y0 = Fraction(1, 2)
    got = op.conjugation_eval(hermite["D"], R, 0, y0)
    assert "polys" not in vars(seq) and "mats" not in vars(R)
    assert got == op.conjugation_eval(hermite["D"], hermite["fold"], 0, y0)
