"""The Gram route against the pairwise route it replaced.

Every table opfold builds from a bilinear form is an integer matrix product
against the form's cached monomial Gram. tests/oracles.py keeps the
pairwise evaluation, one polynomial product per entry, as the second
route. Both must give the same tables and reports, and raise the same
exceptions with the same messages and degree-budget values.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles
from opfold import orthopoly

BASES = {
    "laguerre0": lambda count: op.laguerre_moments(0, count),
    "laguerre1": lambda count: op.laguerre_moments(1, count),
    "hermite": op.hermite_moments,
}


def _outcome(fn):
    """("ok", table) or (exception name, message)."""
    try:
        return "ok", [list(r) for r in fn()]
    except op.OpfoldError as exc:
        return type(exc).__name__, str(exc)


def _raised(fn) -> op.InsufficientMoments:
    with pytest.raises(op.InsufficientMoments) as info:
        fn()
    return info.value


def _mass(N: int, vecs, scale) -> op.Matrix:
    """sum of b b^T over vecs, times scale: positive semi-definite."""
    return op.Matrix.rational(
        [[scale * sum(b[i] * b[j] for b in vecs) for j in range(N + 1)] for i in range(N + 1)]
    )


@st.composite
def configs(draw):
    N = draw(st.integers(0, 2))
    vecs = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=N + 1, max_size=N + 1), min_size=1, max_size=2)
    )
    return {
        "base": draw(st.sampled_from(sorted(BASES))),
        "N": N,
        "degree": draw(st.integers(1, 8)),
        "c": draw(st.fractions(min_value=-1, max_value=3, max_denominator=3)),
        "mass": (vecs, draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)]))),
        "mismatch": draw(st.sampled_from([Fraction(0), Fraction(1, 2)])),
    }


def _case(base, N, degree, c, mass, mismatch):
    # c > 0 with N+1 odd puts the Christoffel point inside the Laguerre
    # support, so the shifted family is quasi-definite
    return {"base": base, "N": N, "degree": degree, "c": c, "mass": mass, "mismatch": mismatch}


# A mismatched c breaks the symmetry of the multiplication: the first
# SymmetryViolated in a trusted row, where the band route sees a failed
# expansion, and in one of the last N+1 rows, which the band route tests
# against the Gram directly.
TRUSTED_ROW = [
    _case("laguerre0", 1, 6, Fraction(0), ([[0, 1]], Fraction(1)), Fraction(1, 2)),
    _case("hermite", 2, 8, Fraction(1), ([[0, 0, 1]], Fraction(1)), Fraction(1, 2)),
]
LAST_ROWS = [
    _case("laguerre1", 1, 4, Fraction(-1, 2), ([[0, 1]], Fraction(1)), Fraction(1, 2)),
    _case("hermite", 2, 5, Fraction(0), ([[0, 0, 1]], Fraction(1)), Fraction(1, 2)),
]


@given(configs())
@example(TRUSTED_ROW[0])
@example(TRUSTED_ROW[1])
@example(LAST_ROWS[0])
@example(LAST_ROWS[1])
@example(_case("laguerre0", 0, 8, Fraction(1), ([[1]], Fraction(1)), Fraction(0)))
@example(_case("laguerre0", 2, 8, Fraction(1, 2), ([[0, 0, 1]], Fraction(1)), Fraction(0)))
@example(_case("laguerre1", 2, 7, Fraction(2), ([[1, -1, 2], [0, 1, 1]], Fraction(1, 2)), Fraction(0)))
@example(_case("laguerre0", 1, 8, Fraction(0), ([[0, 1]], Fraction(1)), Fraction(1, 2)))
@example(_case("hermite", 1, 6, Fraction(1, 3), ([[1, 2]], Fraction(3)), Fraction(0)))
# the mass makes row 0 the only row whose first entry keeps the Gram's gcd at 1
@example(_case("laguerre0", 0, 1, Fraction(0), ([[1]], Fraction(1, 2)), Fraction(0)))
@settings(max_examples=60, deadline=None)
def test_gram_route_matches_pairwise_route(cfg):
    N, deg, c = cfg["N"], cfg["degree"], cfg["c"]
    c_rec = c + cfg["mismatch"]
    mu = BASES[cfg["base"]](2 * (deg + N + 2) + 2)
    form = op.sobolev_form(op.SobolevSpec(mu, c, N, _mass(N, *cfg["mass"])))

    top = deg + N + 1
    assert _outcome(lambda: op.gram_matrix(form, top).rows) == _outcome(
        lambda: oracles.pairwise_gram(form, top)
    )
    rep = op.symmetry_check(form, N, deg, c_rec)
    assert (rep.ok, rep.counterexample, rep.lhs, rep.rhs) == oracles.pairwise_symmetry_check(
        form, N, deg, c_rec
    )

    seq = op.monic_sequence(form, deg)
    assert _outcome(lambda: op.banded_recurrence(seq, c_rec, N).raw.rows) == _outcome(
        lambda: oracles.pairwise_recurrence_raw(seq, c_rec, N)
    )

    try:
        shifted = op.monic_sequence(
            op.measure_form(op.christoffel_shift(mu, c_rec, N + 1)), deg, require_positive=False
        )
    except op.SingularMatrix:
        return  # not quasi-definite: there is no shifted family to connect to
    for source in (seq, op.monic_sequence(op.measure_form(mu), deg)):
        assert _outcome(lambda: op.connection_matrix(source, shifted, N).T_monic.rows) == _outcome(
            lambda: oracles.poly_connection_matrix(source, shifted, N).T_monic.rows
        )


def test_mismatched_shift_raises_the_same_symmetry_violation_on_both_routes():
    mu = op.laguerre_moments(0, 2 * (8 + 1 + 2) + 2)
    form = op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, op.Matrix.rational([[0, 0], [0, 1]])))
    seq = op.monic_sequence(form, 8)
    with pytest.raises(op.SymmetryViolated) as gram_route:
        op.banded_recurrence(seq, Fraction(1), 1)
    with pytest.raises(op.SymmetryViolated) as pairwise_route:
        oracles.pairwise_recurrence_raw(seq, Fraction(1), 1)
    assert str(gram_route.value) == str(pairwise_route.value)
    assert str(gram_route.value).startswith("entry (3,0) = ")


@pytest.mark.parametrize("N", [0, 1, 2])
def test_one_moment_too_few_raises_the_pairwise_budget(N):
    deg = 6
    mass = op.Matrix.rational([[int(i == j == N) for j in range(N + 1)] for i in range(N + 1)])
    # the recurrence pairs (x-c)^{N+1} s_deg with s_0: moments through 2 (deg + N + 1)
    mu = op.laguerre_moments(0, 2 * (deg + N + 1))
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(0), N, mass)), deg)
    gram = _raised(lambda: op.banded_recurrence(seq, Fraction(0), N))
    pairwise = _raised(lambda: oracles.pairwise_recurrence_raw(seq, Fraction(0), N))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)
    assert (gram.needed, gram.available) == (2 * (deg + N + 1), 2 * (deg + N))

    # the connection pairs s_deg with p_0 under the shifted form: moments
    # through 2 deg
    shifted_mu = op.christoffel_shift(op.laguerre_moments(0, 40), Fraction(0), N + 1)
    shifted = op.monic_sequence(op.measure_form(shifted_mu), deg)
    short = op.measure_form(op.MomentFunctional(shifted_mu.moments[: 2 * deg]))
    short_seq = op.MonicSequence(shifted.polys, shifted.norms_sq, short)
    gram = _raised(lambda: op.connection_matrix(seq, short_seq, N))
    pairwise = _raised(lambda: oracles.poly_connection_matrix(seq, short_seq, N))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)
    assert (gram.needed, gram.available) == (2 * deg, 2 * deg - 2)

    # the symmetry scan pairs (x-c)^{N+1} x^deg with x^0: the Gram must
    # reach deg + N + 1, and falling short raises before the scan
    form = op.sobolev_form(
        op.SobolevSpec(op.laguerre_moments(0, 2 * deg + N + 2), Fraction(0), N, mass)
    )
    gram = _raised(lambda: op.symmetry_check(form, N, deg, Fraction(0)))
    pairwise = _raised(lambda: oracles.pairwise_symmetry_check(form, N, deg, Fraction(0)))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)
    assert (gram.needed, gram.available) == (2 * (deg + N + 1), 2 * form.max_degree)
    gram = _raised(lambda: op.gram_matrix(form, form.max_degree + 1))
    pairwise = _raised(lambda: oracles.pairwise_gram(form, form.max_degree + 1))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)


def test_a_failed_row_raises_before_a_later_row_runs_out_of_moments():
    # one moment too few for the last row of each table, and a row before
    # it that fails: the mismatched shift's row 3, and s_4 + s_0 in place
    # of s_4, whose connection row reaches below the band
    deg, N = 8, 1
    mass = op.Matrix.rational([[0, 0], [0, 1]])
    mu = op.laguerre_moments(0, 2 * (deg + N + 1))
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(0), N, mass)), deg)
    symmetric = _outcome(lambda: op.banded_recurrence(seq, Fraction(0), N).raw.rows)
    assert symmetric[0] == "InsufficientMoments"
    gram = _outcome(lambda: op.banded_recurrence(seq, Fraction(1), N).raw.rows)
    assert gram == _outcome(lambda: oracles.pairwise_recurrence_raw(seq, Fraction(1), N))
    assert gram[0] == "SymmetryViolated" and gram[1].startswith("entry (3,0) = ")

    shifted_mu = op.christoffel_shift(op.laguerre_moments(0, 40), Fraction(0), N + 1)
    shifted = op.monic_sequence(op.measure_form(shifted_mu), deg)
    short = op.measure_form(op.MomentFunctional(shifted_mu.moments[: 2 * deg]))
    short_seq = op.MonicSequence(shifted.polys, shifted.norms_sq, short)
    polys = list(seq.polys)
    polys[4] = polys[4] + polys[0]
    skew = op.MonicSequence(tuple(polys), seq.norms_sq, seq.form)
    orthogonal = _outcome(lambda: op.connection_matrix(seq, short_seq, N).T_monic.rows)
    assert orthogonal[0] == "InsufficientMoments"
    gram = _outcome(lambda: op.connection_matrix(skew, short_seq, N).T_monic.rows)
    assert gram == _outcome(lambda: oracles.poly_connection_matrix(skew, short_seq, N).T_monic.rows)
    assert gram[0] == "BandViolation" and gram[1].startswith("connection entry (4,0) = ")


def test_canonical_recurrence_at_degree_fifty_matches_the_closed_forms():
    deg = 50
    mu = op.laguerre_moments(0, 2 * (deg + 1 + 2) + 2)
    M = op.Matrix.rational([[0, 0], [0, 1]])
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, M)), deg)
    rec = op.banded_recurrence(seq, Fraction(0), 1)
    trusted = rec.size - 2
    assert trusted == 49
    for n in range(trusted):
        a2, b2, cdiag = op.reference_abc(n)
        assert rec.orthonormal_sq(n, n + 2) == a2
        assert rec.orthonormal_sq(n, n + 1) == b2
        assert rec.raw.entry(n, n) / rec.norms_sq[n] == cdiag


def _built(cfg):
    """The moments, the certified sequence and the recurrence's c of a case."""
    N, deg, c = cfg["N"], cfg["degree"], cfg["c"]
    mu = BASES[cfg["base"]](2 * (deg + N + 2) + 2)
    form = op.sobolev_form(op.SobolevSpec(mu, c, N, _mass(N, *cfg["mass"])))
    return mu, op.monic_sequence(form, deg), c + cfg["mismatch"]


def _result(fn):
    """("ok", value) or (exception name, message)."""
    try:
        return "ok", fn()
    except op.OpfoldError as exc:
        return type(exc).__name__, str(exc)


def _hand_built(seq: op.MonicSequence) -> op.MonicSequence:
    return op.MonicSequence(seq.polys, seq.norms_sq, seq.form)


@given(configs())
@example(TRUSTED_ROW[0])
@example(TRUSTED_ROW[1])
@example(LAST_ROWS[0])
@example(LAST_ROWS[1])
@settings(max_examples=60, deadline=None)
def test_a_hand_built_copy_gives_the_certified_sequences_tables(cfg):
    # the copy reads its rows off its members and is certified on first use
    mu, seq, c_rec = _built(cfg)
    N, deg = cfg["N"], cfg["degree"]
    copy = _hand_built(seq)
    assert copy == seq and repr(copy) == repr(seq)
    assert copy.int_rows == seq.int_rows
    assert _result(lambda: op.banded_recurrence(seq, c_rec, N)) == _result(
        lambda: op.banded_recurrence(copy, c_rec, N)
    )
    try:
        shifted = op.monic_sequence(
            op.measure_form(op.christoffel_shift(mu, c_rec, N + 1)), deg, require_positive=False
        )
    except op.SingularMatrix:
        return
    for source in (seq, copy, op.monic_sequence(op.measure_form(mu), deg)):
        assert _result(lambda: op.connection_matrix(source, shifted, N)) == _result(
            lambda: op.connection_matrix(source, _hand_built(shifted), N)
        )


@pytest.mark.parametrize("cfg, last", [(c, False) for c in TRUSTED_ROW] + [(c, True) for c in LAST_ROWS])
def test_the_pinned_mismatches_fail_in_the_rows_they_name(cfg, last):
    _, seq, c_rec = _built(cfg)
    N = cfg["N"]
    with pytest.raises(op.SymmetryViolated) as info:
        op.banded_recurrence(seq, c_rec, N)
    n = int(str(info.value).split("(")[1].split(",")[0])
    assert (n >= len(seq) - (N + 1)) == last


def _entries(monkeypatch, name: str) -> list:
    """Record every entry into orthopoly's table name, its calls to
    itself included."""
    calls = []
    table = getattr(orthopoly, name)
    monkeypatch.setattr(orthopoly, name, lambda *args: calls.append(args) or table(*args))
    return calls


@pytest.mark.parametrize("cfg", TRUSTED_ROW + LAST_ROWS)
def test_a_failed_band_check_enters_the_recurrence_once(cfg, monkeypatch):
    _, seq, c_rec = _built(cfg)
    calls = _entries(monkeypatch, "banded_recurrence")
    with pytest.raises(op.SymmetryViolated):
        orthopoly.banded_recurrence(seq, c_rec, cfg["N"])
    assert len(calls) == 1


def test_a_failed_expansion_enters_the_connection_once(canon, monkeypatch):
    # s_4 + s_0 from the certified Sobolev sequence reaches below the band
    # of row 4, and the shifted sequence with one norm scaled fails the
    # expansion of row 1
    seq, shifted = canon["seq"], canon["shifted"]
    polys = list(seq.polys)
    polys[4] = polys[4] + polys[0]
    skew = op.MonicSequence(tuple(polys), seq.norms_sq, seq.form)
    norms = list(shifted.norms_sq)
    norms[1] *= 3
    scaled = op.MonicSequence(shifted.polys, tuple(norms), shifted.form)
    cases = [
        (skew, shifted, op.BandViolation, r"connection entry \(4,0\) = "),
        (seq, scaled, op.IdentityViolated, "basis expansion disagrees with inner products at row 1"),
    ]
    for seq_from, seq_to, error, message in cases:
        calls = _entries(monkeypatch, "connection_matrix")
        with pytest.raises(error, match=message):
            orthopoly.connection_matrix(seq_from, seq_to, 1)
        assert len(calls) == 1
        monkeypatch.undo()
