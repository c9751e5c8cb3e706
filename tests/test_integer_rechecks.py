"""The integer-row three-term kernel and re-checks against the Poly routes.

jacobi_matrix is the 1x1 case of orthopoly.three_term_steps, and the
second routes of banded_recurrence ((x-c)^{N+1} s_n = sum_k monic[n][k]
s_k) and connection_matrix (s_n = sum_j T[n][j] p_j) check their
polynomial identities over integer coefficient rows. tests/oracles.py
keeps the Poly routes they replaced. On Laguerre and Hermite Sobolev
families at integer and rational c, their Christoffel shifts and base
measures, and copies perturbed to s_k + eps s_{k-1} or with one norm
scaled, both routes must give equal results or the same exception with
the same message. The one exception is a perturbed member of a sequence
a table needs orthogonal: the table refuses it when it certifies the
sequence, naming the first pair the pairwise form finds not orthogonal,
and the Poly route must refuse it too.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles
from opfold import orthopoly

MEASURES = {
    "laguerre0": lambda count: op.laguerre_moments(0, count),
    "laguerre1": lambda count: op.laguerre_moments(1, count),
    "laguerre2": lambda count: op.laguerre_moments(2, count),
    "hermite": op.hermite_moments,
}
CENTRES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]
EPSILONS = [Fraction(1), Fraction(-1, 7), Fraction(1, 10**15)]
FACTORS = [Fraction(-1), Fraction(3, 2), 1 + Fraction(1, 10**20)]


def _mass(N: int) -> op.Matrix:
    return op.Matrix.rational(
        [[1 if i == j == N else 0 for j in range(N + 1)] for i in range(N + 1)]
    )


@lru_cache(maxsize=None)
def _family(measure: str, c: Fraction, N: int, deg: int) -> dict:
    mu = MEASURES[measure](2 * (deg + N + 2) + 2)
    fam = {
        "seq": op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, _mass(N))), deg),
        "base": op.monic_sequence(op.measure_form(mu), deg),
    }
    try:
        fam["shifted"] = op.monic_sequence(
            op.measure_form(op.christoffel_shift(mu, c, N + 1)), deg, require_positive=False
        )
    except op.SingularMatrix:
        pass  # not quasi-definite: no shifted family
    return fam


def _outcome(fn):
    """("ok", value) or (exception name, message)."""
    try:
        return "ok", fn()
    except Exception as exc:  # both routes must fail alike, whatever the type
        return type(exc).__name__, str(exc)


def _perturbed(seq: op.MonicSequence, kind: str, k: int, value) -> op.MonicSequence:
    """seq with s_k replaced by s_k + value s_{k-1} ("poly", k >= 1) or
    with its k-th norm scaled by value ("norm"); the form is kept."""
    polys, norms = list(seq.polys), list(seq.norms_sq)
    if kind == "poly":
        polys[k] = polys[k] + value * polys[k - 1]
    elif kind == "norm":
        norms[k] = norms[k] * value
    return op.MonicSequence(tuple(polys), tuple(norms), seq.form)


families = st.tuples(
    st.sampled_from(sorted(MEASURES)),
    st.sampled_from(CENTRES),
    st.integers(0, 2),
).flatmap(lambda t: st.tuples(st.just(t), st.integers(t[2] + 3, 9)))
kinds = st.sampled_from(["none", "poly", "norm"])


def _not_orthogonal(seq: op.MonicSequence) -> tuple:
    """The certification failure of seq: the first pair (i, k), by k and
    then i, with B(x^i, s_k) != 0, evaluated pair by pair."""
    pair = oracles.pairwise_form(seq.form)
    i, k = next(
        (i, k) for k in range(len(seq)) for i in range(k) if pair(op.Poly.monomial(i), seq.poly(k))
    )
    return "IdentityViolated", f"monic sequence not orthogonal: s_{i}, s_{k}"


def _change(seq, kind: str, seed: int, eps, factor):
    if kind == "poly":
        return _perturbed(seq, kind, 1 + seed % (len(seq) - 1), eps)
    return _perturbed(seq, kind, seed % len(seq), factor)


@given(
    families,
    st.sampled_from(["shifted", "base", "seq"]),
    kinds,
    st.integers(0, 10**6),
    st.sampled_from(EPSILONS),
    st.sampled_from(FACTORS),
)
@example((("laguerre0", Fraction(0), 1), 9), "shifted", "none", 0, EPSILONS[0], FACTORS[0])
@example((("laguerre1", Fraction(1, 2), 2), 8), "shifted", "poly", 3, EPSILONS[1], FACTORS[0])
@example((("hermite", Fraction(-2), 0), 6), "base", "norm", 4, EPSILONS[0], FACTORS[2])
@example((("laguerre0", Fraction(0), 1), 7), "seq", "none", 0, EPSILONS[0], FACTORS[0])
@settings(max_examples=120, deadline=None)
def test_jacobi_matrix_matches_the_poly_route(fam, which, kind, seed, eps, factor):
    f = _family(*fam[0], fam[1])
    if which not in f:
        return
    seq = _change(f[which], kind, seed, eps, factor)
    new = _outcome(lambda: op.jacobi_matrix(seq))
    assert new == _outcome(lambda: oracles.poly_jacobi_matrix(seq))
    if kind == "none" and which != "seq":
        assert new[0] == "ok"


@given(families, kinds, st.integers(0, 10**6), st.sampled_from(EPSILONS), st.sampled_from(FACTORS))
@example((("laguerre0", Fraction(0), 1), 9), "none", 0, EPSILONS[0], FACTORS[0])
@example((("laguerre1", Fraction(1, 2), 2), 8), "none", 0, EPSILONS[0], FACTORS[0])
@example((("laguerre2", Fraction(1, 2), 1), 8), "poly", 0, EPSILONS[1], FACTORS[0])
@example((("hermite", Fraction(-2), 2), 7), "norm", 2, EPSILONS[0], FACTORS[1])
@settings(max_examples=120, deadline=None)
def test_banded_recurrence_matches_the_poly_route(fam, kind, seed, eps, factor):
    (measure, c, N), deg = fam
    seq = _change(_family(measure, c, N, deg)["seq"], kind, seed, eps, factor)
    new = _outcome(lambda: op.banded_recurrence(seq, c, N))
    old = _outcome(lambda: oracles.poly_banded_recurrence(seq, c, N))
    if kind == "poly":
        assert new == _not_orthogonal(seq) and old[0] != "ok"
    else:
        assert new == old
    if kind == "none":
        assert new[0] == "ok"


@given(
    families,
    st.sampled_from(["seq", "base"]),
    st.sampled_from(["none", "from_poly", "to_poly", "to_norm"]),
    st.integers(0, 10**6),
    st.sampled_from(EPSILONS),
    st.sampled_from(FACTORS),
)
@example((("laguerre0", Fraction(0), 1), 9), "seq", "none", 0, EPSILONS[0], FACTORS[0])
@example((("laguerre1", Fraction(1, 2), 1), 8), "seq", "to_poly", 2, EPSILONS[1], FACTORS[0])
@example((("laguerre1", Fraction(-2), 0), 6), "base", "to_norm", 3, EPSILONS[0], FACTORS[1])
@example((("hermite", Fraction(1), 2), 7), "seq", "from_poly", 1, EPSILONS[2], FACTORS[0])
@settings(max_examples=120, deadline=None)
def test_connection_matrix_matches_the_poly_route(fam, source, kind, seed, eps, factor):
    f = _family(*fam[0], fam[1])
    if "shifted" not in f:
        return
    N = fam[0][2]
    seq_from, seq_to = f[source], f["shifted"]
    if kind == "from_poly":
        seq_from = _change(seq_from, "poly", seed, eps, factor)
    elif kind != "none":
        seq_to = _change(seq_to, kind[3:], seed, eps, factor)
    new = _outcome(lambda: op.connection_matrix(seq_from, seq_to, N))
    old = _outcome(lambda: oracles.poly_connection_matrix(seq_from, seq_to, N))
    if kind == "to_poly":
        assert new == _not_orthogonal(seq_to) and old[0] != "ok"
    else:
        assert new == old
    if kind == "none":
        assert new[0] == "ok"


@given(families, st.sampled_from(["seq", "base", "shifted"]), st.sampled_from(["seq", "base"]))
@example((("laguerre0", Fraction(0), 1), 9), "seq", "seq")
@example((("laguerre1", Fraction(1, 2), 2), 8), "shifted", "base")
@example((("hermite", Fraction(-2), 0), 6), "base", "seq")
@settings(max_examples=60, deadline=None)
def test_certified_sequences_take_the_band_route_to_the_same_tables(fam, which, source):
    # monic_sequence's own output is certified, and a copy made by hand
    # (_perturbed with kind "none") reads the same rows off its members and
    # is certified on first use
    (measure, c, N), deg = fam
    f = _family(measure, c, N, deg)
    if which in f:
        seq = f[which]
        assert seq.int_rows is not None
        new = _outcome(lambda: op.banded_recurrence(seq, c, N))
        assert new[0] == "ok"
        assert new == _outcome(lambda: oracles.poly_banded_recurrence(seq, c, N))
        copy = _perturbed(seq, "none", 0, None)
        assert copy.int_rows == seq.int_rows
        assert new == _outcome(lambda: op.banded_recurrence(copy, c, N))
    if "shifted" in f:
        seq_from, seq_to = f[source], f["shifted"]
        new = _outcome(lambda: op.connection_matrix(seq_from, seq_to, N))
        assert new[0] == "ok"
        assert new == _outcome(lambda: oracles.poly_connection_matrix(seq_from, seq_to, N))
        copy = _perturbed(seq_to, "none", 0, None)
        assert new == _outcome(lambda: op.connection_matrix(seq_from, copy, N))


def test_perturbed_sequences_reach_the_rechecks(canon):
    # a scaled norm leaves every table inside its band and the sequence
    # orthogonal, so only the polynomial identities can catch it, at the
    # first row that reads it; s_1 + s_0 in place of s_1, which jacobi_matrix
    # reads without certifying, keeps a three-term step at n=0 and breaks
    # the norm ratio at n=1, and s_2 + s_1 in place of s_2 keeps a
    # three-term step at n=1 and breaks the one at n=2
    seq = _perturbed(canon["seq"], "norm", 1, Fraction(3, 2))
    scaled = _perturbed(canon["shifted"], "norm", 1, Fraction(3, 2))
    shifted = _perturbed(canon["shifted"], "poly", 1, Fraction(1))
    shifted2 = _perturbed(canon["shifted"], "poly", 2, Fraction(1))
    cases = [
        (lambda: op.banded_recurrence(seq, 0, 1), lambda: oracles.poly_banded_recurrence(seq, 0, 1),
         "banded expansion failed at row 0"),
        (lambda: op.connection_matrix(canon["seq"], scaled, 1),
         lambda: oracles.poly_connection_matrix(canon["seq"], scaled, 1),
         "basis expansion disagrees with inner products at row 1"),
        (lambda: op.jacobi_matrix(shifted2), lambda: oracles.poly_jacobi_matrix(shifted2),
         "three-term residual nonzero at n=2"),
        (lambda: op.jacobi_matrix(shifted), lambda: oracles.poly_jacobi_matrix(shifted),
         "product coefficient disagrees with norm ratio at n=1"),
    ]
    for new, old, message in cases:
        assert _outcome(new) == _outcome(old) == ("IdentityViolated", message)


def test_hand_built_members_are_refused_or_certified_once(canon, monkeypatch):
    seq, shifted = canon["seq"], canon["shifted"]
    polys, norms, form = list(shifted.polys), shifted.norms_sq, shifted.form
    # a zero or non-monic member is refused where it is built
    for bad in (op.Poly(), 2 * polys[2], polys[2] + op.Poly.monomial(3, Fraction(1, 2))):
        with pytest.raises(op.IdentityViolated, match="^member 2 is not monic$"):
            op.MonicSequence(tuple(polys[:2] + [bad] + polys[3:]), norms, form)
    with pytest.raises(op.DimensionMismatch):
        op.MonicSequence(tuple(polys[:3]), norms, form)
    # a member not orthogonal, or of the wrong degree, is refused by both
    # tables, and jacobi_matrix and the fold read it as before
    skew = _perturbed(shifted, "poly", 3, Fraction(-1, 7))
    wrong = op.MonicSequence(tuple(polys[:2] + [polys[2] * op.Poly.x()] + polys[3:]), norms, form)
    cases = [
        (skew, _not_orthogonal(skew), "ok"),
        (wrong, ("IdentityViolated", "monic sequence member s_2 has degree 3"),
         ("IdentityViolated", "fold degree bound violated at block 1 entry (0,1)")),
    ]
    assert cases[0][1] == ("IdentityViolated", "monic sequence not orthogonal: s_2, s_3")
    for bad, refusal, folded in cases:
        assert _outcome(lambda: op.banded_recurrence(bad, 0, 1)) == refusal
        assert _outcome(lambda: op.connection_matrix(seq, bad, 1)) == refusal
        jac = _outcome(lambda: op.jacobi_matrix(bad))
        assert jac != refusal and jac == _outcome(lambda: oracles.poly_jacobi_matrix(bad))
        fold = _outcome(lambda: op.build_matrix_sequence(bad, 1))
        assert (fold[0] if folded == "ok" else fold) == folded
    # certification runs once per hand-built sequence, only for the
    # tables, and never on monic_sequence's output
    calls = []
    certify = orthopoly._certify
    monkeypatch.setattr(orthopoly, "_certify", lambda s: calls.append(s) or certify(s))
    copy, other = _perturbed(shifted, "none", 0, None), _perturbed(shifted, "none", 0, None)
    op.jacobi_matrix(other)
    op.build_matrix_sequence(other, 1)
    for _ in range(2):
        op.banded_recurrence(copy, 0, 1)
        op.connection_matrix(seq, copy, 1)
        op.banded_recurrence(seq, 0, 1)
        op.connection_matrix(seq, shifted, 1)
    assert len(calls) == 1 and calls[0] is copy


def test_jacobi_matrix_is_the_one_by_one_block_recurrence(canon):
    shifted = canon["shifted"]
    jac = op.jacobi_matrix(shifted)
    mats = tuple(op.Matrix([[p]]) for p in shifted.polys)
    blockJ = op.matrix_ttrr(op.MatrixPolySequence(mats, 0, monic=True)).monic
    assert [D[0, 0] for D in blockJ.diag] == list(jac.b)
    assert [C[0, 0] for C in blockJ.sub] == list(jac.lam)
