"""The integer-row three-term kernel and re-checks against the Poly routes.

jacobi_matrix is the 1x1 case of orthopoly.three_term_steps, and the
second routes of banded_recurrence ((x-c)^{N+1} s_n = sum_k monic[n][k]
s_k) and connection_matrix (s_n = sum_j T[n][j] p_j) check their
polynomial identities over integer coefficient rows. tests/oracles.py
keeps the Poly routes they replaced. On Laguerre and Hermite Sobolev
families at integer and rational c, their Christoffel shifts and base
measures, and copies perturbed to s_k + eps s_{k-1} or with one norm
scaled, both routes must give equal results or the same exception with
the same message.
"""

from fractions import Fraction
from functools import lru_cache

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
    assert new == _outcome(lambda: oracles.poly_banded_recurrence(seq, c, N))
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
    assert new == _outcome(lambda: oracles.poly_connection_matrix(seq_from, seq_to, N))
    if kind == "none":
        assert new[0] == "ok"


@given(families, st.sampled_from(["seq", "base", "shifted"]), st.sampled_from(["seq", "base"]))
@example((("laguerre0", Fraction(0), 1), 9), "seq", "seq")
@example((("laguerre1", Fraction(1, 2), 2), 8), "shifted", "base")
@example((("hermite", Fraction(-2), 0), 6), "base", "seq")
@settings(max_examples=60, deadline=None)
def test_certified_sequences_take_the_band_route_to_the_same_tables(fam, which, source):
    # monic_sequence's own output is certified, and a copy made by hand
    # (_perturbed with kind "none") is not: it takes the dense scan
    (measure, c, N), deg = fam
    f = _family(measure, c, N, deg)
    if which in f:
        seq = f[which]
        assert seq.int_rows is not None
        new = _outcome(lambda: op.banded_recurrence(seq, c, N))
        assert new[0] == "ok"
        assert new == _outcome(lambda: oracles.poly_banded_recurrence(seq, c, N))
        copy = _perturbed(seq, "none", 0, None)
        assert copy.int_rows is None
        assert new == _outcome(lambda: op.banded_recurrence(copy, c, N))
    if "shifted" in f:
        seq_from, seq_to = f[source], f["shifted"]
        new = _outcome(lambda: op.connection_matrix(seq_from, seq_to, N))
        assert new[0] == "ok"
        assert new == _outcome(lambda: oracles.poly_connection_matrix(seq_from, seq_to, N))
        copy = _perturbed(seq_to, "none", 0, None)
        assert new == _outcome(lambda: op.connection_matrix(seq_from, copy, N))


def test_certified_sequences_never_reach_the_dense_scan(monkeypatch):
    # the dense scan is reached only through an uncertified copy, which the
    # band routes make only when one of their checks fails
    def copy_made(*args):
        raise AssertionError("dense scan reached")

    cases = [("laguerre0", Fraction(0), 1, 9), ("laguerre1", Fraction(1), 2, 8),
             ("hermite", Fraction(-2), 0, 6), ("laguerre2", Fraction(1, 2), 1, 9)]
    built = [(c, N, _family(measure, c, N, deg)) for measure, c, N, deg in cases]
    monkeypatch.setattr(orthopoly, "MonicSequence", copy_made)
    for c, N, f in built:
        for seq in f.values():
            op.banded_recurrence(seq, c, N)
        for source in (f["seq"], f["base"]):
            op.connection_matrix(source, f["shifted"], N)


def test_perturbed_sequences_reach_the_rechecks(canon):
    # s_1 + s_0 in place of s_1 leaves every table inside its band, so
    # only the polynomial identities can catch it, at the first row that
    # reads s_1; s_2 + s_1 in place of s_2 keeps a three-term step at n=1
    # and breaks the one at n=2
    seq = _perturbed(canon["seq"], "poly", 1, Fraction(1))
    shifted = _perturbed(canon["shifted"], "poly", 1, Fraction(1))
    shifted2 = _perturbed(canon["shifted"], "poly", 2, Fraction(1))
    cases = [
        (lambda: op.banded_recurrence(seq, 0, 1), lambda: oracles.poly_banded_recurrence(seq, 0, 1),
         "banded expansion failed at row 0"),
        (lambda: op.connection_matrix(canon["seq"], shifted, 1),
         lambda: oracles.poly_connection_matrix(canon["seq"], shifted, 1),
         "basis expansion disagrees with inner products at row 1"),
        (lambda: op.jacobi_matrix(shifted2), lambda: oracles.poly_jacobi_matrix(shifted2),
         "three-term residual nonzero at n=2"),
        (lambda: op.jacobi_matrix(shifted), lambda: oracles.poly_jacobi_matrix(shifted),
         "product coefficient disagrees with norm ratio at n=1"),
    ]
    for new, old, message in cases:
        assert _outcome(new) == _outcome(old) == ("IdentityViolated", message)


def test_jacobi_matrix_is_the_one_by_one_block_recurrence(canon):
    shifted = canon["shifted"]
    jac = op.jacobi_matrix(shifted)
    mats = tuple(op.Matrix([[p]]) for p in shifted.polys)
    blockJ = op.matrix_ttrr(op.MatrixPolySequence(mats, 0, monic=True)).monic
    assert [D[0, 0] for D in blockJ.diag] == list(jac.b)
    assert [C[0, 0] for C in blockJ.sub] == list(jac.lam)
