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


@given(configs())
@example(_case("laguerre0", 0, 8, Fraction(1), ([[1]], Fraction(1)), Fraction(0)))
@example(_case("laguerre0", 2, 8, Fraction(1, 2), ([[0, 0, 1]], Fraction(1)), Fraction(0)))
@example(_case("laguerre1", 2, 7, Fraction(2), ([[1, -1, 2], [0, 1, 1]], Fraction(1, 2)), Fraction(0)))
@example(_case("laguerre0", 1, 8, Fraction(0), ([[0, 1]], Fraction(1)), Fraction(1, 2)))
@example(_case("hermite", 1, 6, Fraction(1, 3), ([[1, 2]], Fraction(3)), Fraction(0)))
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

    # the symmetry scan: the upfront bound lets these through for N < 2,
    # and the first shifted monomial past the budget raises mid-scan
    form = op.sobolev_form(
        op.SobolevSpec(op.laguerre_moments(0, 2 * deg + N + 2), Fraction(0), N, mass)
    )
    gram = _raised(lambda: op.symmetry_check(form, N, deg, Fraction(0)))
    pairwise = _raised(lambda: oracles.pairwise_symmetry_check(form, N, deg, Fraction(0)))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)
    gram = _raised(lambda: op.gram_matrix(form, form.max_degree + 1))
    pairwise = _raised(lambda: oracles.pairwise_gram(form, form.max_degree + 1))
    assert (gram.needed, gram.available) == (pairwise.needed, pairwise.available)


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
