"""The banded-recurrence generator of monic sequences against the LDL^T route.

monic_sequence builds s_k from the form's own short recurrence under
(x-c)^r and certifies orthogonality in integers. tests/oracles.py keeps
the Fraction LDL^T of the Gram plus the inverse of its unit lower factor
as the second route. Both must give the same polynomials and squared
norms, or raise the same exception with the same message, degree and
pivot. The certificate itself has a second route too: oracles'
dense_monic_sequence checks G s_k on every row below k, where
monic_sequence checks the Gram's shift symmetry once and G s_k only in
the recurrence window; the two must agree on forms with and without that
symmetry.
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
    """("ok", polys, norms) or (exception name, message, degree, pivot)."""
    try:
        seq = fn()
    except op.OpfoldError as exc:
        return (
            type(exc).__name__,
            str(exc),
            getattr(exc, "degree", None),
            getattr(exc, "pivot", None),
        )
    return "ok", seq.polys, seq.norms_sq


def _mass(N, vecs, zero_tail, scale) -> op.Matrix:
    """scale * sum of b b^T over vecs with the last zero_tail entries of
    each b cleared: positive semi-definite, with zero trailing rows."""
    keep = N + 1 - zero_tail
    vecs = [[v if i < keep else 0 for i, v in enumerate(b)] for b in vecs]
    return op.Matrix.rational(
        [[scale * sum(b[i] * b[j] for b in vecs) for j in range(N + 1)] for i in range(N + 1)]
    )


@st.composite
def forms(draw):
    """(form, n_max): a Sobolev form, a plain measure or a Christoffel shift."""
    base = draw(st.sampled_from(sorted(BASES)))
    n_max = draw(st.integers(0, 9))
    # mostly enough moments for degree n_max; sometimes one or two too few
    count = 2 * n_max + 1 + draw(st.sampled_from([0, 0, 1, 3, 6, -1, -2]))
    kind = draw(st.sampled_from(["sobolev", "sobolev", "measure", "shifted"]))
    c = draw(st.fractions(min_value=-1, max_value=3, max_denominator=3))
    if kind == "shifted":
        power = draw(st.integers(1, 3))
        # c > 0 inside the Laguerre support with an odd power: quasi-definite
        mu = op.christoffel_shift(BASES[base](max(count, 1) + power), c, power)
        return op.measure_form(mu), n_max
    mu = BASES[base](max(count, 1))
    if kind == "measure":
        return op.measure_form(mu), n_max
    N = draw(st.integers(0, 2))
    vecs = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=N + 1, max_size=N + 1), min_size=1, max_size=2)
    )
    zero_tail = draw(st.integers(0, N))
    scale = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)]))
    return op.sobolev_form(op.SobolevSpec(mu, c, N, _mass(N, vecs, zero_tail, scale))), n_max


def _sobolev(base, N, c, rows, n_max, extra=4):
    mu = BASES[base](2 * n_max + 1 + extra)
    return op.sobolev_form(op.SobolevSpec(mu, Fraction(c), N, op.Matrix.rational(rows))), n_max


def _shifted(base, c, power, n_max):
    mu = op.christoffel_shift(BASES[base](2 * n_max + 1 + power), Fraction(c), power)
    return op.measure_form(mu), n_max


@given(forms(), st.booleans())
@example(_sobolev("laguerre0", 1, 0, [[0, 0], [0, 1]], 9), True)
@example(_sobolev("laguerre0", 2, 1, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 9), True)
@example(_sobolev("hermite", 2, Fraction(1, 2), [[0] * 3] * 3, 7), True)
@example(_sobolev("laguerre1", 2, 2, [[4, 2, 0], [2, 1, 0], [0, 0, 0]], 2), True)
@example(_shifted("laguerre0", 1, 3, 8), False)
@example(_shifted("laguerre0", 1, 3, 8), True)
@example(_shifted("laguerre0", 2, 2, 8), False)
@example(_sobolev("laguerre0", 1, 0, [[0, 0], [0, 1]], 9, extra=-2), True)
@settings(max_examples=150, deadline=None)
def test_banded_generator_matches_the_ldlt_route(case, require_positive):
    form, n_max = case
    assert _outcome(lambda: op.monic_sequence(form, n_max, require_positive)) == _outcome(
        lambda: oracles.ldlt_monic_sequence(form, n_max, require_positive)
    )


def test_quasi_definite_shift_keeps_the_pivot_policy():
    # (x-1)^3 e^{-x} changes sign inside the support: the first
    # nonpositive pivot is fatal under require_positive, only a zero one without
    form, n_max = _shifted("laguerre0", 1, 3, 8)
    with pytest.raises(op.NotPositiveDefinite) as info:
        op.monic_sequence(form, n_max)
    assert (info.value.degree, info.value.pivot) == (2, Fraction(-2776, 7))
    seq = op.monic_sequence(form, n_max, require_positive=False)
    assert any(d < 0 for d in seq.norms_sq) and all(d != 0 for d in seq.norms_sq)
    # the moments of a unit point mass at 1 give a rank-one Gram
    zero = op.measure_form(op.MomentFunctional([1, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(op.SingularMatrix, match="zero pivot at index 1"):
        op.monic_sequence(zero, 3, require_positive=False)
    with pytest.raises(op.NotPositiveDefinite) as info:
        op.monic_sequence(zero, 3)
    assert (info.value.degree, info.value.pivot) == (1, 0)


class _DenseGramForm(op.BilinearForm):
    """A form whose Gram is not a moment Hankel: multiplication by x is not
    symmetric for it, so the short recurrence cannot hold."""

    def gram(self, n):
        return [[(i + 1) * (j + 1) + (3 if i == j else 0) for j in range(6)] for i in range(6)], 1


def test_the_orthogonality_certificate_catches_a_form_without_the_shift_symmetry():
    form = _DenseGramForm(op.laguerre_moments(0, 11))
    oracle = oracles.ldlt_monic_sequence(form, 4)
    assert all(d > 0 for d in oracle.norms_sq)
    # with r = 1 the window of s_3 is s_1, s_2: s_0 is where it shows
    with pytest.raises(op.IdentityViolated, match="not orthogonal: s_0, s_3"):
        op.monic_sequence(form, 4)


def test_deep_canonical_sequence_matches_the_ldlt_route():
    form, n_max = _sobolev("laguerre0", 1, 0, [[0, 0], [0, 1]], 30)
    seq = op.monic_sequence(form, n_max)
    ref = oracles.ldlt_monic_sequence(form, n_max)
    assert seq.polys == ref.polys and seq.norms_sq == ref.norms_sq


class _PerturbedForm(op.BilinearForm):
    """The Gram of form with entry at moved by delta: outside the square
    the shift-symmetry check reads, or inside it, where the check fails
    unless the entry is one the symmetry does not constrain."""

    def __init__(self, form, at, delta):
        super().__init__(form.mu, form.c, form.M, form.label)
        self.at, self.delta = at, delta

    def _build(self, n):
        rows, den = super()._build(n)
        i, j = self.at
        if max(i, j) <= n:
            rows[i][j] += self.delta
        return rows, den


def _shift(form):
    """(r, c) of monic_sequence's shift q = (x-c)^r: x, r = 1, without a mass."""
    if form.M is None or form.M.is_zero:
        return 1, Fraction(0)
    return form.M.nrows, form.c


@st.composite
def certified_forms(draw):
    """(form, n_max): a Laguerre or Hermite Sobolev form with N 0..3 and
    c in {0, 1, 1/2, -2}, or its Christoffel shift, with at times one Gram
    entry perturbed inside or outside the checked square."""
    base = draw(st.sampled_from(["laguerre0", "hermite"]))
    n_max = draw(st.integers(0, 12))
    N = draw(st.integers(0, 3))
    c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]))
    count = 2 * n_max + 1 + draw(st.sampled_from([0, 0, 2, -1]))
    if draw(st.booleans()):
        form = op.measure_form(op.christoffel_shift(BASES[base](max(count, 1) + N + 1), c, N + 1))
    else:
        b = draw(st.lists(st.integers(-2, 2), min_size=N + 1, max_size=N + 1))
        M = op.Matrix.rational([[x * y for y in b] for x in b])
        form = op.sobolev_form(op.SobolevSpec(BASES[base](max(count, 1)), c, N, M))
    where = draw(st.sampled_from(["none", "inside", "outside"]))
    if where == "none":
        return form, n_max
    side = n_max - _shift(form)[0]  # the check reads rows and columns a, b <= side
    if where == "inside" and side >= 0:
        at = (draw(st.integers(0, n_max)), draw(st.integers(0, side)))
        at = at if draw(st.booleans()) else at[::-1]
    else:
        span = st.integers(max(0, side + 1), n_max)
        at = (draw(span), draw(span))
    return _PerturbedForm(form, at, draw(st.sampled_from([-3, -1, 1, 2]))), n_max


def _certified(fn):
    """("ok", polys, norms, int_rows) or (exception name, message)."""
    try:
        seq = fn()
    except op.OpfoldError as exc:
        return type(exc).__name__, str(exc)
    return "ok", seq.polys, seq.norms_sq, seq.int_rows


def _worked(n_max, extra=0):
    return _sobolev("laguerre0", 1, 0, [[0, 0], [0, 1]], n_max, extra)[0]


def _hermite_half():
    return _sobolev("hermite", 1, Fraction(1, 2), [[1, 1], [1, 1]], 8)[0]


@given(certified_forms(), st.booleans())
@example((_PerturbedForm(_worked(8), (5, 2), 1), 8), True)
@example((_PerturbedForm(_worked(8), (7, 8), -1), 8), True)
@example((_PerturbedForm(_worked(8), (2, 5), 1), 8), False)
@example((_PerturbedForm(_worked(8), (8, 6), 1), 8), True)
@example((_PerturbedForm(_worked(8), (2, 8), 1), 8), True)
@example((_PerturbedForm(_worked(8), (1, 0), 1), 8), True)
@example((_PerturbedForm(_hermite_half(), (0, 5), 1), 8), True)
@example(_sobolev("hermite", 3, -2, [[1, 1, 0, 1], [1, 1, 0, 1], [0] * 4, [1, 1, 0, 1]], 12), True)
@example(_shifted("laguerre0", Fraction(1, 2), 3, 12), False)
@settings(max_examples=120, deadline=None)
def test_window_certificate_matches_the_dense_one(case, require_positive):
    form, n_max = case
    assert _certified(lambda: op.monic_sequence(form, n_max, require_positive)) == _certified(
        lambda: oracles.dense_monic_sequence(form, n_max, require_positive)
    )


def test_the_shift_symmetry_check_reads_the_square_it_names():
    for form, n_max, symmetric in [
        (_worked(8), 8, True),
        (_PerturbedForm(_worked(8), (5, 2), 1), 8, False),
        (_PerturbedForm(_worked(8), (7, 8), 1), 8, True),
        # G[1][0] is not read: under x^2 it is symmetric to no other entry
        (_PerturbedForm(_worked(8), (1, 0), 1), 8, True),
        (_PerturbedForm(_worked(8), (8, 6), 1), 8, False),
        # read only on the last column of the square, shows only below the window
        (_PerturbedForm(_worked(8), (2, 8), 1), 8, False),
        (_PerturbedForm(_hermite_half(), (0, 5), 1), 8, False),
        # under (x - 1/2)^2 these reach only the first and the last column of the check
        (_PerturbedForm(_hermite_half(), (5, 0), 1), 8, False),
        (_PerturbedForm(_hermite_half(), (3, 8), 1), 8, False),
        (_sobolev("hermite", 2, Fraction(1, 2), [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 8)[0], 8, True),
        (_shifted("laguerre0", -2, 3, 8)[0], 8, True),
        (_DenseGramForm(op.laguerre_moments(0, 11)), 4, False),
    ]:
        r, c = _shift(form)
        assert op.symmetry_check(form, r - 1, n_max - r, c).ok is symmetric


def test_a_negative_degree_is_refused():
    form = _worked(4)
    for n_max in (-1, -5):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            op.monic_sequence(form, n_max)
