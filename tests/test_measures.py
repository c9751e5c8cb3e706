"""Moment functionals, bilinear forms, and the multiplication-symmetry test."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles
from opfold.linalg import clear_denominators, ldlt
from opfold.measures import shift_row

small_poly = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    min_size=1,
    max_size=5,
)


def test_gamma_weight_moments_match_direct_integrals():
    mu0 = op.laguerre_moments(0, 8)
    mu2 = op.laguerre_moments(2, 6)
    for k in range(6):
        assert mu0.moment(k) == oracles.laguerre_moment_integral(0, k)
    for k in range(4):
        assert mu2.moment(k) == oracles.laguerre_moment_integral(2, k)


def test_gamma_weight_moments_match_closed_form():
    mu = op.laguerre_moments(1, 30)
    for k in range(30):
        assert mu.moment(k) == oracles.laguerre_moment(1, k)


def test_gaussian_moments_match_direct_integrals():
    mu = op.hermite_moments(10)
    for k in range(9):
        assert mu.moment(k) == oracles.hermite_moment_integral(k)


def test_gaussian_moments_match_closed_form():
    mu = op.hermite_moments(40)
    assert mu.moment(0) == 1
    for k in range(40):
        assert mu.moment(k) == oracles.hermite_moment(k)


def test_moment_access_beyond_table_raises():
    mu = op.laguerre_moments(0, 5)
    with pytest.raises(op.InsufficientMoments):
        mu.moment(5)


def test_a_negative_moment_index_is_refused():
    # -1 must not wrap to the last moment
    mu = op.laguerre_moments(0, 5)
    with pytest.raises(ValueError, match="moment index must be >= 0"):
        mu.moment(-1)
    assert mu.moment(4) == 24


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25)
def test_shifted_functional_matches_expansion_oracle(c, power):
    mu = op.laguerre_moments(0, 16)
    shifted = op.christoffel_shift(mu, c, power)
    for k in range(16 - power):
        want = oracles.shifted_moment(lambda j: mu.moment(j), c, power, k)
        assert shifted.moment(k) == want


@given(
    st.sampled_from(["laguerre0", "laguerre2", "hermite", "explicit"]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(min_value=1, max_value=4),
)
@example("explicit", Fraction(-3, 4), 4)
@example("hermite", Fraction(5, 3), 1)
@settings(max_examples=60, deadline=None)
def test_integer_christoffel_shift_matches_the_fraction_route(base, c, power):
    mu = {
        "laguerre0": lambda: op.laguerre_moments(0, 14),
        "laguerre2": lambda: op.laguerre_moments(2, 14),
        "hermite": lambda: op.hermite_moments(14),
        "explicit": lambda: op.MomentFunctional(
            tuple(Fraction((-1) ** k * (k + 1), 3 ** (k % 4) * (2 * k + 1)) for k in range(14))
        ),
    }[base]()
    shifted = op.christoffel_shift(mu, c, power).moments
    assert shifted == oracles.fraction_christoffel_shift(mu, c, power)
    assert all(type(m) is Fraction for m in shifted)


def test_shifted_functional_needs_enough_moments():
    mu = op.laguerre_moments(0, 3)
    with pytest.raises(op.InsufficientMoments):
        op.christoffel_shift(mu, 0, 3)


def test_moment_builders_refuse_sizes_out_of_range():
    for build in (
        lambda: op.laguerre_moments(-1, 4),
        lambda: op.laguerre_moments(0, 0),
        lambda: op.hermite_moments(0),
        lambda: op.christoffel_shift(op.laguerre_moments(0, 6), 1, 0),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(op.ConfigError, match="derivative order N must be >= 0"):
        op.SobolevSpec(op.laguerre_moments(0, 6), 0, -1, op.Matrix.rational([[1]]))


def test_a_pairing_past_the_moments_raises_insufficient_moments():
    form = op.measure_form(op.laguerre_moments(0, 7))  # max_degree 3
    with pytest.raises(op.InsufficientMoments):
        form(op.Poly.monomial(4), op.Poly.monomial(0))


@given(small_poly, small_poly)
@settings(max_examples=30)
def test_plain_measure_pairing_matches_oracle(a, b):
    mu = op.laguerre_moments(0, 12)
    form = op.measure_form(mu)
    f, g = op.Poly(a), op.Poly(b)
    want = oracles.bilinear(
        lambda k: mu.moment(k), Fraction(0), [[Fraction(0)]],
        oracles.poly_to_sympy(f), oracles.poly_to_sympy(g),
    )
    assert form(f, g) == want


@given(small_poly, small_poly)
@settings(max_examples=30)
def test_derivative_mass_pairing_matches_oracle(a, b):
    mu = op.laguerre_moments(0, 14)
    M = op.Matrix.rational([[0, 0], [0, 1]])
    form = op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, M))
    f, g = op.Poly(a), op.Poly(b)
    M_rows = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    want = oracles.bilinear(
        lambda k: mu.moment(k), Fraction(0), M_rows,
        oracles.poly_to_sympy(f), oracles.poly_to_sympy(g),
    )
    assert form(f, g) == want


@given(small_poly, small_poly)
@settings(max_examples=20)
def test_higher_order_mass_at_shifted_point_matches_oracle(a, b):
    mu = op.laguerre_moments(1, 14)
    M = op.Matrix.rational([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    c = Fraction(1)
    form = op.sobolev_form(op.SobolevSpec(mu, c, 2, M))
    f, g = op.Poly(a), op.Poly(b)
    M_rows = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(2)],
    ]
    want = oracles.bilinear(
        lambda k: mu.moment(k), c, M_rows,
        oracles.poly_to_sympy(f), oracles.poly_to_sympy(g),
    )
    assert form(f, g) == want


def test_mass_matrix_validation():
    mu = op.laguerre_moments(0, 10)
    bad_shape = op.Matrix.rational([[1]])
    with pytest.raises(op.ConfigError):
        op.SobolevSpec(mu, Fraction(0), 1, bad_shape)
    asym = op.Matrix.rational([[0, 1], [0, 0]])
    with pytest.raises(op.ConfigError):
        op.SobolevSpec(mu, Fraction(0), 1, asym)
    indefinite = op.Matrix.rational([[0, 0], [0, -1]])
    with pytest.raises(op.ConfigError):
        op.SobolevSpec(mu, Fraction(0), 1, indefinite)
    psd_offdiag = op.Matrix.rational([[1, 1], [1, 1]])
    op.SobolevSpec(mu, Fraction(0), 1, psd_offdiag)


def test_mass_matrix_psd_regressions():
    # b b^T with b = (2, -2, 3) is PSD with rank one; the second matrix has
    # every diagonal entry positive but a negative determinant
    mu = op.laguerre_moments(0, 10)
    rank_one = op.Matrix.rational([[4, -4, 6], [-4, 4, -6], [6, -6, 9]])
    op.SobolevSpec(mu, Fraction(0), 2, rank_one)
    indefinite = op.Matrix.rational([[8, -10, 6], [-10, 13, -8], [6, -8, 3]])
    assert not oracles.is_psd_by_minors(indefinite.rows)
    with pytest.raises(op.ConfigError):
        op.SobolevSpec(mu, Fraction(0), 2, indefinite)


def _symmetric(n, entries):
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


@st.composite
def mass_matrices(draw):
    """Symmetric 1x1..3x3 matrices: half are sums of b b^T (often singular
    PSD) with the corner sometimes nudged by one, half have free entries."""
    n = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        vecs = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=3))
        rows = [[sum(b[i] * b[j] for b in vecs) for j in range(n)] for i in range(n)]
        rows[0][0] += draw(st.sampled_from([0, 0, -1, 1]))
        return rows
    return _symmetric(n, draw(st.lists(small, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))


@given(mass_matrices())
@settings(max_examples=150, deadline=None)
def test_mass_matrix_accepted_exactly_when_principal_minors_are_nonnegative(rows):
    mu = op.laguerre_moments(0, 10)
    N = len(rows) - 1
    try:
        op.SobolevSpec(mu, Fraction(0), N, op.Matrix.rational(rows))
        accepted = True
    except op.ConfigError:
        accepted = False
    assert accepted == oracles.is_psd_by_minors(rows)


def test_gram_matrix_matches_oracle_and_is_symmetric(canon):
    form = canon["form"]
    g = op.gram_matrix(form, 6)
    assert g == g.transpose()
    mu = canon["mu"]
    M_rows = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    for i in range(7):
        for j in range(7):
            want = oracles.bilinear(
                lambda k: mu.moment(k), Fraction(0), M_rows,
                oracles.X**i, oracles.X**j,
            )
            assert g.rows[i][j] == want


def _first_nonpositive_hankel_pivot(mu, n):
    # the LDL^T pivots of the Hankel matrix are the ratios of consecutive
    # leading minors, so the first nonpositive pivot marks the first
    # nonpositive minor
    hankel = op.Matrix.from_fn(n + 1, n + 1, lambda i, j: mu.moment(i + j))
    try:
        ldlt(hankel, pivots="positive")
    except op.NotPositiveDefinite as exc:
        return exc.degree
    return None


def test_hankel_positivity_matches_determinant_oracle():
    mu = op.laguerre_moments(0, 20)
    assert _first_nonpositive_hankel_pivot(mu, 8) is None
    for n in range(5):
        assert oracles.hankel_minor(list(mu.moments), n) > 0

    shifted = op.christoffel_shift(op.laguerre_moments(0, 20), Fraction(1), 3)
    flagged = _first_nonpositive_hankel_pivot(shifted, 6)
    assert flagged is not None
    minors = [oracles.hankel_minor(list(shifted.moments), n) for n in range(7)]
    first_bad = next(n for n, d in enumerate(minors) if d <= 0)
    assert flagged == first_bad


@given(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]),
    st.integers(0, 4),
)
@example(Fraction(0), 0)
def test_the_shift_row_is_the_expanded_power(c, m):
    assert shift_row(c, m) == clear_denominators((op.Poly((-c, 1)) ** m).coeffs)


def test_a_negative_shift_power_is_refused():
    with pytest.raises(ValueError, match="m must be >= 0"):
        shift_row(Fraction(1), -1)


def test_multiplication_symmetry_holds_with_mass_at_shift_point():
    for cnum in (0, 1):
        for N in (1, 2):
            mu = op.laguerre_moments(0, 2 * (12 + N + 2) + 4)
            M = op.Matrix.rational(
                [
                    [1 if i == j else 0 for j in range(N + 1)]
                    for i in range(N + 1)
                ]
            )
            form = op.sobolev_form(op.SobolevSpec(mu, Fraction(cnum), N, M))
            report = op.symmetry_check(form, N, 12, c=Fraction(cnum))
            assert report.ok and report.counterexample is None


def test_multiplication_symmetry_fails_off_the_mass_point():
    N = 1
    mu = op.laguerre_moments(0, 2 * (12 + N + 2) + 4)
    M = op.Matrix.rational([[0, 0], [0, 1]])
    form = op.sobolev_form(op.SobolevSpec(mu, Fraction(0), N, M))
    report = op.symmetry_check(form, N, 12, c=Fraction(1))
    assert not report.ok
    i, j = report.counterexample
    assert report.lhs != report.rhs
    assert 0 <= i <= 12 and 0 <= j <= 12
