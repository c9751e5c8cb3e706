"""The fold path over integer rows against the Poly routes.

build_matrix_sequence slices the certified integer rows of a monic
sequence after an integer Taylor shift at c and carries each block as
(rows, den) on int_blocks; monic_normalize applies the inverse leading
coefficient to those rows, and matrix_ttrr and jacobi_matrix read their
recurrences from them. tests/oracles.py keeps the Poly matrix routes
(poly_monic_normalize, poly_matrix_ttrr). On Laguerre and Hermite
Sobolev families at N = 0..3 and c in {0, 1, 1/2, -2}, their base
measures and Christoffel shifts, folded about c, the certified folds,
their hand-built copies (which read int_blocks off their blocks) and
perturbed copies must give equal results or the same exception with the
same message.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles
from opfold import bispec, matfold, orthopoly

MEASURES = {
    "laguerre0": lambda count: op.laguerre_moments(0, count),
    "laguerre1": lambda count: op.laguerre_moments(1, count),
    "hermite": op.hermite_moments,
}
CENTRES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]


@lru_cache(maxsize=None)
def _family(measure: str, c: Fraction, N: int, deg: int) -> dict:
    mu = MEASURES[measure](2 * (deg + N + 2) + 2)
    mass = op.Matrix.rational([[int(i == j == N) for j in range(N + 1)] for i in range(N + 1)])
    fam = {
        "seq": op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, mass)), deg),
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


def _by_hand(R: op.MatrixPolySequence, mats=None) -> op.MatrixPolySequence:
    """A hand-built copy of R, with its blocks replaced by mats."""
    return op.MatrixPolySequence(tuple(mats or R.mats), R.N, R.monic, R.scalars, R.c)


def _changed(R: op.MatrixPolySequence, kind: str, seed: int, delta) -> op.MatrixPolySequence:
    """A hand-built copy of R with one block n changed: "entry" adds
    delta y^t, t <= n, to one entry, "swap" reverses the rows (the leading
    coefficient is then no longer lower triangular, and the monic block is
    unchanged), "singular" repeats row 0 in the last row."""
    mats = list(R.mats)
    n = seed % len(mats)
    rows = [list(r) for r in mats[n].rows]
    size = len(rows)
    if kind == "entry":
        i, j, t = seed // 7 % size, seed // 11 % size, seed // 13 % (n + 1)
        rows[i][j] = rows[i][j] + op.Poly.monomial(t, delta)
    elif kind == "swap":
        rows.reverse()
    elif kind == "singular":
        rows[-1] = rows[0]
    mats[n] = op.Matrix(rows)
    return _by_hand(R, mats)


def _int_route(R):
    norm = op.monic_normalize(R)
    P = norm.sequence
    assert list(P.int_blocks) == [orthopoly.int_block(m) for m in P.mats]
    return norm, op.matrix_ttrr(P).monic


def _poly_route(R):
    norm = oracles.poly_monic_normalize(R)
    return norm, oracles.poly_matrix_ttrr(norm.sequence)


families = st.tuples(
    st.sampled_from(sorted(MEASURES)),
    st.sampled_from(CENTRES),
    st.integers(0, 3),
).flatmap(lambda t: st.tuples(st.just(t), st.integers(2 * t[2] + 1, 2 * t[2] + 5)))


@given(
    families,
    st.sampled_from(["seq", "base", "shifted"]),
    st.sampled_from(["none", "entry", "swap", "singular"]),
    st.integers(0, 10**6),
    st.sampled_from([Fraction(1), Fraction(-1, 7), Fraction(1, 10**15)]),
)
@example((("laguerre0", Fraction(0), 1), 9), "seq", "none", 0, Fraction(1))
@example((("laguerre1", Fraction(1, 2), 2), 8), "shifted", "swap", 1, Fraction(1))
@example((("hermite", Fraction(-2), 3), 9), "seq", "entry", 1, Fraction(-1, 7))
@example((("laguerre0", Fraction(1), 0), 4), "base", "singular", 2, Fraction(1))
@settings(max_examples=80, deadline=None)
def test_integer_fold_path_matches_the_poly_route(fam, which, kind, seed, delta):
    (measure, c, N), deg = fam
    f = _family(measure, c, N, deg)
    if which not in f:
        return
    seq, step = f[which], N + 1
    fold = op.build_matrix_sequence(seq, N, c)
    # the carried blocks are the Poly blocks, which are fold_decompose's
    assert len(fold) == len(seq) // step
    for n, m in enumerate(fold.mats):
        assert fold.int_blocks[n] == orthopoly.int_block(m)
        parts = [op.fold_decompose(seq.poly(step * n + i), N, c).parts for i in range(step)]
        assert m == op.Matrix([list(p) for p in parts])
    new = _outcome(lambda: _int_route(fold))
    assert new[0] == "ok" or which == "shifted", new
    assert new == _outcome(lambda: _poly_route(fold))
    copy = _by_hand(fold) if kind == "none" else _changed(fold, kind, seed, delta)
    read_off = tuple(map(orthopoly.int_block, copy.mats))
    assert copy.int_blocks == (fold.int_blocks if kind == "none" else read_off)
    got = _outcome(lambda: _int_route(copy))
    assert got == _outcome(lambda: _poly_route(copy))
    if kind == "none":
        assert got == new
    elif kind == "swap" and new[0] == "ok":
        # left multiplication by a constant matrix leaves the monic block alone
        assert got[0] == "ok" and got[1][0].sequence == new[1][0].sequence


def test_the_pinned_fold_failures_match_the_poly_route():
    fold = op.build_matrix_sequence(_family("laguerre0", Fraction(1), 1, 9)["seq"], 1, 1)
    cases = [
        (_changed(fold, "singular", 3, None),
         ("SingularLeading", "leading coefficient of block 3 is singular")),
        (_changed(fold, "entry", 2, Fraction(1)),
         ("IdentityViolated", "block recurrence residual nonzero at n=2")),
    ]
    for R, want in cases:
        assert _outcome(lambda: _int_route(R)) == _outcome(lambda: _poly_route(R)) == want


def test_a_fold_degree_bound_violation_is_named():
    # a hand-built s_2 one degree too high puts x^3 into entry (0,1) of
    # block 1, whose bound is degree 0 in y
    seq = _family("hermite", Fraction(0), 1, 5)["seq"]
    polys = list(seq.polys)
    polys[2] = polys[2] * op.Poly.x()
    bad = op.MonicSequence(tuple(polys), seq.norms_sq, seq.form)
    message = r"fold degree bound violated at block 1 entry \(0,1\)"
    with pytest.raises(op.IdentityViolated, match=message):
        op.build_matrix_sequence(bad, 1, 0)


def test_certified_folds_never_reach_int_block(monkeypatch):
    # int_block reads integer rows off Poly entries; a certified sequence
    # and everything folded from it carry those rows already
    def int_block(*args):
        raise AssertionError("int_block reached")

    built = [(c, N, _family(measure, c, N, deg)) for measure, c, N, deg in
             [("laguerre0", Fraction(0), 1, 9), ("laguerre1", Fraction(1, 2), 2, 8),
              ("hermite", Fraction(-2), 0, 6), ("hermite", Fraction(0), 1, 13)]]
    for module in (orthopoly, matfold, bispec):
        monkeypatch.setattr(module, "int_block", int_block)
    for c, N, f in built:
        for seq in f.values():
            P = op.monic_normalize(op.build_matrix_sequence(seq, N, c)).sequence
            op.matrix_ttrr(P)
        for seq in (f["base"], f.get("shifted", f["base"])):
            op.jacobi_matrix(seq)
    hermite = op.build_matrix_sequence(built[-1][2]["base"], 1)
    assert op.min_order_check(hermite, 4, 2, 6).min_order == 2
    ladder = op.EigenvalueLadder(
        lambda n: op.Matrix.rational([[-4 * n, 0], [0, -2 * (2 * n + 1)]]), 2
    )
    assert op.discover_operator(hermite, ladder, 2, 1, 6).operator.order == 2
