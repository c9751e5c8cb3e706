"""The band and three-term tables taken from the certificates in hand.

banded_recurrence, jacobi_matrix and matrix_ttrr take their identities
from the shift-symmetry certificate of a monic_sequence output
(orthopoly._shift_proven), and connection_matrix from the Christoffel
shift that built its target's moments (orthopoly._christoffel_proven);
every other input keeps its rows checked over integer coefficient rows by
recurrence_holds. Both routes must give the results and exceptions of the
Poly routes in tests/oracles.py, and every failed precondition must reach
the checks.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import oracles
from opfold import darboux, orthopoly
from test_banded_generation import _PerturbedForm

MEASURES = {
    "laguerre0": lambda count: op.laguerre_moments(0, count),
    "laguerre1": lambda count: op.laguerre_moments(1, count),
    "laguerre2": lambda count: op.laguerre_moments(2, count),
    "hermite": op.hermite_moments,
}
CENTRES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]


def _mass(N: int) -> op.Matrix:
    return op.Matrix.rational([[int(i == j == N) for j in range(N + 1)] for i in range(N + 1)])


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


@pytest.fixture
def checks(monkeypatch):
    """The recurrence_holds calls, each tagged with the module it was
    called from."""
    calls = []
    for module in (orthopoly, darboux):
        holds = module.recurrence_holds
        monkeypatch.setattr(
            module,
            "recurrence_holds",
            lambda *a, _m=module.__name__, _h=holds: calls.append(_m) or _h(*a),
        )
    return calls


def _monic_fold(seq, N: int, c):
    return op.monic_normalize(op.build_matrix_sequence(seq, N, c)).sequence


families = st.tuples(
    st.sampled_from(sorted(MEASURES)), st.sampled_from(CENTRES), st.integers(0, 3)
).flatmap(lambda t: st.tuples(st.just(t), st.integers(2 * t[2] + 3, 2 * t[2] + 5)))


@given(families)
@example((("laguerre0", Fraction(0), 1), 9))
@example((("laguerre0", Fraction(1), 1), 7))
@example((("laguerre2", Fraction(1, 2), 3), 9))
@example((("hermite", Fraction(-2), 0), 4))
@settings(max_examples=40, deadline=None)
def test_the_certified_tables_match_the_poly_routes(fam):
    (measure, c, N), deg = fam
    f = _family(measure, c, N, deg)
    seq, base = f["seq"], f["base"]
    calls = []
    holds = orthopoly.recurrence_holds

    def counted(*args):
        calls.append(args)
        return holds(*args)

    def proven(fn, oracle):
        # the same outcome as the Poly route, with no row checked
        orthopoly.recurrence_holds = counted
        try:
            new = _outcome(fn)
        finally:
            orthopoly.recurrence_holds = holds
        assert new == _outcome(oracle)
        assert new[0] == "ok" and not calls

    proven(lambda: op.banded_recurrence(seq, c, N), lambda: oracles.poly_banded_recurrence(seq, c, N))
    proven(lambda: op.jacobi_matrix(base), lambda: oracles.poly_jacobi_matrix(base))
    for source in (seq, base):
        P = _monic_fold(source, N, c)
        proven(lambda: op.matrix_ttrr(P).monic, lambda: oracles.poly_matrix_ttrr(P))
    if "shifted" in f:
        shifted = f["shifted"]
        proven(lambda: op.connection_matrix(seq, shifted, N),
               lambda: oracles.poly_connection_matrix(seq, shifted, N))
        proven(lambda: op.jacobi_matrix(shifted), lambda: oracles.poly_jacobi_matrix(shifted))
        Q = _monic_fold(shifted, N, c)
        proven(lambda: op.matrix_ttrr(Q).monic, lambda: oracles.poly_matrix_ttrr(Q))
        proven(lambda: op.connection_matrix(base, shifted, N),
               lambda: oracles.poly_connection_matrix(base, shifted, N))
    # a Sobolev form does not make x self-adjoint: the rows are checked
    assert _outcome(lambda: op.jacobi_matrix(seq)) == _outcome(lambda: oracles.poly_jacobi_matrix(seq))


def test_a_mismatched_c_or_n_takes_the_checked_route(canon, checks):
    # (x-1/2)^2 and x are not self-adjoint for the worked Sobolev form
    # (mass on the first derivative at 0), so their tables check each row
    seq = canon["seq"]
    assert orthopoly._shift_proven(seq, Fraction(0), 1)
    for c, N in ((Fraction(1, 2), 1), (Fraction(0), 0)):
        assert not orthopoly._shift_proven(seq, c, N)
        del checks[:]
        new = _outcome(lambda: op.banded_recurrence(seq, c, N))
        assert new == _outcome(lambda: oracles.poly_banded_recurrence(seq, c, N))
        assert new[0] == "SymmetryViolated" and checks
    # a fold at the wrong N is checked step by step, and fails as the
    # Poly route does or agrees with it
    P = _monic_fold(seq, 0, 0)
    del checks[:]
    new = _outcome(lambda: op.matrix_ttrr(P).monic)
    assert new == _outcome(lambda: oracles.poly_matrix_ttrr(P)) and checks


def test_forms_that_fail_the_christoffel_relation_keep_their_row_checks(checks):
    # a target from another Christoffel point fails the relation for the
    # Sobolev form centred at 1, and the rows name the same entry below the
    # band as the Poly route
    seq = _family("laguerre0", Fraction(1), 1, 9)["seq"]
    other = _family("laguerre0", Fraction(0), 1, 9)["shifted"]
    new = _outcome(lambda: op.connection_matrix(seq, other, 1))
    assert new == _outcome(lambda: oracles.poly_connection_matrix(seq, other, 1))
    assert new[0] == "BandViolation" and checks


def test_each_failed_christoffel_precondition_keeps_the_row_checks(checks):
    # the worked family at c = 1: the shifted target is proved from both
    # sources; every input that misses one precondition of the proof has
    # its rows checked, with the Poly route's outcome, however exact
    c, N, deg = Fraction(1), 1, 9
    fam = _family("laguerre0", c, N, deg)
    base, seq, shifted = fam["base"], fam["seq"], fam["shifted"]
    mu = base.form.mu
    for source in (seq, base):
        del checks[:]
        assert _outcome(lambda: op.connection_matrix(source, shifted, N))[0] == "ok" and not checks

    def target(moments):
        return op.monic_sequence(op.measure_form(moments), deg, require_positive=False)

    heavy = op.sobolev_form(op.SobolevSpec(mu, c, N + 1, _mass(N + 1)))
    # the subclass moves a Gram entry past the degrees the tables read, so
    # its Gram is the plain one where read, as the Poly route's pairing is
    cases = {
        "hand-typed": (seq, target(op.MomentFunctional(shifted.form.mu.moments, shifted.form.mu.label))),
        "another point": (seq, target(op.christoffel_shift(mu, c + 1, N + 1))),
        "another power": (base, target(op.christoffel_shift(mu, c, N + 2))),
        "another measure": (base, target(op.christoffel_shift(MEASURES["laguerre1"](mu.count), c, N + 1))),
        "target mass": (base, op.monic_sequence(
            op.sobolev_form(op.SobolevSpec(shifted.form.mu, c, N, _mass(N))), deg
        )),
        "mass of N+2 rows": (op.monic_sequence(heavy, deg), shifted),
        "subclass": (seq, op.monic_sequence(
            _PerturbedForm(shifted.form, (deg + 1, deg + 1), 1), deg, require_positive=False
        )),
        "hand-built": (seq, op.MonicSequence(shifted.polys, shifted.norms_sq, shifted.form)),
    }
    for name, (source, to) in cases.items():
        assert not orthopoly._christoffel_proven(source, to, N), name
        del checks[:]
        new = _outcome(lambda: op.connection_matrix(source, to, N))
        assert new == _outcome(lambda: oracles.poly_connection_matrix(source, to, N)), name
        assert checks, name


def test_hand_built_sequences_are_checked_however_exact(canon, checks):
    seq, shifted = canon["seq"], canon["shifted"]
    copies = {
        "seq": op.MonicSequence(seq.polys, seq.norms_sq, seq.form),
        "shifted": op.MonicSequence(shifted.polys, shifted.norms_sq, shifted.form),
    }
    scaled = list(seq.norms_sq)
    scaled[1] *= Fraction(3, 2)
    scaled = op.MonicSequence(seq.polys, tuple(scaled), seq.form)
    cases = [
        (lambda: op.banded_recurrence(copies["seq"], 0, 1), lambda: op.banded_recurrence(seq, 0, 1)),
        (lambda: op.connection_matrix(copies["seq"], shifted, 1),
         lambda: op.connection_matrix(seq, shifted, 1)),
        (lambda: op.connection_matrix(seq, copies["shifted"], 1),
         lambda: op.connection_matrix(seq, shifted, 1)),
        (lambda: op.jacobi_matrix(copies["shifted"]), lambda: op.jacobi_matrix(shifted)),
    ]
    for copy, certified in cases:
        del checks[:]
        assert _outcome(copy) == _outcome(certified) and checks
    # rows certified on first use do not make the norms the sequence's own
    assert _outcome(lambda: op.banded_recurrence(scaled, 0, 1)) == (
        "IdentityViolated", "banded expansion failed at row 0"
    )


def test_hand_built_folds_are_checked_even_with_their_scalars(canon, checks):
    seq = canon["seq"]
    P = _monic_fold(seq, 1, 0)
    mats = list(P.mats)
    copy = op.MatrixPolySequence(tuple(mats), 1, monic=True, scalars=seq)
    del checks[:]
    assert op.matrix_ttrr(copy).monic == op.matrix_ttrr(P).monic and checks
    # a block moved off the fold by a lower-degree term is absorbed by
    # D_1 and C_1 of the step that ends at it, and breaks the next step,
    # on both routes
    y = op.Poly.x()
    mats[2] = mats[2] + op.Matrix([[op.Poly(), y], [op.Poly(), op.Poly()]])
    bad = op.MatrixPolySequence(tuple(mats), 1, monic=True, scalars=seq)
    new = _outcome(lambda: op.matrix_ttrr(bad).monic)
    assert new == _outcome(lambda: oracles.poly_matrix_ttrr(bad))
    assert new == ("IdentityViolated", "block recurrence residual nonzero at n=2")
    # a monic normalization of a hand-built raw fold is not marked either
    raw = op.build_matrix_sequence(seq, 1)
    hand = op.MatrixPolySequence(raw.mats, 1, monic=False, scalars=seq)
    del checks[:]
    assert op.matrix_ttrr(op.monic_normalize(hand).sequence).monic == op.matrix_ttrr(P).monic
    assert checks


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1)])
def test_the_deep_chain_checks_rows_only_where_no_certificate_holds(c, checks):
    # the worked family at degree 40 through every table of the benchmark's
    # deep pass, the folds about c: only w_interlace_check (which runs at
    # c = 0) calls recurrence_holds
    deg, N = 40, 1
    mu = op.laguerre_moments(0, 2 * (deg + N + 2) + 2)
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, c, N, _mass(N))), deg)
    shifted = op.monic_sequence(
        op.measure_form(op.christoffel_shift(mu, c, N + 1)), deg, require_positive=False
    )
    base = op.monic_sequence(op.measure_form(mu), deg)
    op.banded_recurrence(seq, c, N)
    op.connection_matrix(seq, shifted, N)
    op.jacobi_matrix(shifted)
    P, Q = _monic_fold(seq, N, c), _monic_fold(shifted, N, c)
    blockJ = op.matrix_ttrr(P).monic
    op.matrix_ttrr(Q)
    op.connection_matrix(base, shifted, N)
    assert not checks
    if not c:
        lu = op.block_lu(blockJ)
        count = 2 * len(P) - 2
        assert len(op.w_interlace_check(list(P.mats), list(Q.mats), lu.zetas, count)) == count
        assert checks and set(checks) == {"opfold.darboux"}


def test_a_negative_gram_degree_is_refused_and_not_cached():
    spec = op.SobolevSpec(op.laguerre_moments(0, 12), Fraction(1, 2), 1, _mass(1))
    form = op.sobolev_form(spec)
    for build in (form.gram, lambda n: op.gram_matrix(form, n)):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            build(-1)
    assert form._gram is None
    rows, den = form.gram(0)
    assert (len(rows), type(den)) == (1, int)
