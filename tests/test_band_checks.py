"""The banded and integer-row Darboux and fold checks against the old routes.

verify_h_factorization and verify_ul_identity visit only the band, sum
their exact sides as integer dot products over one denominator per row
or column and hold every square root as a float and a power of two;
matrix_ttrr and w_interlace_check compare integer coefficient rows over
one denominator per block. tests/oracles.py keeps the dense Fraction and
Poly routes they replaced. On Laguerre-Sobolev families, their
Christoffel shifts (which are quasi-definite at c = 1 for an odd shift
power), their folds about 0 and about their own c, and perturbed copies
of each input, the two routes must give equal reports (floats compared
bit for bit), equal block Jacobis and checked lists, or the same
exception with the same message. The integer rows of (J - c)^(N+1) must
equal the dense Fraction power on random Jacobi data of either sign.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
from opfold import darboux
import oracles


def _mass(N: int) -> op.Matrix:
    return op.Matrix.rational(
        [[1 if i == j == N else 0 for j in range(N + 1)] for i in range(N + 1)]
    )


@lru_cache(maxsize=None)
def _family(alpha: int, c: int, N: int, deg: int) -> dict:
    mu = op.laguerre_moments(alpha, 2 * (deg + N + 2) + 2)
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(c), N, _mass(N))), deg)
    rec = op.banded_recurrence(seq, c, N)
    shifted = op.monic_sequence(
        op.measure_form(op.christoffel_shift(mu, Fraction(c), N + 1)), deg, require_positive=False
    )
    return {
        "seq": seq,
        "rec": rec,
        "fact": op.band_symmetric_factorize(rec.raw, N + 1, require_positive=False),
        "shifted": shifted,
        "jac": op.jacobi_matrix(shifted),
        "conn": op.connection_matrix(seq, shifted, N),
        "conn0": op.connection_matrix(op.monic_sequence(op.measure_form(mu), deg), shifted, N),
        # the monic folds (P, Q) about 0 and about the family's own c
        "folds": {
            centre: tuple(
                op.monic_normalize(op.build_matrix_sequence(s, N, centre)).sequence
                for s in (seq, shifted)
            )
            for centre in {0, c}
        },
    }


def _outcome(fn):
    """("ok", value) or (exception name, message)."""
    try:
        value = fn()
    except Exception as exc:  # both routes must fail alike, whatever the type
        return type(exc).__name__, str(exc)
    if isinstance(value, op.FactorizationReport):
        value = (value.exact_ok, value.trusted_rows, value.float_max_rel.hex(), value.worst_entry)
    return "ok", value


def _perturbed_band(b: op.BandedOperator, i: int, j: int, delta) -> op.BandedOperator:
    rows = [list(r) for r in b.rows]
    rows[i][j] += delta
    return op.BandedOperator(b.size, b.lower, b.upper, rows)


def _scaled(values, k: int, factor) -> tuple:
    return tuple(v * factor if n == k else v for n, v in enumerate(values))


def _perturbed_block(P, n: int, i: int, j: int, t: int, delta):
    mats = list(P.mats)
    rows = [list(r) for r in mats[n].rows]
    rows[i][j] = rows[i][j] + op.Poly.monomial(t, delta)
    mats[n] = op.Matrix(rows)
    return op.MatrixPolySequence(tuple(mats), P.N, monic=True, scalars=P.scalars)


# (alpha, c, N) and a degree; at alpha 0 the shift (x-1) has zero mass,
# so that family has no shifted sequence at all
families = (
    st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from([0, 1]), st.sampled_from([0, 1, 2]))
    .filter(lambda t: t != (0, 1, 0))
    .flatmap(lambda t: st.tuples(st.just(t), st.integers(t[2] + 3, 10)))
)

# nonzero factors: a small relative change that the float check may or
# may not see, a sign flip that makes the root imaginary, a plain change
FACTORS = [Fraction(-1), Fraction(3, 2), 1 + Fraction(1, 10**13), 1 + Fraction(1, 10**20)]
DELTAS = [Fraction(1), Fraction(-1, 7), Fraction(1, 10**15)]


@given(
    families,
    st.sampled_from(["none", "T", "pivot", "norm"]),
    st.integers(0, 10**6),
    st.sampled_from(FACTORS),
    st.sampled_from(DELTAS),
)
@example(((0, 0, 1), 10), "none", 0, FACTORS[0], DELTAS[0])
@example(((1, 1, 0), 8), "norm", 5, FACTORS[0], DELTAS[0])
@example(((2, 1, 2), 9), "pivot", 3, FACTORS[2], DELTAS[0])
@example(((1, 1, 2), 16), "none", 0, FACTORS[0], DELTAS[0])  # quasi-definite grid case
@settings(max_examples=120, deadline=None)
def test_banded_h_factorization_matches_the_dense_route(fam, kind, seed, factor, delta):
    (alpha, c, N), deg = fam
    f = _family(alpha, c, N, deg)
    rec, fact = f["rec"], f["fact"]
    n = rec.size
    k = seed % n
    if kind == "T":
        j = max(0, k - seed // n % (N + 2))
        fact = op.BandFactorization(_perturbed_band(fact.T_monic, k, j, delta), fact.pivots, N + 1)
    elif kind == "pivot":
        fact = op.BandFactorization(fact.T_monic, _scaled(fact.pivots, k, factor), N + 1)
    elif kind == "norm":
        rec = op.BandedRecurrence(rec.raw, rec.monic, _scaled(rec.norms_sq, k, factor), rec.c, N)
    new = _outcome(lambda: op.verify_h_factorization(rec, fact))
    assert new == _outcome(lambda: oracles.dense_verify_h(rec, fact))
    if kind == "none":
        assert new[0] == "ok"


@given(
    families,
    st.sampled_from(["none", "T", "from_norm", "to_norm", "base"]),
    st.integers(0, 10**6),
    st.sampled_from(FACTORS),
    st.sampled_from(DELTAS),
)
@example(((0, 0, 1), 10), "none", 0, FACTORS[0], DELTAS[0])
@example(((1, 1, 2), 10), "to_norm", 4, FACTORS[0], DELTAS[0])
@example(((2, 1, 0), 7), "base", 0, FACTORS[0], DELTAS[0])
@example(((1, 1, 2), 16), "none", 0, FACTORS[0], DELTAS[0])  # quasi-definite grid case
@example(((1, 1, 2), 16), "base", 0, FACTORS[0], DELTAS[0])
@settings(max_examples=120, deadline=None)
def test_banded_ul_identity_matches_the_dense_route(fam, kind, seed, factor, delta):
    (alpha, c, N), deg = fam
    f = _family(alpha, c, N, deg)
    jac, conn = f["jac"], f["conn0"] if kind == "base" else f["conn"]
    m = conn.size
    k = seed % m
    if kind == "T":
        j = max(0, k - seed // m % (N + 2))
        T = _perturbed_band(conn.T_monic, k, j, delta)
        conn = op.ConnectionMatrix(T, conn.from_norms_sq, conn.to_norms_sq, N)
    elif kind == "from_norm":
        conn = op.ConnectionMatrix(
            conn.T_monic, _scaled(conn.from_norms_sq, k, factor), conn.to_norms_sq, N
        )
    elif kind == "to_norm":
        conn = op.ConnectionMatrix(
            conn.T_monic, conn.from_norms_sq, _scaled(conn.to_norms_sq, k, factor), N
        )
    new = _outcome(lambda: op.verify_ul_identity(jac, c, N, conn))
    assert new == _outcome(lambda: oracles.dense_verify_ul(jac, c, N, conn))
    if kind in ("none", "base"):
        assert new[0] == "ok"


small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.lists(small, min_size=n, max_size=n),
            st.lists(small.filter(bool), min_size=n - 1, max_size=n - 1),
        )
    ),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)]),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_integer_shift_power_matches_the_dense_power(data, c, N):
    # Jacobi data of either sign (lam < 0 is quasi-definite); every row of
    # the integer power, read over its denominator, is the dense row
    b, lam = data
    jac = op.JacobiMatrix(tuple(b), tuple(lam))
    dense = oracles.shift_power(jac, c, N + 1)
    rows = darboux._int_shift_power([v - c for v in b], lam, N + 1, len(b))
    assert len(rows) == len(dense)
    for (lo, ints, den), want in zip(rows, dense):
        got = [Fraction(0)] * len(want)
        got[lo : lo + len(ints)] = [Fraction(v, den) for v in ints]
        assert got == want


@given(
    families,
    st.booleans(),
    st.sampled_from(["none", "zeta", "block"]),
    st.integers(0, 10**6),
    st.sampled_from(DELTAS),
)
@example(((0, 0, 1), 10), False, "none", 0, DELTAS[0])
@example(((0, 0, 1), 10), False, "zeta", 7, DELTAS[1])
@example(((1, 0, 2), 9), False, "block", 11, DELTAS[1])
@example(((2, 1, 1), 10), True, "none", 0, DELTAS[0])
@example(((1, 1, 2), 9), True, "zeta", 5, DELTAS[1])
@settings(max_examples=120, deadline=None)
def test_integer_fold_checks_match_the_poly_route(fam, about_c, kind, seed, delta):
    (alpha, c, N), deg = fam
    centre = c if about_c else 0
    P, Q = _family(alpha, c, N, deg)["folds"][centre]
    b = N + 1
    if kind == "block":
        n = seed % len(P)
        P = _perturbed_block(P, n, seed // 7 % b, seed // 11 % b, seed // 13 % (n + 1), delta)
    new = _outcome(lambda: op.matrix_ttrr(P).monic)
    assert new == _outcome(lambda: oracles.poly_matrix_ttrr(P))
    # folded about its own centre, every family is a Darboux pair
    if kind == "none" and centre == c:
        assert new[0] == "ok"
    if new[0] != "ok":
        return
    # the interlaced recurrence needs the LU zetas; folded about 0 at c = 1
    # the block Jacobi may have no LU split, and then there is nothing to check
    lu = _outcome(lambda: op.block_lu(new[1]))
    if lu[0] != "ok":
        assert kind != "none" or centre != c, lu
        return
    zetas = lu[1].zetas
    if kind == "zeta":
        k = seed % len(zetas)
        bumped = zetas.zeta(k).rows
        rows = [list(r) for r in bumped]
        rows[seed // 7 % b][seed // 11 % b] += delta
        if k:
            zetas = op.ZetaSequence(zetas.zetas[:k] + (op.Matrix(rows),) + zetas.zetas[k + 1 :])
    P_mats = [P.mat(n) for n in range(len(P))]
    Q_mats = [Q.mat(n) for n in range(len(Q))]
    count = 2 * len(P) - 2
    got = _outcome(lambda: op.w_interlace_check(P_mats, Q_mats, zetas, count))
    assert got == _outcome(lambda: oracles.poly_w_interlace_check(P_mats, Q_mats, zetas, count))
    if kind == "none" and centre == c:
        assert got == ("ok", list(range(count)))


def test_a_perturbed_zeta_is_caught_at_the_same_index(block_pipeline):
    P, Q, lu = block_pipeline["P"], block_pipeline["Q"], block_pipeline["lu"]
    P_mats = [P.mat(n) for n in range(len(P))]
    Q_mats = [Q.mat(n) for n in range(len(Q))]
    z = lu.zetas.zetas
    for k in (1, 6, 13):
        bumped = op.ZetaSequence(z[:k] + (z[k] + op.Matrix.rational([[0, 0], [1, 0]]),) + z[k + 1 :])
        want = ("IdentityViolated", f"interlaced recurrence failed at n={k}")
        assert _outcome(lambda: op.w_interlace_check(P_mats, Q_mats, bumped, 21)) == want
        assert _outcome(lambda: oracles.poly_w_interlace_check(P_mats, Q_mats, bumped, 21)) == want


def test_float_checks_hold_past_the_float_range_of_the_norms():
    # at degree 110 of the worked family the pivots and norms exceed the
    # largest float; the dense route overflows taking their square roots,
    # the banded one splits off powers of two and still certifies both
    deg = 110
    mu = op.laguerre_moments(0, 2 * (deg + 3) + 2)
    seq = op.monic_sequence(op.sobolev_form(op.SobolevSpec(mu, Fraction(0), 1, _mass(1))), deg)
    rec = op.banded_recurrence(seq, 0, 1)
    fact = op.band_symmetric_factorize(rec.raw, 2, require_positive=False)
    assert max(rec.norms_sq) > 2**1024  # past the largest float
    assert _outcome(lambda: oracles.dense_verify_h(rec, fact))[0] == "OverflowError"
    h = op.verify_h_factorization(rec, fact)
    assert h.exact_ok and h.float_max_rel < 1e-12
    shifted = op.monic_sequence(op.measure_form(op.christoffel_shift(mu, Fraction(0), 2)), deg)
    conn = op.connection_matrix(seq, shifted, 1)
    jac = op.jacobi_matrix(shifted)
    assert _outcome(lambda: oracles.dense_verify_ul(jac, 0, 1, conn))[0] == "OverflowError"
    ul = op.verify_ul_identity(jac, 0, 1, conn)
    assert ul.exact_ok and ul.float_max_rel < 1e-12 and ul.trusted_rows == deg - 2
