"""The paper's worked case: the weight e^{-x} (Laguerre alpha=0) with unit
mass on f'(0)g'(0), that is c=0, N=1, M=diag(0, 1).

The only module that knows it: the configuration `opfold verify-paper`
runs, every closed form tabulated for it, and the verdicts a run applies
on it. Two displays are wrong as tabulated (the zeta labels, and the
(1,1) entry of the leading display); the checks compare the corrected
forms and the report says so.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .bispec import EigenvalueLadder, RightDifferentialOperator
from .errors import IdentityViolated, InsufficientSequence
from .linalg import Matrix
from .matfold import leading_orthonormal_sq, orthonormal_blocks
from .poly import Poly
from .rationals import SignedSquare

__all__ = [
    "CONFIG",
    "CANONICAL_ONLY",
    "MIN_N_MAX",
    "NOTES",
    "reference_abc",
    "reference_zeta",
    "reference_sum_product",
    "reference_block_ttrr",
    "reference_leading_sq",
    "similarity_from_block",
    "apply_similarity",
    "reference_operator",
    "reference_scalar_ladder",
    "check_recurrence",
    "check_fold",
    "check_darboux",
    "check_ttrr",
    "check_min_order",
]

# The built-in configuration of `opfold verify-paper`; its measure, c, N
# and M are what RunConfig.is_canonical compares against.
CONFIG = {
    "measure": {"type": "laguerre", "alpha": 0},
    "c": "0",
    "N": 1,
    "M": [["0", "0"], ["0", "1"]],
    "n_max": 12,
    "tasks": ["all"],
    "float_tolerance": "1e-10",
}

# Tasks whose reference data exists only for the worked case, with the
# note a run reports for them elsewhere.
CANONICAL_ONLY = {
    "bispec-verify": "reference operator exists only for the canonical configuration",
    "bispec-discover": "discovery ships with the canonical eigenvalue ladder only",
    "conjugation": "scalar ladder for conjugation is tabulated only for the "
    "canonical configuration",
}

# The least n_max at which a task certifies on the worked case. Below it
# the fitting windows are too short: discovery and conjugation are
# underdetermined, and min-order finds a spurious lower order.
MIN_N_MAX = {"bispec-discover": 8, "min-order": 8, "conjugation": 4}

# Report notes of a worked-case run that includes the darboux task.
NOTES = {
    "zeta-display": {
        "status": "REPORT",
        "detail": "the two tabulated zeta closed forms reproduce the "
        "extracted blocks with their even/odd labels interchanged; "
        "zeta_match uses the corrected pairing, "
        "zeta_printed_labels_match the printed one",
    },
    "darboux-product-display": {
        "status": "REPORT",
        "detail": "the tabulated product display matches "
        "zeta_{2n+1} zeta_{2n} under the corrected labels; per-n "
        "booleans are in the darboux task rows",
    },
}


# -- tabulated closed forms ----------------------------------------------


def reference_abc(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form recurrence coefficients (a_n^2, b_n^2, c_n).

    a_n and b_n are returned squared (their closed forms live under a
    square root); c_n is rational outright.
    """
    a_sq = Fraction(
        (2 * n**2 + 7 * n + 9) * (2 * n**2 - 5 * n + 6) * (n + 4) * (n + 2) * (n + 1) ** 3,
        (2 * n**2 + 3 * n + 4) * (2 * n**2 - n + 3) * (n + 3),
    )
    b_sq = Fraction(
        16
        * (4 * n**7 + 16 * n**6 + 13 * n**5 + 10 * n**4 + 43 * n**3 + 64 * n**2 + 84 * n + 36) ** 2
        * (n + 1),
        (2 * n**2 + 3 * n + 4)
        * (2 * n**2 - n + 3) ** 2
        * (2 * n**2 - 5 * n + 6)
        * (n + 3)
        * (n + 2) ** 2,
    )
    c = Fraction(
        2 * (12 * n**8 + 12 * n**7 - 23 * n**6 + 57 * n**5 + 82 * n**4 - 81 * n**3 + 37 * n**2 + 120 * n + 36),
        (2 * n**2 - n + 3) * (2 * n**2 - 5 * n + 6) * (n + 2) * (n + 1),
    )
    return a_sq, b_sq, c


def reference_zeta(n: int) -> tuple[Matrix, Matrix]:
    """Tabulated closed forms for the zeta blocks, as labeled in the
    reference tables.

    Returns (zeta_even, zeta_odd), the forms filed under zeta_{2n} and
    zeta_{2n-1}. Desk evaluation shows the two labels are interchanged
    relative to the blocks LU extraction produces (the even-labeled form
    reproduces zeta_{2n-1} and vice versa), so check_darboux compares
    both pairings and reports which one holds.
    """
    F = Fraction
    d1 = (4 * n**2 - 5 * n + 3) * (2 * n + 1)
    d2 = 4 * n**2 - 5 * n + 3
    even = Matrix(
        [
            [
                F(-2 * (16 * n**2 - 12 * n - 9) * (2 * n - 1) ** 2 * (n - 1) * n, d1),
                F(4 * (8 * n**3 - 12 * n**2 + 4 * n + 3) * n, d1),
            ],
            [
                F(-2 * (16 * n**3 - 40 * n**2 + 28 * n - 3) * (2 * n + 1) * (2 * n - 1) ** 2 * n, d2),
                F(2 * (16 * n**3 - 36 * n**2 + 29 * n - 6) * (2 * n + 1) * n, d2),
            ],
        ]
    )
    odd = Matrix(
        [
            [
                F(-2 * (32 * n**4 + 8 * n**3 - 14 * n**2 + 7 * n + 3) * (2 * n - 1) * n, d1),
                F(4 * (8 * n**3 - 2 * n + 3) * n, d1),
            ],
            [
                F(-2 * (32 * n**4 + 16 * n**3 - 32 * n**2 + 14 * n + 9) * (2 * n + 1) * (2 * n - 1) * n, d2),
                F(2 * (16 * n**3 + 4 * n**2 - 15 * n + 12) * (2 * n + 1) * n, d2),
            ],
        ]
    )
    return even, odd


def reference_sum_product(n: int) -> tuple[Matrix, Matrix]:
    """Tabulated closed forms for zeta_{2n+2}+zeta_{2n+1} and zeta_{2n+1}zeta_{2n}."""
    F = Fraction
    s = 4 * (n + 1)
    sum_matrix = Matrix(
        [
            [F(-s * (4 * n + 3) * (2 * n + 1)), F(2 * s)],
            [
                F(-2 * s * (4 * n**2 + 8 * n + 5) * (2 * n + 3) * (2 * n + 1)),
                F(s * (4 * n + 5) * (2 * n + 3)),
            ],
        ]
    )
    p = 4 * (n + 1) * n * (2 * n + 1)
    product_matrix = Matrix(
        [
            [F(-p * (8 * n + 3) * (2 * n - 1)), F(4 * p)],
            [
                F(-4 * p * (2 * n + 3) * (2 * n + 1) ** 2 * (2 * n - 1)),
                F(p * (8 * n + 5) * (2 * n + 3)),
            ],
        ]
    )
    return sum_matrix, product_matrix


def reference_block_ttrr(n: int) -> tuple[Matrix, Matrix]:
    """Tabulated closed forms for the orthonormal blocks (A_n, B_n).

    Entries carry the tabulated signs; comparisons go through the fixed
    diagonal similarity of similarity_from_block.
    """
    F = Fraction
    a00 = F(
        4 * (8 * n**2 + 14 * n + 9) * (4 * n**2 - 5 * n + 3) * (2 * n + 1) ** 3 * (n + 2) * (n + 1),
        (8 * n**2 - 2 * n + 3) * (4 * n**2 + 3 * n + 2) * (2 * n + 3),
    )
    p10 = (
        256 * n**7
        + 1408 * n**6
        + 3088 * n**5
        + 3640 * n**4
        + 2692 * n**3
        + 1414 * n**2
        + 570 * n
        + 135
    )
    a10 = F(
        16 * p10**2 * (n + 1),
        (8 * n**2 + 14 * n + 9)
        * (8 * n**2 - 2 * n + 3)
        * (4 * n**2 + 3 * n + 2) ** 2
        * (2 * n + 3) ** 2
        * (n + 2),
    )
    a11 = F(
        4 * (8 * n**2 - 2 * n + 3) * (4 * n**2 + 11 * n + 9) * (2 * n + 5) * (2 * n + 3) * (n + 1) ** 3,
        (8 * n**2 + 14 * n + 9) * (4 * n**2 + 3 * n + 2) * (n + 2),
    )
    A = Matrix(
        [
            [SignedSquare(a00, 1), SignedSquare(F(0), 0)],
            [SignedSquare(a10, -1), SignedSquare(a11, 1)],
        ]
    )
    b00 = F(
        2
        * (
            768 * n**8
            + 384 * n**7
            - 368 * n**6
            + 456 * n**5
            + 328 * n**4
            - 162 * n**3
            + 37 * n**2
            + 60 * n
            + 9
        ),
        (8 * n**2 - 2 * n + 3) * (4 * n**2 - 5 * n + 3) * (2 * n + 1) * (n + 1),
    )
    p01 = (
        128 * n**7
        + 256 * n**6
        + 104 * n**5
        + 40 * n**4
        + 86 * n**3
        + 64 * n**2
        + 42 * n
        + 9
    )
    b01 = F(
        16 * p01**2 * (2 * n + 1),
        (8 * n**2 - 2 * n + 3) ** 2
        * (4 * n**2 + 3 * n + 2)
        * (4 * n**2 - 5 * n + 3)
        * (2 * n + 3)
        * (n + 1) ** 2,
    )
    b11 = F(
        2
        * (
            768 * n**8
            + 3456 * n**7
            + 6352 * n**6
            + 6744 * n**5
            + 5128 * n**4
            + 2898 * n**3
            + 1099 * n**2
            + 303 * n
            + 63
        ),
        (8 * n**2 - 2 * n + 3) * (4 * n**2 + 3 * n + 2) * (2 * n + 3) * (n + 1),
    )
    B = Matrix(
        [
            [SignedSquare.of(b00, 1), SignedSquare(b01, -1)],
            [SignedSquare(b01, -1), SignedSquare.of(b11, 1)],
        ]
    )
    return A, B


def reference_leading_sq(n: int) -> Matrix:
    """Tabulated squared leading coefficient of the orthonormal block.

    Valid for n >= 2 (factorials of 2n-3 and 2n-4 appear). The tabulated
    sign pattern is [[+,0],[+,-]]; the positive-leading scalar convention
    produces [[+,0],[-,+]], one fixed diagonal similarity apart.
    """
    if n < 2:
        raise InsufficientSequence("closed form needs n >= 2")
    F = Fraction
    f3 = math.factorial(2 * n - 3)
    f4 = math.factorial(2 * n - 4)
    f0 = math.factorial(2 * n)
    e00 = F(
        (4 * n**2 - 5 * n + 3) * (2 * n + 1),
        16 * (8 * n**2 - 2 * n + 3) * (2 * n - 1) ** 2 * (n + 1) * (n - 1) ** 2 * n**2 * f3**2,
    )
    e10 = F(
        (8 * n**3 + 6 * n**2 - 5 * n + 3) ** 2 * (2 * n + 1) ** 2,
        16
        * (8 * n**2 - 2 * n + 3)
        * (4 * n**2 + 3 * n + 2)
        * (2 * n + 3)
        * (2 * n - 1) ** 2
        * (2 * n - 3) ** 2
        * (n + 1)
        * (n - 1) ** 2
        * n**2
        * f4**2,
    )
    e11 = F((8 * n**2 - 2 * n + 3) * (n + 1), (4 * n**2 + 3 * n + 2) * (2 * n + 3) * f0**2)
    return Matrix(
        [
            [SignedSquare(e00, 1), SignedSquare(F(0), 0)],
            [SignedSquare(e10, 1), SignedSquare(e11, -1)],
        ]
    )


def similarity_from_block(computed: Matrix, reference: Matrix) -> tuple[int, ...]:
    """Diagonal +-1 similarity mapping computed signs onto reference signs.

    Fixed from one block: the first diagonal entry is +1 and the rest are
    propagated through the first row. Zero reference entries where the
    computed entry is nonzero (or square mismatches) mean no similarity
    exists and raise IdentityViolated.
    """
    size = computed.nrows
    eps = [0] * size
    eps[0] = 1
    for j in range(1, size):
        comp = computed[0, j]
        ref = reference[0, j]
        if comp.sq != ref.sq:
            raise IdentityViolated(f"squared entry (0,{j}) differs; no sign similarity")
        if comp.sign == 0 or ref.sign == 0:
            raise IdentityViolated(f"entry (0,{j}) vanishes; similarity undetermined")
        eps[j] = comp.sign * ref.sign
    return tuple(eps)


def apply_similarity(block: Matrix, eps: tuple[int, ...]) -> Matrix:
    """Conjugate a SignedSquare matrix by diag(eps); squares are unchanged."""
    return Matrix.from_fn(
        block.nrows,
        block.ncols,
        lambda i, j: SignedSquare(block[i, j].sq, block[i, j].sign * eps[i] * eps[j]),
    )


def _pmat(rows) -> Matrix:
    return Matrix(
        [[Poly([Fraction(c) for c in entry]) for entry in row] for row in rows]
    )


def reference_operator() -> tuple[RightDifferentialOperator, EigenvalueLadder]:
    """The tabulated order-8 operator and its eigenvalue ladder.

    Coefficient matrices are stored with ascending powers of y; the ladder
    is diag((4n^3-n+6)n, (2n^3+3n^2+n+3)(2n+1)).
    """
    d0 = _pmat([[[0], [0]], [[-3], [3]]])
    d1 = _pmat([[[-6, 9], [-12]], [[54, -105], [0, 24]]])
    d2 = _pmat(
        [
            [[-72, 474, 27], [0, -276]],
            [[0, -2754, -906], [0, 3300, 57]],
        ]
    )
    d3 = _pmat(
        [
            [[0, 2232, 3984, 24], [0, -6840, -636]],
            [[0, 0, -27408, -1148], [0, 17640, 10224, 32]],
        ]
    )
    d4 = _pmat(
        [
            [[0, 0, 18804, 4320, 4], [0, 0, -18024, -296]],
            [[0, 0, 0, -39264, -376], [0, 0, 57204, 7080, 4]],
        ]
    )
    d5 = _pmat(
        [
            [[0, 0, 0, 24192, 1248], [0, 0, 0, -11136, -32]],
            [[0, 0, 0, 0, -17088, -32], [0, 0, 0, 47232, 1536]],
        ]
    )
    d6 = _pmat(
        [
            [[0, 0, 0, 0, 9696, 96], [0, 0, 0, 0, -2208]],
            [[0, 0, 0, 0, 0, -2656], [0, 0, 0, 0, 14176, 96]],
        ]
    )
    d7 = _pmat(
        [
            [[0, 0, 0, 0, 0, 1408], [0, 0, 0, 0, 0, -128]],
            [[0, 0, 0, 0, 0, 0, -128], [0, 0, 0, 0, 0, 1664]],
        ]
    )
    d8 = _pmat([[[0, 0, 0, 0, 0, 0, 64], [0]], [[0], [0, 0, 0, 0, 0, 0, 64]]])
    op = RightDifferentialOperator(8, (d0, d1, d2, d3, d4, d5, d6, d7, d8))

    def lam(n: int) -> Matrix:
        e0 = Fraction((4 * n**3 - n + 6) * n)
        e1 = Fraction((2 * n**3 + 3 * n**2 + n + 3) * (2 * n + 1))
        return Matrix([[e0, Fraction(0)], [Fraction(0), e1]])

    return op, EigenvalueLadder(lam, 2)


def reference_scalar_ladder(m: int) -> Fraction:
    """Eigenvalue of the scalar operator on the degree-m member.

    The even and odd subsequences carry the two diagonal families of the
    matrix ladder; one quartic covers both: m^2(m^2-1)/4 + 3m.
    """
    return Fraction(m * m * (m * m - 1), 4) + 3 * m


# -- verdicts on a worked-case run ---------------------------------------
#
# Each check reads what its task computed, adds the paper-only fields to
# the task's payload, and returns whether the tabulated values hold, or
# None when the payload has nothing to compare.


def check_recurrence(payload: dict, rec) -> bool:
    """The first 21 rows of the band recurrence against reference_abc."""
    ok = True
    for n in range(min(len(payload["rows"]), 21)):
        a2, b2, cdiag = reference_abc(n)
        if (
            rec.orthonormal_sq(n, n + 2) != a2
            or rec.orthonormal_sq(n, n + 1) != b2
            or rec.raw.entry(n, n) / rec.norms_sq[n] != cdiag
        ):
            ok = False
    payload["reference_match"] = ok
    return ok


def check_fold(payload: dict, fold) -> bool:
    """Leading display of blocks 2..10 against reference_leading_sq, all
    entries but the (1,1) one that the table has wrong."""
    ok = True
    for n in range(2, min(payload["blocks"], 11)):
        comp = leading_orthonormal_sq(fold, n)
        ref = reference_leading_sq(n)
        for i in range(2):
            for j in range(2):
                if (i, j) != (1, 1) and comp[i, j].sq != ref[i, j].sq:
                    ok = False
    payload["leading_display_match_excl_11"] = ok
    payload["leading_display_note"] = (
        "the tabulated leading display's (1,1) entry carries (2n)! where "
        "consistency with its own first column requires (2n+1)!; all "
        "other entries match exactly up to one row sign"
    )
    return ok


def check_darboux(payload: dict, zetas) -> bool:
    """Per darboux row, the zeta factors under both labelings and the
    sum/product displays; the verdict rests on the sum displays."""
    z = zetas.zeta
    ok = True
    for entry in payload["rows"]:
        n = entry["n"]
        if n >= 1:
            ev, od = reference_zeta(n)
            entry["zeta_match"] = z(2 * n - 1) == ev and z(2 * n) == od
            entry["zeta_printed_labels_match"] = z(2 * n) == ev and z(2 * n - 1) == od
        if 2 * n + 2 < len(zetas):
            s_ref, p_ref = reference_sum_product(n)
            entry["sum_match"] = z(2 * n + 2) + z(2 * n + 1) == s_ref
            entry["product_match"] = z(2 * n + 1) @ z(2 * n) == p_ref
            ok = ok and entry["sum_match"]
    return ok


def check_ttrr(payload: dict, rec) -> bool | None:
    """Orthonormal blocks 0..10 against reference_block_ttrr, up to the
    diagonal sign similarity fixed from B_0."""
    A, B = orthonormal_blocks(rec)
    if not B:
        return None
    eps = similarity_from_block(B[0], reference_block_ttrr(0)[1])
    limit = min(len(A), len(B), 11)
    ok = all(
        (apply_similarity(A[n], eps), apply_similarity(B[n], eps)) == reference_block_ttrr(n)
        for n in range(limit)
    )
    payload["orthonormal_reference_match"] = ok
    payload["similarity"] = list(eps)
    return ok


def check_min_order(payload: dict) -> bool | None:
    """The certified minimal order is 8; an underdetermined window
    certifies nothing either way."""
    if "min_order" not in payload:
        return None
    payload["expected"] = 8
    return payload["min_order"] == 8
