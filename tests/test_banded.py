"""Banded truncations and block-tridiagonal containers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfold import BandViolation, BandedOperator, BlockTridiagonal, DimensionMismatch, Matrix

entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def banded(draw, size=5):
    lower = draw(st.integers(min_value=0, max_value=2))
    upper = draw(st.integers(min_value=0, max_value=2))
    vals = draw(
        st.lists(
            st.lists(entry, min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    name_fn = lambda i, j: vals[i][j]
    return BandedOperator.from_fn(size, lower, upper, name_fn)


def test_construction_rejects_entries_outside_band():
    with pytest.raises(BandViolation):
        BandedOperator(3, 0, 0, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        BandedOperator(3, 1, 1, [[1, 0], [0, 1]])


def test_from_fn_masks_outside_band():
    op = BandedOperator.from_fn(4, 1, 0, lambda i, j: Fraction(7))
    assert op.entry(2, 1) == 7 and op.entry(2, 2) == 7
    assert op.entry(1, 2) == 0
    assert op.entry(3, 0) == 0
    assert op.entry(0, 17) == 0


@given(banded(), banded())
@settings(max_examples=40)
def test_product_agrees_with_dense_product(a, b):
    got = (a @ b).to_matrix()
    want = a.to_matrix() @ b.to_matrix()
    assert got == want


@given(banded(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30)
def test_power_agrees_with_dense_power(a, k):
    # chained banded products from the identity: each step widens the band
    got = BandedOperator.identity(a.size)
    want = Matrix.identity(a.size)
    for _ in range(k):
        got = got @ a
        want = want @ a.to_matrix()
    assert got.to_matrix() == want
    assert (got.lower, got.upper) == (min(k * a.lower, a.size - 1), min(k * a.upper, a.size - 1))


@given(banded())
def test_transpose_agrees_with_dense_transpose(a):
    t = a.transpose()
    assert t.to_matrix() == a.to_matrix().transpose()
    assert (t.lower, t.upper) == (a.upper, a.lower)


def test_symmetry_predicate():
    sym = BandedOperator(2, 1, 1, [[1, 2], [2, 5]])
    assert sym.is_symmetric
    asym = BandedOperator(2, 1, 1, [[1, 2], [3, 5]])
    assert not asym.is_symmetric


def _blocks(values):
    return tuple(Matrix.rational(v) for v in values)


def test_block_layout_and_assembly():
    d = _blocks([[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[3, 0], [0, 3]]])
    s = _blocks([[[5, 0], [0, 5]], [[6, 0], [0, 6]]])
    u = _blocks([[[7, 0], [0, 7]], [[8, 0], [0, 8]]])
    bt = BlockTridiagonal(d, s, u)
    assert bt.nblocks == 3 and bt.block_size == 2
    assert bt.block(1, 1) == d[1]
    assert bt.block(2, 1) == s[1]
    assert bt.block(1, 2) == u[1]
    assert bt.block(0, 2).is_zero
    dense = bt.to_matrix()
    assert dense.shape == (6, 6)
    assert dense.rows[0][0] == 1 and dense.rows[2][0] == 5
    assert dense.rows[0][2] == 7 and dense.rows[4][2] == 6


def test_agree_through_detects_divergence():
    d = _blocks([[[1]], [[2]], [[3]]])
    s = _blocks([[[4]], [[5]]])
    u = _blocks([[[6]], [[7]]])
    a = BlockTridiagonal(d, s, u)
    d2 = _blocks([[[1]], [[2]], [[99]]])
    b = BlockTridiagonal(d2, s, u)
    assert a.agree_through(b, 2)
    assert not a.agree_through(b, 3)


def test_block_container_validates_shapes():
    with pytest.raises(DimensionMismatch):
        BlockTridiagonal(_blocks([[[1]], [[2]]]), _blocks([[[3]]]), ())
    with pytest.raises(DimensionMismatch):
        BlockTridiagonal(
            _blocks([[[1]], [[2]]]),
            (Matrix.rational([[1, 0], [0, 1]]),),
            _blocks([[[3]]]),
        )
