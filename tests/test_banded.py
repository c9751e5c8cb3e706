"""Banded truncations and block-tridiagonal containers."""

from fractions import Fraction

import pytest

from opfold import (
    BandViolation,
    BandedOperator,
    BlockTridiagonal,
    DimensionMismatch,
    InsufficientSequence,
    Matrix,
)


def test_construction_rejects_entries_outside_band():
    with pytest.raises(BandViolation):
        BandedOperator(3, 0, 0, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        BandedOperator(3, 1, 1, [[1, 0], [0, 1]])


def test_dense_rows_keep_the_band_check_and_equality_ignores_the_declared_band():
    with pytest.raises(BandViolation):
        BandedOperator(3, 1, 0, [[1, 0, 0], [0, 1, 0], [4, 0, 1]])
    narrow = BandedOperator(3, 1, 0, [[1, 0, 0], [2, 1, 0], [0, 3, 1]])
    wide = BandedOperator(3, 2, 2, [[1, 0, 0], [2, 1, 0], [0, 3, 1]])
    built = BandedOperator.from_fn(3, 2, 1, lambda i, j: narrow.entry(i, j))
    assert narrow == wide == built
    assert hash(narrow) == hash(wide) == hash(built)
    assert narrow.rows == wide.rows == built.rows == ((1, 0, 0), (2, 1, 0), (0, 3, 1))
    assert narrow != BandedOperator(3, 1, 0, [[1, 0, 0], [2, 1, 0], [0, 5, 1]])
    assert narrow != BandedOperator(4, 1, 0, [[1, 0, 0, 0], [2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 0, 0]])


def test_from_fn_masks_outside_band():
    op = BandedOperator.from_fn(4, 1, 0, lambda i, j: Fraction(7))
    assert op.entry(2, 1) == 7 and op.entry(2, 2) == 7
    assert op.entry(1, 2) == 0
    assert op.entry(3, 0) == 0
    assert op.entry(0, 17) == 0


def test_symmetry_predicate():
    sym = BandedOperator(2, 1, 1, [[1, 2], [2, 5]])
    assert sym.is_symmetric
    asym = BandedOperator(2, 1, 1, [[1, 2], [3, 5]])
    assert not asym.is_symmetric
    # an entry whose mirror lies outside a narrower band
    assert not BandedOperator(3, 0, 2, [[1, 0, 2], [0, 1, 0], [0, 0, 1]]).is_symmetric


def _blocks(values):
    return tuple(Matrix.rational(v) for v in values)


def test_block_layout_and_assembly():
    d = _blocks([[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[3, 0], [0, 3]]])
    s = _blocks([[[5, 0], [0, 5]], [[6, 0], [0, 6]]])
    u = _blocks([[[7, 0], [0, 7]], [[8, 0], [0, 8]]])
    bt = BlockTridiagonal(d, s, u)
    assert bt.nblocks == 3 and bt.block_size == 2
    assert (bt.diag, bt.sub, bt.sup) == (d, s, u)


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


def test_agreement_past_either_operator_is_insufficient_sequence():
    three = BlockTridiagonal(
        _blocks([[[1]], [[2]], [[3]]]), _blocks([[[4]], [[5]]]), _blocks([[[6]], [[7]]])
    )
    two = BlockTridiagonal(_blocks([[[1]], [[2]]]), _blocks([[[4]]]), _blocks([[[6]]]))
    assert three.agree_through(two, 2) and two.agree_through(three, 2)
    for a, b in ((three, two), (two, three)):
        for nblocks in (3, 50, -1):
            with pytest.raises(InsufficientSequence, match=f"{nblocks} blocks requested, only 2"):
                a.agree_through(b, nblocks)
