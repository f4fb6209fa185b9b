"""Tests for the invertible-operator abstraction (paper §1)."""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.operators import (
    OPERATORS,
    PRODUCT,
    SUM,
    XOR,
    get_operator,
)
from repro.core.prefix_sum import PrefixSumCube
from repro.query.workload import random_box


class TestRegistry:
    def test_known_names(self):
        assert set(OPERATORS) == {"sum", "xor", "product"}

    def test_get_operator(self):
        assert get_operator("xor") is XOR

    def test_unknown_operator(self):
        with pytest.raises(KeyError, match="unknown operator"):
            get_operator("median")


class TestInverseLaw:
    """The defining law: a ⊕ b ⊖ b == a for every shipped operator."""

    @given(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_inverse(self, a, b):
        assert SUM.invert(SUM.apply(a, b), b) == a

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=50, deadline=None)
    def test_xor_inverse(self, a, b):
        assert XOR.invert(XOR.apply(a, b), b) == a

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_product_inverse(self, a, b):
        assert PRODUCT.invert(PRODUCT.apply(a, b), b) == pytest.approx(a)

    def test_identities(self):
        assert SUM.apply(SUM.identity, 7) == 7
        assert XOR.apply(XOR.identity, 7) == 7
        assert PRODUCT.apply(PRODUCT.identity, 7.0) == 7.0


class TestProductSafety:
    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError, match="zero-free"):
            PRODUCT.invert(np.array([4.0]), np.array([0.0]))

    def test_nonzero_divide(self):
        assert PRODUCT.invert(8.0, 2.0) == 4.0


class TestReduceBox:
    def test_sum_reduction(self):
        assert SUM.reduce_box(np.array([[1, 2], [3, 4]])) == 10

    def test_xor_reduction(self):
        assert XOR.reduce_box(np.array([5, 3, 5])) == 3

    def test_product_reduction(self):
        assert PRODUCT.reduce_box(np.array([2.0, 3.0, 4.0])) == 24.0

    def test_empty_returns_identity(self):
        assert SUM.reduce_box(np.empty((0, 3))) == 0
        assert PRODUCT.reduce_box(np.empty(0)) == 1


class TestPrefixStructuresUnderEachOperator:
    """§1's generality claim executed: prefix structures per operator."""

    def test_xor_range_queries(self, rng):
        cube = rng.integers(0, 256, (8, 9), dtype=np.int64)
        structure = PrefixSumCube(cube, XOR)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            expected = functools.reduce(
                operator.xor, (int(v) for v in cube[box.slices()].ravel())
            )
            assert structure.range_sum(box) == expected

    def test_xor_is_self_inverse_on_ranges(self, rng):
        cube = rng.integers(0, 64, (10,), dtype=np.int64)
        structure = PrefixSumCube(cube, XOR)
        total = structure.range_sum(Box((0,), (9,)))
        left = structure.range_sum(Box((0,), (4,)))
        right = structure.range_sum(Box((5,), (9,)))
        assert total == left ^ right

    def test_product_range_queries(self, rng):
        cube = rng.uniform(0.5, 1.5, (7, 6))
        structure = PrefixSumCube(cube, PRODUCT)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            expected = float(np.prod(cube[box.slices()]))
            got = float(structure.range_sum(box))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_product_singleton_recovery(self, rng):
        cube = rng.uniform(0.5, 2.0, (5, 5))
        structure = PrefixSumCube(cube, PRODUCT, keep_source=False)
        assert float(structure.cell((3, 2))) == pytest.approx(
            float(cube[3, 2])
        )

    def test_blocked_structure_with_xor(self, rng):
        from repro.core.blocked import BlockedPrefixSumCube

        cube = rng.integers(0, 128, (12, 10), dtype=np.int64)
        structure = BlockedPrefixSumCube(cube, 3, XOR)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            expected = functools.reduce(
                operator.xor, (int(v) for v in cube[box.slices()].ravel())
            )
            assert structure.range_sum(box) == expected

    def test_batch_update_with_xor(self, rng):
        from repro.core.batch_update import PointUpdate
        from repro.core.prefix_sum import compute_prefix_array

        cube = rng.integers(0, 64, (6, 6), dtype=np.int64)
        structure = PrefixSumCube(cube, XOR)
        structure.apply_updates(
            [PointUpdate((2, 3), 17), PointUpdate((0, 5), 9)]
        )
        assert np.array_equal(
            structure.prefix, compute_prefix_array(structure.source, XOR)
        )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestReconstructionUnderEachOperator:
    def test_xor_reconstruction(self, rng):
        cube = rng.integers(0, 256, (6, 7), dtype=np.int64)
        structure = PrefixSumCube(cube, XOR, keep_source=False)
        assert np.array_equal(structure.reconstruct_cube(), cube)

    def test_product_reconstruction(self, rng):
        cube = rng.uniform(0.5, 2.0, (5, 4))
        structure = PrefixSumCube(cube, PRODUCT, keep_source=False)
        assert np.allclose(structure.reconstruct_cube(), cube)

    def test_sum_reconstruction_3d(self, rng):
        cube = rng.integers(-20, 20, (4, 5, 3)).astype(np.int64)
        structure = PrefixSumCube(cube, SUM, keep_source=False)
        assert np.array_equal(structure.reconstruct_cube(), cube)
