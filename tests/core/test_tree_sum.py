"""Tests for the tree-hierarchy range-sum comparator (paper §8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.blocked import BlockedPrefixSumCube
from repro.core.tree_sum import TreeSumHierarchy
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestCorrectness:
    @given(
        cube_and_box(max_ndim=3, max_side=12),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, data, fanout):
        cube, box = data
        tree = TreeSumHierarchy(cube, fanout)
        assert tree.range_sum(box) == naive_range_sum(cube, box)

    def test_full_cube_is_one_root_access(self, rng):
        cube = make_cube((27, 27), rng)
        tree = TreeSumHierarchy(cube, 3)
        counter = AccessCounter()
        assert tree.total(counter) == cube.sum()
        assert counter.total == 1

    def test_single_cell(self, rng):
        cube = make_cube((16, 16), rng)
        tree = TreeSumHierarchy(cube, 2)
        assert tree.range_sum(Box((7, 9), (7, 9))) == cube[7, 9]

    def test_aligned_subtree_is_one_access(self, rng):
        cube = make_cube((27,), rng)
        tree = TreeSumHierarchy(cube, 3)
        counter = AccessCounter()
        assert tree.range_sum(Box((9,), (17,)), counter) == cube[9:18].sum()
        assert counter.total == 1  # exactly one level-2 node covers 9..17

    def test_one_dimensional_sweep(self, rng):
        cube = make_cube((100,), rng)
        tree = TreeSumHierarchy(cube, 4)
        for _ in range(60):
            box = random_box((100,), rng)
            assert tree.range_sum(box) == naive_range_sum(cube, box)

    def test_negative_values(self):
        cube = np.array([[-3, 4], [5, -6]])
        tree = TreeSumHierarchy(cube, 2)
        assert tree.range_sum(Box((0, 0), (1, 1))) == 0


class TestFairnessSubtraction:
    def test_near_full_query_uses_subtraction(self, rng):
        """A query missing one cell resolves via root − complement, far
        cheaper than descending for the whole region."""
        cube = make_cube((64,), rng)
        tree = TreeSumHierarchy(cube, 4)
        counter = AccessCounter()
        got = tree.range_sum(Box((0,), (62,)), counter)
        assert got == cube[:63].sum()
        assert counter.total < 10


class TestSection8Comparison:
    """§8's claim: the tree is inferior to prefix sums for range-sums."""

    def test_tree_costs_more_than_blocked_prefix(self, rng):
        cube = make_cube((256, 256), rng)
        fanout = 8
        tree = TreeSumHierarchy(cube, fanout)
        blocked = BlockedPrefixSumCube(cube, fanout)
        tree_total = 0
        prefix_total = 0
        for _ in range(25):
            box = random_box(cube.shape, rng, min_length=48)
            tree_counter = AccessCounter()
            prefix_counter = AccessCounter()
            expected = naive_range_sum(cube, box)
            assert tree.range_sum(box, tree_counter) == expected
            assert blocked.range_sum(box, prefix_counter) == expected
            tree_total += tree_counter.total
            prefix_total += prefix_counter.total
        assert tree_total > prefix_total

    def test_space_comparable_to_blocked_prefix(self, rng):
        """§8 grants both methods the same block size; the tree's space is
        the blocked array's times a geometric factor b^d/(b^d − 1)."""
        cube = make_cube((64, 64), rng)
        fanout = 4
        tree = TreeSumHierarchy(cube, fanout)
        blocked = BlockedPrefixSumCube(cube, fanout)
        assert blocked.storage_cells <= tree.node_count
        assert tree.node_count <= 1.5 * blocked.storage_cells


class TestValidation:
    def test_fanout_validation(self, rng):
        with pytest.raises(ValueError):
            TreeSumHierarchy(make_cube((4,), rng), 1)

    def test_out_of_bounds(self, rng):
        tree = TreeSumHierarchy(make_cube((5, 5), rng), 2)
        with pytest.raises(ValueError):
            tree.range_sum(Box((0, 0), (5, 4)))

    def test_empty_region(self, rng):
        tree = TreeSumHierarchy(make_cube((5, 5), rng), 2)
        with pytest.raises(ValueError):
            tree.range_sum(Box((3, 0), (2, 4)))


class TestAccumulationDtype:
    """Regression: node contraction ran in the source dtype, so an int8
    cube's node sums wrapped (cubelint ``dtype-safety``)."""

    def test_int8_node_sums_do_not_wrap(self):
        cube = np.full((16,), 100, dtype=np.int8)
        tree = TreeSumHierarchy(cube, 4)
        box = Box((0,), (15,))
        assert tree.range_sum(box) == naive_range_sum(cube, box) == 1600

    def test_levels_use_accumulation_dtype(self):
        cube = np.ones((8, 8), dtype=np.int8)
        tree = TreeSumHierarchy(cube, 2)
        for level in tree.levels[1:]:
            assert level is not None
            assert level.dtype == np.int64

    def test_float32_node_sums_keep_integer_precision(self):
        cube = np.full((32,), 2.0**24, dtype=np.float32)
        tree = TreeSumHierarchy(cube, 4)
        box = Box((0,), (31,))
        # 32 · 2^24 is exactly representable in float64, but float32
        # accumulation would round each partial sum.
        assert tree.range_sum(box) == float(32 * 2.0**24)
