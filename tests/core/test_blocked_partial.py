"""Tests for blocked prefix sums over a dimension subset (§9 combined)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.blocked import BlockedPrefixSumCube
from repro.core.blocked import BlockedPartialPrefixSumCube
from repro.core.operators import XOR
from repro.core.prefix_sum import PartialPrefixSumCube
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box


@pytest.fixture
def rng():
    return np.random.default_rng(269)


class TestCorrectness:
    @given(
        cube_and_box(max_ndim=3, max_side=10),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_for_any_subset_and_block(
        self, data, subset_bits, block
    ):
        cube, box = data
        chosen = [j for j in range(cube.ndim) if subset_bits & (1 << j)]
        structure = BlockedPartialPrefixSumCube(cube, chosen, block)
        assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_all_dims_chosen_equals_blocked(self, rng):
        """With X' = all dimensions, results *and access counts* match
        the §4 structure exactly."""
        cube = make_cube((24, 21), rng)
        partial = BlockedPartialPrefixSumCube(cube, [0, 1], 4)
        blocked = BlockedPrefixSumCube(cube, 4)
        for _ in range(40):
            box = random_box(cube.shape, rng)
            partial_counter = AccessCounter()
            blocked_counter = AccessCounter()
            assert partial.range_sum(box, partial_counter) == (
                blocked.range_sum(box, blocked_counter)
            )
            assert (
                partial_counter.snapshot() == blocked_counter.snapshot()
            )

    def test_block_one_agrees_with_partial(self, rng):
        cube = make_cube((15, 12, 6), rng)
        blocked_partial = BlockedPartialPrefixSumCube(cube, [0, 2], 1)
        partial = PartialPrefixSumCube(cube, [0, 2])
        for _ in range(40):
            box = random_box(cube.shape, rng)
            assert blocked_partial.range_sum(box) == partial.range_sum(
                box
            )

    def test_empty_subset_is_a_slab_scan(self, rng):
        cube = make_cube((8, 8), rng)
        structure = BlockedPartialPrefixSumCube(cube, [], 4)
        box = Box((2, 1), (6, 5))
        counter = AccessCounter()
        assert structure.range_sum(box, counter) == naive_range_sum(
            cube, box
        )
        assert counter.cube_cells == box.volume

    def test_xor_operator(self, rng):
        import functools
        import operator

        cube = rng.integers(0, 64, (12, 9), dtype=np.int64)
        structure = BlockedPartialPrefixSumCube(cube, [0], 3, XOR)
        for _ in range(25):
            box = random_box(cube.shape, rng)
            expected = functools.reduce(
                operator.xor,
                (int(v) for v in cube[box.slices()].ravel()),
            )
            assert structure.range_sum(box) == expected


class TestDesignTradeoffs:
    def test_storage_shrinks_only_along_chosen_dims(self, rng):
        cube = make_cube((40, 40, 8), rng)
        structure = BlockedPartialPrefixSumCube(cube, [0, 1], 4)
        assert structure.storage_cells == 10 * 10 * 8  # N / b^{d'}

    def test_paper_section9_example_shape(self, rng):
        """§9's opening example: prefix on all three dims of the cuboid,
        blocked at b = 10, but accumulating only along the ranged dims."""
        cube = make_cube((100, 50, 5), rng)
        structure = BlockedPartialPrefixSumCube(cube, [0, 1], 10)
        counter = AccessCounter()
        got = structure.range_sum(Box((15, 7, 2), (84, 41, 2)), counter)
        assert got == int(cube[15:85, 7:42, 2].sum())
        # The passive singleton multiplies every charge by 1 only.
        assert counter.total < 70 * 35  # far below the query volume

    def test_passive_range_multiplies_access_cost(self, rng):
        cube = make_cube((40, 40, 6), rng)
        structure = BlockedPartialPrefixSumCube(cube, [0, 1], 5)
        single = AccessCounter()
        structure.range_sum(Box((3, 6, 2), (33, 36, 2)), single)
        wide = AccessCounter()
        structure.range_sum(Box((3, 6, 0), (33, 36, 5)), wide)
        assert wide.total == 6 * single.total


class TestValidation:
    def test_invalid_block(self, rng):
        with pytest.raises(ValueError):
            BlockedPartialPrefixSumCube(make_cube((4, 4), rng), [0], 0)

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            BlockedPartialPrefixSumCube(make_cube((4, 4), rng), [3], 2)

    def test_bad_query(self, rng):
        structure = BlockedPartialPrefixSumCube(
            make_cube((4, 4), rng), [0], 2
        )
        with pytest.raises(ValueError):
            structure.range_sum(Box((0, 0), (4, 3)))


class TestBatchUpdates:
    @given(
        cube_and_box(max_ndim=3, max_side=8),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_updates_keep_queries_exact(self, data, subset_bits, block):
        cube, box = data
        chosen = [j for j in range(cube.ndim) if subset_bits & (1 << j)]
        structure = BlockedPartialPrefixSumCube(cube, chosen, block)
        local = np.random.default_rng(3)
        mirror = cube.copy()
        from repro.core.batch_update import PointUpdate

        updates = []
        for _ in range(6):
            index = tuple(
                int(local.integers(0, n)) for n in cube.shape
            )
            delta = int(local.integers(-8, 12))
            updates.append(PointUpdate(index, delta))
            mirror[index] += delta
        structure.apply_updates(updates)
        assert structure.range_sum(box) == naive_range_sum(mirror, box)

    def test_wrong_dimensionality_rejected(self, rng):
        from repro.core.batch_update import PointUpdate

        structure = BlockedPartialPrefixSumCube(
            make_cube((4, 4), rng), [0], 2
        )
        with pytest.raises(ValueError, match="dimensionality"):
            structure.apply_updates([PointUpdate((1,), 3)])

    def test_empty_subset_updates(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((6, 6), rng).astype(np.int64)
        structure = BlockedPartialPrefixSumCube(cube, [], 3)
        structure.apply_updates([PointUpdate((2, 4), 9)])
        assert structure.range_sum(Box((2, 4), (2, 4))) == cube[2, 4] + 9
