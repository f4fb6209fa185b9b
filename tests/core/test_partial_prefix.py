"""Tests for dimension-subset prefix sums (paper §9.1 executed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.operators import XOR
from repro.core.prefix_sum import PartialPrefixSumCube
from repro.core.prefix_sum import PrefixSumCube
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box


@pytest.fixture
def rng():
    return np.random.default_rng(167)


class TestCorrectness:
    @given(
        cube_and_box(max_ndim=3, max_side=10),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_for_any_subset(self, data, subset_bits):
        cube, box = data
        chosen = [
            j for j in range(cube.ndim) if subset_bits & (1 << j)
        ]
        structure = PartialPrefixSumCube(cube, chosen)
        assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_all_dims_equals_basic(self, rng):
        cube = make_cube((8, 9), rng)
        partial = PartialPrefixSumCube(cube, [0, 1])
        basic = PrefixSumCube(cube)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            assert partial.range_sum(box) == basic.range_sum(box)

    def test_empty_subset_is_a_scan(self, rng):
        cube = make_cube((6, 6), rng)
        structure = PartialPrefixSumCube(cube, [])
        box = Box((1, 2), (4, 5))
        counter = AccessCounter()
        assert structure.range_sum(box, counter) == naive_range_sum(
            cube, box
        )
        assert counter.prefix_cells == box.volume

    def test_xor_operator(self, rng):
        import functools
        import operator

        cube = rng.integers(0, 64, (7, 8), dtype=np.int64)
        structure = PartialPrefixSumCube(cube, [1], XOR)
        for _ in range(20):
            box = random_box(cube.shape, rng)
            expected = functools.reduce(
                operator.xor,
                (int(v) for v in cube[box.slices()].ravel()),
            )
            assert structure.range_sum(box) == expected


class TestCostModel:
    def test_paper_example_costs(self, rng):
        """§9.1: prefix sums on {d1, d2} of a 3-d cube answer queries
        that pin d3 in 2² slabs of length 1 instead of 2³ terms."""
        cube = make_cube((20, 20, 10), rng)
        structure = PartialPrefixSumCube(cube, [0, 1])
        counter = AccessCounter()
        structure.range_sum(Box((3, 5, 4), (12, 14, 4)), counter)
        assert counter.prefix_cells == 4  # 2^2 corners × 1 passive cell

    def test_passive_range_multiplies_cost(self, rng):
        cube = make_cube((20, 20, 10), rng)
        structure = PartialPrefixSumCube(cube, [0, 1])
        counter = AccessCounter()
        structure.range_sum(Box((3, 5, 2), (12, 14, 6)), counter)
        assert counter.prefix_cells == 4 * 5  # 2^2 corners × r3 = 5

    def test_model_is_an_upper_bound(self, rng):
        cube = make_cube((12, 12, 12), rng)
        structure = PartialPrefixSumCube(cube, [0, 2])
        for _ in range(40):
            box = random_box(cube.shape, rng)
            counter = AccessCounter()
            structure.range_sum(box, counter)
            assert counter.prefix_cells <= structure.query_cost(box)

    def test_choosing_ranged_dims_beats_choosing_passive(self, rng):
        """Prefix sums belong on the dimensions queries put ranges on."""
        cube = make_cube((50, 50), rng)
        good = PartialPrefixSumCube(cube, [0])  # ranges arrive on dim 0
        bad = PartialPrefixSumCube(cube, [1])
        good_total = 0
        bad_total = 0
        for _ in range(30):
            start = int(rng.integers(0, 20))
            pin = int(rng.integers(0, 50))
            box = Box((start, pin), (start + 29, pin))
            good_counter = AccessCounter()
            bad_counter = AccessCounter()
            assert good.range_sum(box, good_counter) == bad.range_sum(
                box, bad_counter
            )
            good_total += good_counter.total
            bad_total += bad_counter.total
        assert good_total * 5 < bad_total


class TestValidation:
    def test_out_of_range_dims(self, rng):
        with pytest.raises(ValueError):
            PartialPrefixSumCube(make_cube((4, 4), rng), [2])

    def test_bad_query(self, rng):
        structure = PartialPrefixSumCube(make_cube((4, 4), rng), [0])
        with pytest.raises(ValueError):
            structure.range_sum(Box((0, 0), (4, 3)))

    def test_duplicate_dims_collapse(self, rng):
        cube = make_cube((5, 5), rng)
        structure = PartialPrefixSumCube(cube, [0, 0])
        assert structure.prefix_dims == (0,)


class TestBatchUpdates:
    def test_updates_keep_queries_exact(self, rng):
        from repro.core.batch_update import PointUpdate
        from repro.core.prefix_sum import PartialPrefixSumCube

        cube = make_cube((8, 9, 5), rng).astype(np.int64)
        structure = PartialPrefixSumCube(cube, [0, 2])
        mirror = cube.copy()
        updates = []
        for _ in range(12):
            index = tuple(int(rng.integers(0, n)) for n in cube.shape)
            delta = int(rng.integers(-10, 15))
            updates.append(PointUpdate(index, delta))
            mirror[index] += delta
        structure.apply_updates(updates)
        for _ in range(40):
            box = random_box(cube.shape, rng)
            assert structure.range_sum(box) == naive_range_sum(mirror, box)

    def test_empty_subset_updates(self, rng):
        from repro.core.batch_update import PointUpdate
        from repro.core.prefix_sum import PartialPrefixSumCube

        cube = make_cube((5, 5), rng).astype(np.int64)
        structure = PartialPrefixSumCube(cube, [])
        structure.apply_updates([PointUpdate((2, 3), 7)])
        assert structure.range_sum(Box((2, 3), (2, 3))) == cube[2, 3] + 7

    def test_wrong_dimensionality_rejected(self, rng):
        from repro.core.batch_update import PointUpdate
        from repro.core.prefix_sum import PartialPrefixSumCube

        structure = PartialPrefixSumCube(make_cube((4, 4), rng), [0])
        with pytest.raises(ValueError, match="dimensionality"):
            structure.apply_updates([PointUpdate((1,), 3)])

    def test_region_count_bounded_per_group(self, rng):
        from repro.core.batch_update import (
            PointUpdate,
            theorem2_region_bound,
        )
        from repro.core.prefix_sum import PartialPrefixSumCube

        cube = make_cube((10, 4), rng).astype(np.int64)
        structure = PartialPrefixSumCube(cube, [0])
        # 6 updates all sharing one passive coordinate: one group, 1-d.
        updates = [
            PointUpdate((i, 2), 1) for i in (1, 3, 4, 7, 8, 9)
        ]
        regions = structure.apply_updates(updates)
        assert regions <= theorem2_region_bound(6, 1)
