"""Tests for the RangeQueryEngine facade and derived aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.index.registry import IndexSpec
from repro.instrumentation import AccessCounter
from repro.query.engine import RangeQueryEngine
from repro.query.ranges import RangeQuery, RangeSpec
from repro.query.workload import make_cube, random_box


@pytest.fixture
def rng():
    return np.random.default_rng(83)


class TestSumPaths:
    def test_basic_and_blocked_agree(self, rng):
        cube = make_cube((30, 30), rng)
        basic = RangeQueryEngine(cube, max_index=None)
        blocked = RangeQueryEngine(
            cube,
            sum_index=IndexSpec.of("blocked_prefix_sum", block_size=6),
            max_index=None,
        )
        for _ in range(30):
            box = random_box(cube.shape, rng)
            assert basic.sum(box) == blocked.sum(box)

    def test_range_query_objects_accepted(self, rng):
        cube = make_cube((10, 10), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        query = RangeQuery((RangeSpec.between(2, 5), RangeSpec.all()))
        assert engine.sum(query) == cube[2:6].sum()


class TestDerivedAggregates:
    def test_count_from_counts_cube(self, rng):
        cube = make_cube((8, 8), rng)
        counts = rng.integers(0, 5, (8, 8)).astype(np.int64)
        engine = RangeQueryEngine(cube, counts=counts, max_index=None)
        box = Box((1, 1), (5, 6))
        assert engine.count(box) == counts[1:6, 1:7].sum()

    def test_count_without_counts_is_volume(self, rng):
        engine = RangeQueryEngine(make_cube((8, 8), rng), max_index=None)
        assert engine.count(Box((1, 1), (5, 6))) == 30

    def test_average_is_sum_over_count(self, rng):
        cube = make_cube((8, 8), rng)
        counts = rng.integers(1, 5, (8, 8)).astype(np.int64)
        engine = RangeQueryEngine(cube, counts=counts, max_index=None)
        box = Box((2, 0), (6, 7))
        expected = cube[2:7].sum() / counts[2:7].sum()
        assert engine.average(box) == pytest.approx(expected)

    def test_average_zero_count_is_none(self, rng):
        cube = np.zeros((4, 4), dtype=np.int64)
        counts = np.zeros((4, 4), dtype=np.int64)
        engine = RangeQueryEngine(cube, counts=counts, max_index=None)
        assert engine.average(Box((0, 0), (1, 1))) is None

    def test_counts_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            RangeQueryEngine(
                make_cube((4, 4), rng), counts=np.zeros((3, 3))
            )

    def test_min_is_negated_max(self, rng):
        cube = make_cube((20, 20), rng, low=-50, high=50)
        engine = RangeQueryEngine(cube)
        box = Box((3, 5), (15, 18))
        index, value = engine.min(box)
        assert value == cube[3:16, 5:19].min()
        assert cube[index] == value

    def test_max(self, rng):
        cube = make_cube((20, 20), rng)
        engine = RangeQueryEngine(cube)
        box = Box((0, 0), (19, 10))
        index, value = engine.max(box)
        assert value == cube[:, :11].max()
        assert cube[index] == value

    def test_max_disabled(self, rng):
        engine = RangeQueryEngine(make_cube((4, 4), rng), max_index=None)
        with pytest.raises(RuntimeError):
            engine.max(Box((0, 0), (1, 1)))


class TestRollingWindows:
    def test_rolling_sum_matches_direct(self, rng):
        cube = make_cube((12, 5), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        results = dict(engine.rolling_sum(axis=0, window=4))
        assert len(results) == 9
        for start, value in results.items():
            assert value == cube[start : start + 4].sum()

    def test_rolling_sum_with_fixed_bounds(self, rng):
        cube = make_cube((10, 10), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        results = dict(
            engine.rolling_sum(axis=1, window=3, fixed=[(2, 4), (0, 9)])
        )
        for start, value in results.items():
            assert value == cube[2:5, start : start + 3].sum()

    def test_rolling_sum_constant_cost_per_window(self, rng):
        """Each window is one prefix-sum query: 2^d reads, not O(window)."""
        cube = make_cube((256,), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        counter = AccessCounter()
        windows = list(engine.rolling_sum(axis=0, window=128, counter=counter))
        assert len(windows) == 129
        assert counter.prefix_cells <= 2 * 129

    def test_invalid_axis(self, rng):
        engine = RangeQueryEngine(make_cube((5,), rng), max_index=None)
        with pytest.raises(ValueError):
            list(engine.rolling_sum(axis=1, window=2))

    def test_invalid_window(self, rng):
        engine = RangeQueryEngine(make_cube((5,), rng), max_index=None)
        with pytest.raises(ValueError):
            list(engine.rolling_sum(axis=0, window=6))


class TestPrefixDimsDesign:
    """§9.1 subset design wired through the engine."""

    def test_subset_engine_matches_full(self, rng):
        cube = make_cube((20, 20, 6), rng)
        full = RangeQueryEngine(cube, max_index=None)
        subset = RangeQueryEngine(
            cube,
            sum_index=IndexSpec.of("partial_prefix_sum", prefix_dims=(0, 1)),
            max_index=None,
        )
        for _ in range(30):
            box = random_box(cube.shape, rng)
            assert subset.sum(box) == full.sum(box)

    def test_subset_with_counts(self, rng):
        cube = make_cube((10, 10), rng)
        counts = rng.integers(1, 4, (10, 10)).astype(np.int64)
        engine = RangeQueryEngine(
            cube,
            sum_index=IndexSpec.of("partial_prefix_sum", prefix_dims=(0,)),
            max_index=None,
            counts=counts,
        )
        box = Box((2, 3), (7, 8))
        assert engine.count(box) == counts[2:8, 3:9].sum()
        assert engine.average(box) == pytest.approx(
            cube[2:8, 3:9].sum() / counts[2:8, 3:9].sum()
        )

    def test_datacube_prefix_dims_by_name(self, rng):
        from repro.cube.datacube import DataCube
        from repro.cube.dimensions import IntegerDimension

        measures = make_cube((12, 8), rng)
        cube = DataCube(
            [IntegerDimension("a", 0, 11), IntegerDimension("b", 0, 7)],
            measures,
        )
        cube.build_index(prefix_dims=["a"], max_fanout=None)
        assert cube.sum(a=(3, 9)) == measures[3:10].sum()
        with pytest.raises(ValueError, match="cannot combine"):
            cube.build_index(block_size=4, prefix_dims=["a"])


class TestEngineUpdates:
    """The engine-level §5/§7 batch path."""

    def test_all_structures_stay_exact(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((20, 20), rng, high=1000).astype(np.int64)
        counts = rng.integers(1, 5, (20, 20)).astype(np.int64)
        engine = RangeQueryEngine(
            cube,
            sum_index=IndexSpec.of("blocked_prefix_sum", block_size=4),
            max_index=IndexSpec.of("range_max_tree", fanout=3),
            counts=counts,
        )
        mirror = cube.copy()
        count_mirror = counts.copy()
        for _ in range(5):
            updates = []
            count_updates = []
            for _ in range(10):
                index = (
                    int(rng.integers(0, 20)),
                    int(rng.integers(0, 20)),
                )
                delta = int(rng.integers(-50, 100))
                updates.append(PointUpdate(index, delta))
                count_updates.append(PointUpdate(index, 1))
                mirror[index] += delta
                count_mirror[index] += 1
            engine.apply_updates(updates, count_updates)
            for _ in range(8):
                box = random_box((20, 20), rng)
                window = mirror[box.slices()]
                assert engine.sum(box) == window.sum()
                assert engine.count(box) == count_mirror[box.slices()].sum()
                _, top = engine.max(box)
                assert top == window.max()
                _, bottom = engine.min(box)
                assert bottom == window.min()

    def test_duplicate_cells_merge_before_assignment(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((8, 8), rng).astype(np.int64)
        engine = RangeQueryEngine(
            cube, max_index=IndexSpec.of("range_max_tree", fanout=2)
        )
        engine.apply_updates(
            [PointUpdate((3, 3), 500), PointUpdate((3, 3), 700)]
        )
        _, top = engine.max(Box((3, 3), (3, 3)))
        assert top == cube[3, 3] + 1200

    def test_count_updates_without_counts_cube(self, rng):
        from repro.core.batch_update import PointUpdate

        engine = RangeQueryEngine(make_cube((5, 5), rng), max_index=None)
        with pytest.raises(ValueError, match="without a counts cube"):
            engine.apply_updates([], [PointUpdate((0, 0), 1)])
