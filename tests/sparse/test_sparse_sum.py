"""Tests for the sparse range-sum engines (paper §10.1–10.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.batch_update import PointUpdate, UnfitUpdate
from repro.instrumentation import AccessCounter
from repro.query.workload import clustered_points, random_box
from repro.sparse.sparse_cube import SparseCube
from repro.sparse.sparse_sum import SparseRangeSum1D, SparseRangeSumEngine


@pytest.fixture
def rng():
    return np.random.default_rng(139)


class TestSparseCube:
    def test_from_dense_roundtrip(self, rng):
        dense = rng.integers(0, 3, (8, 8)).astype(np.int64)
        cube = SparseCube.from_dense(dense)
        assert np.array_equal(cube.to_dense(), dense)
        assert cube.nnz == int(np.count_nonzero(dense))

    def test_density(self):
        cube = SparseCube((10, 10), {(0, 0): 1, (5, 5): 2})
        assert cube.density == 0.02
        assert cube.volume == 100

    def test_out_of_bounds_cell(self):
        with pytest.raises(ValueError):
            SparseCube((5,), {(5,): 1})

    def test_densify_region(self):
        cube = SparseCube((10, 10), {(2, 3): 7, (4, 4): 9, (9, 9): 1})
        window = cube.densify(Box((2, 2), (5, 5)))
        assert window.shape == (4, 4)
        assert window[0, 1] == 7 and window[2, 2] == 9
        assert window.sum() == 16


class TestSparse1D:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=1, max_value=50),
            max_size=60,
        ),
        st.integers(min_value=0, max_value=499),
        st.integers(min_value=0, max_value=499),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_oracle(self, cells, a, b):
        lo, hi = min(a, b), max(a, b)
        cube = SparseCube((501,), {(k,): v for k, v in cells.items()})
        engine = SparseRangeSum1D(cube)
        box = Box((lo,), (hi,))
        assert engine.range_sum(box) == cube.naive_range_sum(box)

    def test_two_predecessor_searches(self, rng):
        cells = {
            (int(k),): int(v)
            for k, v in zip(
                rng.choice(10**6, 500, replace=False),
                rng.integers(1, 100, 500),
            )
        }
        cube = SparseCube((10**6,), cells)
        engine = SparseRangeSum1D(cube)
        counter = AccessCounter()
        engine.range_sum(Box((1000,), (900000,)), counter)
        # Two root-to-leaf descents in a B-tree over 500 keys.
        assert counter.index_nodes <= 2 * (engine.index.height + 2)

    def test_empty_cube(self):
        cube = SparseCube((100,), {})
        engine = SparseRangeSum1D(cube)
        assert engine.range_sum(Box((0,), (99,))) == 0

    def test_rejects_multidimensional(self):
        cube = SparseCube((4, 4), {})
        with pytest.raises(ValueError):
            SparseRangeSum1D(cube)

    def test_range_validation(self):
        engine = SparseRangeSum1D(SparseCube((10,), {(3,): 1}))
        with pytest.raises(ValueError):
            engine.range_sum(Box((0,), (10,)))


class TestSparseEngine:
    @pytest.fixture
    def clustered_cube(self, rng):
        boxes = [Box((4, 4), (19, 19)), Box((34, 30), (53, 49))]
        cells = clustered_points((64, 64), boxes, 0.85, 50, rng)
        return SparseCube((64, 64), cells)

    def test_matches_scan_oracle(self, clustered_cube, rng):
        engine = SparseRangeSumEngine(clustered_cube, block_size=1)
        for _ in range(60):
            box = random_box((64, 64), rng)
            assert engine.range_sum(box) == clustered_cube.naive_range_sum(
                box
            )

    def test_blocked_regions_agree(self, clustered_cube, rng):
        basic = SparseRangeSumEngine(clustered_cube, block_size=1)
        blocked = SparseRangeSumEngine(clustered_cube, block_size=4)
        for _ in range(40):
            box = random_box((64, 64), rng)
            assert basic.range_sum(box) == blocked.range_sum(box)

    def test_finds_dense_regions(self, clustered_cube):
        engine = SparseRangeSumEngine(clustered_cube)
        assert engine.dense_region_count >= 1
        assert engine.outlier_count < clustered_cube.nnz

    def test_storage_below_full_materialization(self, clustered_cube):
        """§10.2's point: prefix arrays exist only over dense regions."""
        engine = SparseRangeSumEngine(clustered_cube)
        assert engine.storage_cells() < clustered_cube.volume / 2

    def test_three_dimensional(self, rng):
        boxes = [Box((1, 1, 1), (8, 8, 8))]
        cells = clustered_points((20, 20, 20), boxes, 0.9, 30, rng)
        cube = SparseCube((20, 20, 20), cells)
        engine = SparseRangeSumEngine(cube, block_size=2)
        for _ in range(40):
            box = random_box((20, 20, 20), rng)
            assert engine.range_sum(box) == cube.naive_range_sum(box)

    def test_pure_noise_cube(self, rng):
        cells = {
            (int(rng.integers(0, 50)), int(rng.integers(0, 50))): 1
            for _ in range(25)
        }
        cube = SparseCube((50, 50), cells)
        engine = SparseRangeSumEngine(cube)
        for _ in range(30):
            box = random_box((50, 50), rng)
            assert engine.range_sum(box) == cube.naive_range_sum(box)

    def test_dimension_mismatch(self, clustered_cube):
        engine = SparseRangeSumEngine(clustered_cube)
        with pytest.raises(ValueError):
            engine.range_sum(Box((0,), (5,)))


class TestSparse1DBlocked:
    """§10.1's 'similar solution applies to b > 1'."""

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=1, max_value=50),
            max_size=60,
        ),
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=499),
        st.integers(min_value=0, max_value=499),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_matches_oracle(self, cells, block, a, b):
        lo, hi = min(a, b), max(a, b)
        cube = SparseCube((501,), {(k,): v for k, v in cells.items()})
        engine = SparseRangeSum1D(cube, block_size=block)
        box = Box((lo,), (hi,))
        assert engine.range_sum(box) == cube.naive_range_sum(box)

    def test_blocked_stores_fewer_cumulative_entries(self, rng):
        cells = {
            (int(k),): int(v)
            for k, v in zip(
                rng.choice(10_000, 800, replace=False),
                rng.integers(1, 50, 800),
            )
        }
        cube = SparseCube((10_000,), cells)
        basic = SparseRangeSum1D(cube, block_size=1)
        blocked = SparseRangeSum1D(cube, block_size=64)
        assert blocked.stored_entries < basic.stored_entries

    def test_blocked_agrees_with_basic(self, rng):
        cells = {
            (int(k),): int(v)
            for k, v in zip(
                rng.choice(2000, 300, replace=False),
                rng.integers(1, 100, 300),
            )
        }
        cube = SparseCube((2000,), cells)
        basic = SparseRangeSum1D(cube, block_size=1)
        blocked = SparseRangeSum1D(cube, block_size=16)
        for _ in range(60):
            box = random_box((2000,), rng)
            assert basic.range_sum(box) == blocked.range_sum(box)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            SparseRangeSum1D(SparseCube((10,), {}), block_size=0)

    def test_empty_blocked_cube(self):
        engine = SparseRangeSum1D(SparseCube((100,), {}), block_size=8)
        assert engine.range_sum(Box((0,), (99,))) == 0


class TestIncrementalUpdates:
    """§5 meets §10.2: absorbing point updates without a rebuild."""

    @pytest.fixture
    def engine_and_cube(self, rng):
        boxes = [Box((4, 4), (19, 19)), Box((34, 30), (53, 49))]
        cells = clustered_points((64, 64), boxes, 0.85, 40, rng)
        cube = SparseCube((64, 64), cells)
        return SparseRangeSumEngine(cube, block_size=4), cube

    def test_update_routing(self, engine_and_cube):
        engine, cube = engine_and_cube
        region_box = engine.regions[0].box
        inside = region_box.lo
        assert engine.apply_update(inside, 5) == "region"
        fresh = (63, 0)
        while fresh in cube.cells:
            fresh = (fresh[0], fresh[1] + 1)
        assert engine.apply_update(fresh, 3) == "new-outlier"
        assert engine.apply_update(fresh, 2) == "outlier"

    def test_queries_stay_exact_under_update_storm(
        self, engine_and_cube, rng
    ):
        engine, cube = engine_and_cube
        for _ in range(60):
            point = (
                int(rng.integers(0, 64)),
                int(rng.integers(0, 64)),
            )
            engine.apply_update(point, int(rng.integers(-5, 15)))
        for _ in range(60):
            box = random_box((64, 64), rng)
            assert engine.range_sum(box) == cube.naive_range_sum(box)

    def test_out_of_bounds_update_rejected(self, engine_and_cube):
        engine, _ = engine_and_cube
        with pytest.raises(ValueError):
            engine.apply_update((64, 0), 1)

    def test_rejected_batch_changes_nothing(self):
        """A batch with one unfit delta is staged whole before any write:
        the fitting ``+4`` must not land in the region or ``cube.cells``."""
        dense = np.zeros((8, 8), dtype=np.int64)
        dense[0:4, 0:4] = 5
        dense[7, 7] = 3
        cube = SparseCube.from_dense(dense)
        engine = SparseRangeSumEngine(cube)
        full = Box((0, 0), (7, 7))
        cells = dict(cube.cells)
        assert engine.range_sum(full) == 83
        with pytest.raises(UnfitUpdate):
            engine.apply_updates(
                [PointUpdate((2, 3), 4), PointUpdate((1, 1), 0.5)]
            )
        assert engine.range_sum(full) == 83
        assert cube.cells == cells
        assert cube.naive_range_sum(full) == 83

    def test_outlier_rejects_what_a_region_cell_rejects(self):
        """An outlier cell is checked against the regions' dtype: the
        ``0.5`` a region cell refuses is refused at ``(7, 7)`` too, and
        the fitting ``+4`` of the same batch does not land either."""
        dense = np.zeros((8, 8), dtype=np.int64)
        dense[0:4, 0:4] = 5
        dense[7, 7] = 3
        cube = SparseCube.from_dense(dense)
        engine = SparseRangeSumEngine(cube)
        full = Box((0, 0), (7, 7))
        cells = dict(cube.cells)
        with pytest.raises(UnfitUpdate):
            engine.apply_updates([PointUpdate((1, 1), 0.5)])
        for batch in (
            [PointUpdate((7, 7), 0.5)],
            [PointUpdate((2, 3), 4), PointUpdate((7, 7), 0.5)],
            [PointUpdate((6, 0), 2), PointUpdate((6, 0), 0.5)],
        ):
            with pytest.raises(UnfitUpdate):
                engine.apply_updates(batch)
            assert engine.range_sum(full) == 83
            assert cube.cells == cells
        assert engine.apply_update((7, 7), 2) == "outlier"
        assert engine.range_sum(full) == 85
