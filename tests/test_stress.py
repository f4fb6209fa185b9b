"""Long randomized operation sequences (fuzz-style stress tests).

Each scenario interleaves batched updates with queries over many rounds,
holding a plain-array mirror as the oracle.  These runs catch state-decay
bugs — stale auxiliary data after particular update interleavings — that
single-batch tests cannot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.core.batch_update import PointUpdate
from repro.core.blocked import BlockedPrefixSumCube
from repro.core.max_update import MaxAssignment, apply_max_updates
from repro.core.prefix_sum import PartialPrefixSumCube
from repro.core.prefix_sum import PrefixSumCube
from repro.core.range_max import RangeMaxTree
from repro.query.naive import naive_max_value, naive_range_sum
from repro.query.workload import make_cube, random_box


@pytest.fixture
def rng():
    return np.random.default_rng(0xFADE)


def random_updates(shape, count, rng, lo=-20, hi=30):
    updates = []
    seen = set()
    while len(updates) < count:
        index = tuple(int(rng.integers(0, n)) for n in shape)
        if index in seen:
            continue
        seen.add(index)
        updates.append(PointUpdate(index, int(rng.integers(lo, hi))))
    return updates


class TestSumStructuresUnderChurn:
    def test_twenty_rounds_of_updates_and_queries(self, rng):
        shape = (24, 18)
        cube = make_cube(shape, rng).astype(np.int64)
        structures = [
            PrefixSumCube(cube),
            BlockedPrefixSumCube(cube, 5),
            PartialPrefixSumCube(cube, [0]),
        ]
        mirror = cube.copy()
        for round_number in range(20):
            batch = random_updates(
                shape, int(rng.integers(1, 15)), rng
            )
            for structure in structures:
                structure.apply_updates(batch)
            for update in batch:
                mirror[update.index] += update.delta
            for _ in range(5):
                box = random_box(shape, rng)
                expected = naive_range_sum(mirror, box)
                for structure in structures:
                    assert structure.range_sum(box) == expected, (
                        round_number,
                        type(structure).__name__,
                        box,
                    )

    def test_prefix_array_exact_after_churn(self, rng):
        from repro.core.prefix_sum import compute_prefix_array

        shape = (12, 12, 6)
        cube = make_cube(shape, rng).astype(np.int64)
        structure = PrefixSumCube(cube)
        for _ in range(15):
            structure.apply_updates(
                random_updates(shape, int(rng.integers(1, 20)), rng)
            )
        assert np.array_equal(
            structure.prefix, compute_prefix_array(structure.source)
        )


class TestMaxTreeUnderChurn:
    @pytest.mark.parametrize("fanout", [2, 3, 5])
    def test_thirty_rounds_with_heavy_ties(self, rng, fanout):
        """Small value domain forces constant ties — the hardest case
        for the §7 bookkeeping (index moves at equal values)."""
        shape = (19, 23)
        cube = rng.integers(0, 8, shape).astype(np.int64)
        tree = RangeMaxTree(cube, fanout)
        mirror = cube.copy()
        for round_number in range(30):
            count = int(rng.integers(1, 12))
            batch = []
            seen = set()
            while len(batch) < count:
                index = tuple(int(rng.integers(0, n)) for n in shape)
                if index in seen:
                    continue
                seen.add(index)
                batch.append(
                    MaxAssignment(index, int(rng.integers(0, 8)))
                )
            apply_max_updates(tree, batch)
            for assignment in batch:
                mirror[assignment.index] = assignment.value
            rebuilt = RangeMaxTree(mirror, fanout)
            for level in range(1, tree.height + 1):
                assert np.array_equal(
                    tree.values[level], rebuilt.values[level]
                ), (round_number, level)
                pointed = mirror.ravel()[tree.positions[level]]
                assert np.array_equal(
                    pointed, tree.values[level]
                ), (round_number, level)
            for _ in range(3):
                box = random_box(shape, rng)
                assert tree.source[tree.max_index(box)] == (
                    naive_max_value(mirror, box)
                )

    def test_monotone_decreasing_storm(self, rng):
        """Every update is a decrease: maximal rescan pressure."""
        shape = (16, 16)
        cube = rng.integers(100, 1000, shape).astype(np.int64)
        tree = RangeMaxTree(cube, 4)
        mirror = cube.copy()
        for _ in range(10):
            batch = []
            seen = set()
            while len(batch) < 8:
                index = tuple(int(rng.integers(0, 16)) for _ in range(2))
                if index in seen:
                    continue
                seen.add(index)
                batch.append(
                    MaxAssignment(
                        index, int(mirror[index] // 2)
                    )
                )
            apply_max_updates(tree, batch)
            for assignment in batch:
                mirror[assignment.index] = assignment.value
            box = Box((0, 0), (15, 15))
            assert tree.source[tree.max_index(box)] == mirror.max()


class TestSparseEnginesUnderQueryStorm:
    def test_five_hundred_random_queries(self, rng):
        from repro.query.workload import clustered_points
        from repro.sparse.sparse_cube import SparseCube
        from repro.sparse.sparse_max import SparseRangeMaxEngine
        from repro.sparse.sparse_sum import SparseRangeSumEngine

        shape = (80, 80)
        cells = clustered_points(
            shape,
            [Box((5, 5), (30, 30)), Box((45, 40), (70, 70))],
            0.8,
            60,
            rng,
        )
        cube = SparseCube(shape, cells)
        sum_engine = SparseRangeSumEngine(cube, block_size=3)
        max_engine = SparseRangeMaxEngine(cube)
        for _ in range(500):
            box = random_box(shape, rng)
            assert sum_engine.range_sum(box) == cube.naive_range_sum(box)
            expected = cube.naive_max(box)
            got = max_engine.max_index(box)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got[1] == expected[1]
