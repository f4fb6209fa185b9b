"""Batch-path equivalence: ``sum_many`` answers what the structure's
scalar ``range_sum`` loop and the naive scan answer — values *and*
access-counter charges — on every dense sum structure, either side of
the blocked dispatcher's row threshold, across operators and
adversarial shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.core.blocked import VECTORIZED_MIN_ROWS
from repro.core.operators import SUM, XOR
from repro.index.registry import create_index
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels import resolve_kernel
from repro.kernels.segments import (
    exclusive_offsets,
    expand_runs,
    flatten_updates,
    segment_reduce_serial,
)
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_query_arrays

STRUCTURES = {
    "prefix_sum": {},
    "blocked_prefix_sum": {"block_size": 3},
    "partial_prefix_sum": {"prefix_dims": (0, 2)},
    "blocked_partial_prefix_sum": {
        "prefix_dims": (0, 2),
        "block_size": 3,
    },
}


#: Row counts either side of ``blocked_sum_dispatch``'s choice.
ROWS = (
    1,
    VECTORIZED_MIN_ROWS - 1,
    VECTORIZED_MIN_ROWS,
    4 * VECTORIZED_MIN_ROWS,
)

#: Structures whose batch path charges the §8 counter exactly as their
#: scalar path does (``partial_prefix_sum`` batches through a cached
#: full prefix array, so it charges what ``prefix_sum`` charges).
SCALAR_COUNTER_PARITY = (
    "prefix_sum",
    "blocked_prefix_sum",
    "blocked_partial_prefix_sum",
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def scalar_loop(index, lows, highs, counter=NULL_COUNTER):
    """The reference: the structure's scalar ``range_sum``, row by row."""
    return np.array(
        [
            index.range_sum(
                Box(tuple(map(int, lo)), tuple(map(int, hi))), counter
            )
            for lo, hi in zip(lows, highs)
        ]
    )


@pytest.mark.parametrize("name", sorted(STRUCTURES))
class TestBackendEquivalence:
    @pytest.mark.parametrize("rows", ROWS)
    def test_matches_naive_and_scalar_loop(self, name, rows, rng):
        cube = make_cube((11, 9, 7), rng)
        index = create_index(name, cube, **STRUCTURES[name])
        lows, highs = random_query_arrays(cube.shape, rows, rng)
        values = index.sum_many(lows, highs)
        assert np.array_equal(values, scalar_loop(index, lows, highs))
        for k in range(min(rows, 5)):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert values[k] == naive_range_sum(cube, box)

    @pytest.mark.parametrize("rows", ROWS)
    def test_counter_charges_are_the_scalar_paths(self, name, rows, rng):
        """The §8 access-cost proxy is path-independent: charging fewer
        (or more) cells on the batch path would silently change every
        benchmark comparing counts to the paper's formulas."""
        cube = make_cube((10, 8, 6), rng)
        index = create_index(name, cube, **STRUCTURES[name])
        lows, highs = random_query_arrays(cube.shape, rows, rng)
        counter = AccessCounter()
        index.sum_many(lows, highs, counter)
        reference = AccessCounter()
        if name in SCALAR_COUNTER_PARITY:
            scalar_loop(index, lows, highs, reference)
        else:
            create_index("prefix_sum", cube).sum_many(lows, highs, reference)
        assert counter.snapshot() == reference.snapshot()

    def test_empty_and_degenerate_rows(self, name, rng):
        cube = make_cube((6, 1, 5), rng)
        index = create_index(name, cube, **STRUCTURES[name])
        lows = np.array([[0, 0, 0], [2, 0, 3], [5, 0, 4]])
        highs = np.array([[5, 0, 4], [1, 0, 2], [5, 0, 4]])
        values = index.sum_many(lows, highs)
        assert values[1] == 0  # hi < lo on the first axis
        assert values[0] == cube.sum()
        assert values[2] == int(cube[5, 0, 4])

    def test_xor_operator(self, name, rng):
        cube = rng.integers(0, 64, size=(8, 6, 4)).astype(np.int64)
        index = create_index(name, cube, operator=XOR, **STRUCTURES[name])
        lows, highs = random_query_arrays(cube.shape, 20, rng)
        assert np.array_equal(
            index.sum_many(lows, highs), scalar_loop(index, lows, highs)
        )


class TestKernelPrimitives:
    def test_segment_reduce_matches_bruteforce(self, rng):
        kernel = resolve_kernel()
        flat = rng.integers(-9, 10, size=500).astype(np.int64)
        lengths = rng.integers(1, 9, size=60).astype(np.int64)
        starts = rng.integers(
            0, len(flat) - 8, size=60
        ).astype(np.int64)
        out = kernel.segment_reduce(flat, starts, lengths, SUM)
        expected = np.array(
            [
                flat[s : s + n].sum()
                for s, n in zip(starts, lengths)
            ]
        )
        assert np.array_equal(out, expected)

    def test_corner_gather_matches_prefix_differences(self, rng):
        from repro.core.prefix_sum import PrefixSumCube

        kernel = resolve_kernel()
        cube = rng.integers(-5, 6, size=(9, 7)).astype(np.int64)
        structure = PrefixSumCube(cube)
        lows, highs = random_query_arrays(cube.shape, 30, rng)
        values = kernel.corner_gather(
            np.asarray(structure.prefix), lows, highs, SUM
        )
        for k in range(30):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert values[k] == naive_range_sum(cube, box)

    def test_scatter_applies_duplicates_sequentially(self):
        kernel = resolve_kernel()
        target = np.zeros(6, dtype=np.int64)
        indices = np.array([1, 1, 4, 1])
        deltas = np.array([2, 3, 7, -1])
        kernel.scatter(target, indices, deltas, SUM)
        assert target.tolist() == [0, 4, 0, 0, 7, 0]


class TestSegmentHelpers:
    def test_exclusive_offsets(self):
        counts = np.array([3, 1, 0, 2], dtype=np.int64)
        assert exclusive_offsets(counts).tolist() == [0, 3, 4, 4]

    def test_expand_runs(self):
        starts = np.array([10, 50], dtype=np.int64)
        lengths = np.array([3, 2], dtype=np.int64)
        cells, offsets = expand_runs(starts, lengths)
        assert cells.tolist() == [10, 11, 12, 50, 51]
        assert offsets.tolist() == [0, 3]

    def test_segment_reduce_empty(self):
        out = segment_reduce_serial(
            np.zeros(4, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            SUM,
        )
        assert out.shape == (0,)

    def test_flatten_updates(self):
        from repro.core.batch_update import PointUpdate

        flat, deltas = flatten_updates(
            [PointUpdate((1, 2), 5), PointUpdate((0, 3), -2)],
            (4, 4),
        )
        assert flat.tolist() == [6, 3]
        assert deltas.tolist() == [5, -2]


class TestScatterFallback:
    def test_unsafe_cast_falls_back_to_item_loop(self):
        """Negative int deltas into an unsigned target must keep the
        historical per-item semantics, not wrap through ufunc.at."""
        kernel = resolve_kernel()
        target = np.array([10, 20, 30], dtype=np.uint32)
        kernel.scatter(
            target,
            np.array([0, 2]),
            np.array([-3, -5]),
            SUM,
        )
        assert target.tolist() == [7, 20, 25]


class TestScanMemoryCap:
    """The vectorized pass reduces its run list in slices of at most
    ``MAX_SCAN_CELLS`` cells, so transient memory follows the row count,
    not the cells scanned."""

    #: Peak traced allocation allowed during one ``sum_many``: one
    #: slice's ~2.4 MB of gather buffers plus ~1.2 KB of per-row tables
    #: (unsliced, the two batches below peak at 36 MB and 71 MB).
    PEAK_CAP_BYTES = 24 << 20

    @pytest.mark.parametrize("cap", [1, 7, 50])
    def test_slicing_changes_no_box_total(self, cap, monkeypatch, rng):
        from repro.kernels import boundary

        cube = make_cube((9, 8, 7), rng, low=-20, high=20)
        lows, highs = random_query_arrays(cube.shape, 60, rng)
        whole = boundary.box_reduce_many(cube, lows, highs, SUM)
        monkeypatch.setattr(boundary, "MAX_SCAN_CELLS", cap)
        sliced = boundary.box_reduce_many(cube, lows, highs, SUM)
        assert np.array_equal(sliced, whole)
        for k in range(60):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert whole[k] == naive_range_sum(cube, box)

    @pytest.mark.parametrize("batch", ["rollup", "uniform"])
    def test_sum_many_peak_memory_is_capped(self, batch, rng):
        import tracemalloc

        shape = (128, 128, 64)
        cube = make_cube(shape, rng)
        index = create_index("blocked_prefix_sum", cube, block_size=8)
        if batch == "rollup":
            # A group-by over dims (0, 1) spelled as 16,384 thin boxes.
            ranks = np.indices(shape[:2]).reshape(2, -1).T
            lows = np.zeros((len(ranks), 3), dtype=np.int64)
            highs = np.full((len(ranks), 3), shape[2] - 1, dtype=np.int64)
            lows[:, :2] = highs[:, :2] = ranks
        else:
            lows, highs = random_query_arrays(shape, 256, rng)
        reference = AccessCounter()
        expected = scalar_loop(index, lows, highs, reference)
        counter = AccessCounter()
        tracemalloc.start()
        try:
            values = index.sum_many(lows, highs, counter)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, expected)
        assert counter.snapshot() == reference.snapshot()
        assert peak < self.PEAK_CAP_BYTES


def test_primitives_are_patchable_on_the_kernel_type(monkeypatch, rng):
    """The instrumentation seam ``benchmarks/e2e/trace.py`` relies on:
    wrapping the attributes of ``type(resolve_kernel())`` intercepts
    every primitive the dense structures run."""
    import inspect

    from repro.core.batch_update import PointUpdate

    owner = type(resolve_kernel())
    calls = dict.fromkeys(("corner_gather", "segment_reduce", "scatter"), 0)

    def wrap(attr):
        original = inspect.getattr_static(owner, attr)

        def traced(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        return traced

    for attr in calls:
        monkeypatch.setattr(owner, attr, wrap(attr))
    cube = make_cube((11, 9, 7), rng)
    lows, highs = random_query_arrays(cube.shape, VECTORIZED_MIN_ROWS, rng)
    updates = [PointUpdate((1, 2, 3), 5)]
    full = create_index("prefix_sum", cube)
    full.sum_many(lows, highs)
    assert calls == {"corner_gather": 1, "segment_reduce": 0, "scatter": 0}
    full.apply_updates(updates)
    assert calls["scatter"] == 1
    blocked = create_index("blocked_prefix_sum", cube, block_size=3)
    blocked.sum_many(lows, highs)
    assert calls["corner_gather"] > 1 and calls["segment_reduce"] > 0
    blocked.apply_updates(updates)
    assert calls["scatter"] == 2
