"""Memmap backend equivalence: out-of-core == in-memory, bit for bit.

The backend layer only changes *where* a structure's arrays live; every
value written through it must be identical.  These tests build each
registered dense structure twice — heap vs spill directory — and assert
byte-identical arrays and identical query answers on randomized boxes
across dimensionalities 1–4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.index.backend import (
    MEMORY_BACKEND,
    MemmapBackend,
    MemoryBackend,
    resolve_backend,
)
from repro.index.registry import create_index
from repro.query.workload import make_cube, random_query_arrays

DENSE_SUM = (
    "prefix_sum",
    "blocked_prefix_sum",
    "partial_prefix_sum",
    "blocked_partial_prefix_sum",
)
SHAPES = {1: (97,), 2: (23, 17), 3: (11, 9, 7), 4: (6, 5, 4, 7)}


def params_for(name: str, ndim: int) -> dict:
    return {
        "prefix_sum": {},
        "blocked_prefix_sum": {"block_size": 4},
        "partial_prefix_sum": {"prefix_dims": tuple(range(0, ndim, 2))},
        "blocked_partial_prefix_sum": {
            "prefix_dims": (0,),
            "block_size": 4,
        },
    }[name]


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


class TestBackendBasics:
    def test_resolve_backend_default(self):
        assert resolve_backend(None) is MEMORY_BACKEND
        custom = MemoryBackend()
        assert resolve_backend(custom) is custom

    def test_memmap_allocates_npy_files(self, tmp_path):
        backend = MemmapBackend(tmp_path, tag="t")
        arr = backend.empty("prefix", (10, 4), np.int64)
        arr[...] = 7
        assert len(backend.spill_files) == 1
        assert backend.spill_files[0].suffix == ".npy"
        assert np.array_equal(np.load(backend.spill_files[0]), arr)
        assert backend.spilled_bytes > 0

    def test_memmap_zero_size_returns_heap(self, tmp_path):
        backend = MemmapBackend(tmp_path)
        arr = backend.empty("empty", (0, 5), np.int64)
        assert arr.shape == (0, 5)
        assert len(backend.spill_files) == 0

    def test_memmap_sanitizes_names(self, tmp_path):
        backend = MemmapBackend(tmp_path)
        backend.empty("weird/|name", (3,), np.int64)
        assert backend.spill_files[0].exists()

    def test_materialize_copies(self, tmp_path):
        backend = MemmapBackend(tmp_path)
        source = np.arange(12).reshape(3, 4)
        copy = backend.materialize("source", source)
        assert np.array_equal(copy, source)
        source[0, 0] = 999
        assert copy[0, 0] == 0  # backend owns an independent copy

    def test_describe(self, tmp_path):
        backend = MemmapBackend(tmp_path, tag="x")
        backend.empty("a", (4,), np.int64)
        info = backend.describe()
        assert info["backend"] == "MemmapBackend"
        assert info["files"] == 1


class TestMemmapLifecycle:
    """The allocation-lifecycle contract: release, live-only flush,
    degenerate accounting, and subscope isolation."""

    def test_release_deletes_files_and_drops_tracking(self, tmp_path):
        backend = MemmapBackend(tmp_path, tag="t")
        arrays = [backend.empty(f"a{i}", (64,), np.int64) for i in range(3)]
        for arr in arrays:
            arr[...] = 1
        files = backend.spill_files
        assert backend.live_arrays == 3
        assert backend.release() == 3
        assert backend.live_arrays == 0
        assert backend.spill_files == ()
        assert backend.spilled_bytes == 0
        assert not any(path.exists() for path in files)
        # POSIX unlink-while-mapped: the arrays stay readable until the
        # last reference dies; release must never close the mapping.
        assert int(arrays[0].sum()) == 64

    def test_backend_usable_after_release(self, tmp_path):
        backend = MemmapBackend(tmp_path)
        backend.empty("a", (8,), np.int64)
        backend.release()
        fresh = backend.empty("b", (8,), np.int64)
        fresh[...] = 3
        assert backend.live_arrays == 1
        assert np.array_equal(np.load(backend.spill_files[0]), fresh)

    def test_release_tolerates_already_deleted_files(self, tmp_path):
        backend = MemmapBackend(tmp_path)
        backend.empty("a", (8,), np.int64)
        backend.spill_files[0].unlink()
        assert backend.release() == 1

    def test_flush_touches_live_arrays_only(self, tmp_path, monkeypatch):
        """Flush is O(live arrays), not O(every array ever allocated)."""
        backend = MemmapBackend(tmp_path)
        flushed = []
        original = np.memmap.flush

        def counting_flush(self):
            flushed.append(self)
            original(self)

        monkeypatch.setattr(np.memmap, "flush", counting_flush)
        for i in range(5):
            backend.empty(f"gen{i}", (16,), np.int64)
        backend.release()
        survivor = backend.empty("live", (16,), np.int64)
        survivor[...] = 9
        backend.flush()
        assert len(flushed) == 1
        assert flushed[0] is survivor

    def test_degenerate_allocations_reported(self, tmp_path):
        """Zero-size heap fallbacks are invisible to spill_files by
        necessity but must show up in describe() by contract."""
        backend = MemmapBackend(tmp_path)
        backend.empty("empty", (0, 5), np.int64)
        backend.empty("real", (4,), np.int64)
        info = backend.describe()
        assert info["files"] == 1
        assert info["degenerate"] == 1
        assert backend.release() == 1
        assert backend.describe()["degenerate"] == 0

    def test_memory_backend_release_is_noop(self):
        backend = MemoryBackend()
        arr = backend.empty("a", (4,), np.int64)
        assert backend.release() == 0
        assert arr.shape == (4,)

    def test_subscope_release_leaves_parent_untouched(self, tmp_path):
        parent = MemmapBackend(tmp_path)
        kept = parent.empty("base", (32,), np.int64)
        kept[...] = 5
        child = parent.subscope("build")
        child.empty("aux", (32,), np.int64)
        assert child.directory != parent.directory
        assert child.release() == 1
        assert parent.live_arrays == 1
        assert parent.spill_files[0].exists()
        assert np.array_equal(np.load(parent.spill_files[0]), kept)

    def test_same_tag_subscopes_get_distinct_directories(self, tmp_path):
        parent = MemmapBackend(tmp_path)
        first = parent.subscope("cuboids")
        second = parent.subscope("cuboids")
        assert first.directory != second.directory
        a = first.empty("x", (4,), np.int64)
        b = second.empty("x", (4,), np.int64)
        a[...] = 1
        b[...] = 2
        # Without distinct directories the second allocation would have
        # overwritten the first's spill file (fresh sequence counters).
        assert np.array_equal(np.load(first.spill_files[0]), a)
        assert np.array_equal(np.load(second.spill_files[0]), b)

    def test_subscope_avoids_on_disk_collisions(self, tmp_path):
        """Two backends over the same durable directory (a restart, or
        two processes) must not share a child directory: the second's
        fresh filename sequence would silently overwrite the first's
        spill files — possibly the persisted form a manifest serves."""
        first = MemmapBackend(tmp_path)
        child = first.subscope("scope")
        kept = child.empty("x", (3,), np.int64)
        kept[...] = np.arange(3)
        reopened = MemmapBackend(tmp_path)
        other = reopened.subscope("scope")
        assert other.directory != child.directory
        fresh = other.empty("x", (3,), np.int64)
        fresh[...] = 9
        assert np.array_equal(np.load(child.spill_files[0]), kept)

    def test_memory_backend_subscope_is_self(self):
        backend = MemoryBackend()
        assert backend.subscope("anything") is backend


class TestAdoptingBackend:
    def test_materialize_adopts_without_copy(self, tmp_path):
        from repro.index.backend import AdoptingBackend

        inner = MemmapBackend(tmp_path)
        cells = inner.empty("cells", (8,), np.int64)
        cells[...] = 3
        adopting = AdoptingBackend(inner)
        adopted = adopting.materialize("source", cells)
        assert adopted.base is cells or adopted is cells
        cells[0] = 99
        assert adopted[0] == 99  # same buffer, no defensive copy
        assert adopting.describe()["adopted"] == 1

    def test_flush_reaches_adopted_memmaps(self, tmp_path):
        from repro.index.backend import AdoptingBackend

        inner = MemmapBackend(tmp_path)
        cells = inner.empty("cells", (8,), np.int64)
        adopting = AdoptingBackend(inner)
        view = adopting.materialize("source", np.asarray(cells))
        view[...] = 42
        adopting.flush()
        assert np.array_equal(np.load(inner.spill_files[0]), view)

    def test_release_delegates(self, tmp_path):
        from repro.index.backend import AdoptingBackend

        inner = MemmapBackend(tmp_path)
        cells = inner.empty("cells", (8,), np.int64)
        adopting = AdoptingBackend(inner)
        adopting.materialize("source", cells)
        assert adopting.release() == 1
        assert inner.live_arrays == 0
        assert adopting.describe()["adopted"] == 0

    def test_heap_arrays_pass_through_untracked(self):
        from repro.index.backend import AdoptingBackend

        adopting = AdoptingBackend(MemoryBackend())
        source = np.arange(6)
        adopted = adopting.materialize("source", source)
        assert adopted is source
        assert adopting.describe()["adopted"] == 0


class TestMemmapEquivalence:
    @pytest.mark.parametrize("name", DENSE_SUM)
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_sum_bit_identical(self, name, ndim, rng, tmp_path):
        shape = SHAPES[ndim]
        cube = make_cube(shape, rng)
        params = params_for(name, ndim)
        in_memory = create_index(name, cube, **params)
        spilled = create_index(
            name, cube, backend=MemmapBackend(tmp_path), **params
        )
        lows, highs = random_query_arrays(shape, 50, rng)
        expected = in_memory.query_many(lows, highs)
        got = spilled.query_many(lows, highs)
        assert expected.dtype == got.dtype
        assert np.array_equal(expected, got)
        for k in range(0, 50, 10):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert spilled.query(box) == in_memory.query(box)

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_prefix_sum_arrays_bit_identical(self, ndim, rng, tmp_path):
        """The acceptance criterion verbatim: a memmap-backed
        PrefixSumCube's prefix array equals the heap-built one exactly."""
        cube = make_cube(SHAPES[ndim], rng)
        in_memory = create_index("prefix_sum", cube)
        spilled = create_index(
            "prefix_sum", cube, backend=MemmapBackend(tmp_path)
        )
        assert in_memory.prefix.dtype == spilled.prefix.dtype
        assert np.array_equal(in_memory.prefix, np.asarray(spilled.prefix))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_max_tree_bit_identical(self, ndim, rng, tmp_path):
        shape = SHAPES[ndim]
        cube = make_cube(shape, rng, high=10**6)
        in_memory = create_index("range_max_tree", cube, fanout=3)
        spilled = create_index(
            "range_max_tree",
            cube,
            backend=MemmapBackend(tmp_path),
            fanout=3,
        )
        for level in range(1, in_memory.height + 1):
            assert np.array_equal(
                np.asarray(in_memory.values[level]),
                np.asarray(spilled.values[level]),
            )
        lows, highs = random_query_arrays(shape, 25, rng)
        exp_idx, exp_val = in_memory.query_many(lows, highs)
        got_idx, got_val = spilled.query_many(lows, highs)
        assert np.array_equal(exp_val, got_val)
        assert np.array_equal(exp_idx, got_idx)

    def test_structure_arrays_live_in_spill_dir(self, rng, tmp_path):
        backend = MemmapBackend(tmp_path, tag="psum")
        cube = make_cube((40, 40), rng)
        index = create_index("prefix_sum", cube, backend=backend)
        assert len(backend.spill_files) >= 1
        assert isinstance(index.prefix, np.memmap)

    def test_float_cube_bit_identical(self, rng, tmp_path):
        from repro.query.workload import make_float_cube

        cube = make_float_cube((31, 17), rng)
        in_memory = create_index("prefix_sum", cube)
        spilled = create_index(
            "prefix_sum", cube, backend=MemmapBackend(tmp_path)
        )
        assert np.array_equal(
            in_memory.prefix, np.asarray(spilled.prefix)
        )  # exact, not approximate: identical operation order


class TestEngineBackendIntegration:
    def test_engine_with_memmap_backend(self, rng, tmp_path):
        from repro.query.engine import RangeQueryEngine

        cube = make_cube((20, 16), rng)
        baseline = RangeQueryEngine(cube)
        spilled = RangeQueryEngine(
            cube, backend=MemmapBackend(tmp_path)
        )
        lows, highs = random_query_arrays(cube.shape, 30, rng)
        assert np.array_equal(
            baseline.sum_many(lows, highs), spilled.sum_many(lows, highs)
        )
        _, exp_max = baseline.max_many(lows, highs)
        _, got_max = spilled.max_many(lows, highs)
        assert np.array_equal(exp_max, got_max)
        _, exp_min = baseline.min_many(lows, highs)
        _, got_min = spilled.min_many(lows, highs)
        assert np.array_equal(exp_min, got_min)

    def test_materialized_plan_with_backend(self, rng, tmp_path):
        from repro.optimizer.cuboid_selection import Materialization
        from repro.optimizer.materialize import MaterializedCuboidSet
        from repro.query.ranges import RangeQuery, RangeSpec

        cube = make_cube((12, 10, 8), rng)
        plan = [
            Materialization((0, 1), 2, 120.0),
            Materialization((1, 2), 1, 80.0, prefix_dims=(1,)),
        ]
        backend = MemmapBackend(tmp_path)
        heap = MaterializedCuboidSet(cube, plan)
        spilled = MaterializedCuboidSet(cube, plan, backend=backend)
        assert len(backend.spill_files) >= 2
        query = RangeQuery(
            (
                RangeSpec.between(2, 9),
                RangeSpec.between(1, 7),
                RangeSpec.all(),
            )
        )
        assert spilled.range_sum(query) == heap.range_sum(query)

    def test_heap_structure_reopens_memory_mapped(self, rng, tmp_path):
        from repro.io import open_index, save_index_manifest

        cube = make_cube((40, 40), rng)  # past the inline cutoff
        original = create_index("prefix_sum", cube)
        manifest = save_index_manifest(original, tmp_path / "p.json")
        restored = open_index(manifest)
        assert isinstance(restored.prefix, np.memmap)
        assert np.array_equal(
            np.asarray(restored.prefix), original.prefix
        )
