"""Tests for structure persistence (save/load of precomputations)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.blocked import BlockedPrefixSumCube
from repro.core.operators import XOR
from repro.core.prefix_sum import PrefixSumCube
from repro.core.range_max import RangeMaxTree
from repro.index.registry import (
    available_indexes,
    create_index,
    index_info_for,
)
from repro.io import load_index, save_index
from repro.query.naive import naive_max_value, naive_range_sum
from repro.query.workload import (
    make_cube,
    random_box,
    random_query_arrays,
)

#: Representative construction params per persistable registry name;
#: dtypes chosen so exact round-tripping is observable (sub-word ints
#: must come back sub-word, not silently promoted to int64).
REGISTRY_CASES = {
    "prefix_sum": ({}, np.int64),
    "blocked_prefix_sum": ({"block_size": 5}, np.int32),
    "partial_prefix_sum": ({"prefix_dims": (0,)}, np.int64),
    "blocked_partial_prefix_sum": (
        {"prefix_dims": (1,), "block_size": 3},
        np.int64,
    ),
    "range_max_tree": ({"fanout": 3}, np.int16),
}


@pytest.fixture
def rng():
    return np.random.default_rng(179)


class TestPrefixSumRoundtrip:
    def test_roundtrip_via_file(self, rng, tmp_path):
        cube = make_cube((12, 9), rng)
        original = PrefixSumCube(cube)
        path = tmp_path / "prefix.npz"
        save_index(original, path)
        restored = load_index(path)
        assert np.array_equal(restored.prefix, original.prefix)
        assert np.array_equal(restored.source, cube)
        for _ in range(20):
            box = random_box(cube.shape, rng)
            assert restored.range_sum(box) == naive_range_sum(cube, box)

    def test_discarded_source_stays_discarded(self, rng, tmp_path):
        cube = make_cube((6, 6), rng)
        original = PrefixSumCube(cube, keep_source=False)
        path = tmp_path / "p.npz"
        save_index(original, path)
        restored = load_index(path)
        assert restored.source is None
        assert restored.cell((2, 3)) == cube[2, 3]

    def test_operator_preserved(self, rng, tmp_path):
        cube = rng.integers(0, 64, (6, 6), dtype=np.int64)
        original = PrefixSumCube(cube, XOR)
        path = tmp_path / "x.npz"
        save_index(original, path)
        restored = load_index(path)
        assert restored.operator.name == "xor"
        box = random_box(cube.shape, rng)
        assert restored.range_sum(box) == original.range_sum(box)

    def test_in_memory_buffer(self, rng):
        cube = make_cube((5, 5), rng)
        original = PrefixSumCube(cube)
        buffer = io.BytesIO()
        save_index(original, buffer)
        buffer.seek(0)
        restored = load_index(buffer)
        assert np.array_equal(restored.prefix, original.prefix)


class TestBlockedRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        cube = make_cube((30, 22), rng)
        original = BlockedPrefixSumCube(cube, 7)
        path = tmp_path / "blocked.npz"
        save_index(original, path)
        restored = load_index(path)
        assert restored.block_size == 7
        assert np.array_equal(
            restored.blocked_prefix, original.blocked_prefix
        )
        for _ in range(20):
            box = random_box(cube.shape, rng)
            assert restored.range_sum(box) == naive_range_sum(cube, box)


class TestMaxTreeRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        cube = make_cube((25, 18), rng, high=10**6)
        original = RangeMaxTree(cube, 3)
        path = tmp_path / "tree.npz"
        save_index(original, path)
        restored = load_index(path)
        assert restored.fanout == 3 and restored.height == original.height
        for level in range(1, original.height + 1):
            assert np.array_equal(
                restored.values[level], original.values[level]
            )
        for _ in range(20):
            box = random_box(cube.shape, rng)
            assert cube[restored.max_index(box)] == naive_max_value(
                cube, box
            )

    def test_updates_work_after_load(self, rng, tmp_path):
        from repro.core.max_update import MaxAssignment, apply_max_updates

        cube = make_cube((16,), rng, high=100)
        path = tmp_path / "t.npz"
        save_index(RangeMaxTree(cube, 2), path)
        restored = load_index(path)
        apply_max_updates(restored, [MaxAssignment((5,), 999)])
        assert restored.values[restored.height].ravel()[0] == 999


class TestRegistryRoundtrip:
    """The generic save/load path, parametrized over the registry: every
    persistable structure round-trips with exact dtypes and params."""

    def test_every_persistable_structure_has_a_case(self):
        assert set(REGISTRY_CASES) == set(
            available_indexes(persistable=True)
        )

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    def test_roundtrip_preserves_dtype_and_answers(
        self, name, rng, tmp_path
    ):
        params, dtype = REGISTRY_CASES[name]
        cube = rng.integers(0, 100, size=(14, 11), dtype=dtype)
        original = create_index(name, cube, **params)
        path = tmp_path / f"{name}.npz"
        save_index(original, path)
        restored = load_index(path)
        assert type(restored) is type(original)
        assert restored.index_params() == original.index_params()
        for key, value in original.state_dict().items():
            back = restored.state_dict()[key]
            if isinstance(value, np.ndarray):
                assert back.dtype == value.dtype
                assert np.array_equal(back, value)
            else:
                assert back == value
        lows, highs = random_query_arrays(cube.shape, 15, rng)
        if name == "range_max_tree":
            exp_idx, exp_val = original.query_many(lows, highs)
            got_idx, got_val = restored.query_many(lows, highs)
            assert np.array_equal(exp_val, got_val)
            assert np.array_equal(exp_idx, got_idx)
        else:
            expected = original.query_many(lows, highs)
            got = restored.query_many(lows, highs)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_instrumented_wrapper_is_looked_through(self, rng, tmp_path):
        from repro.index.protocol import InstrumentedIndex

        cube = make_cube((6, 6), rng)
        wrapped = InstrumentedIndex(create_index("prefix_sum", cube))
        path = tmp_path / "w.npz"
        save_index(wrapped, path)
        restored = load_index(path)
        assert np.array_equal(restored.prefix, wrapped.index.prefix)

    def test_engine_route_is_saveable(self, rng, tmp_path):
        """An engine's routed structure persists directly — no reach into
        private attributes needed."""
        from repro.query.engine import RangeQueryEngine

        cube = make_cube((9, 9), rng)
        engine = RangeQueryEngine(cube)
        path = tmp_path / "route.npz"
        save_index(engine.route("sum"), path)
        restored = load_index(path)
        box = random_box(cube.shape, rng)
        assert restored.query(box) == engine.sum(box)

    def test_unpersistable_structure_rejected(self, rng, tmp_path):
        from repro.sparse.sparse_cube import SparseCube

        sparse = SparseCube((50,), {(3,): 7, (20,): 2})
        index = create_index("sparse_sum_1d", sparse)
        with pytest.raises(ValueError, match="not persistable"):
            save_index(index, tmp_path / "s.npz")

    def test_unregistered_structure_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="not a registered"):
            save_index(object(), tmp_path / "o.npz")


class TestFormatSafety:
    def test_archive_names_its_kind(self, rng, tmp_path):
        cube = make_cube((5, 5), rng)
        path = tmp_path / "p.npz"
        save_index(PrefixSumCube(cube), path)
        # The archive names its structure; a caller expecting another
        # kind checks the registry name of what came back.
        assert index_info_for(load_index(path)).name == "prefix_sum"

    def test_random_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro"):
            load_index(path)


class TestManifestRoundtrip:
    """Zero-copy persistence: spill files + JSON manifest, reopened by
    mapping the same files rather than copying."""

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    def test_roundtrip_every_registry_case(self, name, rng, tmp_path):
        from repro.index.backend import MemmapBackend
        from repro.io import open_index, save_index_manifest

        params, dtype = REGISTRY_CASES[name]
        cube = make_cube((11, 8), rng).astype(dtype)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index(name, cube, backend=backend, **params)
        manifest = save_index_manifest(
            original, tmp_path / f"{name}.manifest.json"
        )
        restored = open_index(manifest)
        assert type(restored) is type(original)
        for key, value in original.state_dict().items():
            got = restored.state_dict()[key]
            if isinstance(value, np.ndarray):
                assert value.dtype == got.dtype, key
                assert np.array_equal(
                    np.asarray(value), np.asarray(got)
                ), key
            else:
                assert value == got, key

    def test_reopen_maps_the_same_files(self, rng, tmp_path):
        """The zero-copy contract: reopened arrays are backed by the
        original spill files, not copies."""
        from repro.index.backend import MemmapBackend, _backing_memmap
        from repro.io import open_index, save_index_manifest

        cube = make_cube((16, 12), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        restored = open_index(manifest)
        backing = _backing_memmap(restored.prefix)
        assert backing is not None
        assert str(backing.filename).startswith(str(tmp_path / "spill"))

    def test_reopened_structure_answers_and_updates(self, rng, tmp_path):
        from repro.core.batch_update import PointUpdate
        from repro.index.backend import MemmapBackend
        from repro.io import open_index, save_index_manifest

        cube = make_cube((14, 10), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index(
            "blocked_prefix_sum", cube, backend=backend, block_size=4
        )
        manifest = save_index_manifest(original, tmp_path / "m.json")
        restored = open_index(manifest)
        box = random_box(cube.shape, rng)
        assert restored.range_sum(box) == naive_range_sum(cube, box)
        restored.apply_updates([PointUpdate((3, 3), 17)])
        mutated = cube.copy()
        mutated[3, 3] += 17
        assert restored.range_sum(box) == naive_range_sum(mutated, box)

    def test_readonly_mode(self, rng, tmp_path):
        from repro.index.backend import MemmapBackend
        from repro.io import open_index, save_index_manifest

        cube = make_cube((9, 9), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        restored = open_index(manifest, mode="r")
        assert np.array_equal(
            np.asarray(restored.prefix), np.asarray(original.prefix)
        )

    def test_manifest_is_relocatable(self, rng, tmp_path):
        """Manifest + spill dir move together as one bundle."""
        import shutil

        from repro.index.backend import MemmapBackend
        from repro.io import open_index, save_index_manifest

        bundle = tmp_path / "bundle"
        bundle.mkdir()
        cube = make_cube((8, 8), rng)
        backend = MemmapBackend(bundle / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        save_index_manifest(original, bundle / "m.json")
        moved = tmp_path / "elsewhere"
        shutil.move(str(bundle), str(moved))
        restored = open_index(moved / "m.json")
        assert np.array_equal(
            np.asarray(restored.prefix), original.prefix
        )

    def test_heap_structure_is_rejected(self, rng, tmp_path):
        """Only *tiny* metadata arrays may live inline; a real cell
        array without a spill file means the structure was built on the
        heap and belongs in save_index() instead."""
        from repro.io import save_index_manifest

        cube = make_cube((64, 64), rng)  # well past the inline cutoff
        original = create_index("prefix_sum", cube)
        with pytest.raises(ValueError, match="not file-backed"):
            save_index_manifest(original, tmp_path / "m.json")

    def test_mismatched_spill_file_is_rejected(self, rng, tmp_path):
        from repro.index.backend import MemmapBackend
        from repro.io import open_index, save_index_manifest

        cube = make_cube((8, 8), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        # Corrupt one referenced file with a different-shaped array.
        victim = backend.spill_files[0]
        np.save(victim.with_suffix(""), np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="does not match"):
            open_index(manifest)

    def test_non_manifest_file_is_rejected(self, tmp_path):
        from repro.io import open_index

        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"hello\": 1}\n")
        with pytest.raises(ValueError, match="not an index manifest"):
            open_index(bogus)
