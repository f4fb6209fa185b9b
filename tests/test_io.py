"""Tests for structure persistence (manifest save / reopen)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_update import PointUpdate
from repro.core.blocked import BlockedPrefixSumCube
from repro.core.operators import XOR
from repro.core.prefix_sum import PrefixSumCube
from repro.core.range_max import RangeMaxTree
from repro.index.backend import MemmapBackend
from repro.index.registry import (
    available_indexes,
    create_index,
    index_info_for,
)
from repro.io import open_index, save_index_manifest
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


def _files(directory):
    """Every file under ``directory`` with its bytes."""
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestPrefixSumRoundtrip:
    def test_roundtrip_via_file(self, rng, tmp_path):
        cube = make_cube((12, 9), rng)
        original = PrefixSumCube(cube)
        path = save_index_manifest(original, tmp_path / "prefix.json")
        restored = open_index(path)
        assert np.array_equal(restored.prefix, original.prefix)
        assert np.array_equal(restored.source, cube)
        for _ in range(20):
            box = random_box(cube.shape, rng)
            assert restored.range_sum(box) == naive_range_sum(cube, box)

    def test_discarded_source_stays_discarded(self, rng, tmp_path):
        cube = make_cube((24, 24), rng)  # past the inline cutoff
        original = PrefixSumCube(cube, keep_source=False)
        path = save_index_manifest(original, tmp_path / "p.json")
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "p.json",
            "p.prefix.npy",
        ]
        restored = open_index(path)
        assert restored.source is None
        assert restored.cell((2, 3)) == cube[2, 3]

    def test_operator_preserved(self, rng, tmp_path):
        cube = rng.integers(0, 64, (6, 6), dtype=np.int64)
        original = PrefixSumCube(cube, XOR)
        path = save_index_manifest(original, tmp_path / "x.json")
        restored = open_index(path)
        assert restored.operator.name == "xor"
        box = random_box(cube.shape, rng)
        assert restored.range_sum(box) == original.range_sum(box)


class TestBlockedRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        cube = make_cube((30, 22), rng)
        original = BlockedPrefixSumCube(cube, 7)
        path = save_index_manifest(original, tmp_path / "blocked.json")
        restored = open_index(path)
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
        path = save_index_manifest(original, tmp_path / "tree.json")
        restored = open_index(path)
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
        path = save_index_manifest(
            RangeMaxTree(cube, 2), tmp_path / "t.json"
        )
        restored = open_index(path)
        apply_max_updates(restored, [MaxAssignment((5,), 999)])
        assert restored.values[restored.height].ravel()[0] == 999


class TestRegistryRoundtrip:
    """The generic save/open path, parametrized over the registry: every
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
        path = save_index_manifest(original, tmp_path / f"{name}.json")
        restored = open_index(path)
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
        path = save_index_manifest(wrapped, tmp_path / "w.json")
        restored = open_index(path)
        assert np.array_equal(restored.prefix, wrapped.index.prefix)

    def test_engine_route_is_saveable(self, rng, tmp_path):
        """An engine's routed structure persists directly — no reach into
        private attributes needed."""
        from repro.query.engine import RangeQueryEngine

        cube = make_cube((9, 9), rng)
        engine = RangeQueryEngine(cube)
        path = save_index_manifest(
            engine.route("sum"), tmp_path / "route.json"
        )
        restored = open_index(path)
        box = random_box(cube.shape, rng)
        assert restored.query(box) == engine.sum(box)

    def test_unpersistable_structure_rejected(self, rng, tmp_path):
        from repro.sparse.sparse_cube import SparseCube

        sparse = SparseCube((50,), {(3,): 7, (20,): 2})
        index = create_index("sparse_sum_1d", sparse)
        with pytest.raises(ValueError, match="not persistable"):
            save_index_manifest(index, tmp_path / "s.json")

    def test_unregistered_structure_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="not a registered"):
            save_index_manifest(object(), tmp_path / "o.json")


class TestFormatSafety:
    def test_archive_names_its_kind(self, rng, tmp_path):
        cube = make_cube((5, 5), rng)
        path = save_index_manifest(PrefixSumCube(cube), tmp_path / "p.json")
        # The manifest names its structure; a caller expecting another
        # kind checks the registry name of what came back.
        assert index_info_for(open_index(path)).name == "prefix_sum"


def _answers(index, name, lows, highs):
    """Batch answers; a max tree answers with values only (ties may
    resolve to a different, equally maximal cell)."""
    if name == "range_max_tree":
        return index.query_many(lows, highs)[1]
    return index.query_many(lows, highs)


class TestManifestRoundtrip:
    """One persisted shape: a JSON manifest over ``.npy`` files, reopened
    by mapping those files rather than copying them."""

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    def test_roundtrip_every_registry_case(self, name, rng, tmp_path):
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

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    @pytest.mark.parametrize("mode", ["r", "r+", "c"])
    @pytest.mark.parametrize("built", ["heap", "memmap"])
    def test_every_registry_case_reopens_in_every_mode(
        self, built, mode, name, rng, tmp_path
    ):
        """Heap arrays are written beside the manifest and spill files
        are referenced where they lie; either way the reopened structure
        is bit-identical and answers alike.  ``"c"`` updates in memory
        and leaves every file as it was; ``"r+"`` updates the files."""
        params, dtype = REGISTRY_CASES[name]
        cube = rng.integers(0, 100, size=(64, 48), dtype=dtype)
        backend = (
            MemmapBackend(tmp_path / "spill") if built == "memmap" else None
        )
        original = create_index(name, cube, backend=backend, **params)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        manifest = save_index_manifest(original, bundle / "m.json")
        state = original.state_dict()
        written = {path.name for path in bundle.iterdir()}
        if built == "memmap":
            # A spilled structure's arrays already live on disk.
            assert written == {"m.json"}
        else:
            # The source alone is past the inline cutoff, so every array
            # with cells gets a file.
            assert written == {"m.json"} | {
                f"m.{key}.npy"
                for key, value in state.items()
                if isinstance(value, np.ndarray) and value.size
            }
        if name == "partial_prefix_sum":
            assert "m.source.npy" not in written

        restored = open_index(manifest, mode=mode)
        assert type(restored) is type(original)
        for key, value in state.items():
            got = restored.state_dict()[key]
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype, key
                assert np.array_equal(got, value), key
            else:
                assert got == value, key
        lows, highs = random_query_arrays(cube.shape, 15, rng)
        assert np.array_equal(
            _answers(restored, name, lows, highs),
            _answers(original, name, lows, highs),
        )
        if mode == "r":
            return

        before = _files(tmp_path)
        restored.apply_updates([PointUpdate((3, 2), 7)])
        mutated = cube.copy()
        mutated[3, 2] += 7
        expected = _answers(
            create_index(name, mutated, **params), name, lows, highs
        )
        assert np.array_equal(_answers(restored, name, lows, highs), expected)
        if mode == "c":
            assert _files(tmp_path) == before
        else:
            reopened = open_index(manifest, mode="r")
            assert np.array_equal(
                _answers(reopened, name, lows, highs), expected
            )

    def test_copy_on_write_structure_saves_its_updates(self, rng, tmp_path):
        """A ``"c"`` map may differ from its file, so a save writes its
        cells instead of referencing the untouched file."""
        cube = make_cube((40, 40), rng)
        first = save_index_manifest(
            create_index("prefix_sum", cube), tmp_path / "m.json"
        )
        before = _files(tmp_path)
        restored = open_index(first, mode="c")
        restored.apply_updates([PointUpdate((5, 7), 11)])
        second = save_index_manifest(restored, tmp_path / "n.json")
        mutated = cube.copy()
        mutated[5, 7] += 11
        for _ in range(10):
            box = random_box(cube.shape, rng)
            assert open_index(second).range_sum(box) == naive_range_sum(
                mutated, box
            )
            assert open_index(first).range_sum(box) == naive_range_sum(
                cube, box
            )
        assert {k: v for k, v in _files(tmp_path).items() if k in before} == before

    def test_reopen_maps_the_same_files(self, rng, tmp_path):
        """The zero-copy contract: reopened arrays are backed by the
        original spill files, not copies."""
        from repro.index.backend import _backing_memmap

        cube = make_cube((16, 12), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        restored = open_index(manifest)
        backing = _backing_memmap(restored.prefix)
        assert backing is not None
        assert str(backing.filename).startswith(str(tmp_path / "spill"))

    def test_reopened_structure_answers_and_updates(self, rng, tmp_path):
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
        cube = make_cube((9, 9), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        restored = open_index(manifest, mode="r")
        assert np.array_equal(
            np.asarray(restored.prefix), np.asarray(original.prefix)
        )

    def test_manifest_is_relocatable(self, rng, tmp_path):
        """Manifest + spill dir (or the arrays written beside a heap
        structure's manifest) move together as one bundle."""
        import shutil

        bundle = tmp_path / "bundle"
        bundle.mkdir()
        cube = make_cube((8, 8), rng)
        backend = MemmapBackend(bundle / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        save_index_manifest(original, bundle / "m.json")
        heap = create_index("prefix_sum", make_cube((40, 40), rng))
        save_index_manifest(heap, bundle / "heap.json")
        moved = tmp_path / "elsewhere"
        shutil.move(str(bundle), str(moved))
        restored = open_index(moved / "m.json")
        assert np.array_equal(
            np.asarray(restored.prefix), original.prefix
        )
        assert np.array_equal(
            open_index(moved / "heap.json").prefix, heap.prefix
        )

    def test_mismatched_spill_file_is_rejected(self, rng, tmp_path):
        cube = make_cube((8, 8), rng)
        backend = MemmapBackend(tmp_path / "spill")
        original = create_index("prefix_sum", cube, backend=backend)
        manifest = save_index_manifest(original, tmp_path / "m.json")
        # Corrupt one referenced file with a different-shaped array.
        victim = backend.spill_files[0]
        np.save(victim.with_suffix(""), np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="does not match"):
            open_index(manifest)

    def test_truncating_mode_is_rejected(self, rng, tmp_path):
        manifest = save_index_manifest(
            create_index("prefix_sum", make_cube((40, 40), rng)),
            tmp_path / "m.json",
        )
        before = _files(tmp_path)
        with pytest.raises(ValueError, match="mode"):
            open_index(manifest, mode="w+")
        assert _files(tmp_path) == before

    def test_non_manifest_file_is_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"hello\": 1}\n")
        with pytest.raises(ValueError, match="not an index manifest"):
            open_index(bogus)


class TestAtomicReplace:
    """Every file the writer creates replaces its target by rename."""

    def test_resave_leaves_an_open_handle_its_old_values(
        self, rng, tmp_path
    ):
        first = make_cube((40, 40), rng)
        second = first + 1
        manifest = save_index_manifest(
            create_index("prefix_sum", first), tmp_path / "m.json"
        )
        handle = open_index(manifest)
        save_index_manifest(create_index("prefix_sum", second), manifest)
        for _ in range(10):
            box = random_box(first.shape, rng)
            assert handle.range_sum(box) == naive_range_sum(first, box)
            assert open_index(manifest).range_sum(box) == naive_range_sum(
                second, box
            )
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize(
        "shape", [(6, 6), (40, 40)], ids=["manifest-only", "with-array"]
    )
    def test_failed_resave_keeps_the_old_manifest(
        self, shape, rng, tmp_path, monkeypatch
    ):
        import os

        first = make_cube(shape, rng)
        manifest = save_index_manifest(
            create_index("prefix_sum", first), tmp_path / "m.json"
        )
        before = _files(tmp_path)

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", disk_full)
            with pytest.raises(OSError, match="No space"):
                save_index_manifest(
                    create_index("prefix_sum", first + 1), manifest
                )
        assert _files(tmp_path) == before
        box = random_box(shape, rng)
        assert open_index(manifest).range_sum(box) == naive_range_sum(
            first, box
        )
