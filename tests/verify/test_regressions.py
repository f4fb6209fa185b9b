"""Regression tests for the bugs the differential harness flushed out.

Each test fails on the pre-fix code; the fix it pins is named in the
docstring.  These are deliberately tiny deterministic reproducers — the
harness that found them lives in ``test_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box, full_box
from repro.core.batch_update import PointUpdate
from repro.core.operators import SUM
from repro.core.prefix_sum import PrefixSumCube, accumulated_dtype
from repro.core.range_max import RangeMaxTree
from repro.index.backend import MemmapBackend
from repro.index.protocol import InstrumentedIndex
from repro.index.registry import available_indexes, create_index
from repro.sparse import SparseCube

#: Construction parameters for structures without all-default ctors.
BUILD_PARAMS = {
    "blocked_prefix_sum": {"block_size": 2},
    "partial_prefix_sum": {"prefix_dims": (0,)},
    "blocked_partial_prefix_sum": {"prefix_dims": (0,), "block_size": 2},
    "range_max_tree": {"fanout": 3},
}


def _build(name, cube, backend=None):
    from repro.index.registry import get_index_info

    info = get_index_info(name)
    if info.sparse_input:
        cube = SparseCube.from_dense(cube)
    return create_index(
        name, cube, backend=backend, **BUILD_PARAMS.get(name, {})
    )


def _cube_for(name, rng):
    from repro.index.registry import get_index_info

    profile = get_index_info(name).fuzz_profile
    shape = (6,) if profile.max_ndim == 1 else (5, 4)
    return rng.integers(-40, 41, size=shape).astype(np.int64)


class TestDtypePromotion:
    """S1: prefix accumulation promotes to wide exact dtypes."""

    def test_small_signed_ints_promote_to_int64(self):
        assert accumulated_dtype(SUM, np.dtype(np.int8)) == np.int64
        assert accumulated_dtype(SUM, np.dtype(np.int16)) == np.int64

    def test_unsigned_ints_promote_to_uint64(self):
        assert accumulated_dtype(SUM, np.dtype(np.uint8)) == np.uint64

    def test_float32_promotes_to_float64(self):
        """Pre-fix, float32 prefixes lost integer exactness at 2**24."""
        assert accumulated_dtype(SUM, np.dtype(np.float32)) == np.float64
        cube = np.array([2.0**24, 1.0], dtype=np.float32)
        structure = PrefixSumCube(cube)
        # P[1] − P[0] computed in float32 collapses to 0.0.
        assert structure.range_sum(Box((1,), (1,))) == 1.0

    def test_narrow_int_totals_do_not_wrap(self):
        cube = np.full(300, 100, dtype=np.int8)
        structure = PrefixSumCube(cube)
        assert structure.range_sum(Box((0,), (299,))) == 30000


class TestEmptyRangeIdentity:
    """S2: every SUM index answers the operator identity on empty."""

    @pytest.mark.parametrize("name", available_indexes(kind="sum"))
    def test_scalar_empty_is_identity(self, name, rng):
        cube = _cube_for(name, rng)
        index = _build(name, cube)
        lo = (2,) + (0,) * (cube.ndim - 1)
        hi = (1,) + tuple(n - 1 for n in cube.shape[1:])
        assert index.query(Box(lo, hi)) == 0

    @pytest.mark.parametrize("name", available_indexes(kind="sum"))
    def test_batch_empty_rows_are_identity(self, name, rng):
        cube = _cube_for(name, rng)
        index = _build(name, cube)
        box = full_box(cube.shape)
        lows = np.array([box.lo, (2,) + (0,) * (cube.ndim - 1)])
        highs = np.array(
            [box.hi, (1,) + tuple(n - 1 for n in cube.shape[1:])]
        )
        results = index.query_many(lows, highs)
        assert results[0] == cube.sum()
        assert results[1] == 0


class TestMemmapFlush:
    """S4: ``apply_updates`` flushes memmap spill files."""

    @pytest.mark.parametrize(
        "name", available_indexes(persistable=True)
    )
    def test_apply_updates_flushes_spill_files(
        self, name, rng, tmp_path, monkeypatch
    ):
        """Pre-fix, no structure called ``flush`` after updating."""
        flushed = []
        original = np.memmap.flush

        def spy(self):
            flushed.append(self.filename)
            return original(self)

        monkeypatch.setattr(np.memmap, "flush", spy)
        cube = _cube_for(name, rng)
        index = _build(name, cube, backend=MemmapBackend(tmp_path))
        flushed.clear()
        point = (0,) * cube.ndim
        index.apply_updates([PointUpdate(point, 5)])
        assert flushed, f"{name}.apply_updates never flushed its spill"

    @pytest.mark.parametrize(
        "name", available_indexes(persistable=True)
    )
    def test_spill_update_reload_query_equality(
        self, name, rng, tmp_path
    ):
        """Spill → update → save/load round trip answers like a fresh
        build over the updated cube, for every persistable index."""
        from repro.io import open_index, save_index_manifest
        from repro.query.workload import random_box

        cube = _cube_for(name, rng)
        index = _build(name, cube, backend=MemmapBackend(tmp_path))
        mirror = cube.copy()
        updates = []
        for _ in range(6):
            point = tuple(
                int(rng.integers(0, n)) for n in cube.shape
            )
            delta = int(rng.integers(-20, 21))
            updates.append(PointUpdate(point, delta))
            mirror[point] += delta
        index.apply_updates(updates)
        manifest = save_index_manifest(index, tmp_path / "index.json")
        clone = InstrumentedIndex(open_index(manifest, mode="c"))
        fresh = InstrumentedIndex(_build(name, mirror))
        for _ in range(10):
            box = random_box(cube.shape, rng)
            assert clone.query(box) == fresh.query(box)


class TestMaxTreeDuplicateDeltas:
    """Harness-flushed: duplicate deltas to one cell must accumulate.

    Pre-fix, ``RangeMaxTree.apply_updates`` converted every delta to an
    assignment against the pre-batch source, so last-wins deduplication
    silently dropped all but the final delta to a cell.
    """

    def test_duplicate_deltas_accumulate_single_cell(self):
        tree = RangeMaxTree(np.array([4.0]), fanout=5)
        tree.apply_updates(
            [
                PointUpdate((0,), 8),
                PointUpdate((0,), -3),
                PointUpdate((0,), -18),
                PointUpdate((0,), 5),
                PointUpdate((0,), -1),
            ]
        )
        # 4 + (8 - 3 - 18 + 5 - 1) = -5; last-wins would answer 4 - 1.
        assert tree.query(Box((0,), (0,))) == ((0,), -5.0)

    def test_duplicate_deltas_accumulate_through_tree(self, rng):
        cube = rng.integers(-40, 41, size=(6, 6)).astype(np.int64)
        tree = RangeMaxTree(cube, fanout=2)
        mirror = cube.copy()
        updates = []
        for _ in range(8):
            point = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            delta = int(rng.integers(-10, 11))
            updates.append(PointUpdate(point, delta))
            mirror[point] += delta
        tree.apply_updates(updates)
        box = full_box(cube.shape)
        _, value = tree.query(box)
        assert value == mirror.max()


class TestSparseValueCoercion:
    """Harness-flushed: sparse cells must not keep narrow numpy dtypes."""

    def test_int8_running_sums_do_not_wrap(self):
        cube = SparseCube.from_dense(
            np.array([100, 100], dtype=np.int8)
        )
        index = create_index("sparse_sum_1d", cube)
        assert index.query(Box((0,), (1,))) == 200

    def test_densify_infers_float_dtype(self):
        cube = SparseCube.from_dense(np.array([0.5, 0.0, 2.5]))
        dense = cube.densify(full_box((3,)))
        assert dense.dtype == np.float64
        assert np.array_equal(dense, [0.5, 0.0, 2.5])

    def test_densify_defaults_to_int64_for_ints(self):
        cube = SparseCube.from_dense(np.array([100, 100], dtype=np.int8))
        assert cube.densify(full_box((2,))).dtype == np.int64
