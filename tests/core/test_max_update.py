"""Tests for the range-max batch updater (paper §7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.max_update import MaxAssignment, apply_max_updates
from repro.core.range_max import RangeMaxTree
from repro.query.naive import naive_max_value
from repro.query.workload import make_cube, random_box


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def assert_tree_consistent(tree: RangeMaxTree) -> None:
    """Every level must match a freshly built tree's values, and every
    stored position must point at a cell holding that value."""
    rebuilt = RangeMaxTree(tree.source, tree.fanout)
    for level in range(1, tree.height + 1):
        assert np.array_equal(
            tree.values[level], rebuilt.values[level]
        ), f"level {level} values diverge"
        pointed = tree.source.ravel()[tree.positions[level]]
        assert np.array_equal(
            pointed, tree.values[level]
        ), f"level {level} positions are stale"


@st.composite
def tree_and_batch(draw):
    ndim = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(
        draw(st.integers(min_value=2, max_value=10)) for _ in range(ndim)
    )
    size = int(np.prod(shape))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=size,
            max_size=size,
        )
    )
    cube = np.array(flat, dtype=np.int64).reshape(shape)
    fanout = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=0, max_value=8))
    batch = []
    for _ in range(count):
        index = tuple(
            draw(st.integers(min_value=0, max_value=n - 1)) for n in shape
        )
        value = draw(st.integers(min_value=0, max_value=60))
        batch.append(MaxAssignment(index, value))
    return cube, fanout, batch


class TestBatchCorrectness:
    @given(tree_and_batch())
    @settings(max_examples=120, deadline=None)
    def test_tree_matches_rebuild(self, data):
        cube, fanout, batch = data
        tree = RangeMaxTree(cube, fanout)
        apply_max_updates(tree, batch)
        mirror = cube.copy()
        for assignment in batch:
            mirror[assignment.index] = assignment.value
        assert np.array_equal(tree.source, mirror)
        assert_tree_consistent(tree)

    def test_queries_after_updates(self, rng):
        cube = make_cube((30, 30), rng, high=1000)
        tree = RangeMaxTree(cube, fanout=3)
        batch = [
            MaxAssignment(
                (int(rng.integers(0, 30)), int(rng.integers(0, 30))),
                int(rng.integers(0, 2000)),
            )
            for _ in range(40)
        ]
        apply_max_updates(tree, batch)
        for _ in range(40):
            box = random_box((30, 30), rng)
            assert tree.source[tree.max_index(box)] == naive_max_value(
                tree.source, box
            )


class TestUpdateClasses:
    """The §7 case analysis, one scenario per class."""

    def _tree(self):
        cube = np.array(
            [
                [10, 20, 30, 5],
                [1, 2, 3, 4],
                [50, 6, 7, 8],
                [9, 11, 12, 13],
            ],
            dtype=np.int64,
        )
        return RangeMaxTree(cube, fanout=2)

    def test_passive_increase_ignored_upward(self):
        """An increase below the block max must not change any ancestor."""
        tree = self._tree()
        before = [np.array(v) for v in tree.values[1:]]
        stats = apply_max_updates(tree, [MaxAssignment((1, 0), 15)])
        assert tree.source[1, 0] == 15
        for prev, now in zip(before, tree.values[1:]):
            assert np.array_equal(prev, now)
        assert stats.rescans == 0
        assert_tree_consistent(tree)

    def test_active_increase_propagates(self):
        """An increase above the global max reaches the root in one pass."""
        tree = self._tree()
        apply_max_updates(tree, [MaxAssignment((3, 3), 999)])
        root = tree.values[tree.height].ravel()[0]
        assert root == 999
        assert_tree_consistent(tree)

    def test_active_decrease_triggers_rescan(self):
        """Decreasing the stored max with no covering increase rescans."""
        tree = self._tree()
        stats = apply_max_updates(tree, [MaxAssignment((2, 0), 0)])
        assert stats.rescans >= 1
        assert_tree_consistent(tree)

    def test_increase_then_decrease_avoids_rescan(self):
        """Rule 2(b): an earlier active increase makes the decrease moot."""
        tree = self._tree()
        stats = apply_max_updates(
            tree,
            [MaxAssignment((2, 1), 60), MaxAssignment((2, 0), 0)],
        )
        assert stats.rescans == 0
        assert_tree_consistent(tree)

    def test_decrease_then_recovering_increase(self):
        """Rule 1(c): an increase matching v0 recovers a lost max."""
        tree = self._tree()
        stats = apply_max_updates(
            tree,
            [MaxAssignment((2, 0), 0), MaxAssignment((2, 1), 50)],
        )
        assert stats.rescans == 0
        assert_tree_consistent(tree)

    def test_passive_decrease_ignored(self):
        tree = self._tree()
        before = [np.array(v) for v in tree.values[1:]]
        apply_max_updates(tree, [MaxAssignment((1, 1), 0)])
        for prev, now in zip(before, tree.values[1:]):
            assert np.array_equal(prev, now)
        assert_tree_consistent(tree)

    def test_equal_value_tie_move_keeps_ancestors_live(self):
        """An ancestor's stored index must never point at a decreased
        cell, even across equal-value max moves (the tie-propagation
        extension documented in the module)."""
        cube = np.zeros((8,), dtype=np.int64)
        cube[0] = 10
        cube[1] = 10
        tree = RangeMaxTree(cube, fanout=2)
        # Decrease whichever cell the root points at; the equal twin must
        # take over everywhere up the tree.
        root_pos = int(tree.positions[tree.height].ravel()[0])
        apply_max_updates(tree, [MaxAssignment((root_pos,), 0)])
        assert_tree_consistent(tree)
        assert tree.source[tree.max_index(Box((0,), (7,)))] == 10


class TestBatchMechanics:
    def test_empty_batch_is_noop(self, rng):
        cube = make_cube((9, 9), rng)
        tree = RangeMaxTree(cube, fanout=3)
        stats = apply_max_updates(tree, [])
        assert stats.assignments == 0
        assert_tree_consistent(tree)

    def test_last_assignment_wins(self):
        tree = RangeMaxTree(np.arange(8, dtype=np.int64), fanout=2)
        stats = apply_max_updates(
            tree, [MaxAssignment((1,), 50), MaxAssignment((1,), 9)]
        )
        assert stats.assignments == 1
        assert tree.source[1] == 9
        assert tree.max_value(Box((0,), (7,))) == 9
        assert_tree_consistent(tree)

    def test_phase_lists_shrink(self, rng):
        """Most updates are passive, so upward lists should shrink fast."""
        cube = make_cube((64, 64), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=4)
        batch = [
            MaxAssignment(
                (int(rng.integers(0, 64)), int(rng.integers(0, 64))),
                int(rng.integers(0, 10**6)),
            )
            for _ in range(100)
        ]
        stats = apply_max_updates(tree, batch)
        assert stats.items_per_phase[0] == stats.assignments
        if len(stats.items_per_phase) > 1:
            assert stats.items_per_phase[1] <= stats.items_per_phase[0]
        assert_tree_consistent(tree)

    def test_wrong_dimensionality_rejected(self, rng):
        tree = RangeMaxTree(make_cube((5, 5), rng), fanout=2)
        with pytest.raises(ValueError, match="dimensionality"):
            apply_max_updates(tree, [MaxAssignment((1,), 3)])

    def test_single_cell_cube(self):
        cube = np.array([7], dtype=np.int64)
        tree = RangeMaxTree(cube, fanout=2)
        apply_max_updates(tree, [MaxAssignment((0,), 11)])
        assert tree.source[0] == 11

    def test_stats_accounting(self, rng):
        cube = make_cube((16,), rng, high=100)
        tree = RangeMaxTree(cube, fanout=2)
        stats = apply_max_updates(
            tree, [MaxAssignment((3,), 500), MaxAssignment((9,), 600)]
        )
        assert stats.assignments == 2
        assert stats.total_items >= 2
        assert stats.nodes_written >= 2


class TestMemmapFlush:
    """Regression: ``apply_max_updates`` mutated spill-backed arrays but
    never synced the backend (cubelint ``memmap-flush``)."""

    def _spy(self, monkeypatch):
        flushed = []
        original = np.memmap.flush

        def spy(self):
            flushed.append(self.filename)
            return original(self)

        monkeypatch.setattr(np.memmap, "flush", spy)
        return flushed

    def test_direct_call_flushes_backend(self, rng, tmp_path, monkeypatch):
        from repro.index.backend import MemmapBackend

        flushed = self._spy(monkeypatch)
        cube = make_cube((16,), rng, high=100)
        tree = RangeMaxTree(cube, fanout=4, backend=MemmapBackend(tmp_path))
        flushed.clear()
        apply_max_updates(tree, [MaxAssignment((3,), 500)])
        assert flushed, "apply_max_updates never flushed its spill files"

    def test_height_zero_path_flushes_backend(
        self, tmp_path, monkeypatch
    ):
        """The early-return path (no tree levels) also writes ``source``."""
        from repro.index.backend import MemmapBackend

        flushed = self._spy(monkeypatch)
        cube = np.array([7], dtype=np.int64)
        tree = RangeMaxTree(cube, fanout=2, backend=MemmapBackend(tmp_path))
        flushed.clear()
        apply_max_updates(tree, [MaxAssignment((0,), 11)])
        assert tree.source[0] == 11
        assert flushed, "height-0 early return skipped the backend flush"
