"""Contracts shared by the four dense prefix-sum registry names.

``prefix_sum`` / ``partial_prefix_sum`` are one class (§3, with §9.1's
``prefix_dims``), ``blocked_prefix_sum`` / ``blocked_partial_prefix_sum``
another (§4); the second name of each pair is a constructor preset.  The
per-family suites pin values and §8 counters; this one pins what must
hold across all four names and what the shared ``prefix_dims`` parameter
newly makes reachable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.core.batch_update import PointUpdate
from repro.core.blocked import (
    BlockedPartialPrefixSumCube,
    BlockedPrefixSumCube,
)
from repro.core.prefix_sum import PartialPrefixSumCube, PrefixSumCube
from repro.index.registry import create_index
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box

SHAPE = (6, 5, 4)

#: Registry name -> construction params per ``prefix_dims`` under test.
FAMILY = {
    "prefix_sum": lambda dims: {"prefix_dims": dims},
    "partial_prefix_sum": lambda dims: {"prefix_dims": dims},
    "blocked_prefix_sum": lambda dims: {"prefix_dims": dims, "block_size": 2},
    "blocked_partial_prefix_sum": lambda dims: {
        "prefix_dims": dims,
        "block_size": 2,
    },
}

#: What each name has always written to disk (``source`` when kept).
STATE_KEYS = {
    "prefix_sum": ({}, {"operator", "prefix", "source"}),
    "partial_prefix_sum": (
        {"prefix_dims": (0, 2)},
        {"operator", "prefix_dims", "prefix"},
    ),
    "blocked_prefix_sum": (
        {"block_size": 2},
        {"operator", "block_size", "source", "blocked_prefix"},
    ),
    "blocked_partial_prefix_sum": (
        {"prefix_dims": (0, 2), "block_size": 2},
        {"operator", "block_size", "prefix_dims", "source", "blocked_prefix"},
    ),
}


@pytest.fixture
def rng():
    return np.random.default_rng(1409)


def arrays_of(structure) -> list[np.ndarray]:
    """Every array an update may write: the prefix array and ``A``."""
    prefix = getattr(structure, "blocked_prefix", None)
    if prefix is None:
        prefix = structure.prefix
    source = structure.source
    return [prefix] if source is None else [prefix, source]


class TestUpdatesValidateBeforeTheyWrite:
    """A bad update anywhere in the batch rejects the whole batch with
    every array untouched — the partial classes used to write first (a
    negative coordinate wrapped to another cell, an out-of-range one
    raised ``IndexError`` half-way, ``prefix_dims=()`` took any arity).
    """

    BAD_INDEXES = {
        "wrong arity": (1, 2),
        "coordinate >= extent": (1, 5, 0),
        "negative coordinate": (1, -1, 2),
    }

    @pytest.mark.parametrize("fault", sorted(BAD_INDEXES))
    @pytest.mark.parametrize("dims", [(0, 1, 2), (0, 2), ()])
    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_rejected_batch_changes_nothing(self, name, dims, fault, rng):
        cube = make_cube(SHAPE, rng).astype(np.int64)
        structure = create_index(name, cube, **FAMILY[name](dims))
        before = [array.copy() for array in arrays_of(structure)]
        batch = [
            PointUpdate((2, 3, 1), 5),
            PointUpdate(self.BAD_INDEXES[fault], 7),
            PointUpdate((0, 0, 0), 1),
        ]
        with pytest.raises(ValueError):
            structure.apply_updates(batch)
        for array, kept in zip(arrays_of(structure), before):
            assert array.tobytes() == kept.tobytes()


class TestOnDiskFormat:
    @pytest.mark.parametrize("name", sorted(STATE_KEYS))
    def test_state_dict_key_set_per_registry_name(self, name, rng):
        params, keys = STATE_KEYS[name]
        structure = create_index(name, make_cube(SHAPE, rng), **params)
        assert set(structure.state_dict()) == keys
        restored = type(structure).from_state(structure.state_dict())
        assert type(restored) is type(structure)
        assert set(restored.state_dict()) == keys
        assert restored.prefix_dims == structure.prefix_dims

    def test_archive_without_prefix_dims_means_every_dimension(self, rng):
        cube = make_cube(SHAPE, rng)
        state = BlockedPrefixSumCube(cube, 2).state_dict()
        assert "prefix_dims" not in state
        restored = BlockedPrefixSumCube.from_state(state)
        assert restored.prefix_dims == (0, 1, 2)
        assert restored.passive_dims == ()


class TestPresetsAreTheBaseClass:
    """The second name of each family differs in its constructor only."""

    @staticmethod
    def _own_names(preset: type) -> set[str]:
        """A class's own attribute names, less an empty
        ``__annotations__`` (an ``isinstance`` check against a
        runtime-checkable protocol can add one to the class dict)."""
        names = set(vars(preset))
        if not vars(preset).get("__annotations__", True):
            names.discard("__annotations__")
        return names

    def test_partial_is_prefix_sum_without_the_source(self, rng):
        cube = make_cube(SHAPE, rng)
        preset = PartialPrefixSumCube(cube, [0, 2])
        base = PrefixSumCube(cube, keep_source=False, prefix_dims=(0, 2))
        assert isinstance(preset, PrefixSumCube)
        assert preset.source is None and base.source is None
        assert np.array_equal(preset.prefix, base.prefix)
        assert self._own_names(PartialPrefixSumCube) <= {
            "__module__", "__doc__", "__init__", "index_name",
        }

    def test_blocked_partial_is_blocked_with_dims_first(self, rng):
        cube = make_cube(SHAPE, rng)
        preset = BlockedPartialPrefixSumCube(cube, [1], 3)
        base = BlockedPrefixSumCube(cube, 3, prefix_dims=(1,))
        assert isinstance(preset, BlockedPrefixSumCube)
        assert np.array_equal(preset.blocked_prefix, base.blocked_prefix)
        assert self._own_names(BlockedPartialPrefixSumCube) <= {
            "__module__", "__doc__", "__init__", "index_name",
        }


class TestSubsetReachesTheSection3Surface:
    """``cell`` / ``reconstruct_cube`` / ``keep_source`` with a strict
    subset of the dimensions accumulated (§3.4 meets §9.1)."""

    @pytest.mark.parametrize("dims", [(0, 2), (1,), ()])
    def test_source_can_be_discarded_and_recovered(self, dims, rng):
        cube = make_cube(SHAPE, rng).astype(np.int64)
        structure = PrefixSumCube(cube, keep_source=False, prefix_dims=dims)
        assert structure.source is None
        assert np.array_equal(structure.reconstruct_cube(), cube)
        counter = AccessCounter()
        assert structure.cell((3, 2, 1), counter) == cube[3, 2, 1]
        # A singleton's slabs are single cells: 2^d' reads at most.
        assert counter.prefix_cells <= 1 << len(dims)

    def test_kept_source_follows_updates(self, rng):
        cube = make_cube(SHAPE, rng).astype(np.int64)
        structure = PrefixSumCube(cube, prefix_dims=(0, 2))
        structure.apply_updates(
            [PointUpdate((1, 2, 3), 9), PointUpdate((1, 2, 3), -4)]
        )
        mirror = cube.copy()
        mirror[1, 2, 3] += 5
        assert np.array_equal(structure.source, mirror)
        assert np.array_equal(structure.reconstruct_cube(), mirror)
        for _ in range(20):
            box = random_box(SHAPE, rng)
            assert structure.range_sum(box) == naive_range_sum(mirror, box)
        lows = np.zeros((1, 3), dtype=np.int64)
        highs = np.asarray([SHAPE]) - 1
        assert structure.sum_many(lows, highs)[0] == mirror.sum()


class TestSubsetReachesTheSection4Surface:
    def test_decompose_partitions_the_box_with_passive_extents(self, rng):
        cube = make_cube((12, 10, 4), rng)
        structure = BlockedPrefixSumCube(cube, 4, prefix_dims=(0, 1))
        box = Box((1, 2, 1), (10, 9, 2))
        pieces = structure.decompose(box)
        assert sum(region.volume for region, _, _ in pieces) == box.volume
        for region, superblock, _ in pieces:
            assert (region.lo[2], region.hi[2]) == (1, 2)
            assert (superblock.lo[2], superblock.hi[2]) == (1, 2)

    def test_explain_estimate_tracks_the_counter(self, rng):
        cube = make_cube((12, 10, 4), rng)
        structure = BlockedPrefixSumCube(cube, 4, prefix_dims=(0, 1))
        box = Box((1, 2, 0), (10, 9, 3))
        counter = AccessCounter()
        structure.range_sum(box, counter)
        estimate = int(
            structure.explain(box).rsplit("~", 1)[1].split()[0]
        )
        # The estimate charges every corner; origin corners are free.
        assert counter.total <= estimate <= 2 * counter.total
