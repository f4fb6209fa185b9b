"""Sparse range-sum engines (paper §10.1–10.2).

Two engines:

* :class:`SparseRangeSum1D` — the §10.1 special case: the 1-d prefix sums
  inherit the cube's sparsity; only the non-empty prefixes are stored,
  indexed by a B-tree, and ``Sum(l:h)`` is answered by two predecessor
  searches (``P(pred(h)) − P(pred(l−1))``).
* :class:`SparseRangeSumEngine` — the general §10.2 pipeline: discover
  rectangular dense regions, build a (blocked) prefix-sum array per
  region, put the region boundaries *and* the outlier points into an
  R*-tree, and answer a query as the sum of per-region prefix-sum lookups
  plus the in-range outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro._util import Box, check_query_box
from repro.core.batch_update import PointUpdate, stage_changes, write_changes
from repro.core.blocked import BlockedPrefixSumCube
from repro.core.prefix_sum import PrefixSumCube
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.sparse.btree import BPlusTree
from repro.sparse.dense_regions import DenseRegionConfig, find_dense_regions
from repro.sparse.rtree import Rect, RStarTree
from repro.sparse.sparse_cube import SparseCube

#: Dtypes the sparse engines accept: stored values are coerced to exact
#: Python numbers, so any integer dtype works; float64 covers floats.
SPARSE_FUZZ_DTYPES = (
    "int8",
    "int16",
    "int32",
    "int64",
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "float64",
)


def _sample_sparse_1d_params(rng, shape: tuple) -> dict:
    """Draw a blocking factor and a small B-tree order."""
    return {
        "block_size": int(rng.integers(1, 5)),
        "btree_order": int(rng.choice((4, 32))),
    }


@register_index(
    "sparse_sum_1d",
    kind="sum",
    persistable=False,
    sparse_input=True,
    fuzz_profile=FuzzProfile(
        dtypes=SPARSE_FUZZ_DTYPES,
        max_ndim=1,
        supports_updates=False,
        sample_params=_sample_sparse_1d_params,
    ),
)
class SparseRangeSum1D(RangeSumIndexMixin):
    """Sparse one-dimensional prefix sums under a B-tree (§10.1).

    With ``block_size = 1`` the index holds one cumulative sum per
    non-empty cell and a range-sum is two predecessor searches.  With
    ``block_size > 1`` (the paper's "a similar solution applies to the
    case where b > 1") cumulative sums are kept per non-empty *block*
    plus a second B-tree over the raw cells; each range endpoint then
    costs one predecessor search plus a scan of at most one partial
    block's cells.

    Args:
        cube: A one-dimensional sparse cube.
        block_size: Blocking factor ``b >= 1``.
        btree_order: Order of the B-tree indexes.
    """

    def __init__(
        self,
        cube: SparseCube,
        block_size: int = 1,
        btree_order: int = 32,
    ) -> None:
        if cube.ndim != 1:
            raise ValueError("SparseRangeSum1D requires a 1-d cube")
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        self.cube = cube
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = 1
        self.block_size = int(block_size)
        self.index = BPlusTree(order=btree_order)
        self.points: BPlusTree | None = None
        if self.block_size == 1:
            running = 0
            for (position,), value in sorted(cube.items()):
                running = running + value
                self.index.insert(position, running)
        else:
            self.points = BPlusTree(order=btree_order)
            running = 0
            current_block: int | None = None
            for (position,), value in sorted(cube.items()):
                block = position // self.block_size
                if current_block is not None and block != current_block:
                    self.index.insert(current_block, running)
                current_block = block
                running = running + value
                self.points.insert(position, value)
            if current_block is not None:
                self.index.insert(current_block, running)

    @property
    def stored_entries(self) -> int:
        """Entries held in the cumulative index (blocks or cells)."""
        return len(self.index)

    def memory_cells(self) -> int:
        """Index entries held (cumulative entries + raw-cell entries)."""
        points = 0 if self.points is None else len(self.points)
        return int(self.stored_entries + points)

    def index_params(self) -> dict:
        """Construction parameters (reported)."""
        return {"block_size": self.block_size}

    def _prefix_through(self, position: int, counter: AccessCounter):
        """``Sum(0:position)`` for the blocked variant."""
        assert self.points is not None
        block = position // self.block_size
        hit = self.index.find_le(block - 1, counter)
        total = 0 if hit is None else hit[1]
        block_start = block * self.block_size
        for _, value in self.points.items(
            lo=block_start, hi=position, counter=counter
        ):
            total = total + value
        return total

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """``Sum(l:h)`` via predecessor searches on the sparse ``P``.

        An empty range yields 0 (the SUM identity).
        """
        if check_query_box(box, self.shape):
            return 0
        (lo,), (hi,) = box.lo, box.hi
        if self.block_size > 1:
            total = self._prefix_through(hi, counter)
            if lo > 0:
                total = total - self._prefix_through(lo - 1, counter)
            return total
        upper = self.index.find_le(hi, counter)
        if upper is None:
            return 0
        lower = self.index.find_le(lo - 1, counter) if lo > 0 else None
        total = upper[1]
        if lower is not None:
            total = total - lower[1]
        return total


@dataclass
class _RegionIndex:
    """One dense region's prefix structure, anchored at the region's box."""

    box: Box
    structure: PrefixSumCube | BlockedPrefixSumCube


def _sample_sparse_region_params(rng, shape: tuple) -> dict:
    """Draw a region block size and a small R*-tree node capacity."""
    return {
        "block_size": int(rng.integers(1, 3)),
        "rtree_max_entries": int(rng.choice((4, 16))),
    }


@register_index(
    "sparse_region_sum",
    kind="sum",
    persistable=False,
    sparse_input=True,
    fuzz_profile=FuzzProfile(
        dtypes=SPARSE_FUZZ_DTYPES,
        max_ndim=3,
        sample_params=_sample_sparse_region_params,
    ),
)
class SparseRangeSumEngine(RangeSumIndexMixin):
    """Dense regions + per-region prefix sums + R*-tree outliers (§10.2).

    Args:
        cube: The sparse cube.
        block_size: Block size of the per-region prefix-sum arrays
            (``1`` = basic method).
        region_config: Dense-region splitter tuning.
        rtree_max_entries: R*-tree node capacity.
    """

    def __init__(
        self,
        cube: SparseCube,
        block_size: int = 1,
        region_config: DenseRegionConfig | None = None,
        rtree_max_entries: int = 16,
    ) -> None:
        self.cube = cube
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        self.block_size = int(block_size)
        #: The dense dtype of every region, and the one an outlier's
        #: update is checked against.
        self.dtype = cube.value_dtype()
        result = find_dense_regions(
            list(cube.points()), cube.shape, region_config
        )
        self.regions: list[_RegionIndex] = []
        self.rtree = RStarTree(max_entries=rtree_max_entries)
        for number, box in enumerate(result.regions):
            dense = cube.densify(box, self.dtype)
            structure: PrefixSumCube | BlockedPrefixSumCube
            if block_size == 1:
                structure = PrefixSumCube(dense)
            else:
                structure = BlockedPrefixSumCube(dense, block_size)
            self.regions.append(_RegionIndex(box, structure))
            self.rtree.insert(
                Rect.from_box(box), payload=("region", number)
            )
        for point in result.outliers:
            self.rtree.insert(
                Rect.from_cell(point), payload=("point", point)
            )

    @property
    def dense_region_count(self) -> int:
        """Number of dense regions carrying prefix-sum arrays."""
        return len(self.regions)

    @property
    def outlier_count(self) -> int:
        """Number of points indexed individually in the R*-tree."""
        return self.cube.nnz - sum(
            self._region_point_count(r) for r in self.regions
        )

    def _region_point_count(self, region: _RegionIndex) -> int:
        return sum(
            1 for p in self.cube.points() if region.box.contains_point(p)
        )

    def storage_cells(self) -> int:
        """Auxiliary cells held across all per-region prefix arrays."""
        return sum(r.structure.storage_cells for r in self.regions)

    def memory_cells(self) -> int:
        """Protocol spelling of :meth:`storage_cells`."""
        return int(self.storage_cells())

    def index_params(self) -> dict:
        """Construction parameters (reported)."""
        return {"block_size": self.block_size}

    def apply_updates(self, updates: Sequence[PointUpdate]) -> int:
        """Protocol batch path: stage the whole batch, then write it.

        Returns:
            The number of updates absorbed.
        """
        self._absorb(updates)
        return len(updates)

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """``Sum(box)``: per-region prefix sums plus in-range outliers.

        An empty box yields 0 (the SUM identity).
        """
        if check_query_box(box, self.shape):
            return 0
        total = 0
        query_rect = Rect.from_box(box)
        for rect, payload in self.rtree.search(query_rect, counter):
            if payload[0] == "region":
                region = self.regions[payload[1]]
                overlap = region.box.intersect(box)
                local = Box(
                    tuple(l - rl for l, rl in zip(overlap.lo, region.box.lo)),
                    tuple(h - rl for h, rl in zip(overlap.hi, region.box.lo)),
                )
                total = total + region.structure.range_sum(local, counter)
            else:
                _, point = payload
                if box.contains_point(point):
                    total = total + self.cube.cells[point]
        return total

    def apply_update(self, index: Sequence[int], delta: object) -> str:
        """Incrementally absorb one point update (§5 meets §10.2).

        Routing: a cell inside a dense region updates that region's
        prefix structure (the §5 batch machinery, batch of one); a known
        outlier adjusts its ``cube.cells`` value; a brand-new cell becomes
        a new outlier in the R*-tree.  Dense regions are **not**
        re-discovered — like any physical design, the partition degrades
        gracefully under drift and is rebuilt by re-running the
        constructor.

        Returns:
            Which path absorbed the update: ``"region"``, ``"outlier"``
            or ``"new-outlier"``.
        """
        return self._absorb([PointUpdate(index, delta)])[0]

    def _absorb(self, updates: Sequence[PointUpdate]) -> list[str]:
        """Stage every region's share of the batch against its source
        and the outliers' share against their cells in the regions'
        dtype (:func:`~repro.core.batch_update.stage_changes`), so an
        index outside the cube (``ValueError``) or an unfit delta
        (:class:`~repro.core.batch_update.UnfitUpdate`) changes nothing;
        then write ``cube.cells`` and each touched region once.  Returns
        each update's route (see :meth:`apply_update`)."""
        located: list[tuple[tuple[int, ...], int | None, object]] = []
        shares: dict[int, list[PointUpdate]] = {}
        for update in updates:
            point = tuple(int(i) for i in update.index)
            if len(point) != self.cube.ndim or not all(
                0 <= i < n for i, n in zip(point, self.cube.shape)
            ):
                raise ValueError(
                    f"cell {update.index} outside the cube shape "
                    f"{self.cube.shape}"
                )
            owner = self._region_of(point)
            if owner is not None:
                lo = self.regions[owner].box.lo
                local = tuple(i - l for i, l in zip(point, lo))
                shares.setdefault(owner, []).append(
                    PointUpdate(local, update.delta)
                )
            located.append((point, owner, update.delta))
        staged = {
            owner: stage_changes(self.regions[owner].structure.source, share)
            for owner, share in shares.items()
        }
        cells = self.cube.cells
        slots: dict[tuple[int, ...], int] = {}
        outliers = [
            PointUpdate((slots.setdefault(point, len(slots)),), delta)
            for point, owner, delta in located
            if owner is None
        ]
        if outliers:
            stage_changes(
                np.array([cells.get(p, 0) for p in slots], dtype=self.dtype),
                outliers,
            )
        routes: list[str] = []
        for point, owner, delta in located:
            if owner is not None:
                routes.append("region")
            elif point in cells:
                routes.append("outlier")
            else:
                routes.append("new-outlier")
                self.rtree.insert(
                    Rect.from_cell(point), payload=("point", point)
                )
            if isinstance(delta, np.generic):
                delta = delta.item()
            cells[point] = cells.get(point, 0) + delta
        for owner, changes in staged.items():
            structure = self.regions[owner].structure
            write_changes(structure.source, changes)
            structure.absorb(changes)
        return routes

    def _region_of(self, point: tuple[int, ...]) -> int | None:
        """The number of the dense region holding ``point``, if any."""
        for number, region in enumerate(self.regions):
            if region.box.contains_point(point):
                return number
        return None
