"""Blocked prefix sums over a dimension subset (§9's combined design).

Section 9's example composes both space/time knobs at once: *"we may
first decide that all the queries on dimension d3 do not involve ranges
and hence even for cuboids that include dimension d3, the prefix sum
would only be computed on other dimensions.  Next, we may decide to
compute a prefix sum on ⟨d1, d2, d3⟩ with a block size of 10..."* — a
prefix structure that is **partial** (accumulated along a chosen subset
``X'``) *and* **blocked** (block size ``b`` along those dimensions).

:class:`BlockedPartialPrefixSumCube` implements that point in the design
space.  Along the chosen dimensions the §4 machinery applies unchanged —
block contraction, the ``3^{d'}`` decomposition, the superblock /
complement choice per boundary region; the passive dimensions stay raw
everywhere, so every access becomes a *slab* over the query's passive
extent and costs its passive volume.

Degenerate corners: all dimensions chosen reproduces
:class:`~repro.core.blocked.BlockedPrefixSumCube`; ``b = 1`` approaches
:class:`~repro.core.partial_prefix.PartialPrefixSumCube`; both at once is
the basic §3 structure.
"""

from __future__ import annotations

import math
from itertools import product
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import Box, box_difference, check_query_box
from repro.core.blocked import blocked_sum_dispatch
from repro.core.operators import SUM, InvertibleOperator
from repro.core.prefix_sum import (
    DENSE_FUZZ_DTYPES,
    DENSE_FUZZ_OPERATORS,
    accumulate_axis_inplace,
    accumulated_dtype,
)
from repro.index.backend import ArrayBackend, resolve_backend
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter

if TYPE_CHECKING:
    from repro.core.batch_update import PointUpdate


def _sample_blocked_partial_params(
    rng: np.random.Generator, shape: tuple[int, ...]
) -> dict[str, Any]:
    """Draw a prefix-dimension subset plus a blocking factor."""
    ndim = len(shape)
    mask = rng.integers(0, 2, size=ndim)
    return {
        "prefix_dims": tuple(int(j) for j in np.nonzero(mask)[0]),
        "block_size": int(rng.integers(1, 6)),
    }


@register_index(
    "blocked_partial_prefix_sum",
    kind="sum",
    fuzz_profile=FuzzProfile(
        dtypes=DENSE_FUZZ_DTYPES,
        operators=DENSE_FUZZ_OPERATORS,
        sample_params=_sample_blocked_partial_params,
    ),
)
class BlockedPartialPrefixSumCube(RangeSumIndexMixin):
    """Prefix sums blocked with factor ``b`` along a subset ``X'``.

    ``sum_many`` shares :func:`repro.core.blocked.blocked_sum_dispatch`
    with the fully blocked cube: small batches loop :meth:`range_sum`,
    larger ones reduce every boundary region of the batch in one
    ``np.add.reduceat``-style pass.

    Args:
        cube: The raw data cube ``A`` (retained for boundary scans).
        prefix_dims: The chosen dimensions ``X'``.
        block_size: Blocking factor ``b >= 1`` along the chosen dims.
        operator: Invertible aggregation operator; default SUM.
        backend: Array backend for the retained cube and the blocked
            partial prefix array; pass a
            :class:`~repro.index.MemmapBackend` to build out-of-core.
    """

    def __init__(
        self,
        cube: np.ndarray,
        prefix_dims: Sequence[int],
        block_size: int,
        operator: InvertibleOperator = SUM,
        backend: ArrayBackend | None = None,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        cube = np.asarray(cube)
        self.operator = operator
        self.block_size = int(block_size)
        self.backend = resolve_backend(backend)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        chosen = sorted(set(int(j) for j in prefix_dims))
        if chosen and not 0 <= chosen[0] <= chosen[-1] < cube.ndim:
            raise ValueError(
                f"prefix dims {prefix_dims} out of range for a "
                f"{cube.ndim}-d cube"
            )
        self.prefix_dims = tuple(chosen)
        self.passive_dims = tuple(
            j for j in range(cube.ndim) if j not in set(chosen)
        )
        self.source = self.backend.materialize("source", cube)
        contracted = self.source
        # Contract in the operator's accumulation dtype: a single block
        # aggregate can already overflow a small source dtype.
        target = operator.accumulation_dtype(cube.dtype)
        for axis in self.prefix_dims:
            edges = np.arange(0, contracted.shape[axis], self.block_size)
            contracted = operator.apply.reduceat(
                contracted, edges, axis=axis, dtype=target
            )
        dtype = (
            accumulated_dtype(operator, contracted.dtype)
            if self.prefix_dims
            else contracted.dtype
        )
        prefix = self.backend.empty(
            "blocked_partial_prefix", contracted.shape, dtype
        )
        prefix[...] = contracted
        for axis in self.prefix_dims:
            accumulate_axis_inplace(prefix, operator, axis)
        self.blocked_prefix = prefix

    @property
    def storage_cells(self) -> int:
        """Cells of the auxiliary array: ``N / b^{d'}``."""
        return int(np.prod(self.blocked_prefix.shape))

    def memory_cells(self) -> int:
        """Protocol spelling of :attr:`storage_cells`."""
        return int(self.storage_cells)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters (reported and persisted)."""
        return {
            "prefix_dims": self.prefix_dims,
            "block_size": self.block_size,
            "operator": self.operator.name,
        }

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalars for generic persistence."""
        return {
            "operator": self.operator.name,
            "block_size": self.block_size,
            "prefix_dims": np.asarray(self.prefix_dims, dtype=np.int64),
            "source": self.source,
            "blocked_prefix": self.blocked_prefix,
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], backend: ArrayBackend | None = None
    ) -> BlockedPartialPrefixSumCube:
        """Rebuild from :meth:`state_dict` without recontracting."""
        from repro.core.operators import get_operator

        backend = resolve_backend(backend)
        structure = cls.__new__(cls)
        structure.operator = get_operator(str(state["operator"]))
        structure.block_size = int(state["block_size"])
        structure.backend = backend
        structure.source = backend.materialize("source", state["source"])
        structure.blocked_prefix = backend.materialize(
            "blocked_partial_prefix", state["blocked_prefix"]
        )
        structure.shape = tuple(int(n) for n in structure.source.shape)
        structure.ndim = structure.source.ndim
        structure.prefix_dims = tuple(
            int(j) for j in np.asarray(state["prefix_dims"]).ravel()
        )
        structure.passive_dims = tuple(
            j
            for j in range(structure.ndim)
            if j not in set(structure.prefix_dims)
        )
        return structure

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` via the §4 decomposition on ``X'``.

        An empty ``box`` yields the operator identity.
        """
        if self._check_box(box):
            return self.operator.identity
        return self.range_sum_unchecked(box, counter)

    def range_sum_unchecked(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """:meth:`range_sum` minus validation (batch default hook)."""
        op = self.operator
        passive_slices = tuple(
            slice(box.lo[j], box.hi[j] + 1) for j in self.passive_dims
        )
        passive_cells = 1
        for j in self.passive_dims:
            passive_cells *= box.hi[j] - box.lo[j] + 1
        if not self.prefix_dims:
            counter.count_cube(passive_cells)
            return op.reduce_box(self.source[passive_slices])
        plans = [
            self._plan_dimension(box.lo[j], box.hi[j], self.shape[j])
            for j in self.prefix_dims
        ]
        result = op.identity
        for combo in product(*plans):
            region = Box(
                tuple(piece[0] for piece in combo),
                tuple(piece[1] for piece in combo),
            )
            if region.is_empty:
                continue
            if all(piece[4] for piece in combo):
                value = self._aligned_sum(
                    region, passive_slices, passive_cells, counter
                )
            else:
                superblock = Box(
                    tuple(piece[2] for piece in combo),
                    tuple(piece[3] for piece in combo),
                )
                value = self._boundary_sum(
                    region,
                    superblock,
                    passive_slices,
                    passive_cells,
                    counter,
                )
            result = op.apply(result, value)
        return result

    def sum_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Answer ``K`` range-sums (see :func:`blocked_sum_dispatch`).

        Args:
            lows: ``(K, d)`` inclusive lower bounds (array-like, ints).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Standard access counter (same charges as scalar).

        Returns:
            A ``(K,)`` array of aggregates; empty rows (``hi < lo``)
            yield the operator identity.
        """
        from repro.query.batch import normalize_query_arrays

        lo, hi = normalize_query_arrays(
            lows, highs, self.shape, allow_empty=True
        )
        return blocked_sum_dispatch(self, lo, hi, counter)

    def apply_updates(self, updates: Sequence[PointUpdate]) -> int:
        """Batch-update the structure (§5.2 along ``X'``, raw elsewhere).

        Updates are applied point-wise to the raw cube, contracted to
        block coordinates along the chosen dimensions, grouped by their
        passive coordinates, and each group runs the §5 partition in the
        chosen-block subspace.

        Returns:
            The number of delta-uniform regions written into ``P``.
        """
        from repro.core.batch_update import PointUpdate, partition_updates

        op = self.operator
        groups: dict[
            tuple[int, ...], dict[tuple[int, ...], object]
        ] = {}
        for update in updates:
            if len(update.index) != self.ndim:
                raise ValueError(
                    f"update index {update.index} has wrong dimensionality"
                )
            self.source[update.index] = op.apply(
                self.source[update.index], update.delta
            )
            passive = tuple(
                update.index[j] for j in self.passive_dims
            )
            block = tuple(
                update.index[j] // self.block_size
                for j in self.prefix_dims
            )
            bucket = groups.setdefault(passive, {})
            if block in bucket:
                bucket[block] = op.apply(bucket[block], update.delta)
            else:
                bucket[block] = update.delta
        if not self.prefix_dims:
            # No accumulation anywhere: P mirrors A cell for cell.
            for passive, bucket in groups.items():
                for _, delta in bucket.items():
                    index = self._index_for((), passive)
                    self.blocked_prefix[index] = op.apply(
                        self.blocked_prefix[index], delta
                    )
            self.backend.flush()
            return sum(len(bucket) for bucket in groups.values())
        block_shape = tuple(
            self.blocked_prefix.shape[j] for j in self.prefix_dims
        )
        total_regions = 0
        for passive, bucket in groups.items():
            regions = partition_updates(
                [
                    PointUpdate(block, delta)
                    for block, delta in bucket.items()
                ],
                block_shape,
                op,
            )
            total_regions += len(regions)
            for box, delta in regions:
                chosen_slices = tuple(
                    slice(l, h + 1) for l, h in zip(box.lo, box.hi)
                )
                index = self._index_for(chosen_slices, passive)
                view = self.blocked_prefix[index]
                view[...] = op.apply(view, delta)
        self.backend.flush()
        return total_regions

    # ------------------------------------------------------------------
    # Internals (chosen-dimension geometry mirrors repro.core.blocked)
    # ------------------------------------------------------------------

    def _plan_dimension(
        self, lo: int, hi: int, size: int
    ) -> tuple[tuple[int, int, int, int, bool], ...]:
        b = self.block_size
        low_aligned = b * (lo // b)
        low_up = b * math.ceil(lo / b)
        high_down = b * (hi // b)
        high_up = min(b * math.ceil(hi / b), size)
        if high_up == high_down:
            high_up = min(high_down + b, size)
        if low_up < high_down:
            return (
                (lo, low_up - 1, low_aligned, low_up - 1, False),
                (low_up, high_down - 1, low_up, high_down - 1, True),
                (high_down, hi, high_down, high_up - 1, False),
            )
        return ((lo, hi, low_aligned, high_up - 1, False),)

    def _index_for(
        self,
        chosen_values: Sequence[object],
        passive_slices: Sequence[slice],
    ) -> tuple[object, ...]:
        """Assemble a full-array index from chosen coords + passive slabs."""
        index: list[object] = [None] * self.ndim
        for j, value in zip(self.prefix_dims, chosen_values):
            index[j] = value
        for j, slab in zip(self.passive_dims, passive_slices):
            index[j] = slab
        return tuple(index)

    def _aligned_sum(
        self,
        region: Box,
        passive_slices: tuple[slice, ...],
        passive_cells: int,
        counter: AccessCounter,
    ) -> object:
        """Block-aligned region from ``P``: inclusion–exclusion slabs."""
        b = self.block_size
        block_lo = tuple(l // b for l in region.lo)
        block_hi = tuple(h // b for h in region.hi)
        op = self.operator
        positive = op.identity
        negative = op.identity
        for corner_choice in product(
            (False, True), repeat=len(self.prefix_dims)
        ):
            chosen = tuple(
                block_hi[k] if take_hi else block_lo[k] - 1
                for k, take_hi in enumerate(corner_choice)
            )
            if any(x < 0 for x in chosen):
                continue
            counter.count_prefix(passive_cells)
            slab = self.blocked_prefix[
                self._index_for(chosen, passive_slices)
            ]
            value = op.reduce_box(np.asarray(slab))
            if corner_choice.count(False) % 2 == 0:
                positive = op.apply(positive, value)
            else:
                negative = op.apply(negative, value)
        return op.invert(positive, negative)

    def _scan(
        self,
        region: Box,
        passive_slices: tuple[slice, ...],
        passive_cells: int,
        counter: AccessCounter,
    ) -> object:
        """Raw-cube slab scan of a chosen-dimension box."""
        counter.count_cube(region.volume * passive_cells)
        chosen_slices = tuple(
            slice(l, h + 1) for l, h in zip(region.lo, region.hi)
        )
        return self.operator.reduce_box(
            self.source[self._index_for(chosen_slices, passive_slices)]
        )

    def _boundary_sum(
        self,
        region: Box,
        superblock: Box,
        passive_slices: tuple[slice, ...],
        passive_cells: int,
        counter: AccessCounter,
    ) -> object:
        """The §4.2 method choice, per boundary region."""
        op = self.operator
        direct_cost = region.volume
        complement_cost = (
            superblock.volume - region.volume
            + (1 << len(self.prefix_dims))
            - 1
        )
        if direct_cost <= complement_cost:
            return self._scan(region, passive_slices, passive_cells, counter)
        total = self._aligned_sum(
            superblock, passive_slices, passive_cells, counter
        )
        for piece in box_difference(superblock, region):
            total = op.invert(
                total,
                self._scan(piece, passive_slices, passive_cells, counter),
            )
        return total

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)
