"""The blocked prefix-sum range-sum method (paper §4).

Instead of one prefix sum per cell, keep prefix sums only at block
boundaries: ``P[i1..id]`` is stored only when every index satisfies
``(i_j + 1) mod b = 0`` or ``i_j = n_j − 1``.  Packed densely, the
auxiliary array has ``≈ N / b^d`` cells, but the raw cube ``A`` must be
retained.

A query ``Sum(l1:h1, ..., ld:hd)`` is answered by decomposing its region
into ``3^d`` disjoint sub-regions (Figure 5):

* per dimension, the three adjoining ranges
  ``l_j : l'_j − 1``, ``l'_j : h'_j − 1``, ``h'_j : h_j`` where
  ``l'_j = b⌈l_j/b⌉`` and ``h'_j = b⌊h_j/b⌋`` (case 1, ``l'_j < h'_j``),
  or the single range ``l_j : h_j`` when the query does not span a full
  block in that dimension (case 2);
* the all-middle combination is the block-aligned **internal region**,
  answered from ``P`` alone in ``≤ 2^d`` reads;
* every other combination is a **boundary region**, answered either by
  scanning its own cells of ``A``, or by the *superblock* trick — the
  block-aligned superblock's sum from ``P`` minus a scan of the
  complement cells — whichever touches fewer elements.  The choice is
  made per boundary region independently (Figure 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import PointUpdate

import numpy as np

from repro._util import Box, box_difference, check_query_box, full_box
from repro.core.operators import SUM, InvertibleOperator
from repro.core.prefix_sum import (
    DENSE_FUZZ_DTYPES,
    DENSE_FUZZ_OPERATORS,
    compute_prefix_array,
)
from repro.index.backend import ArrayBackend, resolve_backend
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter


def block_contract(
    cube: np.ndarray, block_size: int, operator: InvertibleOperator = SUM
) -> np.ndarray:
    """Aggregate each ``b × ... × b`` block of the cube to one cell (§4.3).

    This is the first phase of the two-phase blocked construction: the cube
    is contracted by a factor of ``b`` in every dimension (the final block
    per dimension may be partial).
    """
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    contracted = cube
    # A block aggregate can already outgrow a small source dtype, so the
    # contraction runs in the operator's accumulation dtype (same policy
    # as the prefix sweeps themselves).
    target = operator.accumulation_dtype(cube.dtype)
    for axis in range(cube.ndim):
        edges = np.arange(0, contracted.shape[axis], block_size)
        if isinstance(operator.apply, np.ufunc):
            contracted = operator.apply.reduceat(
                contracted, edges, axis=axis, dtype=target
            )
        else:  # pragma: no cover - all shipped operators are ufuncs
            raise TypeError("block contraction requires a ufunc operator")
    return contracted


@dataclass(frozen=True)
class _DimensionPlan:
    """Per-dimension decomposition of one query range (paper Figure 4).

    Each entry of ``pieces`` is ``(lo, hi, super_lo, super_hi, internal)``:
    the sub-range, its block-aligned superblock extent, and whether the
    sub-range belongs to the internal (block-aligned) band.
    """

    pieces: tuple[tuple[int, int, int, int, bool], ...]


#: Batches with fewer rows than this loop the scalar ``range_sum``;
#: larger ones take the vectorized pass.  Pinned from the K x box-size
#: sweep tabulated in docs/KERNELS.md: the pass has a fixed cost over
#: the ``3^d`` slots that the loop's per-row cost overtakes from here up.
VECTORIZED_MIN_ROWS = 16


def blocked_sum_dispatch(
    structure: Any,
    lo: np.ndarray,
    hi: np.ndarray,
    counter: AccessCounter,
) -> np.ndarray:
    """Batch range-sums for both blocked structures, by row count alone.

    The one place that chooses between a blocked structure's two query
    paths: the scalar §4.2 ``range_sum`` looped by the protocol mixin,
    and the one-pass vectorized machinery of
    :mod:`repro.kernels.boundary`.  Both give the same values and charge
    ``counter`` identically; only their cost differs with ``K``.

    Args:
        structure: A blocked (partial) prefix-sum cube.
        lo, hi: ``(K, d)`` bounds already through
            ``normalize_query_arrays(..., allow_empty=True)``.
        counter: Standard access counter.
    """
    from repro.kernels import blocked_sum_many_vectorized, resolve_kernel
    from repro.query.batch import solve_with_identity

    operator = structure.operator
    if len(lo) < VECTORIZED_MIN_ROWS:
        target = operator.accumulation_dtype(structure.blocked_prefix.dtype)

        def solve(l: np.ndarray, h: np.ndarray) -> np.ndarray:
            values = RangeSumIndexMixin.sum_many(structure, l, h, counter)
            # Zero rows leave numpy nothing to infer the dtype from.
            return values.astype(target, copy=False)

    else:
        kern = resolve_kernel(override=structure.kernel)

        def solve(l: np.ndarray, h: np.ndarray) -> np.ndarray:
            return blocked_sum_many_vectorized(
                structure, l, h, kern, counter
            )

    return solve_with_identity(lo, hi, operator.identity, solve)


def _sample_blocked_params(rng: np.random.Generator, shape: tuple[int, ...]) -> dict[str, Any]:
    """Draw a fuzzable blocking factor for a cube of ``shape``."""
    return {"block_size": int(rng.integers(1, 6))}


@register_index(
    "blocked_prefix_sum",
    kind="sum",
    fuzz_profile=FuzzProfile(
        dtypes=DENSE_FUZZ_DTYPES,
        operators=DENSE_FUZZ_OPERATORS,
        sample_params=_sample_blocked_params,
    ),
)
class BlockedPrefixSumCube(RangeSumIndexMixin):
    """Range-sum index trading time for space via block-level prefix sums.

    Args:
        cube: The raw data cube ``A`` (retained — the blocked method needs
            it to resolve boundary regions).
        block_size: The blocking factor ``b >= 1``.  ``b = 1`` degenerates
            to the basic method of §3 (and is handled by the same code).
        operator: Invertible aggregation operator; default SUM.
        backend: Array backend for the retained cube and the blocked
            prefix array; pass a :class:`~repro.index.MemmapBackend` to
            build out-of-core.
    """

    def __init__(
        self,
        cube: np.ndarray,
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
        self.source = self.backend.materialize("source", cube)
        contracted = block_contract(self.source, self.block_size, operator)
        self.blocked_prefix = compute_prefix_array(
            contracted, operator, backend=self.backend, name="blocked_prefix"
        )
        self.block_shape = self.blocked_prefix.shape

    @property
    def size(self) -> int:
        """Total number of cells ``N`` of the raw cube."""
        return int(np.prod(self.shape))

    @property
    def storage_cells(self) -> int:
        """Cells of auxiliary storage (the packed blocked array, ~N/b^d)."""
        return int(np.prod(self.block_shape))

    def memory_cells(self) -> int:
        """Protocol spelling of :attr:`storage_cells`."""
        return int(self.storage_cells)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters (reported and persisted)."""
        return {
            "block_size": self.block_size,
            "operator": self.operator.name,
        }

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalars for generic persistence."""
        return {
            "operator": self.operator.name,
            "block_size": self.block_size,
            "source": self.source,
            "blocked_prefix": self.blocked_prefix,
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], backend: ArrayBackend | None = None
    ) -> BlockedPrefixSumCube:
        """Rebuild from :meth:`state_dict` without recontracting."""
        from repro.core.operators import get_operator

        backend = resolve_backend(backend)
        structure = cls.__new__(cls)
        structure.operator = get_operator(str(state["operator"]))
        structure.block_size = int(state["block_size"])
        structure.backend = backend
        structure.source = backend.materialize("source", state["source"])
        structure.blocked_prefix = backend.materialize(
            "blocked_prefix", state["blocked_prefix"]
        )
        structure.shape = tuple(int(n) for n in structure.source.shape)
        structure.ndim = structure.source.ndim
        structure.block_shape = structure.blocked_prefix.shape
        return structure

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` with the 3^d decomposition of §4.2.

        An empty ``box`` yields the operator identity.
        """
        if self._check_box(box):
            return self.operator.identity
        plans = [
            self._plan_dimension(lo, hi, n)
            for lo, hi, n in zip(box.lo, box.hi, self.shape)
        ]
        op = self.operator
        result = op.identity
        for combo in product(*(plan.pieces for plan in plans)):
            region = Box(
                tuple(piece[0] for piece in combo),
                tuple(piece[1] for piece in combo),
            )
            if region.is_empty:
                continue
            if all(piece[4] for piece in combo):
                value = self._aligned_region_sum(region, counter)
            else:
                superblock = Box(
                    tuple(piece[2] for piece in combo),
                    tuple(piece[3] for piece in combo),
                )
                value = self._boundary_region_sum(region, superblock, counter)
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

    def total(self, counter: AccessCounter = NULL_COUNTER) -> object:
        """Aggregate of the entire cube."""
        return self.range_sum(full_box(self.shape), counter)

    def decompose(self, box: Box) -> list[tuple[Box, Box, bool]]:
        """Expose the 3^d decomposition for inspection and benchmarks.

        Returns:
            ``(region, superblock, is_internal)`` triples covering ``box``
            disjointly, in the Cartesian-product order of Figure 5 (empty
            for an empty ``box``).
        """
        if self._check_box(box):
            return []
        plans = [
            self._plan_dimension(lo, hi, n)
            for lo, hi, n in zip(box.lo, box.hi, self.shape)
        ]
        out: list[tuple[Box, Box, bool]] = []
        for combo in product(*(plan.pieces for plan in plans)):
            region = Box(
                tuple(piece[0] for piece in combo),
                tuple(piece[1] for piece in combo),
            )
            if region.is_empty:
                continue
            superblock = Box(
                tuple(piece[2] for piece in combo),
                tuple(piece[3] for piece in combo),
            )
            out.append((region, superblock, all(p[4] for p in combo)))
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_dimension(self, lo: int, hi: int, size: int) -> _DimensionPlan:
        """Split one dimension's range per Figure 4 / §4.2.

        Case 1 (``l' < h'``): three adjoining sub-ranges, the middle one
        aligned with the block structure.  Case 2: the range does not span
        a full block, so it stays whole with superblock ``l'' : h'' − 1``.
        """
        b = self.block_size
        low_aligned = b * (lo // b)  # l''
        low_up = b * math.ceil(lo / b)  # l'
        high_down = b * (hi // b)  # h'
        high_up = min(b * math.ceil(hi / b), size)  # h''
        if high_up == high_down:
            # hi itself is a multiple of b; the enclosing block ends one
            # block later (clamped to the cube edge).
            high_up = min(high_down + b, size)
        if low_up < high_down:
            pieces = (
                (lo, low_up - 1, low_aligned, low_up - 1, False),
                (low_up, high_down - 1, low_up, high_down - 1, True),
                (high_down, hi, high_down, high_up - 1, False),
            )
        else:
            pieces = ((lo, hi, low_aligned, high_up - 1, False),)
        return _DimensionPlan(pieces)

    def _aligned_region_sum(
        self, region: Box, counter: AccessCounter
    ) -> object:
        """Sum of a block-aligned region from the blocked ``P`` alone.

        ``region`` must start at a multiple of ``b`` and end at
        ``(multiple of b) − 1`` or the cube edge in every dimension; it
        then maps exactly onto a range of contracted blocks and Theorem 1
        applies to the contracted prefix array.
        """
        b = self.block_size
        block_lo = tuple(l // b for l in region.lo)
        block_hi = tuple(h // b for h in region.hi)
        op = self.operator
        positive = op.identity
        negative = op.identity
        for corner_choice in product((False, True), repeat=self.ndim):
            index = tuple(
                block_hi[j] if take_hi else block_lo[j] - 1
                for j, take_hi in enumerate(corner_choice)
            )
            if any(x < 0 for x in index):
                continue
            counter.count_prefix()
            value = self.blocked_prefix[index]
            if corner_choice.count(False) % 2 == 0:
                positive = op.apply(positive, value)
            else:
                negative = op.apply(negative, value)
        return op.invert(positive, negative)

    def _scan_box(self, box: Box, counter: AccessCounter) -> object:
        """Aggregate raw cube cells of ``box``, charging one read each."""
        counter.count_cube(box.volume)
        return self.operator.reduce_box(self.source[box.slices()])

    def _boundary_region_sum(
        self, region: Box, superblock: Box, counter: AccessCounter
    ) -> object:
        """Resolve one boundary region by the cheaper of the two methods.

        Method 1 scans the region's own ``volume`` cells of ``A``.
        Method 2 reads the superblock's sum from ``P`` (≤ 2^d reads,
        2^d − 1 steps) and scans the complement's cells.  Per §4.2 the
        algorithm picks method 1 iff
        ``volume(region) <= volume(complement) + 2^d − 1``.
        """
        direct_cost = region.volume
        complement_volume = superblock.volume - region.volume
        complement_cost = complement_volume + (1 << self.ndim) - 1
        if direct_cost <= complement_cost:
            return self._scan_box(region, counter)
        op = self.operator
        total = self._aligned_region_sum(superblock, counter)
        for piece in box_difference(superblock, region):
            total = op.invert(total, self._scan_box(piece, counter))
        return total

    def explain(self, box: Box) -> str:
        """A human-readable plan for ``Sum(box)`` (the 3^d decomposition).

        Lists every sub-region with the method the algorithm will choose
        and its estimated element accesses — useful when tuning block
        sizes interactively.
        """
        lines = [
            f"Sum({', '.join(f'{l}:{h}' for l, h in zip(box.lo, box.hi))})"
            f"  [volume {box.volume}, b = {self.block_size}]"
        ]
        total = 0
        for region, superblock, internal in self.decompose(box):
            if internal:
                cost = 1 << self.ndim
                lines.append(
                    f"  internal  {region}  -> prefix array "
                    f"(~{cost} reads)"
                )
            else:
                direct = region.volume
                complement = (
                    superblock.volume - region.volume
                    + (1 << self.ndim)
                    - 1
                )
                if direct <= complement:
                    cost = direct
                    lines.append(
                        f"  boundary  {region}  -> scan A "
                        f"({direct} cells)"
                    )
                else:
                    cost = complement + 1
                    lines.append(
                        f"  boundary  {region}  -> superblock "
                        f"{superblock} − complement "
                        f"({superblock.volume - region.volume} cells "
                        f"+ ~{1 << self.ndim} reads)"
                    )
            total += cost
        lines.append(
            f"  estimated total: ~{total} accesses "
            f"(naive scan: {box.volume})"
        )
        return "\n".join(lines)

    def apply_updates(self, updates: Sequence[PointUpdate]) -> int:
        """Apply a batch of point updates with the two-phase §5.2 scheme.

        Phase 1 contracts the updates block-wise; phase 2 runs the basic
        batch-update recursion on the blocked prefix array.  The raw cube
        is updated point-wise (it must stay exact for boundary scans).

        Returns:
            The number of delta-uniform regions written into the blocked
            prefix array.
        """
        from repro.core.batch_update import (
            apply_batch_to_prefix,
            contract_updates_to_blocks,
        )
        from repro.kernels import resolve_kernel
        from repro.kernels.segments import flatten_updates

        if len(updates):
            flat, deltas = flatten_updates(updates, self.shape)
            resolve_kernel(self.kernel).scatter(
                self.source.reshape(-1), flat, deltas, self.operator
            )
        contracted = contract_updates_to_blocks(
            updates, self.block_size, self.operator
        )
        regions = apply_batch_to_prefix(
            self.blocked_prefix, contracted, self.operator
        )
        self.backend.flush()
        return regions

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)
