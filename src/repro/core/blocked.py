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

Section 9's example composes this with §9.1's dimension subsets: *"we may
first decide that all the queries on dimension d3 do not involve ranges
and hence even for cuboids that include dimension d3, the prefix sum
would only be computed on other dimensions.  Next, we may decide to
compute a prefix sum on ⟨d1, d2, d3⟩ with a block size of 10..."*.  So
the machinery runs along a chosen subset ``X'`` (``prefix_dims``; every
dimension by default, which is §4 as written): block contraction, the
``3^{d'}`` decomposition and the superblock / complement choice apply to
the chosen dimensions, while the passive ones stay raw everywhere — every
access becomes a *slab* over the query's passive extent and costs its
passive volume.
"""

from __future__ import annotations

import math
from itertools import product
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import CellChanges

import numpy as np

from repro._util import Box, box_difference, check_query_box, full_box
from repro.core.operators import SUM, InvertibleOperator
from repro.core.prefix_sum import (
    DENSE_FUZZ_DTYPES,
    DENSE_FUZZ_OPERATORS,
    compute_prefix_array,
    slab_cells,
    split_prefix_dims,
    theorem1_sum,
)
from repro.index.backend import ArrayBackend, resolve_backend
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels import blocked_sum_many_vectorized


def block_contract(
    cube: np.ndarray,
    block_size: int,
    operator: InvertibleOperator = SUM,
    axes: Sequence[int] | None = None,
) -> np.ndarray:
    """Aggregate each ``b × ... × b`` block of the cube to one cell (§4.3).

    This is the first phase of the two-phase blocked construction: the cube
    is contracted by a factor of ``b`` along ``axes`` (every dimension by
    default; the final block per dimension may be partial).
    """
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    contracted = cube
    # A block aggregate can already outgrow a small source dtype, so the
    # contraction runs in the operator's accumulation dtype (same policy
    # as the prefix sweeps themselves).
    target = operator.accumulation_dtype(cube.dtype)
    for axis in range(cube.ndim) if axes is None else axes:
        edges = np.arange(0, contracted.shape[axis], block_size)
        if isinstance(operator.apply, np.ufunc):
            contracted = operator.apply.reduceat(
                contracted, edges, axis=axis, dtype=target
            )
        else:  # pragma: no cover - all shipped operators are ufuncs
            raise TypeError("block contraction requires a ufunc operator")
    return contracted


#: Batches with fewer rows than this loop the scalar ``range_sum``;
#: larger ones take the vectorized pass.  Pinned from the K x box-size
#: sweep tabulated in docs/ARCHITECTURE.md: the pass has a fixed cost
#: over the ``3^d`` slots that the loop's per-row cost overtakes from
#: here up.
VECTORIZED_MIN_ROWS = 16


def blocked_sum_dispatch(
    structure: Any,
    lo: np.ndarray,
    hi: np.ndarray,
    counter: AccessCounter,
) -> np.ndarray:
    """Batch range-sums for the blocked structure, by row count alone.

    The one place that chooses between a blocked structure's two query
    paths: the scalar §4.2 ``range_sum`` looped by the protocol mixin,
    and the one-pass vectorized machinery of
    :mod:`repro.kernels.boundary`.  Both give the same values and charge
    ``counter`` identically; only their cost differs with ``K``.

    Args:
        structure: A blocked prefix-sum cube.
        lo, hi: ``(K, d)`` bounds already through
            ``normalize_query_arrays(..., allow_empty=True)``.
        counter: Standard access counter.
    """
    # Local: repro.query's package import pulls in the engine, which
    # imports repro.core.
    from repro.query.batch import solve_with_identity

    operator = structure.operator
    if len(lo) < VECTORIZED_MIN_ROWS:
        target = operator.accumulation_dtype(structure.blocked_prefix.dtype)

        def solve(l: np.ndarray, h: np.ndarray) -> np.ndarray:
            values = RangeSumIndexMixin.sum_many(structure, l, h, counter)
            # Zero rows leave numpy nothing to infer the dtype from.
            return values.astype(target, copy=False)

    else:
        def solve(l: np.ndarray, h: np.ndarray) -> np.ndarray:
            return blocked_sum_many_vectorized(structure, l, h, counter)

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
            it to resolve boundary regions — through
            ``backend.materialize``: a copy, or ``A`` itself under an
            :class:`~repro.index.AdoptingBackend`).
        block_size: The blocking factor ``b >= 1``.  ``b = 1`` degenerates
            to the basic method of §3 (and is handled by the same code).
        operator: Invertible aggregation operator; default SUM.
        backend: Array backend for the retained cube and the blocked
            prefix array; pass a :class:`~repro.index.MemmapBackend` to
            build out-of-core.
        prefix_dims: The dimensions blocked and accumulated along (the
            ``X'`` of §9.1); every dimension by default.  With none
            chosen every query is one scan of ``A``.
    """

    def __init__(
        self,
        cube: np.ndarray,
        block_size: int,
        operator: InvertibleOperator = SUM,
        backend: ArrayBackend | None = None,
        prefix_dims: Sequence[int] | None = None,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        cube = np.asarray(cube)
        self.operator = operator
        self.block_size = int(block_size)
        self.backend = resolve_backend(backend)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        self.prefix_dims, self.passive_dims = split_prefix_dims(
            prefix_dims, cube.ndim
        )
        # A manifest names X' only when the constructor was given one, so
        # each registry name keeps the key set it has always written.
        self._dims_given = prefix_dims is not None
        self.source = self.backend.materialize("source", cube)
        contracted = block_contract(
            self.source, self.block_size, operator, self.prefix_dims
        )
        self.blocked_prefix = compute_prefix_array(
            contracted,
            operator,
            backend=self.backend,
            name="blocked_prefix",
            axes=self.prefix_dims,
        )
        self.block_shape = self.blocked_prefix.shape

    @property
    def size(self) -> int:
        """Total number of cells ``N`` of the raw cube."""
        return int(np.prod(self.shape))

    @property
    def storage_cells(self) -> int:
        """Cells of auxiliary storage (the packed blocked array, ~N/b^d')."""
        return int(np.prod(self.block_shape))

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
        state: dict[str, Any] = {
            "operator": self.operator.name,
            "block_size": self.block_size,
        }
        if self._dims_given:
            state["prefix_dims"] = np.asarray(
                self.prefix_dims, dtype=np.int64
            )
        state["source"] = self.source
        state["blocked_prefix"] = self.blocked_prefix
        return state

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
        dims = state.get("prefix_dims")
        structure._dims_given = dims is not None
        structure.prefix_dims, structure.passive_dims = split_prefix_dims(
            dims, structure.ndim
        )
        return structure

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` with the 3^d' decomposition of §4.2.

        An empty ``box`` yields the operator identity.
        """
        if self._check_box(box):
            return self.operator.identity
        if not self.prefix_dims:
            # Nothing is accumulated: P mirrors A, so the query is one
            # scan, charged to the cube like every other read of A.
            return self._scan_box(box, counter)
        op = self.operator
        # §4.2 per boundary region: method 1 scans the region's own cells
        # of A; method 2 reads the superblock's sum from P (2^d' corner
        # slabs, 2^d' − 1 steps) and scans the complement.  Method 1 wins
        # iff volume(region) <= volume(complement) + 2^d' − 1 on the
        # chosen dimensions; every region and slab of one query spans the
        # same passive extent, so the constant is scaled by it and the
        # volumes are full-dimension ones.
        overhead = ((1 << len(self.prefix_dims)) - 1) * slab_cells(
            self.passive_dims, box
        )
        result = op.identity
        for region, superblock, internal in self._regions(box):
            if internal:
                value = self._aligned_region_sum(region, counter)
            elif region.volume <= (
                superblock.volume - region.volume + overhead
            ):
                value = self._scan_box(region, counter)
            else:
                value = self._aligned_region_sum(superblock, counter)
                for piece in box_difference(superblock, region):
                    value = op.invert(value, self._scan_box(piece, counter))
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
        """Expose the 3^d' decomposition for inspection and benchmarks.

        Returns:
            ``(region, superblock, is_internal)`` triples covering ``box``
            disjointly, in the Cartesian-product order of Figure 5 (empty
            for an empty ``box``).  Every box spans all ``d`` dimensions;
            on a passive one it carries the query's own extent.
        """
        if self._check_box(box):
            return []
        return list(self._regions(box))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _regions(self, box: Box) -> Iterator[tuple[Box, Box, bool]]:
        """The decomposition of a valid, non-empty ``box``."""
        plans = [
            self._plan_dimension(j, lo, hi)
            for j, (lo, hi) in enumerate(zip(box.lo, box.hi))
        ]
        for combo in product(*plans):
            yield (
                Box(
                    tuple(piece[0] for piece in combo),
                    tuple(piece[1] for piece in combo),
                ),
                Box(
                    tuple(piece[2] for piece in combo),
                    tuple(piece[3] for piece in combo),
                ),
                all(piece[4] for piece in combo),
            )

    def _plan_dimension(
        self, j: int, lo: int, hi: int
    ) -> tuple[tuple[int, int, int, int, bool], ...]:
        """Split dimension ``j``'s range per Figure 4 / §4.2.

        Each piece is ``(lo, hi, super_lo, super_hi, internal)``: the
        sub-range, its block-aligned superblock extent, and whether the
        sub-range belongs to the internal (block-aligned) band.

        Case 1 (``l' < h'``): three adjoining sub-ranges, the middle one
        aligned with the block structure (the first is dropped when ``lo``
        is itself aligned and leaves it empty).  Case 2: the range does
        not span a full block, so it stays whole with superblock
        ``l'' : h'' − 1``.  A passive dimension is never split: its one
        piece is its own superblock and leaves the internal/boundary
        verdict to the rest.
        """
        if j in self.passive_dims:
            return ((lo, hi, lo, hi, True),)
        b = self.block_size
        size = self.shape[j]
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
                (low_up, high_down - 1, low_up, high_down - 1, True),
                (high_down, hi, high_down, high_up - 1, False),
            )
            if lo < low_up:
                return (
                    (lo, low_up - 1, low_aligned, low_up - 1, False),
                ) + pieces
            return pieces
        return ((lo, hi, low_aligned, high_up - 1, False),)

    def _aligned_region_sum(
        self, region: Box, counter: AccessCounter
    ) -> object:
        """Sum of a block-aligned region from the blocked ``P`` alone.

        ``region`` must start at a multiple of ``b`` and end at
        ``(multiple of b) − 1`` or the cube edge in every chosen
        dimension; it then maps exactly onto a range of contracted blocks
        and Theorem 1 applies to the contracted prefix array.
        """
        b = self.block_size
        return theorem1_sum(
            self,
            self.blocked_prefix,
            [l // b for l in region.lo],
            [h // b for h in region.hi],
            region,
            counter,
        )

    def _scan_box(self, box: Box, counter: AccessCounter) -> object:
        """Aggregate raw cube cells of ``box``, charging one read each."""
        counter.count_cube(box.volume)
        return self.operator.reduce_box(self.source[box.slices()])

    def explain(self, box: Box) -> str:
        """A human-readable plan for ``Sum(box)`` (the 3^d' decomposition).

        Lists every sub-region with the method the algorithm will choose
        and its estimated element accesses — useful when tuning block
        sizes interactively.
        """
        regions = self.decompose(box)
        lines = [
            f"Sum({', '.join(f'{l}:{h}' for l, h in zip(box.lo, box.hi))})"
            f"  [volume {box.volume}, b = {self.block_size}]"
        ]
        slab = slab_cells(self.passive_dims, box)
        reads = (1 << len(self.prefix_dims)) * slab  # one aligned sum
        overhead = reads - slab
        total = 0
        for region, superblock, internal in regions:
            if internal:
                cost = reads
                lines.append(
                    f"  internal  {region}  -> prefix array "
                    f"(~{cost} reads)"
                )
            else:
                direct = region.volume
                complement = superblock.volume - region.volume + overhead
                if direct <= complement:
                    cost = direct
                    lines.append(
                        f"  boundary  {region}  -> scan A "
                        f"({direct} cells)"
                    )
                else:
                    cost = superblock.volume - region.volume + reads
                    lines.append(
                        f"  boundary  {region}  -> superblock "
                        f"{superblock} − complement "
                        f"({superblock.volume - region.volume} cells "
                        f"+ ~{reads} reads)"
                    )
            total += cost
        lines.append(
            f"  estimated total: ~{total} accesses "
            f"(naive scan: {box.volume})"
        )
        return "\n".join(lines)

    def absorb(self, changes: CellChanges) -> int:
        """Bring the blocked ``P`` up to date with a batch ``A`` already
        holds (§5.2: contract the deltas, in ``P``'s dtype, block-wise
        along ``X'``, then recurse).  Returns the regions written."""
        from repro.core.batch_update import (
            apply_batch_to_prefix,
            contract_updates_to_blocks,
            typed_updates,
        )

        contracted = contract_updates_to_blocks(
            typed_updates(changes.updates, self.blocked_prefix.dtype),
            self.block_size,
            self.operator,
            self.prefix_dims,
        )
        regions = apply_batch_to_prefix(
            self.blocked_prefix, contracted, self.operator, self.prefix_dims
        )
        self.backend.flush()
        return regions

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)


def _sample_blocked_partial_params(
    rng: np.random.Generator, shape: tuple[int, ...]
) -> dict[str, Any]:
    """Draw a prefix-dimension subset plus a blocking factor."""
    mask = rng.integers(0, 2, size=len(shape))
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
class BlockedPartialPrefixSumCube(BlockedPrefixSumCube):
    """§9 preset of :class:`BlockedPrefixSumCube`: ``X'`` required, first."""

    def __init__(
        self,
        cube: np.ndarray,
        prefix_dims: Sequence[int],
        block_size: int,
        operator: InvertibleOperator = SUM,
        backend: ArrayBackend | None = None,
    ) -> None:
        super().__init__(
            cube, block_size, operator, backend, prefix_dims=tuple(prefix_dims)
        )
