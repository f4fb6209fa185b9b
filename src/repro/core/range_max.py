"""The tree-based range-max method with branch and bound (paper §6).

The structure is a generalized quad-tree: a balanced tree of fanout
``B = b^d`` built bottom-up over the cube.  A node at level ``i`` covers a
``b^i × ... × b^i`` region of leaves (the last node per level and dimension
may cover less) and stores the **index** of the maximum value inside the
region it covers — one integer per node, values being recoverable from
``A`` itself.

A range-max query ``Max_index(R)``:

1. finds the *lowest-level* node ``x`` whose cover contains ``R`` (via the
   base-``b`` digit prefix shared by ``l`` and ``h``; this, not the root,
   bounds the 1-d worst case by ``O(b log_b r)`` instead of
   ``O(b log_b n)``);
2. if the precomputed ``Max_index(C(x))`` already falls inside ``R``, that
   is the answer;
3. otherwise it walks down, classifying each child as **internal**
   (``C(y) ⊆ R``), **external** (disjoint — never touched), or
   **boundary**; boundary children whose stored max index falls inside
   ``R`` (the set ``B_in``) resolve in one access, and the remaining
   boundary children (``B_out``) are recursed into **only when their
   precomputed max exceeds the best value found so far** — the
   branch-and-bound rule, sound because
   ``∃ i ∈ S₂ : i ≥ max(S₁) ⇒ max(S₂) = max(S₂ − S₁)``.

Theorem 3: with random data the expected number of accesses in 1-d is at
most ``b + 7 + 1/b`` — far below the worst case (validated empirically in
``benchmarks/bench_rangemax_average.py``).
"""

from __future__ import annotations

from itertools import product
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import Box, check_query_box, full_box
from repro.index.backend import ArrayBackend, resolve_backend
from repro.index.protocol import RangeMaxIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import PointUpdate


def _sentinel_for(dtype: np.dtype) -> object:
    """The smallest representable value, used to pad partial blocks."""
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).min
    raise TypeError(f"range-max requires numeric cubes, got dtype {dtype}")


def _contract_argmax(
    values: np.ndarray, positions: np.ndarray, fanout: int
) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up level step: per-block argmax of ``values``.

    Args:
        values: Current level's max values (level 0: the cube itself).
        positions: Matching flat indices into the original cube.
        fanout: Per-dimension fanout ``b``.

    Returns:
        ``(values, positions)`` of the next level, one entry per block of
        ``b^d`` children (partial blocks padded with the dtype's minimum).
    """
    ndim = values.ndim
    pad_widths = []
    for n in values.shape:
        remainder = (-n) % fanout
        pad_widths.append((0, remainder))
    padded_vals = np.pad(
        values,
        pad_widths,
        constant_values=_sentinel_for(values.dtype),
    )
    padded_pos = np.pad(positions, pad_widths, constant_values=-1)
    block_shape = tuple(n // fanout for n in padded_vals.shape)
    interleaved = []
    for n_blocks in block_shape:
        interleaved.extend((n_blocks, fanout))
    vals = padded_vals.reshape(interleaved)
    pos = padded_pos.reshape(interleaved)
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    vals = vals.transpose(order).reshape(block_shape + (fanout**ndim,))
    pos = pos.transpose(order).reshape(block_shape + (fanout**ndim,))
    winners = np.argmax(vals, axis=-1)
    next_vals = np.take_along_axis(
        vals, winners[..., None], axis=-1
    ).squeeze(-1)
    next_pos = np.take_along_axis(
        pos, winners[..., None], axis=-1
    ).squeeze(-1)
    return next_vals, next_pos


def _sample_max_tree_params(rng: np.random.Generator, shape: tuple[int, ...]) -> dict[str, Any]:
    """Draw a fuzzable per-dimension fanout."""
    return {"fanout": int(rng.integers(2, 6))}


@register_index(
    "range_max_tree",
    kind="max",
    fuzz_profile=FuzzProfile(
        dtypes=(
            "int8",
            "int16",
            "int32",
            "int64",
            "uint8",
            "uint16",
            "uint32",
            "uint64",
            "float32",
            "float64",
        ),
        operators=(),
        sample_params=_sample_max_tree_params,
    ),
)
class RangeMaxTree(RangeMaxIndexMixin):
    """Precomputed max indices over a balanced ``b^d``-ary tree (§6).

    Args:
        cube: The raw data cube ``A`` (numeric).  A copy is retained —
            the tree stores indices, so values must stay addressable.
        fanout: Per-dimension fanout ``b >= 2``.
        backend: Array backend for the retained cube and the per-level
            arrays; pass a :class:`~repro.index.MemmapBackend` to build
            out-of-core.
    """

    def __init__(
        self,
        cube: np.ndarray,
        fanout: int,
        backend: ArrayBackend | None = None,
    ) -> None:
        cube = np.asarray(cube)
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if cube.ndim == 0:
            raise ValueError("the data cube must have at least one dimension")
        _sentinel_for(cube.dtype)  # fail fast on unsupported dtypes
        self.fanout = int(fanout)
        self.backend = resolve_backend(backend)
        self.source = self.backend.materialize("source", cube)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        # Level arrays; index 0 is a placeholder so self.values[i] is the
        # contracted array A_i of the paper for i >= 1.
        self.values: list[np.ndarray | None] = [None]
        self.positions: list[np.ndarray | None] = [None]
        vals = self.source
        pos = np.arange(self.source.size, dtype=np.int64).reshape(self.shape)
        while any(n > 1 for n in vals.shape):
            vals, pos = _contract_argmax(vals, pos, self.fanout)
            level = len(self.values)
            vals = self.backend.materialize(f"values_{level}", vals)
            pos = self.backend.materialize(f"positions_{level}", pos)
            self.values.append(vals)
            self.positions.append(pos)
        self.height = len(self.values) - 1

    @property
    def node_count(self) -> int:
        """Total number of non-leaf nodes stored."""
        return sum(v.size for v in self.values[1:] if v is not None)

    def memory_cells(self) -> int:
        """Protocol spelling of :attr:`node_count` (nodes held)."""
        return int(self.node_count)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters (reported and persisted)."""
        return {"fanout": self.fanout}

    # ------------------------------------------------------------------
    # Protocol surface (RangeMaxIndex)
    # ------------------------------------------------------------------

    def query(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> tuple[tuple[int, ...], object] | None:
        """Protocol spelling: the ``(index, value)`` witness pair.

        An empty ``box`` has no witness cell, so the answer is ``None``
        (MAX has no identity in a general domain — the empty-range rule
        of ``docs/TESTING.md``).
        """
        if check_query_box(box, self.shape):
            return None
        index = self.max_index(box, counter)
        return index, self.source[index]

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Protocol batch path — the vectorized shared descent."""
        return self.max_index_many(lows, highs, counter)

    def apply_updates(self, updates: Sequence[PointUpdate]) -> object:
        """Absorb point *deltas* via the §7 assignment machinery.

        Duplicate deltas to one cell accumulate first — the same merge
        the SUM-family partition performs — so the batch means the same
        thing whichever index family absorbs it.  The merged deltas are
        then converted to the assignments they imply (new value =
        pre-batch value + total delta) and the bottom-up repair of
        :func:`repro.core.max_update.apply_max_updates` runs once.

        Returns:
            The :class:`~repro.core.max_update.MaxUpdateStats` of the run.
        """
        from repro.core.max_update import MaxAssignment, apply_max_updates

        merged: dict[tuple[int, ...], object] = {}
        for update in updates:
            index = tuple(update.index)
            merged[index] = (
                merged[index] + update.delta
                if index in merged
                else update.delta
            )
        stats = apply_max_updates(
            self,
            [
                MaxAssignment(index, self.source[index] + delta)
                for index, delta in merged.items()
            ],
        )
        self.backend.flush()
        return stats

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalars for generic persistence."""
        state: dict[str, Any] = {"fanout": self.fanout, "source": self.source}
        for level in range(1, self.height + 1):
            state[f"values_{level}"] = self.values[level]
            state[f"positions_{level}"] = self.positions[level]
        return state

    @classmethod
    def from_state(
        cls, state: dict[str, Any], backend: ArrayBackend | None = None
    ) -> RangeMaxTree:
        """Rebuild from :meth:`state_dict` without recontracting."""
        backend = resolve_backend(backend)
        tree = cls.__new__(cls)
        tree.fanout = int(state["fanout"])
        tree.backend = backend
        tree.source = backend.materialize("source", state["source"])
        tree.shape = tuple(int(n) for n in tree.source.shape)
        tree.ndim = tree.source.ndim
        tree.values = [None]
        tree.positions = [None]
        level = 1
        while f"values_{level}" in state:
            tree.values.append(
                backend.materialize(f"values_{level}", state[f"values_{level}"])
            )
            tree.positions.append(
                backend.materialize(
                    f"positions_{level}", state[f"positions_{level}"]
                )
            )
            level += 1
        tree.height = len(tree.values) - 1
        return tree

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def max_index(
        self,
        box: Box,
        counter: AccessCounter = NULL_COUNTER,
        use_branch_and_bound: bool = True,
    ) -> tuple[int, ...]:
        """Index of a maximum cell inside ``box`` (``Max_index(R)``, §6.1.3).

        Args:
            box: Inclusive query region.
            counter: Charged per tree node and per raw cell read.
            use_branch_and_bound: Disable to measure the pruning's value
                (every boundary child is then recursed into).

        Returns:
            A d-tuple index of one cell attaining the maximum.
        """
        self._check_box(box)
        level, node = self._lowest_covering_node(box)
        if level == 0:
            counter.count_cube(1)
            return box.lo
        counter.count_tree(1)
        stored = self._node_point(level, node)
        if box.contains_point(stored):
            return stored
        counter.count_cube(1)  # read A[l] to seed current_max_index
        return self._get_max_index(
            level, node, box, box.lo, counter, use_branch_and_bound
        )

    def max_value(
        self,
        box: Box,
        counter: AccessCounter = NULL_COUNTER,
        use_branch_and_bound: bool = True,
    ) -> object:
        """The maximum value inside ``box``."""
        index = self.max_index(box, counter, use_branch_and_bound)
        return self.source[index]

    def global_max_index(
        self, counter: AccessCounter = NULL_COUNTER
    ) -> tuple[int, ...]:
        """Index of the maximum of the whole cube (one root access)."""
        return self.max_index(full_box(self.shape), counter)

    def max_index_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer ``K`` range-max queries with one shared tree descent.

        All searches walk the tree together (one vectorized wave per
        level) with the branch-and-bound prune applied across the whole
        frontier — see :func:`repro.query.batch.batch_max_index`.
        Maximum values are exact; tied argmax indices may differ from
        the scalar path's choice.

        Args:
            lows: ``(K, d)`` inclusive lower bounds (array-like, ints).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Charged per tree node and raw cell touched.

        Returns:
            ``(indices, values)``: ``(K, d)`` argmax coordinates and the
            ``(K,)`` maxima.
        """
        from repro.query.batch import batch_max_index, normalize_query_arrays

        lo, hi = normalize_query_arrays(lows, highs, self.shape)
        return batch_max_index(self, lo, hi, counter)

    # ------------------------------------------------------------------
    # Structure navigation (shared with the batch updater)
    # ------------------------------------------------------------------

    def level_shape(self, level: int) -> tuple[int, ...]:
        """Shape of the contracted array ``A_level``."""
        if level == 0:
            return self.shape
        vals = self.values[level]
        assert vals is not None
        return vals.shape

    def node_region(self, level: int, node: tuple[int, ...]) -> Box:
        """The leaf region ``C(x)`` covered by a node."""
        span = self.fanout**level
        lo = tuple(c * span for c in node)
        hi = tuple(
            min((c + 1) * span, n) - 1 for c, n in zip(node, self.shape)
        )
        return Box(lo, hi)

    def _node_point(self, level: int, node: tuple[int, ...]) -> tuple[int, ...]:
        """Stored max index of a node, as a d-tuple into ``A``."""
        pos_arr = self.positions[level]
        assert pos_arr is not None
        flat = int(pos_arr[node])
        return tuple(int(i) for i in np.unravel_index(flat, self.shape))

    def _lowest_covering_node(self, box: Box) -> tuple[int, tuple[int, ...]]:
        """Lowest-level node whose cover contains ``box`` (§6.1.2).

        In base-``b`` digits this is the longest common prefix of ``l``
        and ``h``; computed here as the smallest ``i`` with
        ``l_j // b^i == h_j // b^i`` in every dimension.
        """
        level = 0
        span = 1
        while level < self.height:
            if all(
                lo // span == hi // span
                for lo, hi in zip(box.lo, box.hi)
            ):
                break
            level += 1
            span *= self.fanout
        node = tuple(lo // span for lo in box.lo)
        return level, node

    def _iter_children(
        self, level: int, node: tuple[int, ...]
    ) -> product:
        """Child node indices (at ``level − 1``) of a node at ``level``."""
        child_shape = self.level_shape(level - 1)
        ranges = []
        for c, n in zip(node, child_shape):
            lo = c * self.fanout
            hi = min((c + 1) * self.fanout, n)
            ranges.append(range(lo, hi))
        return product(*ranges)

    # ------------------------------------------------------------------
    # Search recursion
    # ------------------------------------------------------------------

    def _get_max_index(
        self,
        level: int,
        node: tuple[int, ...],
        region: Box,
        current: tuple[int, ...],
        counter: AccessCounter,
        use_bnb: bool,
    ) -> tuple[int, ...]:
        """``get_max_index(x, R, current_max_index)`` of §6.1.3."""
        if level == 1:
            return self._scan_leaves(node, region, current, counter)
        vals = self.values[level - 1]
        assert vals is not None
        deferred: list[tuple[tuple[int, ...], object]] = []
        for child in self._iter_children(level, node):
            cover = self.node_region(level - 1, child)
            overlap = cover.intersect(region)
            if overlap.is_empty:
                continue  # external: never accessed
            counter.count_tree(1)
            child_value = vals[child]
            stored = self._node_point(level - 1, child)
            is_internal = region.contains_box(cover)
            if is_internal or region.contains_point(stored):
                # I(x, R) ∪ B_in(x, R): one access resolves the child.
                if child_value > self.source[current]:
                    current = stored
            else:
                deferred.append((child, child_value))
        for child, child_value in deferred:
            if use_bnb and child_value <= self.source[current]:
                continue  # branch-and-bound prune
            cover = self.node_region(level - 1, child)
            current = self._get_max_index(
                level - 1,
                child,
                region.intersect(cover),
                current,
                counter,
                use_bnb,
            )
        return current

    def _scan_leaves(
        self,
        node: tuple[int, ...],
        region: Box,
        current: tuple[int, ...],
        counter: AccessCounter,
    ) -> tuple[int, ...]:
        """Level-1 recursion base: leaf children are raw cube cells.

        Every leaf is either internal (inside ``R``) or external, so the
        in-region cells of the node's cover are scanned directly.
        """
        scan = self.node_region(1, node).intersect(region)
        if scan.is_empty:
            return current
        counter.count_cube(scan.volume)
        window = self.source[scan.slices()]
        local_flat = int(np.argmax(window))
        local = np.unravel_index(local_flat, window.shape)
        candidate = tuple(l + o for l, o in zip(scan.lo, local))
        if self.source[candidate] > self.source[current]:
            return candidate
        return current

    def _check_box(self, box: Box) -> None:
        # A max query needs a witness cell, so empty boxes stay errors
        # on the index-returning paths (``query`` short-circuits first).
        check_query_box(box, self.shape, allow_empty=False)
