"""Prefix sums over a *subset* of the cube's dimensions (paper §9.1).

Section 9.1 observes that prefix-summing every dimension is wasteful when
queries never put ranges on some attribute: each prefix-summed dimension
contributes a factor 2 to every query's term count, while a passive
dimension contributes only its selected length (1 for a singleton).  The
example: with ranges only ever on d1 and d2, computing prefix sums along
d1 and d2 alone answers queries in ``2² − 1 = 3`` steps instead of
``2³ − 1 = 7``.

:class:`PartialPrefixSumCube` executes that design point.  The prefix
array accumulates along the chosen dimensions only; a query combines
``2^{d'}`` corner *slabs* (one per corner of the chosen dimensions),
each slab summed over the query's extent in the unchosen dimensions — an
access cost of exactly ``2^{d'} · ∏_{j ∉ X'} r_j``, the multiplicative
model the §9.1 selection algorithms optimize.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro._util import Box, check_query_box
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


def _sample_partial_params(rng: np.random.Generator, shape: tuple[int, ...]) -> dict[str, Any]:
    """Draw a random (possibly empty) prefix-dimension subset."""
    ndim = len(shape)
    mask = rng.integers(0, 2, size=ndim)
    return {"prefix_dims": tuple(int(j) for j in np.nonzero(mask)[0])}


@register_index(
    "partial_prefix_sum",
    kind="sum",
    fuzz_profile=FuzzProfile(
        dtypes=DENSE_FUZZ_DTYPES,
        operators=DENSE_FUZZ_OPERATORS,
        sample_params=_sample_partial_params,
    ),
)
class PartialPrefixSumCube(RangeSumIndexMixin):
    """Prefix-sum structure along a chosen dimension subset ``X'``.

    Args:
        cube: The raw data cube ``A``.
        prefix_dims: Dimensions to accumulate along (the ``X'`` of §9.1).
            The empty subset degenerates to a plain copy of ``A`` (every
            query is then a full scan of its region).
        operator: Invertible aggregation operator; default SUM.
        backend: Array backend for the partial prefix array; pass a
            :class:`~repro.index.MemmapBackend` to build out-of-core.
    """

    def __init__(
        self,
        cube: np.ndarray,
        prefix_dims: Sequence[int],
        operator: InvertibleOperator = SUM,
        backend: ArrayBackend | None = None,
    ) -> None:
        cube = np.asarray(cube)
        self.operator = operator
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
        dtype = (
            accumulated_dtype(operator, cube.dtype)
            if self.prefix_dims
            else cube.dtype
        )
        prefix = self.backend.empty("partial_prefix", cube.shape, dtype)
        prefix[...] = cube
        for axis in self.prefix_dims:
            accumulate_axis_inplace(prefix, operator, axis)
        self.prefix = prefix
        # Lazily built full-prefix cache for the batch query path (an
        # extra accumulation along the passive dimensions); dropped on
        # every update so it can never go stale.
        self._batch_prefix: np.ndarray | None = None

    @property
    def storage_cells(self) -> int:
        """Cells of auxiliary storage (always ``N``)."""
        return int(np.prod(self.shape))

    def memory_cells(self) -> int:
        """Protocol spelling of :attr:`storage_cells`."""
        return int(self.storage_cells)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters (reported and persisted)."""
        return {
            "prefix_dims": self.prefix_dims,
            "operator": self.operator.name,
        }

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalars for generic persistence."""
        return {
            "operator": self.operator.name,
            "prefix_dims": np.asarray(self.prefix_dims, dtype=np.int64),
            "prefix": self.prefix,
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], backend: ArrayBackend | None = None
    ) -> PartialPrefixSumCube:
        """Rebuild from :meth:`state_dict` without re-accumulating."""
        from repro.core.operators import get_operator

        backend = resolve_backend(backend)
        structure = cls.__new__(cls)
        structure.operator = get_operator(str(state["operator"]))
        structure.backend = backend
        structure.prefix = backend.materialize("partial_prefix", state["prefix"])
        structure.shape = tuple(int(n) for n in structure.prefix.shape)
        structure.ndim = structure.prefix.ndim
        structure.prefix_dims = tuple(
            int(j) for j in np.asarray(state["prefix_dims"]).ravel()
        )
        structure.passive_dims = tuple(
            j
            for j in range(structure.ndim)
            if j not in set(structure.prefix_dims)
        )
        structure._batch_prefix = None
        return structure

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)``.

        Cost: ``2^{d'}`` corner slabs, each of
        ``∏_{j ∉ X'} (h_j − l_j + 1)`` cells — the §9.1 model exactly.
        An empty ``box`` yields the operator identity.
        """
        if self._check_box(box):
            return self.operator.identity
        op = self.operator
        passive_slices = {
            j: slice(box.lo[j], box.hi[j] + 1) for j in self.passive_dims
        }
        passive_cells = 1
        for j in self.passive_dims:
            passive_cells *= box.hi[j] - box.lo[j] + 1
        positive = op.identity
        negative = op.identity
        for corner_choice in product(
            (False, True), repeat=len(self.prefix_dims)
        ):
            index: list[object] = [None] * self.ndim
            skip = False
            for j, take_hi in zip(self.prefix_dims, corner_choice):
                coordinate = box.hi[j] if take_hi else box.lo[j] - 1
                if coordinate < 0:
                    skip = True
                    break
                index[j] = coordinate
            if skip:
                continue
            for j in self.passive_dims:
                index[j] = passive_slices[j]
            counter.count_prefix(passive_cells)
            slab = self.prefix[tuple(index)]
            value = op.reduce_box(np.asarray(slab))
            low_corners = corner_choice.count(False)
            if low_corners % 2 == 0:
                positive = op.apply(positive, value)
            else:
                negative = op.apply(negative, value)
        return op.invert(positive, negative)

    def _batch_prefix_array(self) -> np.ndarray:
        """The full prefix array used by the batch path (lazily built).

        Summing a corner slab over the passive extents equals a
        difference of cumulative sums along the passive axes, so the
        whole §9.1 combination collapses to Theorem 1 on the fully
        accumulated array.  The cache costs one extra ``N``-cell array
        but turns a batch of ``K`` queries into a single gather.
        """
        if self._batch_prefix is None:
            # The stored array keeps the raw dtype when no dimension is
            # prefix-summed; the cache must still accumulate in the
            # promoted dtype to match the scalar path's arithmetic.
            prefix = np.array(
                self.prefix,
                copy=True,
                dtype=self.operator.accumulation_dtype(self.prefix.dtype),
            )
            for axis in self.passive_dims:
                prefix = self.operator.accumulate(prefix, axis)
            self._batch_prefix = prefix
        return self._batch_prefix

    def sum_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Answer ``K`` range-sums with one gather (batch path).

        Uses the lazily built full-prefix cache of
        :meth:`_batch_prefix_array`; the first call after construction
        (or after an update batch) pays one accumulation sweep over the
        passive dimensions, every later call is a single gather.

        Args:
            lows: ``(K, d)`` inclusive lower bounds (array-like, ints).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Charged per valid corner read of the cached array.

        Returns:
            A ``(K,)`` array of aggregates; empty rows (``hi < lo``)
            yield the operator identity.
        """
        from repro.query.batch import (
            normalize_query_arrays,
            prefix_sum_many,
            solve_with_identity,
        )

        lo, hi = normalize_query_arrays(
            lows, highs, self.shape, allow_empty=True
        )
        return solve_with_identity(
            lo,
            hi,
            self.operator.identity,
            lambda l, h: prefix_sum_many(
                self._batch_prefix_array(), l, h, self.operator, counter,
                kernel=self.kernel,
            ),
        )

    def apply_updates(self, updates: Sequence[PointUpdate]) -> int:
        """Batch-update the partial prefix array (§5 along ``X'`` only).

        An update at ``x`` dirties exactly the cells with ``y_j >= x_j``
        on the chosen dimensions and ``y_j == x_j`` on the passive ones,
        so the §5 recursion runs per distinct passive coordinate, inside
        the chosen-dimension subspace.

        Returns:
            The number of delta-uniform regions written.
        """
        from repro.core.batch_update import (
            PointUpdate,
            partition_updates,
        )

        self._batch_prefix = None  # the batch-path cache is now stale
        op = self.operator
        if not self.prefix_dims:
            for update in updates:
                self.prefix[update.index] = op.apply(
                    self.prefix[update.index], update.delta
                )
            self.backend.flush()
            return len(updates)
        groups: dict[tuple[int, ...], list[PointUpdate]] = {}
        for update in updates:
            if len(update.index) != self.ndim:
                raise ValueError(
                    f"update index {update.index} has wrong dimensionality"
                )
            passive = tuple(update.index[j] for j in self.passive_dims)
            chosen = tuple(update.index[j] for j in self.prefix_dims)
            groups.setdefault(passive, []).append(
                PointUpdate(chosen, update.delta)
            )
        chosen_shape = tuple(self.shape[j] for j in self.prefix_dims)
        total_regions = 0
        for passive, group in groups.items():
            regions = partition_updates(group, chosen_shape, op)
            total_regions += len(regions)
            for box, delta in regions:
                index: list[object] = [None] * self.ndim
                for j, coordinate in zip(self.passive_dims, passive):
                    index[j] = coordinate
                for position, j in enumerate(self.prefix_dims):
                    index[j] = slice(
                        box.lo[position], box.hi[position] + 1
                    )
                view = self.prefix[tuple(index)]
                view[...] = op.apply(view, delta)
        self.backend.flush()
        return total_regions

    def query_cost(self, box: Box) -> int:
        """The §9.1 model cost of a query: ``2^{d'} · ∏ passive r_j``.

        The actual access count is at most this (origin-anchored corners
        are free), making the model an upper bound the tests verify.
        """
        cost = 1 << len(self.prefix_dims)
        for j in self.passive_dims:
            cost *= box.hi[j] - box.lo[j] + 1
        return cost

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)
