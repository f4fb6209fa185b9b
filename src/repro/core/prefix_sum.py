"""The basic prefix-sum range-sum method (paper §3).

Precompute ``P[x1..xd] = Sum(0:x1, ..., 0:xd)`` — a d-dimensional prefix-sum
array the same size as the cube — and answer any range-sum by combining at
most ``2^d`` cells of ``P`` with alternating signs (Theorem 1):

    Sum(l1:h1, ..., ld:hd) =
        Σ over corners x_j ∈ {l_j − 1, h_j} of (Π_j s(j)) · P[x1..xd]

where ``s(j) = +1`` when ``x_j = h_j`` and ``−1`` when ``x_j = l_j − 1``,
and ``P[..] = 0`` whenever any coordinate is ``−1``.

The construction (§3.3) runs d one-dimensional sweeps, one per dimension,
reusing a single output array — a direct map onto ``op.accumulate`` per
axis (``np.cumsum`` for SUM).

The structure generalizes to any invertible operator pair (§1); signs
become applications of ``⊕`` / ``⊖``.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import Box, check_query_box, full_box
from repro.core.operators import SUM, InvertibleOperator
from repro.index.backend import ArrayBackend, resolve_backend
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index
from repro.instrumentation import NULL_COUNTER, AccessCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import PointUpdate

#: Every cube dtype the dense prefix-sum family accepts — shared by the
#: fuzz profiles of all four §3/§4/§9.1 structures.
DENSE_FUZZ_DTYPES = (
    "bool",
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
)

#: Operators the dense family can be built with (the harness narrows by
#: dtype: ``xor`` needs integers, ``product`` a zero-free exact domain).
DENSE_FUZZ_OPERATORS = ("sum", "xor", "product")


def accumulated_dtype(
    operator: InvertibleOperator, dtype: np.dtype
) -> np.dtype:
    """The dtype prefix accumulation runs in for a ``dtype`` cube.

    Delegates to :meth:`InvertibleOperator.accumulation_dtype`, which
    probes the operator's own ``accumulate`` and then promotes widening
    operators to at least ``int64`` / ``uint64`` / ``float64`` — a
    prefix cell aggregates up to ``N`` source cells, so an ``int8`` or
    ``float32`` accumulator would silently wrap or round.  Backends must
    pre-allocate this dtype because the sweeps accumulate in place.
    """
    return operator.accumulation_dtype(dtype)


def accumulate_axis_inplace(
    prefix: np.ndarray, operator: InvertibleOperator, axis: int
) -> None:
    """One §3.3 sweep, writing through the array it reads.

    For ufunc operators (all shipped ones) this is a true in-place
    ``ufunc.accumulate`` — the out-of-core path streams each axis sweep
    through the memmap without materializing a second ``N``-cell array.
    """
    if isinstance(operator.apply, np.ufunc):
        operator.apply.accumulate(prefix, axis=axis, out=prefix)
    else:  # pragma: no cover - all shipped operators are ufuncs
        prefix[...] = operator.accumulate(prefix, axis)


def compute_prefix_array(
    cube: np.ndarray,
    operator: InvertibleOperator = SUM,
    backend: ArrayBackend | None = None,
    name: str = "prefix",
) -> np.ndarray:
    """Build the prefix array ``P`` from ``A`` with d axis sweeps (§3.3).

    The sweeps follow the storage order (one pass per dimension over the
    whole array), which is the paper's paging-friendly schedule: each page
    of ``P`` is touched a constant number of times per phase.

    Args:
        cube: The raw data cube ``A``.
        operator: The invertible aggregation operator (default SUM).
        backend: Where ``P`` is allocated; the default in-memory backend
            reproduces the historical behaviour, a
            :class:`~repro.index.MemmapBackend` builds ``P`` out-of-core
            (each sweep runs in place through the page cache).
        name: Label for file-backed allocations.

    Returns:
        A new array of the same shape holding every prefix aggregate.
    """
    cube = np.asarray(cube)
    if cube.ndim == 0:
        raise ValueError("the data cube must have at least one dimension")
    backend = resolve_backend(backend)
    prefix = backend.empty(name, cube.shape, accumulated_dtype(
        operator, cube.dtype
    ))
    prefix[...] = cube
    for axis in range(prefix.ndim):
        accumulate_axis_inplace(prefix, operator, axis)
    return prefix


@register_index(
    "prefix_sum",
    kind="sum",
    fuzz_profile=FuzzProfile(
        dtypes=DENSE_FUZZ_DTYPES,
        operators=DENSE_FUZZ_OPERATORS,
    ),
)
class PrefixSumCube(RangeSumIndexMixin):
    """Range-sum index over a dense cube via precomputed prefix sums (§3).

    Any range-sum is answered in at most ``2^d`` reads of ``P`` and
    ``2^d − 1`` combining steps, independent of the query volume.

    The raw cube may be discarded after construction (§3.4,
    ``keep_source=False``): a single cell is itself the degenerate
    range-sum ``Sum(x1:x1, ..., xd:xd)``, so :meth:`cell` recovers it from
    ``P`` at the same ``2^d`` cost.

    Args:
        cube: The raw data cube ``A``.
        operator: Invertible aggregation operator; default SUM.
        keep_source: Keep a reference to ``A`` (needed only by callers that
            also want raw-cell reads at unit cost, e.g. benchmarks).
        backend: Array backend for ``P`` (and the retained source); pass
            a :class:`~repro.index.MemmapBackend` to build out-of-core.
    """

    def __init__(
        self,
        cube: np.ndarray,
        operator: InvertibleOperator = SUM,
        keep_source: bool = True,
        backend: ArrayBackend | None = None,
    ) -> None:
        cube = np.asarray(cube)
        self.operator = operator
        self.backend = resolve_backend(backend)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        self.prefix = compute_prefix_array(
            cube, operator, backend=self.backend
        )
        self.source: np.ndarray | None = (
            self.backend.materialize("source", cube) if keep_source else None
        )

    @property
    def size(self) -> int:
        """Total number of cells ``N`` of the cube (and of ``P``)."""
        return int(np.prod(self.shape))

    @property
    def storage_cells(self) -> int:
        """Cells of auxiliary storage held (``N`` for the basic method)."""
        return self.size

    def memory_cells(self) -> int:
        """Protocol spelling of :attr:`storage_cells`."""
        return int(self.storage_cells)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters (reported and persisted)."""
        return {"operator": self.operator.name}

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalars for generic persistence."""
        state: dict[str, Any] = {
            "operator": self.operator.name,
            "prefix": self.prefix,
        }
        if self.source is not None:
            state["source"] = self.source
        return state

    @classmethod
    def from_state(
        cls, state: dict[str, Any], backend: ArrayBackend | None = None
    ) -> PrefixSumCube:
        """Rebuild from :meth:`state_dict` without recomputing ``P``."""
        from repro.core.operators import get_operator

        backend = resolve_backend(backend)
        structure = cls.__new__(cls)
        structure.operator = get_operator(str(state["operator"]))
        structure.backend = backend
        structure.prefix = backend.materialize("prefix", state["prefix"])
        structure.shape = tuple(int(n) for n in structure.prefix.shape)
        structure.ndim = structure.prefix.ndim
        source = state.get("source")
        structure.source = (
            None if source is None else backend.materialize("source", source)
        )
        return structure

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` via Theorem 1.

        Args:
            box: Inclusive query region; must lie inside the cube.
            counter: Charged one ``prefix_cells`` unit per corner of ``P``
                actually read (corners with a ``−1`` coordinate are the
                implicit zero and cost nothing).

        Returns:
            The aggregate under the structure's operator (a scalar), or
            the operator identity when ``box`` is empty.
        """
        if self._check_box(box):
            return self.operator.identity
        op = self.operator
        positive = op.identity
        negative = op.identity
        for corner_choice in product((False, True), repeat=self.ndim):
            index = tuple(
                box.hi[j] if take_hi else box.lo[j] - 1
                for j, take_hi in enumerate(corner_choice)
            )
            if any(x < 0 for x in index):
                continue
            counter.count_prefix()
            value = self.prefix[index]
            low_corners = corner_choice.count(False)
            if low_corners % 2 == 0:
                positive = op.apply(positive, value)
            else:
                negative = op.apply(negative, value)
        return op.invert(positive, negative)

    def sum_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Answer ``K`` range-sums with one vectorized gather on ``P``.

        The batch path of :mod:`repro.query.batch`: all ``K · 2^d``
        Theorem-1 corners are read in a single fancy-indexed gather and
        combined per query along the corner axis — no per-query Python.
        Results are element-wise identical to :meth:`range_sum` for
        exact dtypes.

        Args:
            lows: ``(K, d)`` inclusive lower bounds (array-like, ints).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Charged per valid corner read, as the scalar path.

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
                self.prefix, l, h, self.operator, counter,
                kernel=self.kernel,
            ),
        )

    def total(self, counter: AccessCounter = NULL_COUNTER) -> object:
        """Aggregate of the entire cube (a single read of ``P``'s corner)."""
        return self.range_sum(full_box(self.shape), counter)

    def cell(
        self, index: Sequence[int], counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Reconstruct one cell of ``A`` from ``P`` alone (§3.4)."""
        point = tuple(int(i) for i in index)
        return self.range_sum(Box(point, point), counter)

    def reconstruct_cube(self) -> np.ndarray:
        """Rebuild the full raw cube ``A`` from ``P`` (inverse sweeps).

        Mirrors :func:`compute_prefix_array`: applies the inverse operator
        along each axis (adjacent differences for SUM).  Used after the
        source has been discarded.
        """
        cube = np.array(self.prefix, copy=True)
        op = self.operator
        for axis in range(cube.ndim):
            shifted = np.take(cube, range(cube.shape[axis] - 1), axis=axis)
            trailing = [slice(None)] * cube.ndim
            trailing[axis] = slice(1, None)
            cube[tuple(trailing)] = op.invert(
                np.take(cube, range(1, cube.shape[axis]), axis=axis), shifted
            )
        return cube

    def apply_updates(self, updates: Sequence[PointUpdate]) -> int:
        """Apply a batch of point updates (§5.1) to ``P`` (and ``A``).

        Args:
            updates: Buffered ``(location, value-to-add)`` updates.

        Returns:
            The number of delta-uniform regions written into ``P``
            (bounded by Theorem 2).
        """
        from repro.core.batch_update import apply_batch_to_prefix
        from repro.kernels import resolve_kernel
        from repro.kernels.segments import flatten_updates

        if self.source is not None and len(updates):
            flat, deltas = flatten_updates(updates, self.shape)
            resolve_kernel(self.kernel).scatter(
                self.source.reshape(-1), flat, deltas, self.operator
            )
        regions = apply_batch_to_prefix(self.prefix, updates, self.operator)
        self.backend.flush()
        return regions

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)
