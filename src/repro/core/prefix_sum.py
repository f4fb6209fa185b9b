"""The prefix-sum range-sum method (paper §3, and §9.1's subsets of it).

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

Section 9.1 observes that prefix-summing every dimension is wasteful when
queries never put ranges on some attribute: each prefix-summed dimension
contributes a factor 2 to every query's term count, while a passive
dimension contributes only its selected length (1 for a singleton).  The
example: with ranges only ever on d1 and d2, computing prefix sums along
d1 and d2 alone answers queries in ``2² − 1 = 3`` steps instead of
``2³ − 1 = 7``.  So the sweeps run along a chosen subset ``X'`` of the
dimensions (``prefix_dims``; every dimension by default, which is §3 as
written) and a query combines ``2^{d'}`` corner *slabs*, each summed over
the query's extent in the unchosen dimensions — an access cost of exactly
``2^{d'} · ∏_{j ∉ X'} r_j``, the multiplicative model the §9.1 selection
algorithms optimize.

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
    from repro.core.batch_update import CellChanges

#: Every cube dtype the dense prefix-sum family accepts — shared by the
#: fuzz profiles of all four §3/§4/§9.1 registry names.
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


def split_prefix_dims(
    prefix_dims: Sequence[int] | None, ndim: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalize a §9.1 subset ``X'`` into ``(chosen, passive)`` dims.

    ``None`` chooses every dimension; duplicates collapse; the empty
    subset is legal (nothing is accumulated).

    Raises:
        ValueError: A chosen dimension lies outside ``0 .. ndim − 1``.
    """
    if prefix_dims is None:
        return tuple(range(ndim)), ()
    chosen = sorted(set(int(j) for j in prefix_dims))
    if chosen and not 0 <= chosen[0] <= chosen[-1] < ndim:
        raise ValueError(
            f"prefix dims {prefix_dims} out of range for a {ndim}-d cube"
        )
    return (
        tuple(chosen),
        tuple(j for j in range(ndim) if j not in chosen),
    )


def slab_cells(passive_dims: Sequence[int], box: Box) -> int:
    """Cells of ``box``'s extent over the passive dimensions (§9.1's
    ``∏_{j ∉ X'} r_j``): what one corner slab of a query costs."""
    cells = 1
    for j in passive_dims:
        cells *= box.hi[j] - box.lo[j] + 1
    return cells


def compute_prefix_array(
    cube: np.ndarray,
    operator: InvertibleOperator = SUM,
    backend: ArrayBackend | None = None,
    name: str = "prefix",
    axes: Sequence[int] | None = None,
) -> np.ndarray:
    """Build the prefix array ``P`` from ``A`` with one sweep per axis (§3.3).

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
        axes: The dimensions to accumulate along (§9.1's ``X'``); every
            dimension by default.  With no axes ``P`` is a copy of ``A``
            in ``A``'s own dtype.

    Returns:
        A new array of the same shape holding every prefix aggregate.
    """
    cube = np.asarray(cube)
    if cube.ndim == 0:
        raise ValueError("the data cube must have at least one dimension")
    if axes is None:
        axes = range(cube.ndim)
    backend = resolve_backend(backend)
    dtype = accumulated_dtype(operator, cube.dtype) if axes else cube.dtype
    prefix = backend.empty(name, cube.shape, dtype)
    prefix[...] = cube
    for axis in axes:
        accumulate_axis_inplace(prefix, operator, axis)
    return prefix


def theorem1_sum(
    structure: Any,
    prefix: np.ndarray,
    lo: Sequence[int],
    hi: Sequence[int],
    box: Box,
    counter: AccessCounter,
) -> object:
    """Theorem 1 over ``prefix`` along ``structure.prefix_dims``.

    The one inclusion–exclusion loop of the dense family: §3 runs it on
    ``P`` in cell coordinates, §4 on the blocked ``P`` in block
    coordinates.

    Args:
        structure: Supplies ``operator``, ``prefix_dims`` and
            ``passive_dims``.
        prefix: The array accumulated along ``prefix_dims``.
        lo, hi: Per dimension, the inclusive bounds in ``prefix``'s
            coordinates (only the chosen dimensions are read; a low
            corner reads ``lo[j] − 1``, the implicit identity when
            ``−1``).
        box: The region in cell coordinates; its passive extents are
            the slab every corner is reduced over.
        counter: Charged one ``prefix_cells`` unit per cell of ``prefix``
            actually read.
    """
    op = structure.operator
    dims = structure.prefix_dims
    passive = structure.passive_dims
    if passive:
        index: list[object] = list(box.slices())
        cells = slab_cells(passive, box)
    positive = op.identity
    negative = op.identity
    for corner_choice in product((False, True), repeat=len(dims)):
        corner = tuple(
            hi[j] if take_hi else lo[j] - 1
            for j, take_hi in zip(dims, corner_choice)
        )
        if -1 in corner:
            # Bounds are non-negative, so ``lo − 1 = −1`` is the only
            # coordinate outside the array: the implicit identity.
            continue
        if passive:
            counter.count_prefix(cells)
            for j, x in zip(dims, corner):
                index[j] = x
            value = op.reduce_box(prefix[tuple(index)])
        else:
            # Every dimension is chosen, so the corner is one cell: a
            # plain index, not a 0-d slab through ``reduce_box`` (which
            # made the §3/§4 hot path 1.3–3x slower).
            counter.count_prefix()
            value = prefix[corner]
        if corner_choice.count(False) % 2 == 0:
            positive = op.apply(positive, value)
        else:
            negative = op.apply(negative, value)
    return op.invert(positive, negative)


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

    Any range-sum is answered in at most ``2^{d'}`` slab reads of ``P``
    and ``2^{d'} − 1`` combining steps; with every dimension chosen that
    is ``2^d`` cells, independent of the query volume.

    The raw cube may be discarded after construction (§3.4,
    ``keep_source=False``): a single cell is itself the degenerate
    range-sum ``Sum(x1:x1, ..., xd:xd)``, so :meth:`cell` recovers it from
    ``P`` at the same cost.

    Args:
        cube: The raw data cube ``A``.
        operator: Invertible aggregation operator; default SUM.
        keep_source: Keep ``A`` (needed only by callers that also want
            raw-cell reads at unit cost, e.g. benchmarks).  It is held
            through ``backend.materialize``: a copy, or ``A`` itself
            under an :class:`~repro.index.AdoptingBackend`.
        backend: Array backend for ``P`` (and the retained source); pass
            a :class:`~repro.index.MemmapBackend` to build out-of-core.
        prefix_dims: Dimensions to accumulate along (the ``X'`` of §9.1);
            every dimension by default.  The empty subset degenerates to
            a plain copy of ``A`` (every query is then a full scan of its
            region).
    """

    def __init__(
        self,
        cube: np.ndarray,
        operator: InvertibleOperator = SUM,
        keep_source: bool = True,
        backend: ArrayBackend | None = None,
        prefix_dims: Sequence[int] | None = None,
    ) -> None:
        cube = np.asarray(cube)
        self.operator = operator
        self.backend = resolve_backend(backend)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        self.prefix_dims, self.passive_dims = split_prefix_dims(
            prefix_dims, cube.ndim
        )
        # An archive names X' only when the constructor was given one, so
        # each registry name keeps the key set it has always written.
        self._dims_given = prefix_dims is not None
        self.prefix = compute_prefix_array(
            cube, operator, backend=self.backend, axes=self.prefix_dims
        )
        self.source: np.ndarray | None = (
            self.backend.materialize("source", cube) if keep_source else None
        )
        # Lazily built full-prefix cache for the batch query path (an
        # extra accumulation along the passive dimensions); dropped on
        # every update so it can never go stale.
        self._batch_prefix: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Total number of cells ``N`` of the cube (and of ``P``)."""
        return int(np.prod(self.shape))

    @property
    def storage_cells(self) -> int:
        """Cells of auxiliary storage held (always ``N``)."""
        return self.size

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
        state: dict[str, Any] = {"operator": self.operator.name}
        if self._dims_given:
            state["prefix_dims"] = np.asarray(
                self.prefix_dims, dtype=np.int64
            )
        state["prefix"] = self.prefix
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
        dims = state.get("prefix_dims")
        structure._dims_given = dims is not None
        structure.prefix_dims, structure.passive_dims = split_prefix_dims(
            dims, structure.ndim
        )
        source = state.get("source")
        structure.source = (
            None if source is None else backend.materialize("source", source)
        )
        structure._batch_prefix = None
        return structure

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` via Theorem 1.

        Args:
            box: Inclusive query region; must lie inside the cube.
            counter: Charged one ``prefix_cells`` unit per cell of ``P``
                actually read: ``2^{d'}`` corner slabs, each of
                ``∏_{j ∉ X'} (h_j − l_j + 1)`` cells — the §9.1 model
                exactly (corners with a ``−1`` coordinate are the
                implicit zero and cost nothing).

        Returns:
            The aggregate under the structure's operator (a scalar), or
            the operator identity when ``box`` is empty.
        """
        if self._check_box(box):
            return self.operator.identity
        return theorem1_sum(
            self, self.prefix, box.lo, box.hi, box, counter
        )

    def _batch_prefix_array(self) -> np.ndarray:
        """The fully accumulated array the batch path gathers from.

        Summing a corner slab over the passive extents equals a
        difference of cumulative sums along the passive axes, so the
        whole §9.1 combination collapses to Theorem 1 on the fully
        accumulated array.  With no passive dimension that array *is*
        ``P``; otherwise it is a lazily built cache costing one extra
        ``N``-cell array, which turns a batch of ``K`` queries into a
        single gather.
        """
        if not self.passive_dims:
            return self.prefix
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
        """Answer ``K`` range-sums with one vectorized gather.

        The batch path of :mod:`repro.query.batch`: all ``K · 2^d``
        Theorem-1 corners of :meth:`_batch_prefix_array` are read in a
        single fancy-indexed gather and combined per query along the
        corner axis — no per-query Python.  Results are element-wise
        identical to :meth:`range_sum` for exact dtypes.  With passive
        dimensions, the first call after construction (or after an
        update batch) pays one accumulation sweep over them.

        Args:
            lows: ``(K, d)`` inclusive lower bounds (array-like, ints).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Charged per valid corner read of the gathered array.

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
                self._batch_prefix_array(), l, h, self.operator, counter
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
        along each accumulated axis (adjacent differences for SUM).  Used
        after the source has been discarded.
        """
        cube = np.array(self.prefix, copy=True)
        op = self.operator
        for axis in self.prefix_dims:
            shifted = np.take(cube, range(cube.shape[axis] - 1), axis=axis)
            trailing = [slice(None)] * cube.ndim
            trailing[axis] = slice(1, None)
            cube[tuple(trailing)] = op.invert(
                np.take(cube, range(1, cube.shape[axis]), axis=axis), shifted
            )
        return cube

    def absorb(self, changes: CellChanges) -> int:
        """Bring ``P`` up to date with a batch ``A`` already holds (§5.1;
        deltas in ``P``'s dtype): an update at ``x`` dirties the cells
        with ``y_j >= x_j`` on the chosen dimensions and ``y_j == x_j``
        on the passive ones.  Returns the delta-uniform regions written."""
        from repro.core.batch_update import apply_batch_to_prefix, typed_updates

        self._batch_prefix = None  # the batch-path cache is now stale
        regions = apply_batch_to_prefix(
            self.prefix,
            typed_updates(changes.updates, self.prefix.dtype),
            self.operator,
            self.prefix_dims,
        )
        self.backend.flush()
        return regions

    def query_cost(self, box: Box) -> int:
        """The §9.1 model cost of a query: ``2^{d'} · ∏ passive r_j``.

        The actual access count is at most this (origin-anchored corners
        are free), making the model an upper bound the tests verify.
        """
        return (1 << len(self.prefix_dims)) * slab_cells(
            self.passive_dims, box
        )

    def _check_box(self, box: Box) -> bool:
        """Validate ``box``; True means empty (answer is the identity)."""
        return check_query_box(box, self.shape)


def _sample_partial_params(
    rng: np.random.Generator, shape: tuple[int, ...]
) -> dict[str, Any]:
    """Draw a random (possibly empty) prefix-dimension subset."""
    mask = rng.integers(0, 2, size=len(shape))
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
class PartialPrefixSumCube(PrefixSumCube):
    """§9.1 preset of :class:`PrefixSumCube`: ``X'`` required, ``A`` dropped."""

    def __init__(
        self,
        cube: np.ndarray,
        prefix_dims: Sequence[int],
        operator: InvertibleOperator = SUM,
        backend: ArrayBackend | None = None,
    ) -> None:
        super().__init__(
            cube, operator, keep_source=False, backend=backend,
            prefix_dims=tuple(prefix_dims),
        )
