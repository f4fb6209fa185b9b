"""High-level query engine tying the structures to the query model.

:class:`RangeQueryEngine` is the facade a downstream user talks to — and
since the registry refactor, a thin *planner*: the constructor resolves
:class:`~repro.index.IndexSpec`s (by registry name) into live structures
and installs them in a routing table, one entry per aggregate.  Query
methods never branch on concrete structure types; they forward to the
route's protocol surface (``query`` / ``query_many`` / ``apply_updates``
via :class:`~repro.index.InstrumentedIndex`).

It also derives the aggregate family the paper reduces to SUM and MAX:

* ``COUNT`` is a SUM over a 0/1 (or record-count) cube;
* ``AVERAGE`` keeps the (sum, count) pair — one prefix structure each;
* ``MIN`` is the §6 tree ordered by ``<`` ("and symmetrically MIN");
* ``ROLLING SUM`` / ``ROLLING AVERAGE`` are range-sum/average specials
  (a window sliding along one dimension).

Every route reads one base cube: the engine takes its cube once and
builds each structure over that array by reference (through an
:class:`~repro.index.AdoptingBackend`), so an update writes the base
exactly once and each structure maintains only its derived arrays.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import Box
from repro.index.backend import AdoptingBackend, ArrayBackend, resolve_backend
from repro.index.protocol import InstrumentedIndex
from repro.index.registry import IndexSpec
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.query.ranges import RangeQuery, canonical_box

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import CellChanges, PointUpdate

#: The structures an engine builds when none is named.
DEFAULT_SUM_INDEX = IndexSpec.of("prefix_sum")
DEFAULT_MAX_INDEX = IndexSpec.of("range_max_tree", fanout=4)

#: The aggregates the routing table serves.
AGGREGATES = ("sum", "count", "max", "min")


def py_scalar(value: object) -> object:
    """Convert numpy scalars (and 0-d arrays) to plain Python scalars.

    Engine aggregate methods promise plain ``int`` / ``float`` / ``bool``
    returns regardless of which structure answered, so downstream
    exact-equality checks never trip over ``np.uint32`` vs ``int``.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    return value


def divide_averages(totals: object, denominators: object) -> np.ndarray:
    """Element-wise AVERAGE from a (sum, count) pair of arrays.

    Each element is ``float(total) / float(count)``, exactly as the
    scalar :meth:`RangeQueryEngine.average` divides.  When any count is
    zero the result is instead an object array whose zero-count entries
    are ``None``.
    """
    counts = np.asarray(denominators)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(totals).astype(np.float64) / counts.astype(
            np.float64
        )
    zero = counts == 0
    if np.any(zero):
        out = out.astype(object)
        out[zero] = None
    return out


def _as_spec(index: str | IndexSpec, params: dict[str, Any] | None) -> IndexSpec:
    """Normalize a name-or-spec plus optional params into one IndexSpec."""
    if isinstance(index, IndexSpec):
        if params:
            merged = {**index.as_dict(), **params}
            return IndexSpec.of(index.name, **merged)
        return index
    return IndexSpec.of(str(index), **(params or {}))


class RangeQueryEngine:
    """Answer range SUM / COUNT / AVERAGE / MAX / MIN queries over a cube.

    Args:
        cube: The raw measure cube ``A``, taken once through
            ``backend.materialize`` (a copy; the array itself under an
            :class:`~repro.index.AdoptingBackend`) and held as
            :attr:`base`.  Every route is built over that one array.
        sum_index: Registry name or :class:`~repro.index.IndexSpec` of the
            range-sum structure (default ``"prefix_sum"``).  The same spec
            serves COUNT over the counts cube.
        sum_params: Extra construction params for ``sum_index``
            (merged over the spec's own params).
        max_index: Registry name or spec of the range-max structure
            (default ``"range_max_tree"`` with fanout 4); pass ``None``
            to skip building the max/min side.  The same spec with
            ``order="min"`` serves MIN.  A bool cube is read through a
            zero-copy ``int8`` view.
        max_params: Extra construction params for ``max_index``.
        counts: Optional cube of record counts per cell, taken like
            ``cube`` and held as :attr:`counts`.  When given, ``count``
            and ``average`` queries are answered from its own prefix
            structure (the paper's (sum, count) 2-tuple).
        backend: :class:`~repro.index.ArrayBackend` threaded into every
            structure that supports out-of-core allocation.
        counter: Engine-level :class:`AccessCounter` observing every
            query; a counter passed to an individual call still wins.
    """

    def __init__(
        self,
        cube: np.ndarray,
        sum_index: str | IndexSpec = DEFAULT_SUM_INDEX,
        sum_params: dict[str, Any] | None = None,
        max_index: str | IndexSpec | None = DEFAULT_MAX_INDEX,
        max_params: dict[str, Any] | None = None,
        counts: np.ndarray | None = None,
        backend: ArrayBackend | None = None,
        counter: AccessCounter | None = None,
    ) -> None:
        owner = resolve_backend(backend)
        self.base = owner.materialize("source", np.asarray(cube))
        self.shape = tuple(int(n) for n in self.base.shape)
        self.counts: np.ndarray | None = None
        self.backend = backend
        self.counter = NULL_COUNTER if counter is None else counter

        sum_spec = _as_spec(sum_index, sum_params)
        if sum_spec.kind != "sum":
            raise ValueError(
                f"sum_index must name a 'sum' index, "
                f"{sum_spec.name!r} is {sum_spec.kind!r}"
            )

        max_spec = (
            None if max_index is None else _as_spec(max_index, max_params)
        )
        if max_spec is not None and max_spec.kind != "max":
            raise ValueError(
                f"max_index must name a 'max' index, "
                f"{max_spec.name!r} is {max_spec.kind!r}"
            )
        self.sum_spec = sum_spec
        self.max_spec = max_spec

        # Every structure adopts the engine's arrays instead of copying;
        # its derived arrays still allocate through ``owner``.
        shared = (
            owner if isinstance(owner, AdoptingBackend)
            else AdoptingBackend(owner)
        )
        # The routing table: aggregate name -> instrumented index (or
        # None when that aggregate was not built).  Query methods only
        # ever consult this table — never concrete structure types.
        self._routes: dict[str, InstrumentedIndex | None] = {
            name: None for name in AGGREGATES
        }
        self._routes["sum"] = self._instrument(
            sum_spec.build(self.base, backend=shared)
        )
        if counts is not None:
            if np.shape(counts) != self.shape:
                raise ValueError("counts cube must match the measure cube")
            self.counts = owner.materialize("counts", np.asarray(counts))
            self._routes["count"] = self._instrument(
                sum_spec.build(self.counts, backend=shared)
            )
        if max_spec is not None:
            ordered = (
                self.base.view(np.int8)
                if self.base.dtype == np.bool_
                else self.base
            )
            min_spec = _as_spec(max_spec, {"order": "min"})
            self._routes["max"] = self._instrument(
                max_spec.build(ordered, backend=shared)
            )
            self._routes["min"] = self._instrument(
                min_spec.build(ordered, backend=shared)
            )

    def _instrument(self, index: object) -> InstrumentedIndex:
        return InstrumentedIndex(index, self.counter)

    def route(self, aggregate: str) -> InstrumentedIndex | None:
        """The index serving ``aggregate`` (``None`` when not built)."""
        if aggregate not in self._routes:
            raise KeyError(
                f"unknown aggregate {aggregate!r}; one of {AGGREGATES}"
            )
        return self._routes[aggregate]

    def describe(self) -> dict[str, Any]:
        """Per-aggregate descriptions of every built structure."""
        return {
            name: route.describe()
            for name, route in self._routes.items()
            if route is not None
        }

    # ------------------------------------------------------------------
    # Scalar query path
    # ------------------------------------------------------------------

    def _resolve(self, query: RangeQuery | Box) -> Box:
        return canonical_box(query, self.shape)

    def sum(
        self,
        query: RangeQuery | Box,
        counter: AccessCounter = NULL_COUNTER,
    ) -> object:
        """Range-sum of the measure (a plain Python scalar)."""
        route = self._routes["sum"]
        assert route is not None
        return py_scalar(route.query(self._resolve(query), counter))

    def count(
        self,
        query: RangeQuery | Box,
        counter: AccessCounter = NULL_COUNTER,
    ) -> object:
        """Range-count: record counts if provided, else cell count."""
        box = self._resolve(query)
        route = self._routes["count"]
        if route is None:
            return box.volume
        return py_scalar(route.query(box, counter))

    def average(
        self,
        query: RangeQuery | Box,
        counter: AccessCounter = NULL_COUNTER,
    ) -> float | None:
        """Range-average from the (sum, count) pair (§1).

        Returns:
            The average as a float, or ``None`` when the region holds no
            records (zero count — the documented SQL ``AVG``-over-empty
            answer, which also covers empty boxes).
        """
        box = self._resolve(query)
        total = self.sum(box, counter)
        denominator = self.count(box, counter)
        if denominator == 0:
            return None
        return float(total) / float(denominator)

    def max(
        self,
        query: RangeQuery | Box,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[tuple[int, ...], object]:
        """Range-max: ``(index, value)`` of a maximum cell."""
        return self._witness("max", query, counter)

    def min(
        self,
        query: RangeQuery | Box,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[tuple[int, ...], object]:
        """Range-min: ``(index, value)`` of a minimum cell.

        Answered by the min-ordered §6 tree over the same base cube, so
        the value is the cell itself in the cube's own dtype (exact for
        every integer width, uint64 included).
        """
        return self._witness("min", query, counter)

    def _witness(
        self, aggregate: str, query: RangeQuery | Box, counter: AccessCounter
    ) -> tuple[tuple[int, ...], object]:
        route = self._routes[aggregate]
        if route is None:
            raise RuntimeError("engine was built without max trees")
        box = self._resolve(query)
        hit = route.query(box, counter)
        if hit is None:
            raise ValueError(f"no non-empty cell in {box}")
        index, value = hit
        return index, py_scalar(value)

    # ------------------------------------------------------------------
    # Batch query execution (the vectorized path of repro.query.batch)
    # ------------------------------------------------------------------

    def _batch_arrays(
        self, lows: object, highs: object, *, allow_empty: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalize a query batch to validated ``(K, d)`` arrays.

        Accepts either ``(lows, highs)`` integer arrays of shape
        ``(K, d)`` or, when ``highs`` is None, a sequence of
        :class:`Box` / :class:`RangeQuery` objects as ``lows``.
        ``allow_empty`` follows the empty-range rule: identity-valued
        aggregates (sum/count/average) accept empty rows, witness-valued
        ones (max/min) reject them.
        """
        from repro.query.batch import boxes_to_arrays, normalize_query_arrays

        if highs is None:
            lows, highs = boxes_to_arrays(lows, self.shape)
        return normalize_query_arrays(
            lows, highs, self.shape, allow_empty=allow_empty
        )

    def sum_many(
        self,
        lows: object,
        highs: object | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Range-sums for ``K`` queries through the batch protocol path.

        Structures with a vectorized kernel (one fancy-indexed gather for
        all ``K · 2^d`` Theorem-1 corners) answer in O(1) numpy ops; the
        rest fall back to the protocol's scalar loop.  Element-wise
        identical to :meth:`sum` for exact dtypes.

        Args:
            lows: ``(K, d)`` inclusive lower bounds, or a sequence of
                ``Box`` / ``RangeQuery`` objects (then omit ``highs``).
            highs: ``(K, d)`` inclusive upper bounds.
            counter: Standard access counter.

        Returns:
            A ``(K,)`` numpy array of sums, in query order; empty rows
            (``hi < lo``) yield the operator identity.
        """
        lo, hi = self._batch_arrays(lows, highs, allow_empty=True)
        route = self._routes["sum"]
        assert route is not None
        return route.query_many(lo, hi, counter)

    def count_many(
        self,
        lows: object,
        highs: object | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Range-counts for ``K`` queries (batch analogue of :meth:`count`).

        With a counts cube this is a second gather on the counts prefix
        structure (the paper's (sum, count) pair); without one it is the
        queries' cell volumes, computed in one vectorized product.
        Empty rows count zero cells.
        """
        lo, hi = self._batch_arrays(lows, highs, allow_empty=True)
        route = self._routes["count"]
        if route is None:
            # Clamp per-dimension lengths at zero so an empty row's
            # volume is 0, not a product of negative extents.
            return np.prod(np.maximum(hi - lo + 1, 0), axis=1)
        return route.query_many(lo, hi, counter)

    def average_many(
        self,
        lows: object,
        highs: object | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Range-averages for ``K`` queries from the (sum, count) pair.

        One gather for the sums, one for the counts, one vectorized
        division — each element equals the scalar :meth:`average` of the
        same box exactly (same two integers, same float division).

        Returns:
            A ``(K,)`` float64 array of averages.  When any query's
            count is zero, the result is instead an object array whose
            zero-count entries are ``None`` (matching the scalar
            :meth:`average` contract).
        """
        lo, hi = self._batch_arrays(lows, highs, allow_empty=True)
        sum_route = self._routes["sum"]
        assert sum_route is not None
        totals = sum_route.query_many(lo, hi, counter)
        count_route = self._routes["count"]
        if count_route is None:
            denominators = np.prod(np.maximum(hi - lo + 1, 0), axis=1)
        else:
            denominators = count_route.query_many(lo, hi, counter)
        return divide_averages(totals, denominators)

    def max_many(
        self,
        lows: object,
        highs: object | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-max for ``K`` queries through the batch protocol path.

        The tree-backed structure walks all searches together, one
        vectorized wave per level, with branch-and-bound pruning applied
        across the whole frontier.  Values are exact; tied argmax indices
        may differ from the scalar path's pick (both are valid
        witnesses).

        Returns:
            ``(indices, values)``: a ``(K, d)`` int64 array of argmax
            coordinates and the ``(K,)`` array of maxima.
        """
        route = self._routes["max"]
        if route is None:
            raise RuntimeError("engine was built without max trees")
        lo, hi = self._batch_arrays(lows, highs)
        return route.query_many(lo, hi, counter)

    def min_many(
        self,
        lows: object,
        highs: object | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-min for ``K`` queries (the shared descent of the
        min-ordered tree).

        Returns:
            ``(indices, values)``: a ``(K, d)`` int64 array of argmin
            coordinates and the ``(K,)`` array of minima.
        """
        route = self._routes["min"]
        if route is None:
            raise RuntimeError("engine was built without max trees")
        lo, hi = self._batch_arrays(lows, highs)
        return route.query_many(lo, hi, counter)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply_updates(
        self,
        updates: Sequence[PointUpdate],
        count_updates: Sequence[PointUpdate] | None = None,
    ) -> None:
        """Write a batch of deltas into the base (and counts) once, then
        :meth:`absorb` it.  A batch some cell cannot hold exactly is
        rejected by :func:`~repro.core.batch_update.write_batch` with
        :class:`~repro.core.batch_update.UnfitUpdate` before the first
        write, so it changes nothing.

        Args:
            updates: Measure deltas per cell.
            count_updates: Optional record-count deltas (needed when the
                engine was built with a counts cube and AVERAGE must stay
                exact).
        """
        from repro.core.batch_update import write_batch

        self.absorb(*write_batch(self.base, updates, self.counts, count_updates))

    def absorb(
        self,
        changes: CellChanges,
        count_changes: CellChanges | None = None,
    ) -> None:
        """Let every route ``absorb`` a batch already written into the
        base (and counts): the sum index's ``P`` from the merged deltas
        (§5), the trees' levels from each cell's old and new value (§7).

        Args:
            changes: The staged measure batch
                :func:`~repro.core.batch_update.write_batch` returned.
            count_changes: The staged record-count batch, if any.
        """
        for name, staged in (
            ("sum", changes), ("max", changes), ("min", changes),
            ("count", count_changes),
        ):
            route = self._routes[name]
            if route is not None and staged is not None:
                route.absorb(staged)

    def rolling_sum(
        self,
        axis: int,
        window: int,
        fixed: Sequence[tuple[int, int]] | None = None,
        counter: AccessCounter = NULL_COUNTER,
    ) -> Iterator[tuple[int, object]]:
        """ROLLING SUM along one dimension (§1: a range-sum special case).

        Args:
            axis: Dimension the window slides along.
            window: Window length in ranks.
            fixed: Optional ``(lo, hi)`` bounds for the other dimensions
                (defaults to their full extent).

        Returns:
            An iterator of ``(start_rank, window_sum)`` per position.
            The whole sweep is evaluated as one query batch (shifted
            prefix differences via :meth:`sum_many`) — no per-window
            loop — before the first pair is yielded.
        """
        from repro.query.batch import rolling_window_bounds

        lows, highs = rolling_window_bounds(
            self.shape, axis, window, fixed
        )
        route = self._routes["sum"]
        assert route is not None
        values = route.query_many(lows, highs, counter)
        return iter(
            [
                (int(start), py_scalar(value))
                for start, value in zip(lows[:, axis], values)
            ]
        )
