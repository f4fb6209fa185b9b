"""The RangeSumIndex / RangeMaxIndex protocols and their default mixins.

The paper presents its structures as one family — the basic prefix sum
(§3), the blocked variant (§4), the partial-dimension designs (§9.1), and
the b-ary max tree (§6) all trade space, query cost, and update cost over
the same cube.  This module makes that family a *contract*:

* :class:`RangeSumIndex` — anything that answers ``Sum(box)``-style
  aggregates: ``query``, ``query_many``, ``apply_updates``,
  ``memory_cells``, ``describe`` (plus a ``build`` classmethod).
* :class:`RangeMaxIndex` — the MAX side of the family: ``query`` returns
  an ``(index, value)`` witness pair.

Concrete structures inherit the matching mixin
(:class:`RangeSumIndexMixin` / :class:`RangeMaxIndexMixin`), which
supplies protocol defaults in terms of the structure's existing scalar
entry points.  In particular ``query_many`` delegates to ``sum_many``,
and the mixin's ``sum_many`` default *loops the scalar path* — so every
structure gains batch support for free, and the vectorized kernels of
:mod:`repro.query.batch` become per-class overrides rather than special
cases the engine must know about.  A structure's scalar ``range_sum``
(with :mod:`repro.query.naive`) is also the reference its batch override
is tested against.

:class:`InstrumentedIndex` is the access-counter wrapper: it binds an
:class:`~repro.instrumentation.AccessCounter` to an index once, so
callers like :class:`~repro.query.engine.RangeQueryEngine` thread
instrumentation through a uniform protocol surface instead of forwarding
``counter=`` arguments into structure-specific signatures.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro._util import Box
from repro.instrumentation import NULL_COUNTER, AccessCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import CellChanges, PointUpdate


@runtime_checkable
class RangeSumIndex(Protocol):
    """Contract for range-SUM (COUNT/AVERAGE via derived cubes) indexes."""

    def query(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """The aggregate of ``box`` (a scalar)."""

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Aggregates for ``K`` boxes given as ``(K, d)`` bound arrays."""

    def apply_updates(self, updates: Sequence[PointUpdate]) -> object:
        """Absorb a batch of point deltas into the structure."""

    def memory_cells(self) -> int:
        """Cells of auxiliary storage held (the paper's space measure)."""

    def describe(self) -> dict[str, Any]:
        """A plain-dict self-description (name, params, space)."""


@runtime_checkable
class RangeMaxIndex(Protocol):
    """Contract for range-MAX indexes (MIN: the same index ordered by ``<``)."""

    def query(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> tuple[tuple[int, ...], object] | None:
        """``(index, value)`` of a maximum cell in ``box``."""

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` arrays for ``K`` boxes."""

    def apply_updates(self, updates: Sequence[PointUpdate]) -> object:
        """Absorb a batch of point deltas into the structure."""

    def memory_cells(self) -> int:
        """Cells/nodes of auxiliary storage held."""

    def describe(self) -> dict[str, Any]:
        """A plain-dict self-description (name, params, space)."""


class _IndexBase:
    """Shared protocol defaults (build / describe / persistence hooks)."""

    #: Set by ``@register_index``; falls back to the class name.
    index_name: str | None = None
    #: "sum" or "max" — set by the concrete mixin below.
    index_kind: str = "index"

    @classmethod
    def build(cls, cube: object, **params: object) -> _IndexBase:
        """Construct an index over ``cube`` (the protocol's factory)."""
        return cls(cube, **params)

    def index_params(self) -> dict[str, Any]:
        """Construction parameters worth reporting (and persisting)."""
        return {}

    def apply_updates(self, updates: Sequence[PointUpdate]) -> object:
        """The one standalone update path: write the batch into the
        ``source`` cube once (:func:`~repro.core.batch_update.write_batch`;
        without one, nothing is staged), then :meth:`absorb` it."""
        from repro.core.batch_update import merge_changes, write_batch
        from repro.core.operators import SUM

        source = getattr(self, "source", None)
        operator = getattr(self, "operator", SUM)
        if source is None:
            changes = merge_changes(updates, self.shape, operator)
        else:
            changes, _ = write_batch(source, updates, operator=operator)
        return self.absorb(changes)

    def absorb(self, changes: CellChanges) -> object:
        """Maintain the derived arrays from a batch ``A`` already holds."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support batch updates; "
            "rebuild the structure instead"
        )

    def memory_cells(self) -> int:
        """Cells of auxiliary storage held (structures override)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not report its storage"
        )

    def describe(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "index": self.index_name or type(self).__name__,
            "class": type(self).__name__,
            "kind": self.index_kind,
            "shape": tuple(int(n) for n in self.shape),
            "memory_cells": int(self.memory_cells()),
        }
        params = self.index_params()
        if params:
            info["params"] = params
        backend = getattr(self, "backend", None)
        if backend is not None:
            info.update(backend.describe())
        return info

    # -- persistence hooks (see repro.io.save_index_manifest / open_index)

    def state_dict(self) -> dict[str, Any]:
        """Defining arrays + scalar params, enough to reconstruct."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support generic persistence"
        )

    @classmethod
    def from_state(cls, state: dict[str, Any], backend: object = None) -> _IndexBase:
        """Rebuild from :meth:`state_dict` output without recomputation."""
        raise NotImplementedError(
            f"{cls.__name__} does not support generic persistence"
        )


class RangeSumIndexMixin(_IndexBase):
    """Protocol defaults for SUM-family structures.

    Assumes the concrete class provides ``range_sum(box, counter)`` and a
    ``shape`` attribute.  ``sum_many`` here is the *protocol default* —
    a scalar loop — which vectorized structures override; ``query_many``
    always routes through ``sum_many`` so overrides are picked up.
    """

    index_kind = "sum"

    def query(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Protocol spelling of :meth:`range_sum`."""
        return self.range_sum(box, counter)

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Batch entry point; uses the class's best ``sum_many``."""
        return self.sum_many(lows, highs, counter)

    def sum_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Default batch path: the scalar query per row.

        Structures with a vectorized kernel override this; everything
        else gains a correct (if unvectorized) batch API for free.
        Empty rows are legal and come back as the scalar path answers
        them (the operator identity).
        """
        from repro.query.batch import normalize_query_arrays

        lo, hi = normalize_query_arrays(
            lows, highs, self.shape, allow_empty=True
        )
        results = [
            self.range_sum(
                Box(tuple(int(x) for x in l), tuple(int(x) for x in h)),
                counter,
            )
            for l, h in zip(lo, hi)
        ]
        return np.asarray(results)


class RangeMaxIndexMixin(_IndexBase):
    """Protocol defaults for MAX-family structures.

    Assumes the concrete class provides ``query(box, counter)`` returning
    an ``(index, value)`` pair (or ``None`` for an all-empty sparse
    region) and a ``shape`` attribute.
    """

    index_kind = "max"

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Default batch path: the scalar witness search per row."""
        from repro.query.batch import normalize_query_arrays

        lo, hi = normalize_query_arrays(lows, highs, self.shape)
        count, ndim = lo.shape
        indices = np.empty((count, ndim), dtype=np.int64)
        values: list[object] = []
        for k in range(count):
            box = Box(
                tuple(int(x) for x in lo[k]), tuple(int(x) for x in hi[k])
            )
            hit = self.query(box, counter)
            if hit is None:
                raise ValueError(
                    f"query {k} covers no non-empty cell; the batch max "
                    "path needs a witness per query"
                )
            index, value = hit
            indices[k] = index
            values.append(value)
        return indices, np.asarray(values)


def values_match(actual: object, expected: object) -> bool:
    """Exact agreement between an index answer and an oracle answer.

    ``None`` only matches ``None`` (the MAX-over-empty answer); anything
    else is compared numerically and element-wise, so bool/int/float
    representations of the same aggregate agree.  The differential
    harness keeps every scenario value exactly representable, so no
    tolerance is ever applied.
    """
    if actual is None or expected is None:
        return actual is None and expected is None
    a = np.asarray(actual)
    b = np.asarray(expected)
    if a.shape != b.shape:
        return False
    return bool(np.all(a == b))


class InstrumentedIndex:
    """An index with an :class:`AccessCounter` bound to every call.

    The engine used to forward ``counter=`` into each structure-specific
    method; this wrapper moves that threading into the protocol layer:
    construct once with the counter that should observe the index, and
    every ``query`` / ``query_many`` charges it.  A counter passed
    explicitly at call time takes precedence (per-query measurement),
    otherwise the bound counter is used.

    Any attribute the protocol does not cover (``source``, ``operator``,
    ``block_size``...) forwards to the wrapped index, so the wrapper is
    transparent to code that knows the concrete type.
    """

    __slots__ = ("index", "counter")

    def __init__(
        self, index: object, counter: AccessCounter = NULL_COUNTER
    ) -> None:
        self.index = index
        self.counter = counter

    def _pick(self, counter: AccessCounter) -> AccessCounter:
        if counter is NULL_COUNTER or counter is None:
            return self.counter
        return counter

    def query(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        return self.index.query(box, self._pick(counter))

    def query_many(
        self,
        lows: object,
        highs: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> object:
        return self.index.query_many(lows, highs, self._pick(counter))

    def apply_updates(self, updates: object) -> object:
        return self.index.apply_updates(updates)

    def absorb(self, changes: object) -> object:
        return self.index.absorb(changes)

    def compare_query(
        self,
        box: Box,
        expected: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> dict | None:
        """Run ``query`` and diff the answer against an oracle's.

        The differential harness's scalar probe for SUM-family indexes
        (MAX witnesses need semantic validation — any cell attaining the
        maximum is correct — which the harness does itself).

        Returns:
            ``None`` on exact agreement, otherwise a divergence record
            with the box, the expected and the actual answer.
        """
        actual = self.query(box, self._pick(counter))
        if values_match(actual, expected):
            return None
        return {
            "kind": "query",
            "box": [list(box.lo), list(box.hi)],
            "expected": repr(expected),
            "actual": repr(actual),
        }

    def compare_query_many(
        self,
        lows: object,
        highs: object,
        expected: object,
        counter: AccessCounter = NULL_COUNTER,
    ) -> dict | None:
        """Run ``query_many`` and diff each row against oracle answers.

        Returns:
            ``None`` on exact agreement, otherwise a divergence record
            naming the first mismatching row.
        """
        actual = np.asarray(
            self.query_many(lows, highs, self._pick(counter))
        )
        wanted = np.asarray(expected)
        lo = np.asarray(lows)
        hi = np.asarray(highs)
        if actual.shape != wanted.shape:
            return {
                "kind": "query_many",
                "row": None,
                "expected": f"shape {wanted.shape}",
                "actual": f"shape {actual.shape}",
            }
        for k in range(wanted.shape[0]):
            if not values_match(actual[k], wanted[k]):
                return {
                    "kind": "query_many",
                    "row": int(k),
                    "box": [list(map(int, lo[k])), list(map(int, hi[k]))],
                    "expected": repr(wanted[k]),
                    "actual": repr(actual[k]),
                }
        return None

    def memory_cells(self) -> int:
        return self.index.memory_cells()

    def describe(self) -> dict[str, Any]:
        return self.index.describe()

    def __getattr__(self, name: str) -> object:
        return getattr(self.index, name)

    def __repr__(self) -> str:
        return f"InstrumentedIndex({self.index!r})"
