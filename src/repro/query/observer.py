"""Windowed, decay-weighted workload observation (the §9 loop's eyes).

Section 9 assumes the physical-design algorithms are *"given either a
query log, or statistics which capture the average query statistics for
each cuboid as well as the number of queries"*.  Retaining every query
forever is fine for offline tuning but wrong for an online advisor:
memory grows without bound and last week's dashboard traffic outvotes
the workload of the last five minutes.

:class:`WorkloadObserver` is a bounded ring buffer plus exponential
event decay:

* at most ``capacity`` queries are retained (the ring drops the oldest);
* every observed event (query *or* update) ages earlier events by a
  factor ``decay``, so an entry that is ``a`` events old carries weight
  ``decay**a`` — the window re-estimates the Table-1 statistics
  (``V``, per-dimension ``x̄_i``, ``S``) and the per-operator
  query/update mix from *recent* traffic;
* :meth:`snapshot` freezes the current window into an immutable
  :class:`WorkloadSnapshot` the §9 advisor consumes without racing the
  live stream.

``capacity=None`` with ``decay=1.0`` degenerates to a grow-forever,
uniformly-weighted log — what :meth:`WorkloadObserver.load` rebuilds.
The retained queries serialize to plain JSON
(:meth:`WorkloadObserver.save` / :meth:`WorkloadObserver.load`; a served
cube's window is what ``ServeConfig(logbook_path=...)`` writes) so the
serve → log → re-tune → re-materialize loop can run offline.

.. note::
   ``WorkloadObserver`` deliberately has **no truth value**: it defines
   ``__len__``, so ``if log:`` would silently mean "non-empty", and a
   zero-traffic log would vanish from ``is it configured?`` checks (a
   zero-query logbook once went unsaved that way).  ``bool``
   on an observer raises; write ``log is not None`` for presence and
   ``len(log)`` for traffic.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

from repro._util import Box
from repro.query.ranges import RangeQuery, RangeSpec, SpecKind
from repro.query.stats import QueryStatistics, average_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.optimizer.cuboid_selection import CuboidWorkload

#: Operator labels the observer tallies (serving's scalar surface plus
#: the update stream; anything else lands under its own label).
QUERY_OPS = ("sum", "count", "average", "max", "min")

#: The event label for point updates in the mix.
UPDATE_OP = "update"


@dataclass(frozen=True)
class WorkloadSnapshot:
    """An immutable view of the observed window, advisor-ready.

    Attributes:
        shape: Rank-domain shape of the observed cube.
        queries: The retained window, oldest first, each query paired
            with its decay weight at snapshot time.
        op_weights: Decay-weighted event count per operator label
            (queries under their operator, updates under ``"update"``).
        queries_seen: Lifetime query count (not windowed, not decayed).
        updates_seen: Lifetime update count.
    """

    shape: tuple[int, ...]
    queries: tuple[tuple[RangeQuery, float], ...]
    op_weights: dict[str, float] = field(default_factory=dict)
    queries_seen: int = 0
    updates_seen: int = 0

    @property
    def query_weight(self) -> float:
        """Total decayed weight of the retained queries."""
        return sum(w for _, w in self.queries)

    @property
    def update_weight(self) -> float:
        """Decayed weight of observed updates."""
        return float(self.op_weights.get(UPDATE_OP, 0.0))

    @property
    def update_query_ratio(self) -> float:
        """Decay-weighted updates per query (∞-free: 0 when no queries)."""
        qw = self.query_weight
        return self.update_weight / qw if qw > 0 else 0.0

    def has_queries(self) -> bool:
        """Whether the window retained any query at all."""
        return bool(self.queries)

    def statistics(self) -> QueryStatistics | None:
        """Weighted-average Table-1 statistics (V, x̄_i, S) of the window.

        Returns ``None`` on a zero-traffic window instead of raising —
        the advisor's graceful-degradation contract.
        """
        if not self.queries:
            return None
        stats = [
            QueryStatistics.from_query(q, self.shape)
            for q, _ in self.queries
        ]
        weights = [w for _, w in self.queries]
        return average_statistics(stats, weights=weights)

    def workloads(self) -> list[CuboidWorkload]:
        """Per-cuboid decay-weighted statistics for the §9.2 selector."""
        from repro.optimizer.cuboid_selection import (
            workloads_from_weighted,
        )

        return workloads_from_weighted(self.queries, self.shape)

    def length_matrix(self) -> np.ndarray:
        """The §9.1 ``r_ij`` matrix over the retained window."""
        from repro.optimizer.dimension_selection import (
            active_range_lengths,
        )

        return active_range_lengths(
            [q for q, _ in self.queries], self.shape
        )

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready summary (the ``/design`` endpoint's view)."""
        stats = self.statistics()
        return {
            "shape": list(self.shape),
            "window_queries": len(self.queries),
            "query_weight": self.query_weight,
            "update_weight": self.update_weight,
            "update_query_ratio": self.update_query_ratio,
            "queries_seen": self.queries_seen,
            "updates_seen": self.updates_seen,
            "op_weights": {
                op: w for op, w in sorted(self.op_weights.items())
            },
            "mean_lengths": (
                None if stats is None else list(stats.lengths)
            ),
            "volume": None if stats is None else stats.volume,
            "surface": None if stats is None else stats.surface,
        }


class WorkloadObserver:
    """A bounded, decay-weighted window over live query/update traffic.

    Args:
        shape: Rank-domain shape of the cube the traffic targets.
        capacity: Queries retained in the ring buffer; ``None`` retains
            everything (an offline query log).
        decay: Per-event aging factor in ``(0, 1]``.  ``1.0`` weights
            all retained events equally; ``0.999`` halves an entry's
            vote roughly every 700 events.
    """

    def __init__(
        self,
        shape: Sequence[int],
        *,
        capacity: int | None = 4096,
        decay: float = 1.0,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.shape = tuple(int(n) for n in shape)
        self.capacity = capacity
        self.decay = float(decay)
        self._ring: deque[tuple[RangeQuery, int]] = deque(
            maxlen=capacity
        )
        self._events = 0  # lifetime event counter (queries + updates)
        self._op_weights: dict[str, float] = {}
        self.queries_seen = 0
        self.updates_seen = 0

    def __len__(self) -> int:
        """Queries currently retained in the window."""
        return len(self._ring)

    def __bool__(self) -> NoReturn:
        """Refuse truthiness outright — it has two plausible meanings.

        ``__len__`` would make ``bool(log)`` mean "has entries", which
        reads identically to a presence check ``if log:`` — the
        confusion that once left a zero-query logbook unsaved.
        """
        raise TypeError(
            "WorkloadObserver has no truth value: use 'log is not None' "
            "for presence and 'len(log)' for traffic"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _tick(self, op: str) -> None:
        """Age every tallied operator by one event; credit ``op``."""
        if self.decay < 1.0:
            for key in self._op_weights:
                self._op_weights[key] *= self.decay
        self._op_weights[op] = self._op_weights.get(op, 0.0) + 1.0
        self._events += 1

    def observe_query(
        self, query: RangeQuery, op: str = "sum"
    ) -> RangeQuery:
        """Record one query (validated against the shape); returns it so
        call sites can observe and execute in one expression."""
        if query.ndim != len(self.shape):
            raise ValueError(
                f"query has {query.ndim} dims, observer expects "
                f"{len(self.shape)}"
            )
        query.to_box(self.shape)  # validates every spec's bounds
        self._tick(op)
        self._ring.append((query, self._events - 1))
        self.queries_seen += 1
        return query

    def observe_box(self, box: Box, op: str = "sum") -> RangeQuery | None:
        """Record a served box, recovering its all/singleton/range form.

        Empty boxes are legal queries but carry no workload signal, so
        they are skipped (returns ``None``).
        """
        if box.is_empty:
            return None
        return self.observe_query(
            RangeQuery.from_box(box, self.shape), op
        )

    def observe_update(self, count: int = 1) -> None:
        """Record ``count`` applied point updates (one event each)."""
        if count < 0:
            raise ValueError(f"update count must be >= 0, got {count}")
        for _ in range(count):
            self._tick(UPDATE_OP)
        self.updates_seen += count

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _weight(self, event_index: int) -> float:
        """Decay weight of the event recorded at ``event_index``."""
        if self.decay >= 1.0:
            return 1.0
        return self.decay ** (self._events - 1 - event_index)

    @property
    def queries(self) -> tuple[RangeQuery, ...]:
        """The retained queries, oldest first (weights dropped)."""
        return tuple(q for q, _ in self._ring)

    def snapshot(self) -> WorkloadSnapshot:
        """Freeze the current window into an immutable snapshot."""
        return WorkloadSnapshot(
            shape=self.shape,
            queries=tuple(
                (q, self._weight(at)) for q, at in self._ring
            ),
            op_weights=dict(self._op_weights),
            queries_seen=self.queries_seen,
            updates_seen=self.updates_seen,
        )

    def clear(self) -> None:
        """Forget the window and every tally (a fresh observer)."""
        self._ring.clear()
        self._op_weights.clear()
        self._events = 0
        self.queries_seen = 0
        self.updates_seen = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the retained queries (shape + per-query specs)."""
        payload = {
            "shape": list(self.shape),
            "queries": [
                [_spec_to_json(spec) for spec in query.specs]
                for query in self.queries
            ],
        }
        return json.dumps(payload)

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the JSON serialization to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> WorkloadObserver:
        """Rebuild an unbounded, uniform-weight log from :meth:`to_json`."""
        payload = json.loads(text)
        log = cls(payload["shape"], capacity=None, decay=1.0)
        for specs in payload["queries"]:
            log.observe_query(
                RangeQuery(tuple(_spec_from_json(s) for s in specs))
            )
        return log

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> WorkloadObserver:
        """Read a log previously written by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _spec_to_json(spec: RangeSpec) -> list[object]:
    if spec.kind is SpecKind.ALL:
        return ["all"]
    if spec.kind is SpecKind.SINGLETON:
        return ["at", spec.lo]
    return ["between", spec.lo, spec.hi]


def _spec_from_json(data: Sequence[Any]) -> RangeSpec:
    kind = data[0]
    if kind == "all":
        return RangeSpec.all()
    if kind == "at":
        return RangeSpec.at(int(data[1]))
    if kind == "between":
        return RangeSpec.between(int(data[1]), int(data[2]))
    raise ValueError(f"unknown spec kind {kind!r}")
