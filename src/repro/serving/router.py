"""Tiered query routing: materialized plan → live indexes → naive scan.

A served cube can carry up to three answering tiers, tried cheapest
first:

1. **materialized** — a §9 physical-design plan
   (:class:`~repro.optimizer.materialize.MaterializedCuboidSet`); used
   for SUM when the plan routes the query to a materialized ancestor
   cuboid (``route()`` non-None, so the tier label is honest — the
   plan's own base-scan fallback is never reported as tier 1).
2. **indexed** — the cube's
   :class:`~repro.query.engine.RangeQueryEngine` (prefix-sum family for
   sum/count/average, max trees for max/min).  This is the only tier
   with a vectorized batch path, so coalesced dispatch always lands
   here.
3. **fallback** — a naive scan of the retained base cube: the paper's
   no-precomputation control arm, correct for every operator at
   ``O(volume)`` cost.

The router *chooses* a tier and *runs* the chosen computation
synchronously; the service owns timing, offload to worker threads, and
the cache/coalescer in front.  Per-``(cube, tier)`` latency totals are
recorded via :meth:`TieredRouter.record` and surfaced under ``/stats``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util import Box
from repro.query.engine import divide_averages, py_scalar
from repro.query.naive import (
    naive_group_by,
    naive_max_index,
    naive_min_index,
    naive_range_sum,
)
from repro.query.ranges import RangeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.service import ServedCube

#: Tier names, cheapest-first (the probe order for scalar routing).
TIERS = ("materialized", "indexed", "fallback")

#: Operators the scalar surface serves.
SCALAR_OPS = ("sum", "count", "average", "max", "min")


@dataclass
class TierStats:
    """Latency accounting for one ``(cube, tier)`` pair."""

    queries: int = 0
    seconds: float = 0.0
    max_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.queries += 1
        self.seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def snapshot(self) -> dict:
        average = self.seconds / self.queries if self.queries else 0.0
        return {
            "queries": self.queries,
            "total_ms": self.seconds * 1e3,
            "avg_ms": average * 1e3,
            "max_ms": self.max_seconds * 1e3,
        }


class TieredRouter:
    """Choose and run the cheapest tier able to answer a request."""

    def __init__(self) -> None:
        self._stats: dict[tuple[str, str], TierStats] = {}

    # ------------------------------------------------------------------
    # Tier selection
    # ------------------------------------------------------------------

    def choose_scalar(
        self,
        cube: ServedCube,
        op: str,
        query: RangeQuery | None,
        box: Box,
    ) -> str:
        """The tier a scalar ``op`` over ``box`` will execute on."""
        if (
            op == "sum"
            and query is not None
            and cube.cuboids is not None
            and cube.cuboids.route(query) is not None
        ):
            return "materialized"
        return self._unmaterialized_tier(cube)

    def choose_batch(self, cube: ServedCube, op: str) -> str:
        """The tier a ``K``-row batch of ``op`` executes on.

        Batches skip the materialized tier (the §9 plan has no batch
        surface); they run on the engine's vectorized ``*_many`` path
        when available, else row-by-row on the fallback scan.
        """
        return self._unmaterialized_tier(cube)

    def _unmaterialized_tier(self, cube: ServedCube) -> str:
        """Indexed when the cube has an engine (it covers every
        operator), else the fallback."""
        return "indexed" if cube.engine is not None else "fallback"

    def choose_rollup(
        self, cube: ServedCube, op: str, dims: Sequence[int]
    ) -> tuple[str, np.ndarray, Sequence[int]]:
        """A roll-up's tier, the array it reduces, and ``dims`` as axes
        of that array: an exact-dtype SUM reads the smallest covering
        cuboid (SUM is distributive); any other roll-up reads the base
        cube and is labelled as a batch of ``op`` is."""
        exact = cube.base.dtype.kind in "biu"
        if op == "sum" and exact and cube.cuboids is not None:
            cuboid = cube.cuboids.covering(dims)
            if cuboid is not None:
                axes = [cuboid.key.index(d) for d in dims]
                return "materialized", cuboid.structure.source, axes
        return self._unmaterialized_tier(cube), cube.base, dims

    # ------------------------------------------------------------------
    # Execution (synchronous — the service decides where this runs)
    # ------------------------------------------------------------------

    def run_scalar(
        self,
        cube: ServedCube,
        tier: str,
        op: str,
        query: RangeQuery | None,
        box: Box,
    ) -> object:
        """Run one scalar aggregate on the chosen tier.

        Returns a plain scalar for sum/count, ``float | None`` for
        average, and ``(index, value)`` for max/min — byte-identical to
        the engine surface so served answers match direct calls.
        """
        if tier == "materialized":
            assert query is not None and cube.cuboids is not None
            return py_scalar(cube.cuboids.range_sum(query, cube.counter))
        if tier == "indexed":
            engine = cube.engine
            assert engine is not None
            method = getattr(engine, op)
            result = method(box)
            if op in ("max", "min"):
                index, value = result
                return tuple(int(i) for i in index), value
            return result
        return self._run_fallback_scalar(cube, op, box)

    def _run_fallback_scalar(
        self, cube: ServedCube, op: str, box: Box
    ) -> object:
        base = cube.base
        counter = cube.counter
        if op == "sum":
            return py_scalar(naive_range_sum(base, box, counter))
        if op == "count":
            if cube.counts is not None:
                return py_scalar(naive_range_sum(cube.counts, box, counter))
            return box.volume
        if op == "average":
            total = py_scalar(naive_range_sum(base, box, counter))
            denominator = self._run_fallback_scalar(cube, "count", box)
            if denominator == 0:
                return None
            return float(total) / float(denominator)
        if op == "max":
            index = naive_max_index(base, box, counter)
            return index, py_scalar(base[index])
        index = naive_min_index(base, box, counter)  # "min"
        return index, py_scalar(base[index])

    def run_batch(
        self,
        cube: ServedCube,
        tier: str,
        op: str,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> object:
        """Run a ``(K, d)`` batch on the chosen tier.

        Returns a ``(K,)`` value array for sum/count/average and
        ``(indices, values)`` for max/min, exactly as the engine's
        ``*_many`` methods do.
        """
        if tier == "indexed":
            engine = cube.engine
            assert engine is not None
            return getattr(engine, f"{op}_many")(lows, highs)
        rows = [
            Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
            for lo, hi in zip(lows, highs)
        ]
        if op in ("sum", "count", "average"):
            values = [
                self._run_fallback_scalar(cube, op, box) for box in rows
            ]
            if op == "average" and any(v is None for v in values):
                out = np.empty(len(values), dtype=object)
                out[:] = values
                return out
            return np.asarray(values)
        indices = []
        values = []
        for box in rows:
            index, value = self._run_fallback_scalar(cube, op, box)
            indices.append(index)
            values.append(value)
        return (
            np.asarray(indices, dtype=np.int64).reshape(len(rows), -1),
            np.asarray(values),
        )

    def run_rollup(
        self,
        cube: ServedCube,
        op: str,
        array: np.ndarray,
        axes: Sequence[int],
    ) -> np.ndarray:
        """The ``axes``-ordered roll-up grid: SUM reduces ``array``,
        COUNT the counts cube (else it is the rolled-up volume), and
        AVERAGE divides the two grids."""
        if op == "sum":
            return naive_group_by(array, axes, cube.counter)
        if cube.counts is not None:
            counts = naive_group_by(cube.counts, axes, cube.counter)
        else:
            rolled = [n for j, n in enumerate(cube.shape) if j not in axes]
            grid = [cube.shape[d] for d in axes]
            counts = np.full(grid, math.prod(rolled), dtype=np.int64)
        if op == "count":
            return counts
        totals = naive_group_by(array, axes, cube.counter)
        return divide_averages(totals, counts)

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------

    def record(self, cube: str, tier: str, seconds: float) -> None:
        """Add one served request's wall time to ``(cube, tier)``."""
        stats = self._stats.get((cube, tier))
        if stats is None:
            stats = self._stats[(cube, tier)] = TierStats()
        stats.record(seconds)

    def stats(self) -> dict:
        """Nested ``{cube: {tier: latency-snapshot}}`` for ``/stats``."""
        out: dict[str, dict[str, dict]] = {}
        for (cube, tier), stats in sorted(self._stats.items()):
            out.setdefault(cube, {})[tier] = stats.snapshot()
        return out
