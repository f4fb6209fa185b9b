"""The async OLAP query service: cubes in, JSON aggregates out.

:class:`QueryService` is the protocol-independent core of
:mod:`repro.serving`.  Cubes register under a name with up to three
answering tiers (a §9 materialized plan, a
:class:`~repro.query.engine.RangeQueryEngine`, and the naive base-scan
fallback); requests arrive as plain dicts (the HTTP layer's parsed JSON
bodies) and leave as plain dicts.  Between the two sit, in order:

1. **admission control** — bounded in-flight set and queue, explicit
   :class:`~repro.serving.errors.Overloaded` shedding, a per-request
   deadline covering queue wait plus execution;
2. the **result cache** — exact LRU on canonical boxes, generations
   bumped by :meth:`QueryService.update`;
3. the **coalescer** — concurrent scalar sum/count/average misses
   against one cube merge into a single kernel-backed ``*_many`` gather;
4. the **tiered router** — materialized → indexed → fallback, with
   per-``(cube, tier)`` latency accounting.

Heavy computations (naive scans, large batches) are offloaded to the
service's worker pool so the event loop keeps accepting requests.
Every tier computation runs under its cube's
:class:`~repro.serving.rwlock.ReadWriteLock` read lock and ``/update``
takes the write lock, so an offloaded read never observes an update
torn mid-batch; cache entries are stamped with the generation
snapshotted *before* the computation, so a raced entry is at worst
conservatively stale, never stale-served.

Everything answers are computed from the same code paths library users
call directly, so served results are bit-identical to
:class:`RangeQueryEngine` answers — the property the differential tests
in ``tests/serving/`` pin down.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util import Box
from repro.core.batch_update import PointUpdate, UnfitUpdate, write_batch
from repro.index.backend import AdoptingBackend, ArrayBackend, resolve_backend
from repro.index.registry import IndexSpec
from repro.instrumentation import AccessCounter
from repro.optimizer.advisor import DesignDelta, re_advise
from repro.optimizer.cost_model import boundary_cells_per_surface
from repro.optimizer.cuboid_selection import Materialization
from repro.optimizer.materialize import MaterializedCuboidSet
from repro.query.engine import DEFAULT_SUM_INDEX, RangeQueryEngine
from repro.query.observer import WorkloadObserver, WorkloadSnapshot
from repro.query.ranges import RangeQuery, RangeSpec, canonical_box
from repro.serving.admission import AdmissionController
from repro.serving.cache import ResultCache, cache_key
from repro.serving.coalesce import COALESCIBLE, RequestCoalescer
from repro.serving.errors import (
    BadRequest,
    CubeInconsistent,
    QueryTimeout,
    UnknownResource,
)
from repro.serving.router import SCALAR_OPS, TieredRouter
from repro.serving.rwlock import ReadWriteLock

#: Queries each cube's live
#: :class:`~repro.query.observer.WorkloadObserver` window retains (the
#: adaptive advisor's input).
OBSERVER_CAPACITY = 4096

#: Minimum modeled cost ratio (incumbent/candidate) before the adaptive
#: controller actuates a swap.
ADAPTIVE_HYSTERESIS = 1.15

#: Largest block size the online advisor considers (smaller than the
#: offline default: each candidate block size costs a selector pass per
#: cycle).
ADAPTIVE_MAX_BLOCK = 64

#: Largest accepted ``/query_batch`` request (rows).
MAX_BATCH_ROWS = 4096

#: Largest accepted roll-up result grid (cells).
MAX_ROLLUP_CELLS = 1 << 16


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`QueryService`.

    Attributes:
        coalesce_window_s: Batching window for scalar coalescing;
            ``0`` disables coalescing (per-query dispatch).
        cache_capacity: LRU result-cache entries; ``0`` disables.
        max_inflight: Concurrent requests admitted to execution.
        max_queue: Requests allowed to wait for an execution slot.
        timeout_s: Per-request deadline (queue wait + execution);
            ``0`` disables deadlines.
        offload_cells: Estimated touched-cell count at or above which a
            computation runs on the worker pool instead of the event
            loop.
        executor_workers: Worker threads for the offload pool;
            ``None`` means ``os.cpu_count()``.
        logbook_path: When set, :meth:`QueryService.save_logbooks`
            writes each cube's live observer window (its last
            :data:`OBSERVER_CAPACITY` queries) next to this path, in
            the §9 advisor workload format.
        observer_decay: Per-event decay of the observer window (``1.0``
            weights all retained traffic equally).
        adaptive_interval_s: Seconds between
            :class:`~repro.serving.adaptive.AdaptiveController` advisory
            cycles.
        adaptive_space_budget: Auxiliary-cell budget the online advisor
            plans under; ``None`` defaults to the cube's own cell count
            (aux structures may use as much space as the base data).
        adaptive_min_weight: Minimum decayed query weight a window needs
            before re-planning is attempted.
    """

    coalesce_window_s: float = 0.002
    cache_capacity: int = 1024
    max_inflight: int = 64
    max_queue: int = 256
    timeout_s: float = 30.0
    offload_cells: int = 1 << 15
    executor_workers: int | None = None
    logbook_path: str | None = None
    observer_decay: float = 0.995
    adaptive_interval_s: float = 5.0
    adaptive_space_budget: float | None = None
    adaptive_min_weight: float = 8.0


@dataclass
class ServedCube:
    """One registered cube: its tiers, bookkeeping, and generation."""

    name: str
    base: np.ndarray
    counts: np.ndarray | None
    engine: RangeQueryEngine | None
    cuboids: MaterializedCuboidSet | None
    counter: AccessCounter
    #: The live workload window the adaptive advisor plans from.
    observer: WorkloadObserver
    generation: int = 0
    queries: int = 0
    updates_applied: int = 0
    #: Audit trail of adaptive plan swaps (the ``/design`` view).
    swap_history: list[dict] = field(default_factory=list)
    #: Non-None while an adaptive rebuild is in flight: every update
    #: applied to the live tiers is also recorded here so the freshly
    #: built set can replay them before installation (the hot-swap
    #: consistency protocol of :mod:`repro.serving.adaptive`).
    pending_design_updates: list[PointUpdate] | None = None
    #: Root array backend for adaptive rebuilds.  Each swap builds its
    #: candidate through ``design_backend.subscope(f"design-g{n}")`` so
    #: the superseded set's spill files can be reclaimed without
    #: touching the engine's (or the base cube's) arrays.
    design_backend: ArrayBackend | None = None
    #: Monotone counter naming those per-swap subscopes.
    design_generation: int = 0
    #: False after an update failed mid-apply: the tiers may disagree,
    #: so the service quarantines the cube (every request is refused).
    healthy: bool = True
    #: Serializes updates against in-flight offloaded/coalesced reads.
    rwlock: ReadWriteLock = field(default_factory=ReadWriteLock)
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.shape = tuple(int(n) for n in self.base.shape)

    @property
    def plan(self) -> tuple[Materialization, ...]:
        """The incumbent §9 plan (empty when nothing is materialized)."""
        return () if self.cuboids is None else self.cuboids.plan


class QueryService:
    """Serve range aggregates over registered cubes (asyncio core).

    Args:
        config: Service tuning; defaults are sensible for tests and
            small deployments.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cubes: dict[str, ServedCube] = {}
        self.cache = ResultCache(self.config.cache_capacity)
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
        )
        self.router = TieredRouter()
        self.coalescer = RequestCoalescer(
            self._run_coalesced_batch,
            window_s=self.config.coalesce_window_s,
        )
        self.started_at = time.time()
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_cube(
        self,
        name: str,
        cube: np.ndarray | None = None,
        *,
        indexed: bool = True,
        sum_index: str | IndexSpec = DEFAULT_SUM_INDEX,
        sum_params: dict[str, Any] | None = None,
        counts: np.ndarray | None = None,
        backend: ArrayBackend | None = None,
        plan: Sequence[object] | None = None,
        cuboid_set: MaterializedCuboidSet | None = None,
    ) -> ServedCube:
        """Register ``cube`` under ``name`` and build its tiers.

        The served cube holds one base array (and one counts array):
        every tier — the engine's routes, the materialized set, the
        fallback scan — reads it by reference, and ``/update`` writes it
        once.

        Args:
            name: URL-safe cube name (non-empty, no ``/``).
            cube: The measure cube; copied once, so later caller-side
                mutation cannot silently diverge the tiers.  With a
                ``cuboid_set`` the set's own base is *adopted without a
                copy* instead (after checking it equals ``cube``, when
                both are given), which is how an out-of-core
                :func:`repro.ingest.ingest` build (whose base is a
                memmap) goes straight into serving.
            indexed: Build the indexed tier: a :class:`RangeQueryEngine`
                over the served base with max and min trees and a fresh
                per-cube access counter.  ``False`` leaves the
                materialized tier and the fallback scan.
            sum_index / sum_params: The engine's range-sum structure.
            counts: Optional record-count cube (AVERAGE denominators),
                copied once like ``cube``.
            backend: Array backend for built structures.  Also retained
                as the cube's *design backend*: adaptive rebuilds
                allocate through per-swap subscopes of it so superseded
                plans can be reclaimed (spill files deleted) on swap.
            plan: §9 materializations; builds the tier-1
                :class:`MaterializedCuboidSet` when given.
            cuboid_set: A prebuilt tier-1 set to adopt instead of
                building one from ``plan`` (mutually exclusive with
                ``plan``), e.g. ``IngestResult.cuboid_set``.  When
                ``cube`` is passed too, registration verifies the set's
                base equals it cell-for-cell and rejects a mismatch.  A
                set whose base another registered cube already serves is
                rejected: each served cube writes its own base.
        """
        if not name or "/" in name:
            raise ValueError(f"cube name {name!r} must be non-empty, no '/'")
        if name in self.cubes:
            raise ValueError(f"cube {name!r} is already registered")
        if plan is not None and cuboid_set is not None:
            raise ValueError(
                "pass either plan= (build here) or cuboid_set= "
                "(adopt a prebuilt set), not both"
            )
        if cube is None and cuboid_set is None:
            raise ValueError(
                "register_cube needs a cube array (or a cuboid_set "
                "whose base to adopt)"
            )
        owner = resolve_backend(backend)
        # The one base every tier reads: one copy of ``cube``, else an
        # adopted set's.
        if cuboid_set is None:
            base = np.array(cube, copy=True)
        else:
            base = cuboid_set.base
            # Each served cube writes its base; a second owner would
            # write it behind the first one's engine.
            for other in self.cubes.values():
                if np.shares_memory(base, other.base):
                    raise ValueError(
                        f"cuboid_set's base is already served as cube "
                        f"{other.name!r}; register a set once"
                    )
            if cube is not None:
                _check_same_cells(cube, base, "cube=")
        held_counts = None if counts is None else np.array(counts, copy=True)
        counter = AccessCounter()
        engine: RangeQueryEngine | None = None
        if indexed:
            engine = RangeQueryEngine(
                base,
                sum_index=sum_index,
                sum_params=sum_params,
                counts=held_counts,
                backend=AdoptingBackend(owner),
                counter=counter,
            )
        cuboids = cuboid_set
        if plan is not None:
            # The initial plan gets its own subscope (generation 0) just
            # like every adaptive rebuild will, so a later swap can
            # release it without touching the engine's arrays.
            cuboids = MaterializedCuboidSet(
                base,
                plan,
                backend=AdoptingBackend(owner.subscope("design-g0")),
            )
        served = ServedCube(
            name=name,
            base=base,
            counts=held_counts,
            engine=engine,
            cuboids=cuboids,
            counter=counter,
            observer=WorkloadObserver(
                base.shape,
                capacity=OBSERVER_CAPACITY,
                decay=self.config.observer_decay,
            ),
            design_backend=backend,
        )
        self.cubes[name] = served
        return served

    def _cube(self, name: object) -> ServedCube:
        if not isinstance(name, str):
            raise BadRequest("'cube' must be a string cube name")
        cube = self.cubes.get(name)
        if cube is None:
            raise UnknownResource(
                f"unknown cube {name!r}; registered: "
                f"{sorted(self.cubes) or 'none'}"
            )
        if not cube.healthy:
            raise CubeInconsistent(
                f"cube {name!r} is quarantined after a failed update; "
                "re-register it to serve again"
            )
        return cube

    # ------------------------------------------------------------------
    # Endpoints (async, dict → dict)
    # ------------------------------------------------------------------

    async def query(self, payload: dict) -> dict:
        """One scalar aggregate: ``{cube, op, ranges}`` → ``{value, ...}``."""
        cube = self._cube(payload.get("cube"))
        op = self._op(payload, SCALAR_OPS)
        rq, box = _parse_region(payload.get("ranges"), cube.shape)
        return await self._with_admission(
            lambda: self._answer_scalar(cube, op, rq, box)
        )

    async def query_batch(self, payload: dict) -> dict:
        """``K`` same-operator aggregates in one request (one gather)."""
        cube = self._cube(payload.get("cube"))
        op = self._op(payload, SCALAR_OPS)
        raw = payload.get("queries")
        if not isinstance(raw, list) or not raw:
            raise BadRequest("'queries' must be a non-empty list")
        if len(raw) > MAX_BATCH_ROWS:
            raise BadRequest(
                f"batch of {len(raw)} exceeds the row cap {MAX_BATCH_ROWS}"
            )
        boxes = [
            _parse_region(entry, cube.shape)[1] for entry in raw
        ]
        lows = np.array([b.lo for b in boxes], dtype=np.int64)
        highs = np.array([b.hi for b in boxes], dtype=np.int64)
        return await self._with_admission(
            lambda: self._answer_batch(cube, op, boxes, lows, highs)
        )

    async def slice(self, payload: dict) -> dict:
        """A slice query: fix some dimensions, aggregate the rest.

        ``{cube, op, fixed: {dim: rank}}`` is sugar for a ``/query``
        whose fixed dimensions are singletons and whose free dimensions
        span their full extent — it shares the cache, coalescer, and
        admission path with ``/query``.
        """
        cube = self._cube(payload.get("cube"))
        fixed = payload.get("fixed")
        if not isinstance(fixed, dict):
            raise BadRequest("'fixed' must be a {dim: rank} object")
        ranges: list[object] = [None] * len(cube.shape)
        dims = _parse_dims(fixed, len(cube.shape), "slice dimension")
        for dim, rank in zip(dims, fixed.values()):
            ranges[dim] = _parse_int(rank, "slice rank")
        derived = {
            "cube": cube.name,
            "op": payload.get("op", "sum"),
            "ranges": ranges,
        }
        return await self.query(derived)

    async def rollup(self, payload: dict) -> dict:
        """Group-by over kept dimensions (the data cube's roll-up view).

        ``{cube, dims, op}`` answers one aggregate per coordinate of the
        kept-dimension grid (flattened, in ``dims`` order) with one axis
        reduce of the smallest array holding it — a covering cuboid or
        the base cube (see :meth:`TieredRouter.choose_rollup`).
        """
        cube = self._cube(payload.get("cube"))
        op = self._op(payload, ("sum", "count", "average"))
        raw_dims = payload.get("dims")
        if not isinstance(raw_dims, list) or not raw_dims:
            raise BadRequest("'dims' must be a non-empty list")
        dims = _parse_dims(raw_dims, len(cube.shape), "rollup dimension")
        cells = int(np.prod([cube.shape[d] for d in dims]))
        if cells > MAX_ROLLUP_CELLS:
            raise BadRequest(
                f"rollup grid of {cells} cells exceeds the cap "
                f"{MAX_ROLLUP_CELLS}"
            )
        return await self._with_admission(
            lambda: self._answer_rollup(cube, op, dims)
        )

    async def update(self, payload: dict) -> dict:
        """Apply point deltas to every tier and bump the generation.

        ``{cube, updates: [{index, delta}], count_updates?}``.  The
        batch is written into the one base cube once; then the engine's
        §5/§7 machinery and the materialized plan maintain their derived
        arrays from the same merged deltas, so the tiers stay mutually
        consistent; the generation bump plus an eager sweep invalidate
        the result cache.  A delta whose cell would overflow its dtype
        is a 400 and changes nothing.
        """
        cube = self._cube(payload.get("cube"))
        updates = _parse_updates(payload.get("updates"), cube.shape)
        count_updates = None
        if payload.get("count_updates") is not None:
            count_updates = _parse_updates(
                payload["count_updates"], cube.shape
            )
            if cube.counts is None:
                raise BadRequest(
                    "count_updates require a cube registered with counts"
                )
        return await self._with_admission(
            lambda: self._apply_update(cube, updates, count_updates)
        )

    async def advise(self, payload: dict) -> dict:
        """Dry-run the online advisor: ``{cube, ...overrides}`` → delta.

        Re-plans from the cube's live observer window against the
        incumbent plan and returns the full
        :class:`~repro.optimizer.advisor.DesignDelta` accounting
        *without actuating anything* — the operator's view of what the
        :class:`~repro.serving.adaptive.AdaptiveController` would do
        right now.  Optional overrides: ``space_budget``, ``hysteresis``,
        ``max_block``, ``min_query_weight``.
        """
        cube = self._cube(payload.get("cube"))
        space_budget = _parse_number(
            payload.get("space_budget"), "space_budget", minimum=1.0
        )
        hysteresis = _parse_number(
            payload.get("hysteresis"), "hysteresis", minimum=1.0
        )
        max_block = payload.get("max_block")
        if max_block is not None:
            max_block = _parse_int(max_block, "max_block")
            if max_block < 1:
                raise BadRequest("max_block must be >= 1")
        min_query_weight = _parse_number(
            payload.get("min_query_weight"),
            "min_query_weight",
            minimum=0.0,
        )
        snapshot = cube.observer.snapshot()
        # The selector is pure CPU over the frozen snapshot — run it on
        # the worker pool so a large candidate universe cannot stall
        # the event loop.
        loop = asyncio.get_running_loop()
        delta = await loop.run_in_executor(
            self._ensure_executor(),
            lambda: self.plan_delta(
                cube,
                snapshot,
                space_budget=space_budget,
                hysteresis=hysteresis,
                max_block=max_block,
                min_query_weight=min_query_weight,
            ),
        )
        return {
            "cube": cube.name,
            "window": snapshot.to_dict(),
            "delta": delta.to_dict(),
        }

    def plan_delta(
        self,
        cube: ServedCube,
        snapshot: WorkloadSnapshot,
        *,
        space_budget: float | None = None,
        hysteresis: float | None = None,
        max_block: int | None = None,
        min_query_weight: float | None = None,
    ) -> DesignDelta:
        """Run :func:`~repro.optimizer.advisor.re_advise` for one cube.

        ``None`` arguments fall back to the service config (or to
        :data:`ADAPTIVE_MAX_BLOCK` / :data:`ADAPTIVE_HYSTERESIS`); a
        ``None`` configured budget defaults to the cube's own cell count.
        """
        cfg = self.config
        budget = (
            cfg.adaptive_space_budget
            if space_budget is None
            else space_budget
        )
        if budget is None:
            budget = float(cube.base.size)
        return re_advise(
            snapshot,
            cube.plan,
            budget,
            max_block=(
                ADAPTIVE_MAX_BLOCK if max_block is None else max_block
            ),
            hysteresis=(
                ADAPTIVE_HYSTERESIS if hysteresis is None else hysteresis
            ),
            min_query_weight=(
                cfg.adaptive_min_weight
                if min_query_weight is None
                else min_query_weight
            ),
        )

    def describe_design(self) -> dict:
        """The ``/design`` view: per-cube plan, window, swap history,
        and predicted-vs-measured tier latency.

        ``predicted_tier_cost`` is the §8 model's element-access count
        for the window's *average* query per tier; ``measured_tier_avg_ms``
        is the router's wall-clock accounting.  The currencies differ —
        what should agree is the *ordering* (the model's cheapest tier
        should be the measured-fastest), which is the check
        ``docs/ADAPTIVE.md`` walks through.
        """
        tier_stats = self.router.stats()
        out: dict[str, dict] = {}
        for name, cube in sorted(self.cubes.items()):
            snapshot = cube.observer.snapshot()
            stats = snapshot.statistics()
            predicted: dict[str, float] = {}
            if stats is not None:
                predicted["fallback"] = stats.volume
                if cube.engine is not None:
                    predicted["indexed"] = 2.0 ** len(cube.shape)
                if cube.plan:
                    predicted["materialized"] = min(
                        2.0 ** len(m.key)
                        + stats.surface
                        * boundary_cells_per_surface(m.block_size)
                        for m in cube.plan
                    )
            measured = {
                tier: snap["avg_ms"]
                for tier, snap in tier_stats.get(name, {}).items()
            }
            out[name] = {
                "plan": [
                    {
                        "key": list(m.key),
                        "block_size": m.block_size,
                        "space": m.space,
                    }
                    for m in cube.plan
                ],
                "generation": cube.generation,
                "window": snapshot.to_dict(),
                "swap_history": list(cube.swap_history),
                "swap_in_flight": cube.pending_design_updates is not None,
                "predicted_tier_cost": predicted,
                "measured_tier_avg_ms": measured,
            }
        return out

    def stats(self) -> dict:
        """The ``/stats`` snapshot: tiers, cache, admission, coalescer,
        and the index layer's element-access counters per cube."""
        tier_stats = self.router.stats()
        cubes = {}
        for name, cube in sorted(self.cubes.items()):
            cubes[name] = {
                "shape": list(cube.shape),
                "generation": cube.generation,
                "healthy": cube.healthy,
                "queries": cube.queries,
                "updates_applied": cube.updates_applied,
                "tiers": tier_stats.get(name, {}),
                "access_counts": cube.counter.snapshot(),
            }
        return {
            "uptime_s": time.time() - self.started_at,
            "cubes": cubes,
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
        }

    def describe_cubes(self) -> dict:
        """The ``/cubes`` catalog: names, shapes, dtypes, tiers."""
        out = {}
        for name, cube in sorted(self.cubes.items()):
            tiers = []
            if cube.cuboids is not None:
                tiers.append("materialized")
            if cube.engine is not None:
                tiers.append("indexed")
            tiers.append("fallback")
            out[name] = {
                "shape": list(cube.shape),
                "dtype": str(cube.base.dtype),
                "tiers": tiers,
                "generation": cube.generation,
                "healthy": cube.healthy,
                "has_counts": cube.counts is not None,
                "operators": list(SCALAR_OPS),
            }
        return out

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------

    async def _with_admission(self, fn: Callable[[], Any]) -> dict:
        """Admission + deadline around one request's execution."""
        timeout = self.config.timeout_s
        try:
            if timeout and timeout > 0:
                return await asyncio.wait_for(
                    self._admitted(fn), timeout
                )
            return await self._admitted(fn)
        except TimeoutError:
            self.admission.note_timeout()
            raise QueryTimeout(
                f"request exceeded the {timeout:g}s deadline"
            ) from None

    async def _admitted(self, fn: Callable[[], Any]) -> dict:
        async with self.admission:
            return await fn()

    async def _answer_scalar(
        self,
        cube: ServedCube,
        op: str,
        rq: RangeQuery | None,
        box: Box,
    ) -> dict:
        started = time.perf_counter()
        # Snapshot the generation BEFORE any await: an /update landing
        # during the coalescer window or an executor offload bumps
        # ``cube.generation``, and stamping the post-update generation
        # onto a value computed against pre-update data would poison
        # the cache — the stale entry would pass every later generation
        # check.  Stamped with the snapshot, a raced entry is at worst
        # conservatively stale and evicts on its next lookup.
        generation = cube.generation
        key = cache_key(cube.name, op, box)
        hit, value = self.cache.get(key, generation)
        if hit:
            tier = "cache"
        else:
            tier = self.router.choose_scalar(cube, op, rq, box)
            try:
                if (
                    tier == "indexed"
                    and op in COALESCIBLE
                    and self.coalescer.window_s > 0
                ):
                    value = await self.coalescer.submit(
                        cube.name, op, box
                    )
                else:
                    work = self._scalar_work(tier, box)
                    value = await self._run_read(
                        cube,
                        lambda: self.router.run_scalar(
                            cube, tier, op, rq, box
                        ),
                        work,
                    )
            except ValueError as exc:
                raise BadRequest(str(exc)) from exc
            self.router.record(
                cube.name, tier, time.perf_counter() - started
            )
            self.cache.put(key, generation, value)
        cube.observer.observe_box(box, op)
        cube.queries += 1
        response = {
            "cube": cube.name,
            "op": op,
            "tier": tier,
            "cached": hit,
            "generation": generation,
        }
        if op in ("max", "min"):
            index, scalar = value  # type: ignore[misc]
            response["index"] = list(index)
            response["value"] = scalar
        else:
            response["value"] = value
        return response

    async def _answer_batch(
        self,
        cube: ServedCube,
        op: str,
        boxes: Sequence[Box],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> dict:
        started = time.perf_counter()
        generation = cube.generation
        tier = self.router.choose_batch(cube, op)
        work = self._batch_work(tier, lows, highs)
        try:
            result = await self._run_read(
                cube,
                lambda: self.router.run_batch(
                    cube, tier, op, lows, highs
                ),
                work,
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        self.router.record(
            cube.name, tier, time.perf_counter() - started
        )
        for box in boxes:
            cube.observer.observe_box(box, op)
        cube.queries += len(boxes)
        response = {
            "cube": cube.name,
            "op": op,
            "tier": tier,
            "generation": generation,
        }
        if op in ("max", "min"):
            indices, values = result  # type: ignore[misc]
            response["indices"] = np.asarray(indices).tolist()
            response["values"] = np.asarray(values).tolist()
        else:
            response["values"] = np.asarray(result).tolist()
        return response

    async def _answer_rollup(
        self,
        cube: ServedCube,
        op: str,
        dims: Sequence[int],
    ) -> dict:
        started = time.perf_counter()
        generation = cube.generation
        # Choose under the read lock: an update or a hot swap cannot
        # then hand this roll-up a superseded cuboid set.
        async with cube.rwlock.read_locked():
            tier, array, axes = self.router.choose_rollup(cube, op, dims)
            values = await self._run(
                lambda: self.router.run_rollup(cube, op, array, axes),
                array.size,
            )
        self.router.record(
            cube.name, tier, time.perf_counter() - started
        )
        cube.queries += values.size
        return {
            "cube": cube.name,
            "op": op,
            "tier": tier,
            "dims": list(dims),
            "shape": list(values.shape),
            "values": values.reshape(-1).tolist(),
            "generation": generation,
        }

    async def _apply_update(
        self,
        cube: ServedCube,
        updates: list[PointUpdate],
        count_updates: list[PointUpdate] | None,
    ) -> dict:
        def run() -> None:
            # The served cube writes its base (and counts) once under
            # this write lock, after staging rejects an unfit batch; the
            # engine and the cuboid set only absorb it into their
            # derived arrays.
            changes, count_changes = write_batch(
                cube.base, updates, cube.counts, count_updates
            )
            if cube.engine is not None:
                cube.engine.absorb(changes, count_changes)
            if cube.cuboids is not None:
                cube.cuboids.absorb(updates)

        # The write lock drains in-flight offloaded/coalesced reads
        # first, so no reader can observe the tiers torn mid-batch; the
        # mutation itself runs inline on the event loop, making this the
        # single writer.
        async with cube.rwlock.write_locked():
            try:
                run()
                # An adaptive rebuild snapshotted the base before this
                # batch landed: record it for replay into the new set
                # (same write lock as the swap's install, so ordering
                # between recording and replay is total).
                if cube.pending_design_updates is not None:
                    cube.pending_design_updates.extend(updates)
            except UnfitUpdate as exc:
                # Rejected while staging, before any tier was written.
                raise BadRequest(str(exc)) from exc
            except Exception as exc:
                # Anything else may have torn the tiers mid-batch, so
                # quarantine the cube rather than serve answers that
                # depend on which tier a query routes to.
                cube.healthy = False
                cube.generation += 1
                self.cache.invalidate_cube(cube.name)
                raise CubeInconsistent(
                    f"update to cube {cube.name!r} failed mid-apply "
                    f"({exc}); the cube is quarantined"
                ) from exc
            # Bump and invalidate BEFORE the write lock drops: a reader
            # admitted between unlock and a later bump would snapshot
            # the old generation over the new tiers and cache a stale
            # answer that passes every subsequent generation check.
            cube.generation += 1
            cube.updates_applied += len(updates)
            self.cache.invalidate_cube(cube.name)
        cube.observer.observe_update(len(updates))
        return {
            "cube": cube.name,
            "applied": len(updates),
            "count_applied": (
                0 if count_updates is None else len(count_updates)
            ),
            "generation": cube.generation,
        }

    async def _run_coalesced_batch(
        self,
        cube_name: str,
        op: str,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> list[object]:
        """Execute one coalesced batch on the indexed tier."""
        cube = self._cube(cube_name)
        engine = cube.engine
        assert engine is not None
        work = self._batch_work("indexed", lows, highs)
        values = await self._run_read(
            cube, lambda: getattr(engine, f"{op}_many")(lows, highs), work
        )
        return list(np.asarray(values).tolist())

    def _scalar_work(self, tier: str, box: Box) -> int:
        """Touched-cell estimate driving the offload decision."""
        if tier == "fallback":
            return box.volume
        return 2 ** len(box.lo)

    def _batch_work(
        self, tier: str, lows: np.ndarray, highs: np.ndarray
    ) -> int:
        if tier == "fallback":
            extents = np.maximum(highs - lows + 1, 0)
            return int(np.prod(extents, axis=1).sum())
        return len(lows) << lows.shape[1]

    async def _run_read(
        self, cube: ServedCube, fn: Callable[[], Any], work: int
    ) -> Any:
        """Run one tier computation under ``cube``'s read lock.

        The lock is what lets :meth:`_apply_update` wait out reads that
        were offloaded to the worker pool — without it, a scan still
        running in a pool thread could observe the tiers torn while the
        event loop applies an update mid-batch.
        """
        async with cube.rwlock.read_locked():
            return await self._run(fn, work)

    async def _run(self, fn: Callable[[], Any], work: int) -> Any:
        """Run ``fn`` inline or on the worker pool, by estimated work."""
        if work >= self.config.offload_cells:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._ensure_executor(), fn)
        return fn()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        """The service-owned offload pool, created on first use."""
        if self._executor is None:
            workers = self.config.executor_workers
            if workers is None:
                workers = os.cpu_count() or 1
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, int(workers)),
                thread_name_prefix="repro-serving",
            )
        return self._executor

    def _op(self, payload: dict, allowed: Sequence[str]) -> str:
        op = payload.get("op", "sum")
        if op not in allowed:
            raise BadRequest(
                f"unknown operator {op!r}; one of {tuple(allowed)}"
            )
        return str(op)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def save_logbooks(self) -> list[str]:
        """Write every cube's observer window (§9 advisor workload
        format): its last :data:`OBSERVER_CAPACITY` queries.

        A single registered cube writes exactly ``logbook_path``; with
        several, each writes ``<stem>-<cube><suffix>``, whether or not
        it saw traffic, so the bare path is never claimed by whichever
        cube happened to see load.  Returns the written paths.
        """
        path = self.config.logbook_path
        if path is None:
            return []
        if len(self.cubes) == 1:
            (cube,) = self.cubes.values()
            cube.observer.save(path)
            return [path]
        stem, suffix = os.path.splitext(path)
        written = []
        for cube in self.cubes.values():
            target = f"{stem}-{cube.name}{suffix or '.json'}"
            cube.observer.save(target)
            written.append(target)
        return written

    async def close(self) -> None:
        """Flush pending coalesced work and release owned resources."""
        await self.coalescer.flush_all()
        self.save_logbooks()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None


# ----------------------------------------------------------------------
# Payload parsing (wire dicts → query model, with 400s on bad shape)
# ----------------------------------------------------------------------


def _parse_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise BadRequest(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise BadRequest(
            f"{what} must be an integer, got {value!r}"
        ) from exc


def _parse_dims(raw: Iterable[object], ndim: int, what: str) -> list[int]:
    """Distinct in-range dimension numbers (``"01"`` and ``1`` collide)."""
    dims = [_parse_int(d, what) for d in raw]
    if len(set(dims)) != len(dims):
        raise BadRequest(f"duplicate {what}s in {dims}")
    for dim in dims:
        if not 0 <= dim < ndim:
            raise BadRequest(f"{what} {dim} out of range for {ndim}-d cube")
    return dims


def _parse_number(
    value: object, what: str, minimum: float
) -> float | None:
    """An optional numeric payload field (``None`` passes through)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{what} must be a number, got {value!r}")
    number = float(value)
    if number < minimum:
        raise BadRequest(f"{what} must be >= {minimum:g}, got {number:g}")
    return number


def _parse_region(
    raw: object, shape: tuple[int, ...]
) -> tuple[RangeQuery | None, Box]:
    """One wire-format range list → ``(RangeQuery | None, canonical Box)``.

    Per dimension: ``null``/``"all"`` spans the full extent, an integer
    is a singleton, and ``[lo, hi]`` is an inclusive range.  Empty
    ranges (``hi < lo``) are legal under the normative empty-range rule
    but have no :class:`RangeQuery` spelling, so they come back as the
    box alone (``None`` query — skipping §9 routing and the observer's
    cuboid classification, neither of which an empty region informs).
    """
    ndim = len(shape)
    if not isinstance(raw, list):
        raise BadRequest(
            "'ranges' must be a list with one entry per dimension "
            "(null | rank | [lo, hi])"
        )
    if len(raw) != ndim:
        raise BadRequest(
            f"'ranges' has {len(raw)} entries, cube has {ndim} "
            "dimensions"
        )
    specs: list[RangeSpec] | None = []
    bounds: list[tuple[int, int]] = []
    for dim, entry in enumerate(raw):
        if entry is None or entry == "all":
            bounds.append((0, shape[dim] - 1))
            if specs is not None:
                specs.append(RangeSpec.all())
        elif isinstance(entry, bool):
            raise BadRequest(
                f"ranges[{dim}] must be null, a rank, or [lo, hi]"
            )
        elif isinstance(entry, int):
            bounds.append((entry, entry))
            if specs is not None:
                specs.append(RangeSpec.at(entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            lo = _parse_int(entry[0], f"ranges[{dim}] lower bound")
            hi = _parse_int(entry[1], f"ranges[{dim}] upper bound")
            bounds.append((lo, hi))
            if hi < lo:
                specs = None  # empty: box-only spelling
            elif specs is not None:
                specs.append(RangeSpec.between(lo, hi))
        else:
            raise BadRequest(
                f"ranges[{dim}] must be null, a rank, or [lo, hi]"
            )
    try:
        box = canonical_box(bounds, shape)
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    rq = None if specs is None else RangeQuery(tuple(specs))
    return rq, box


def _check_same_cells(
    given: np.ndarray, base: np.ndarray, what: str
) -> None:
    """Reject registering tiers built over different data than ``base``."""
    given = np.asarray(given)
    if given.shape != base.shape:
        raise ValueError(
            f"{what} shape {given.shape} does not match the served "
            f"cube's shape {base.shape}"
        )
    equal_nan = given.dtype.kind == "f" and base.dtype.kind == "f"
    if not np.array_equal(given, base, equal_nan=equal_nan):
        raise ValueError(
            f"{what} covers different data than the cube's other tiers "
            "— they would silently disagree"
        )


def _parse_updates(
    raw: object, shape: tuple[int, ...]
) -> list[PointUpdate]:
    """Wire-format update list → validated :class:`PointUpdate` batch."""
    if not isinstance(raw, list) or not raw:
        raise BadRequest(
            "'updates' must be a non-empty list of {index, delta}"
        )
    updates = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise BadRequest(
                f"updates[{position}] must be an object with "
                "'index' and 'delta'"
            )
        index_raw = entry.get("index")
        if not isinstance(index_raw, (list, tuple)) or len(
            index_raw
        ) != len(shape):
            raise BadRequest(
                f"updates[{position}].index must list one coordinate "
                f"per dimension ({len(shape)})"
            )
        index = tuple(
            _parse_int(v, f"updates[{position}].index[{dim}]")
            for dim, v in enumerate(index_raw)
        )
        for dim, (coordinate, extent) in enumerate(zip(index, shape)):
            if not 0 <= coordinate < extent:
                raise BadRequest(
                    f"updates[{position}].index[{dim}] = {coordinate} "
                    f"out of range [0, {extent})"
                )
        delta = entry.get("delta")
        if isinstance(delta, bool) or not isinstance(
            delta, (int, float)
        ):
            raise BadRequest(
                f"updates[{position}].delta must be a number"
            )
        updates.append(PointUpdate(index, delta))
    return updates
