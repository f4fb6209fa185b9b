"""Spans around the program's public entry points, from outside it.

``--trace 1`` runs call :func:`install`, which wraps the methods listed in
:data:`TARGETS` (resolved with ``getattr`` at start-up; a target that a
later refactor removed is reported in ``trace_missing`` and its metrics
become ``null`` — never a crash, and never anything at all in an
untraced run).  A span is ``(name, start, end, parent, request)``: the
parent comes from a ``contextvar``, the request id is assigned at the
``QueryService.*`` root and inherited by everything below it, including
work the service hands to its thread pool (``run_in_executor`` is taught
to carry the context while tracing is installed).

Spans stay in memory during the run; :func:`summarize` reduces them to
per-name and per-layer numbers and :meth:`Recorder.dump` writes them out
at exit.  A span's *self time* is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Indices into one span record (a plain list, appended atomically so
#: pool threads and the event loop can record without a lock).
NAME, START, END, PARENT, REQUEST, SIZE = range(6)

_CURRENT: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "e2e_current_span", default=None
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        layer: Module under ``src/repro`` the time is attributed to.
        name: Span name, ``Class.method`` or the function name.
        module: Import path of the owner (``kernel`` = the class of the
            resolved default execution kernel).
        root: Whether a call starts a request (assigns the request id).
        size_arg: Positional argument (after ``self``) whose ``len()`` is
            recorded with the span — rows per ``*_many`` call.
    """

    layer: str
    name: str
    module: str
    root: bool = False
    size_arg: int | None = None


def _targets() -> tuple[Target, ...]:
    service = "repro.serving.service"
    out = [
        Target("serving.service", f"QueryService.{m}", service, root=True)
        for m in ("query", "query_batch", "rollup", "update")
    ]
    out.append(Target("optimizer.advisor", "QueryService.plan_delta", service))
    out.append(
        Target(
            "serving.admission",
            "AdmissionController.acquire",
            "repro.serving.admission",
        )
    )
    out += [
        Target("serving.cache", f"ResultCache.{m}", "repro.serving.cache")
        for m in ("get", "put")
    ]
    out.append(
        Target(
            "serving.coalesce",
            "RequestCoalescer.submit",
            "repro.serving.coalesce",
        )
    )
    out += [
        Target("serving.router", f"TieredRouter.{m}", "repro.serving.router")
        for m in ("choose_scalar", "choose_batch", "run_scalar", "run_batch")
    ]
    engine = "repro.query.engine"
    out += [
        Target("query.engine", f"RangeQueryEngine.{m}", engine)
        for m in ("sum", "count", "average", "max", "min", "apply_updates")
    ]
    out += [
        Target("query.engine", f"RangeQueryEngine.{m}_many", engine, size_arg=0)
        for m in ("sum", "count", "average", "max", "min")
    ]
    out += [
        Target("kernels", f"kernel.{m}", "kernel")
        for m in ("corner_gather", "segment_reduce", "scatter")
    ]
    out += [
        Target(
            "optimizer.materialize",
            f"MaterializedCuboidSet.{m}",
            "repro.optimizer.materialize",
        )
        for m in ("route", "range_sum", "apply_updates")
    ]
    out += [
        Target(
            "serving.adaptive",
            f"AdaptiveController.{m}",
            "repro.serving.adaptive",
        )
        for m in ("step", "actuate")
    ]
    out += [
        Target(
            "ingest.accumulate",
            f"MultiCuboidAccumulator.{m}",
            "repro.ingest.accumulate",
        )
        for m in ("absorb", "flush")
    ]
    out += [
        Target("io", name, "repro.io")
        for name in ("save_index_manifest", "open_index")
    ]
    return tuple(out)


#: The span table.  The ingest batch iterator is the one entry that is
#: not a patch: the harness owns the iterator it hands to ``ingest()``
#: and records ``batches.next`` spans itself (:meth:`Recorder.add`).
TARGETS = _targets()

#: Span recorded by the harness around ``next()`` of the batch iterator.
BATCH_SPAN = ("ingest.batches", "batches.next")

_OPS = ("sum", "count", "average", "max", "min")

#: Spans pooled under one name in the summary (a p50 over all of them).
GROUPS: dict[str, tuple[str, ...]] = {
    "service.request": tuple(t.name for t in TARGETS if t.root),
    "service.read": (
        "QueryService.query",
        "QueryService.query_batch",
        "QueryService.rollup",
    ),
    "router.choose": ("TieredRouter.choose_scalar", "TieredRouter.choose_batch"),
    "router.run": ("TieredRouter.run_scalar", "TieredRouter.run_batch"),
    "engine.scalar": tuple(f"RangeQueryEngine.{op}" for op in _OPS),
    "engine.many": tuple(f"RangeQueryEngine.{op}_many" for op in _OPS),
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: dict[str, str] = {}
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._requests = itertools.count()
        self._restore: list[Callable[[], None]] = []
        self.name_id(BATCH_SPAN[1], BATCH_SPAN[0])

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.layers:
            self.layers[name] = layer
            self.names.append(name)
        return self.names.index(name)

    def reset(self) -> None:
        """Forget spans recorded so far (called at the start of the
        timed phase, when nothing is in flight)."""
        self.spans = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span the harness timed itself."""
        parent = _CURRENT.get()
        self.spans.append(
            [
                self.names.index(name),
                start,
                end,
                parent,
                None if parent is None else parent[REQUEST],
                None,
            ]
        )

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _begin(self, name_id: int, root: bool, size: int | None) -> list:
        parent = _CURRENT.get()
        if parent is not None:
            request = parent[REQUEST]
        elif root:
            request = next(self._requests)
        else:
            request = None
        span = [name_id, time.perf_counter(), 0.0, parent, request, size]
        self.spans.append(span)
        return span

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` with a span around every call (sync or coroutine)."""
        name_id = self.name_id(target.name, target.layer)
        root = target.root
        size_arg = target.size_arg
        begin = self._begin
        # args[0] is self for every sized target.
        size_at = None if size_arg is None else size_arg + 1

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: object, **kwargs: object) -> object:
                span = begin(name_id, root, None)
                token = _CURRENT.set(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()
                    _CURRENT.reset(token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            size = None if size_at is None else len(args[size_at])  # type: ignore[arg-type]
            span = begin(name_id, root, size)
            token = _CURRENT.set(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                _CURRENT.reset(token)

        return traced

    def install(self) -> list[str]:
        """Wrap every resolvable target; returns the missing names."""
        for target in TARGETS:
            try:
                owner, attr = _resolve(target)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            setattr(owner, attr, self.wrap(original, target))
            self._restore.append(
                functools.partial(setattr, owner, attr, original)
            )
        loop_class = asyncio.BaseEventLoop
        plain = loop_class.run_in_executor

        def run_in_executor(
            loop: asyncio.BaseEventLoop,
            executor: object,
            func: Callable,
            *args: object,
        ) -> object:
            context = contextvars.copy_context()
            return plain(loop, executor, context.run, func, *args)  # type: ignore[arg-type]

        loop_class.run_in_executor = run_in_executor  # type: ignore[method-assign]
        self._restore.append(
            functools.partial(setattr, loop_class, "run_in_executor", plain)
        )
        return list(self.missing)

    def uninstall(self) -> None:
        """Put every original back (the self-tests share one process)."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as JSON rows ``[name, start_us, dur_us,
        parent_row, request, size]`` (times relative to the first span)."""
        spans = self.spans
        row_of = {id(span): row for row, span in enumerate(spans)}
        origin = min((s[START] for s in spans), default=0.0)
        rows = [
            [
                s[NAME],
                round((s[START] - origin) * 1e6, 1),
                round((s[END] - s[START]) * 1e6, 1),
                None if s[PARENT] is None else row_of.get(id(s[PARENT])),
                s[REQUEST],
                s[SIZE],
            ]
            for s in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "layers": [self.layers[n] for n in self.names],
                    "missing": self.missing,
                    "spans": rows,
                }
            )
        )


def _resolve(target: Target) -> tuple[object, str]:
    """The object to patch and the attribute name on it."""
    *path, attr = target.name.split(".")
    if target.module == "kernel":
        from repro.kernels import resolve_kernel

        return type(resolve_kernel()), attr
    owner: object = importlib.import_module(target.module)
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation between
    order statistics; ``nan`` for an empty sample."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


def covered(start: float, end: float, intervals: Sequence[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[list]) -> list[float]:
    """Self time of every span, aligned with ``spans``."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(span[START], span[END], children.get(id(span), ()))
        for span in spans
    ]


def summarize(recorder: Recorder, wall_s: float) -> dict:
    """Reduce the recorded spans to per-name and per-layer numbers.

    Per name: calls, p50 of the span and of its self time, totals, mean
    recorded size.  Per layer: total self time, its share of all request
    time (the sum of root spans), the p50 over requests of the layer's
    self time within one request, and ``busy_share`` — time inside the
    layer's outermost spans ÷ ``wall_s``.  ``attributed_share`` is the
    part of request time that spans *below* the root account for: one
    minus the roots' own self time ÷ their duration (the layers' shares
    sum to 1 by construction; this one can fall short).
    """
    spans = [s for s in recorder.spans if s[END] > 0.0]
    selfs = self_times(spans)
    names = recorder.names
    layer_of = [recorder.layers[n] for n in names]

    by_name: dict[str, list[int]] = defaultdict(list)
    for row, span in enumerate(spans):
        by_name[names[span[NAME]]].append(row)
    for group, members in GROUPS.items():
        rows = [r for m in members for r in by_name.get(m, ())]
        if rows:
            by_name[group] = rows
    name_stats = {}
    for name, rows in by_name.items():
        durations = [spans[r][END] - spans[r][START] for r in rows]
        sizes = [spans[r][SIZE] for r in rows if spans[r][SIZE] is not None]
        name_stats[name] = {
            "calls": len(rows),
            "p50_ms": percentile(durations, 50) * 1e3,
            "p50_self_ms": percentile([selfs[r] for r in rows], 50) * 1e3,
            "total_ms": sum(durations) * 1e3,
            "self_ms": sum(selfs[r] for r in rows) * 1e3,
            "mean_size": sum(sizes) / len(sizes) if sizes else None,
        }

    root_total = root_self = 0.0
    requests = 0
    per_request: dict[str, dict[int, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    layer_busy: dict[str, float] = defaultdict(float)
    for row, span in enumerate(spans):
        layer = layer_of[span[NAME]]
        layer_self[layer] += selfs[row]
        layer_calls[layer] += 1
        parent = span[PARENT]
        if parent is None or layer_of[parent[NAME]] != layer:
            layer_busy[layer] += span[END] - span[START]
        if span[REQUEST] is not None:
            per_request[layer][span[REQUEST]] += selfs[row]
            if parent is None:
                root_total += span[END] - span[START]
                root_self += selfs[row]
                requests += 1
    layer_stats = {
        layer: {
            "calls": layer_calls[layer],
            "self_ms": layer_self[layer] * 1e3,
            "share": (
                sum(per_request[layer].values()) / root_total
                if root_total
                else None
            ),
            "p50_self_ms": (
                percentile(list(per_request[layer].values()), 50) * 1e3
                if per_request[layer]
                else None
            ),
            "busy_share": layer_busy[layer] / wall_s if wall_s else None,
        }
        for layer in layer_calls
    }
    return {
        "spans": len(spans),
        "requests": requests,
        "root_total_ms": root_total * 1e3,
        "attributed_share": 1.0 - root_self / root_total if root_total else None,
        "names": name_stats,
        "layers": layer_stats,
        "missing": list(recorder.missing),
    }
