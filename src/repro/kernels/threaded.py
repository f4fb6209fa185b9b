"""The ``threaded`` shard-and-combine backend.

Work is split into shards — the K query rows of a corner gather, or the
segment list of a boundary reduce weighted by cell count — and each
shard runs the serial numpy primitive on a worker thread.  numpy releases
the GIL inside its gather/reduce inner loops, so on multi-core hosts the
shards genuinely overlap; per-shard partials are plain row-ranges of the
output, so "combine" is concatenation and needs no operator algebra.

Below ``min_parallel_items`` of work (or with a single worker) the pool
is skipped entirely and the serial primitive runs inline — thread
hand-off costs more than it saves on small batches.  The worker count is
pinned via ``REPRO_KERNEL_WORKERS`` (benchmarks set it explicitly so
speedup numbers are reproducible across runners); it defaults to
``os.cpu_count()``.

Scatter stays serial: duplicate-index updates must apply sequentially,
and partitioning indices by shard would cost more than the scatter.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels.protocol import ExecutionKernel
from repro.kernels.registry import register_kernel
from repro.kernels.segments import (
    scatter_serial,
    segment_reduce_serial,
)

#: Environment variable pinning the worker-pool size.
ENV_WORKERS = "REPRO_KERNEL_WORKERS"

#: Work items (corner reads / scanned cells) below which the pool is
#: skipped and the serial primitive runs inline.
MIN_PARALLEL_ITEMS = 1 << 15


def _env_workers() -> int | None:
    raw = os.environ.get(ENV_WORKERS)
    if not raw:
        return None
    value = int(raw)
    if value < 1:
        raise ValueError(f"{ENV_WORKERS} must be >= 1, got {value}")
    return value


@register_kernel(
    "threaded",
    description="shard-and-combine worker pool over the serial numpy "
    "primitives",
)
class ThreadedKernel:
    """Shard-and-combine execution over a lazy thread pool."""

    name = "threaded"

    def __init__(
        self,
        max_workers: int | None = None,
        min_parallel_items: int = MIN_PARALLEL_ITEMS,
    ) -> None:
        if max_workers is None:
            max_workers = _env_workers()
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self.min_parallel_items = int(min_parallel_items)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: Shard count of the most recent parallel dispatch (0 when the
        #: auto heuristic chose the inline serial path) — a diagnostic
        #: hook for tests and benchmarks, not part of the protocol.
        self.last_shards = 0

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-kernel",
                )
            return self._pool

    def executor(self) -> ThreadPoolExecutor:
        """The backend's worker pool, created on first use.

        Public so co-operating layers can share one pool instead of
        stacking their own threads on top — the serving layer offloads
        blocking query execution onto this executor, keeping the total
        thread count at ``max_workers`` whether a query runs through the
        event loop or straight through the kernel.
        """
        return self._ensure_pool()

    def _shard_bounds(self, count: int) -> list[tuple[int, int]]:
        """Split ``count`` rows into ≤ ``max_workers`` even spans."""
        shards = min(self.max_workers, count)
        edges = np.linspace(0, count, shards + 1, dtype=np.int64)
        return [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(shards)
            if edges[i] < edges[i + 1]
        ]

    def corner_gather(
        self,
        prefix: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        operator: InvertibleOperator,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        serial = _serial()
        k = len(lows)
        work = k << prefix.ndim  # K · 2^d corner reads
        if (
            self.max_workers <= 1
            or k < 2
            or work < self.min_parallel_items
        ):
            self.last_shards = 0
            return serial.corner_gather(
                prefix, lows, highs, operator, counter
            )
        bounds = self._shard_bounds(k)
        self.last_shards = len(bounds)
        pool = self._ensure_pool()

        def run(span: tuple[int, int]) -> np.ndarray:
            lo, hi = span
            return serial.corner_gather(
                prefix, lows[lo:hi], highs[lo:hi], operator, counter
            )

        parts = list(pool.map(run, bounds))
        return np.concatenate(parts)

    def segment_reduce(
        self,
        flat: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        operator: InvertibleOperator,
    ) -> np.ndarray:
        n = len(starts)
        lengths = np.asarray(lengths, dtype=np.int64)
        total = int(lengths.sum()) if n else 0
        if (
            self.max_workers <= 1
            or n < 2
            or total < self.min_parallel_items
        ):
            self.last_shards = 0
            return segment_reduce_serial(flat, starts, lengths, operator)
        # Shard on cumulative cell count, not segment count — one huge
        # segment must not leave every other worker idle.
        cumulative = np.cumsum(lengths)
        shards = min(self.max_workers, n)
        targets = np.linspace(
            0, total, shards + 1, dtype=np.int64
        )[1:-1]
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        edges = np.unique(np.concatenate(([0], cuts, [n])))
        bounds = [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(len(edges) - 1)
        ]
        self.last_shards = len(bounds)
        pool = self._ensure_pool()

        def run(span: tuple[int, int]) -> np.ndarray:
            lo, hi = span
            return segment_reduce_serial(
                flat, starts[lo:hi], lengths[lo:hi], operator
            )

        parts = list(pool.map(run, bounds))
        return np.concatenate(parts)

    def scatter(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        deltas: np.ndarray,
        operator: InvertibleOperator,
    ) -> None:
        # Serial on purpose: duplicates must apply in sequence, and
        # partitioning by shard costs more than the scatter itself.
        scatter_serial(target, indices, deltas, operator)


def _serial() -> ExecutionKernel:
    """The shared serial delegate (import-cycle-free lazy accessor)."""
    from repro.kernels.registry import get_kernel

    return get_kernel("numpy")
