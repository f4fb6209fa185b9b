"""Metric names, units, directions and bounds — one table, used by the
runner, ``compare``, the self-tests and ``BENCHMARK.json``.

End-to-end metrics are what a user of the system sees; every workload
reports every one of them, from the untraced run.  Per-layer metrics
(``<module under src/repro>.<metric>``) explain them: counts come from
``/stats`` snapshots around the timed phase, times from the ``--trace 1``
run's spans.  A per-layer metric that does not apply to a workload, or
whose span target no longer exists, is ``null`` in the result file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before it is a regression (end-to-end only).
    bound: float | None = None


#: What ``op``, ``side`` and ``work`` mean is per workload (README, and
#: ``Workload.op/side/work_unit``): every workload has up to two classes
#: of operation — reads and writes on ``drift-write``, the in-memory and
#: the spilled ``ingest()`` on ``ingest-build`` — so that the second is
#: gated by name and not pooled away; work is requests, boxes + roll-up
#: cells, or rows.  Every statistic is over the whole timed phase.
#: ``op_p95_ms`` is the first class's p95 where ``Workload.gated_tail``
#: says that tail is gated and repeats ``op_p50_ms`` elsewhere (every
#: workload must report every metric).  The issue asked for 10 %
#: everywhere; the timing bounds are 25 %, the widest the driver allows:
#: it wants three times the ten-seed spread (IQR ÷ median), and on the
#: shared host that spread is 3–16 % when quiet and past 25 % when not
#: (README).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_p95_ms", "ms", "lower", 0.25),
    Metric("side_p50_ms", "ms", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _layer(layer: str, *metrics: tuple[str, str, str]) -> list[Metric]:
    return [Metric(f"{layer}.{name}", unit, better) for name, unit, better in metrics]


PER_LAYER: tuple[Metric, ...] = tuple(
    _layer(
        "serving.http",
        ("overhead_ms", "ms", "lower"),
        ("healthz_p50_ms", "ms", "lower"),
        ("req_bytes", "B", "lower"),
        ("resp_bytes", "B", "lower"),
    )
    + _layer(
        "serving.service",
        ("span_ms", "ms", "lower"),
        ("self_ms", "ms", "lower"),
        ("query_p50_ms", "ms", "lower"),
        ("update_p50_ms", "ms", "lower"),
    )
    + _layer(
        "serving.admission",
        ("wait_ms", "ms", "lower"),
        ("shed", "count", "lower"),
        ("timeouts", "count", "lower"),
        ("peak_queued", "count", "lower"),
    )
    + _layer(
        "serving.cache",
        ("hit_ratio", "ratio", "higher"),
        ("get_us", "us", "lower"),
        ("put_us", "us", "lower"),
        ("evictions", "count", "lower"),
        ("invalidations", "count", "lower"),
    )
    + _layer(
        "serving.coalesce",
        ("wait_ms", "ms", "lower"),
        ("batches", "count", "lower"),
        ("mean_batch_rows", "count", "higher"),
        ("largest_batch", "count", "higher"),
    )
    + _layer(
        "serving.router",
        ("choose_us", "us", "lower"),
        ("run_ms", "ms", "lower"),
        ("share.cache", "ratio", "higher"),
        ("share.materialized", "ratio", "higher"),
        ("share.indexed", "ratio", "lower"),
        ("share.fallback", "ratio", "lower"),
    )
    + _layer(
        "serving.adaptive",
        ("step_ms", "ms", "lower"),
        ("build_ms", "ms", "lower"),
        ("swaps", "count", "higher"),
        ("replayed_updates", "count", "lower"),
    )
    + _layer(
        "query.engine",
        ("scalar_us", "us", "lower"),
        ("many_ms", "ms", "lower"),
        ("rows_per_call", "count", "higher"),
        ("apply_updates_ms", "ms", "lower"),
        ("busy_share", "ratio", "lower"),
    )
    + _layer(
        "kernels",
        ("corner_gather_ms", "ms", "lower"),
        ("segment_reduce_ms", "ms", "lower"),
        ("scatter_ms", "ms", "lower"),
        ("calls", "count", "lower"),
        ("busy_share", "ratio", "lower"),
    )
    + _layer(
        "optimizer.materialize",
        ("route_us", "us", "lower"),
        ("range_sum_us", "us", "lower"),
        ("apply_updates_ms", "ms", "lower"),
    )
    + _layer("optimizer.advisor", ("plan_delta_ms", "ms", "lower"))
    + _layer(
        "instrumentation.counters",
        ("cells_per_query", "count", "lower"),
        ("cube_cells", "count", "lower"),
        ("prefix_cells", "count", "lower"),
        ("tree_nodes", "count", "lower"),
    )
    + _layer(
        "ingest.batches",
        ("parse_s", "s", "lower"),
        ("rows_per_s", "1/s", "higher"),
    )
    + _layer(
        "ingest.accumulate",
        ("absorb_s", "s", "lower"),
        ("flush_s", "s", "lower"),
    )
    + _layer(
        "ingest.build",
        ("finalize_s", "s", "lower"),
        ("spilled_bytes", "B", "lower"),
        ("rows_per_s", "1/s", "higher"),
        ("spill_rows_per_s", "1/s", "higher"),
    )
    + _layer("index.backend", ("spill_files", "count", "lower"))
    + _layer(
        "io",
        ("save_manifest_ms", "ms", "lower"),
        ("open_index_ms", "ms", "lower"),
    )
    + _layer(
        "serving.process",
        ("cpu_s", "s", "lower"),
        ("cpu_util", "ratio", "lower"),
        ("rss_mb", "MB", "lower"),
    )
    + _layer(
        "trace",
        ("op_p50_ms", "ms", "lower"),
        ("spans", "count", "lower"),
        ("attributed_share", "ratio", "higher"),
    )
)

#: Per-layer counts that must repeat bit-for-bit for a given seed (a
#: run lists them, with its operation counts, under ``exact``; ``compare``
#: fails on any difference).  The cell counters are left out on a
#: workload whose ``exact_cells`` is false.
EXACT_CELLS = (
    "instrumentation.counters.cube_cells",
    "instrumentation.counters.prefix_cells",
    "instrumentation.counters.tree_nodes",
)
EXACT_ALWAYS = ("serving.adaptive.swaps",)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def benchmark_json(workloads: list[dict], run_seconds: int) -> dict:
    """The contract file's content, derived from this table."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": workloads,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
