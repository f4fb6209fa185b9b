"""Run one workload once and reduce it to a result.

:func:`run_workload` is the unit everything else is built from: the
driver contract (one workload, one seed, traced or not), the suite
(``python3 -m benchmarks.e2e run``) and the self-tests.  The shape of a
run is the same for every serving workload:

1. generate the fact table from the seed, write the CSV, build the
   shadow cube (:mod:`benchmarks.e2e.data`);
2. set the service up from the CSV, several times, in the process that
   will host it (:mod:`benchmarks.e2e.server`) — ``setup_s``;
3. untimed: ``/healthz`` probes (HTTP), then the warm-up prefix;
4. ``/stats`` snapshot, mark the window, run the fixed number of timed
   operations closed-loop, ``/stats`` snapshot;
5. stop the host, check the sampled answers against the oracle, and
   compute the metrics.

End-to-end metrics are only meaningful from an untraced run; a traced
run computes them too (that is how ``trace_overhead_ratio`` is formed)
but reports the per-layer table.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from benchmarks.e2e import (
    CLEARED_ENV,
    PINNED_ENV,
    REPO_ROOT,
    RESULTS_DIR,
    trace,
)
from benchmarks.e2e.client import Connection
from benchmarks.e2e.data import (
    FULL,
    SMOKE,
    Oracle,
    Scale,
    dense_cube,
    fact_table,
    write_csv,
)
from benchmarks.e2e.metrics import (
    END_TO_END,
    EXACT_ALWAYS,
    EXACT_CELLS,
    PER_LAYER_NAMES,
)
from benchmarks.e2e.server import (
    CUBOID_BLOCK,
    SETUP_REPEATS,
    Window,
    timed_setups,
)
from benchmarks.e2e.trace import percentile
from benchmarks.e2e.workloads import (
    BY_NAME,
    CUBE,
    DRIFT_PHASES,
    Request,
    Stream,
    Workload,
    build_stream,
    drift_phase,
    encode_body,
    op_count,
)

import repro.io
from repro.ingest import (
    IngestPlan,
    infer_shape,
    ingest,
    open_batches,
    plan_cuboids,
)
from repro.query.ranges import RangeQuery, RangeSpec
from repro.serving import AdaptiveController, QueryService

#: Scratch space for CSVs, spill files and server reports; inside the
#: checkout (the benchmark may write nowhere else), removed after a run.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Seed of the fact table.  The data is the same in every run — it is a
#: parameter of the benchmark, like the cube's shape — and ``--seed``
#: varies the traffic: the cost of MAX queries and boundary scans depends
#: on where the large cells lie, so a per-seed table moved the serving
#: metrics by ±10 % between seeds for reasons no code change causes.
DATA_SEED = 1997

#: Scalar responses are checked against the oracle every this many.
CHECK_EVERY = 50

#: Untimed ``GET /healthz`` probes that measure the HTTP framing floor.
HEALTHZ_PROBES = 1000

#: Queries verified against the shadow cube at each quiescent phase
#: boundary of ``drift-write``.
BOUNDARY_CHECKS = 64

#: ``ingest-build`` accumulates base + these three cuboids.
INGEST_CUBOIDS = ((0, 1), (1, 2), (0, 2))

#: Seconds a server subprocess gets to come up or to shut down.
SERVER_TIMEOUT_S = 120.0


@dataclass
class Tape:
    """What the closed-loop drivers record per timed operation."""

    latency_s: list[float] = field(default_factory=list)
    #: Whether each operation is of the workload's second class.
    side: list[bool] = field(default_factory=list)
    #: Units of work each operation answered (see ``work_per_s``).
    work: list[float] = field(default_factory=list)
    kind: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    kept: dict[int, object] = field(default_factory=dict)
    #: Whether sampled replies are kept for the oracle (``drift-write``
    #: verifies at quiescent boundaries instead: its answers depend on
    #: how reads interleave with writes).
    keep: bool = True
    request_bytes: int = 0
    response_bytes: int = 0
    #: Timed wall-clock: runs only between :meth:`resume` and
    #: :meth:`pause` (phases of one run are separated by untimed checks).
    wall_s: float = 0.0
    _resumed: float = 0.0

    def resume(self) -> None:
        self._resumed = time.perf_counter() - self.wall_s

    def pause(self) -> None:
        self.wall_s = time.perf_counter() - self._resumed

    def record(
        self, elapsed_s: float, kind: str, side: bool, work: float = 1.0
    ) -> None:
        """One completed operation."""
        self.latency_s.append(elapsed_s)
        self.kind.append(kind)
        self.side.append(side)
        self.work.append(work)


def http_clients() -> int:
    """Keep-alive connections of the HTTP workloads: ``min(nproc, 4)``."""
    return max(1, min(os.cpu_count() or 1, 4))


def _keep(position: int, endpoint: str) -> bool:
    """Whether the response at ``position`` is kept for the oracle."""
    return endpoint != "query" or position % CHECK_EVERY == 0


# ----------------------------------------------------------------------
# Hosting the service: subprocess (HTTP) or this process (in-process)
# ----------------------------------------------------------------------


class ServerProcess:
    """The benchmark-owned server subprocess of an HTTP workload."""

    def __init__(self, csv: Path, shape: Sequence[int], traced: bool, tag: str):
        self.report_path = csv.parent / "server-report.json"
        command = [
            sys.executable,
            "-m",
            "benchmarks.e2e.server",
            "--csv",
            str(csv),
            "--shape",
            "x".join(str(n) for n in shape),
            "--report",
            str(self.report_path),
            "--trace",
            str(int(traced)),
        ]
        if traced:
            command += ["--trace-out", str(RESULTS_DIR / f"trace-{tag}.json")]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = 0
        self.setup_samples: list[float] = []
        self.ready_s = 0.0

    def wait_ready(self) -> None:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(
                f"server subprocess failed to start (said {line!r})"
            )
        _, port, samples = line.split(" ", 2)
        self.port = int(port)
        self.setup_samples = json.loads(samples)
        self.ready_s = time.perf_counter() - self.started

    def send(self, command: str) -> None:
        assert self.process.stdin is not None
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def mark(self) -> None:
        """Start the server's measured window; returns once it has."""
        assert self.process.stdout is not None
        self.send("mark")
        if self.process.stdout.readline().strip() != "MARKED":
            raise RuntimeError("server subprocess did not acknowledge mark")

    def stop(self) -> dict:
        """Ask for the report, wait for the process to end, return it."""
        self.send("stop")
        self.process.wait(timeout=SERVER_TIMEOUT_S)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server subprocess exited with {self.process.returncode}"
            )
        return json.loads(self.report_path.read_text())

    def close(self) -> None:
        """Make sure the process is gone (normal and error paths)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


# ----------------------------------------------------------------------
# Closed-loop drivers
# ----------------------------------------------------------------------


def _work_of(request: Request, shape: Sequence[int]) -> int:
    """Units of work one request asks for: itself, its boxes, or the
    cells of its roll-up grid."""
    endpoint, payload = request
    if endpoint == "query_batch":
        return len(payload["queries"])
    if endpoint == "rollup":
        return int(np.prod([shape[dim] for dim in payload["dims"]]))
    return 1


def _encode(
    requests: Sequence[Request], shape: Sequence[int]
) -> list[tuple[str, bytes, int]]:
    """Requests as they go on the wire, encoded before the clock starts."""
    return [
        (request[0], encode_body(request[1]), _work_of(request, shape))
        for request in requests
    ]


async def _drive_http(
    connections: Sequence[Connection],
    bodies: Sequence[tuple[str, bytes, int]],
    tape: Tape | None = None,
    side: Sequence[bool] = (),
) -> None:
    """Every connection sends its next request when its reply arrives;
    ``side`` flags the timed requests of the second class."""
    todo = iter(enumerate(bodies))

    async def caller(connection: Connection) -> None:
        for position, (endpoint, body, work) in todo:
            started = time.perf_counter()
            status, reply = await connection.request("POST", "/" + endpoint, body)
            elapsed = time.perf_counter() - started
            if tape is None:
                continue
            if status != 200:
                tape.failures.append(f"{endpoint}: HTTP {status}")
                continue
            tape.record(elapsed, endpoint, side[position], work)
            tape.request_bytes += len(body)
            tape.response_bytes += len(reply)
            if _keep(position, endpoint):
                tape.kept[position] = reply

    await asyncio.gather(*(caller(c) for c in connections))


async def _drive_inproc(
    service: QueryService,
    requests: Sequence[Request],
    tasks: int,
    tape: Tape | None = None,
    side: Sequence[bool] = (),
    at: dict | None = None,
) -> None:
    """``tasks`` asyncio callers share one request stream, no sockets.

    ``side`` flags the timed requests of the second class; ``at`` maps a
    request position to a zero-argument callable invoked when that
    request is about to be issued (the adaptive step hook).
    """
    todo = iter(enumerate(requests))

    async def caller() -> None:
        for position, (endpoint, payload) in todo:
            if at and position in at:
                at[position]()
            started = time.perf_counter()
            try:
                reply = await getattr(service, endpoint)(payload)
            except Exception as exc:  # noqa: BLE001 — any refusal is a failed op
                if tape is not None:
                    tape.failures.append(f"{endpoint}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            if tape is None:
                continue
            tape.record(elapsed, endpoint, side[position])
            if tape.keep and _keep(position, endpoint):
                tape.kept[position] = reply

    await asyncio.gather(*(caller() for _ in range(tasks)))


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------


def _check_kept(
    oracle: Oracle, requests: Sequence[Request], kept: dict[int, object]
) -> tuple[int, int]:
    """``(checked, wrong)`` over the kept responses of a read-only run."""
    checks = {
        "query": oracle.check_scalar,
        "query_batch": oracle.check_batch,
        "rollup": oracle.check_rollup,
    }
    wrong = 0
    for position, reply in kept.items():
        endpoint, payload = requests[position]
        response = json.loads(reply) if isinstance(reply, bytes) else reply
        if not checks[endpoint](payload, response):
            wrong += 1
    return len(kept), wrong


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _delta(before: dict, after: dict, *path: str) -> float:
    """Growth of one ``/stats`` counter (absent = 0: a tier nothing was
    routed to has no entry yet)."""

    def read(stats: dict) -> float:
        for key in path[:-1]:
            stats = stats.get(key, {})
        return stats.get(path[-1], 0)

    return read(after) - read(before)


def _stats_metrics(before: dict, after: dict) -> dict[str, float | None]:
    """The per-layer counts, from two ``/stats`` snapshots."""
    cube = ("cubes", CUBE)
    hits = _delta(before, after, "cache", "hits")
    misses = _delta(before, after, "cache", "misses")
    batches = _delta(before, after, "coalescer", "batches")
    submitted = _delta(before, after, "coalescer", "submitted")
    queries = _delta(before, after, *cube, "queries")
    cells = {
        name: _delta(before, after, *cube, "access_counts", name)
        for name in ("cube_cells", "prefix_cells", "tree_nodes", "total")
    }
    tiers = {
        tier: _delta(before, after, *cube, "tiers", tier, "queries")
        for tier in ("materialized", "indexed", "fallback")
    }
    routed = hits + sum(tiers.values())
    out: dict[str, float | None] = {
        "serving.admission.shed": _delta(before, after, "admission", "shed"),
        "serving.admission.timeouts": _delta(
            before, after, "admission", "timeouts"
        ),
        "serving.admission.peak_queued": after["admission"]["peak_queued"],
        "serving.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else None
        ),
        "serving.cache.evictions": _delta(before, after, "cache", "evictions"),
        "serving.cache.invalidations": _delta(
            before, after, "cache", "invalidations"
        ),
        "serving.coalesce.batches": batches,
        "serving.coalesce.mean_batch_rows": (
            submitted / batches if batches else None
        ),
        "serving.coalesce.largest_batch": after["coalescer"]["largest_batch"],
        "instrumentation.counters.cells_per_query": (
            cells["total"] / queries if queries else None
        ),
        "instrumentation.counters.cube_cells": cells["cube_cells"],
        "instrumentation.counters.prefix_cells": cells["prefix_cells"],
        "instrumentation.counters.tree_nodes": cells["tree_nodes"],
    }
    out["serving.router.share.cache"] = hits / routed if routed else None
    for tier, count in tiers.items():
        out[f"serving.router.share.{tier}"] = count / routed if routed else None
    return out


def _trace_metrics(summary: dict | None) -> dict[str, float | None]:
    """The per-layer times, from the traced host's span summary."""
    if summary is None:
        return {}
    names = summary["names"]
    layers = summary["layers"]

    def p50(name: str, key: str = "p50_ms", scale: float = 1.0) -> float | None:
        stats = names.get(name)
        return None if stats is None else stats[key] * scale

    def layer(name: str, key: str) -> float | None:
        stats = layers.get(name)
        return None if stats is None else stats[key]

    many = names.get("engine.many")
    kernel_calls = sum(
        names[n]["calls"] for n in names if n.startswith("kernel.")
    )
    return {
        "serving.service.span_ms": p50("service.request"),
        "serving.service.self_ms": p50("service.request", "p50_self_ms"),
        "serving.service.query_p50_ms": p50("service.read"),
        "serving.service.update_p50_ms": p50("QueryService.update"),
        "serving.admission.wait_ms": p50("AdmissionController.acquire"),
        "serving.cache.get_us": p50("ResultCache.get", scale=1e3),
        "serving.cache.put_us": p50("ResultCache.put", scale=1e3),
        "serving.coalesce.wait_ms": p50(
            "RequestCoalescer.submit", "p50_self_ms"
        ),
        "serving.router.choose_us": p50("router.choose", scale=1e3),
        "serving.router.run_ms": p50("router.run"),
        "query.engine.scalar_us": p50("engine.scalar", scale=1e3),
        "query.engine.many_ms": p50("engine.many"),
        "query.engine.rows_per_call": None if many is None else many["mean_size"],
        "query.engine.apply_updates_ms": p50("RangeQueryEngine.apply_updates"),
        "query.engine.busy_share": layer("query.engine", "busy_share"),
        "kernels.corner_gather_ms": p50("kernel.corner_gather"),
        "kernels.segment_reduce_ms": p50("kernel.segment_reduce"),
        "kernels.scatter_ms": p50("kernel.scatter"),
        "kernels.calls": kernel_calls,
        "kernels.busy_share": layer("kernels", "busy_share"),
        "optimizer.materialize.route_us": p50(
            "MaterializedCuboidSet.route", scale=1e3
        ),
        "optimizer.materialize.range_sum_us": p50(
            "MaterializedCuboidSet.range_sum", scale=1e3
        ),
        "optimizer.materialize.apply_updates_ms": p50(
            "MaterializedCuboidSet.apply_updates"
        ),
        "optimizer.advisor.plan_delta_ms": p50("QueryService.plan_delta"),
        "io.save_manifest_ms": p50("save_index_manifest"),
        "io.open_index_ms": p50("open_index"),
        "trace.spans": summary["spans"],
        "trace.attributed_share": summary["attributed_share"],
    }


# ----------------------------------------------------------------------
# The runs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    workload: str
    seed: int
    seconds: float
    traced: bool = False
    smoke: bool = False

    @property
    def scale(self) -> Scale:
        return SMOKE if self.smoke else FULL


def _prepare(config: RunConfig, work: Path) -> tuple[Path, Oracle]:
    coords, values = fact_table(DATA_SEED, config.scale)
    csv = work / "facts.csv"
    write_csv(csv, coords, values)
    return csv, Oracle(dense_cube(config.scale.shape, coords, values))


async def _run_http(config: RunConfig, workload: Workload, work: Path) -> dict:
    csv, oracle = _prepare(config, work)
    shape = config.scale.shape
    stream = build_stream(workload, config.seed, shape, config.seconds, config.smoke)
    timed = stream.phases[0]
    server = ServerProcess(csv, shape, config.traced, config.workload)
    tape = Tape()
    try:
        server.wait_ready()
        connections = [
            await Connection.open("127.0.0.1", server.port)
            for _ in range(http_clients())
        ]
        control = connections[0]
        probes = []
        for _ in range(HEALTHZ_PROBES if not config.smoke else 50):
            started = time.perf_counter()
            await control.request("GET", "/healthz")
            probes.append(time.perf_counter() - started)
        await _drive_http(connections, _encode(stream.warmup, shape))
        bodies = _encode(timed, shape)
        before = json.loads((await control.request("GET", "/stats"))[1])
        server.mark()
        tape.resume()
        await _drive_http(connections, bodies, tape, stream.side[0])
        tape.pause()
        after = json.loads((await control.request("GET", "/stats"))[1])
        for connection in connections:
            await connection.close()
        report = server.stop()
    finally:
        server.close()
    checked, wrong = _check_kept(oracle, timed, tape.kept)
    layer = _stats_metrics(before, after)
    layer["serving.http.healthz_p50_ms"] = percentile(probes, 50) * 1e3
    layer["serving.http.req_bytes"] = tape.request_bytes / max(1, len(tape.latency_s))
    layer["serving.http.resp_bytes"] = tape.response_bytes / max(1, len(tape.latency_s))
    return _result(
        config,
        workload,
        stream,
        tape,
        setup_samples=server.setup_samples,
        report=report,
        layer=layer,
        checked=checked,
        wrong=wrong,
        informational={"spawn_to_ready_s": server.ready_s},
    )


class _Stepper:
    """Runs ``AdaptiveController.step`` when a fixed request is issued."""

    def __init__(self, controller: AdaptiveController) -> None:
        self.controller = controller
        self.task: asyncio.Task | None = None
        self.step_s: list[float] = []

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._step())

    async def _step(self) -> None:
        started = time.perf_counter()
        await self.controller.step(CUBE)
        self.step_s.append(time.perf_counter() - started)

    async def finish(self) -> None:
        if self.task is not None:
            await self.task
            self.task = None


async def _run_inproc(config: RunConfig, workload: Workload, work: Path) -> dict:
    csv, oracle = _prepare(config, work)
    shape = config.scale.shape
    stream = build_stream(workload, config.seed, shape, config.seconds, config.smoke)
    recorder = None
    if config.traced:
        recorder = trace.Recorder()
        recorder.install()
    try:
        service, samples = timed_setups(csv, shape)
        window = Window(recorder)
        drifting = workload.name == "drift-write"
        stepper = _Stepper(AdaptiveController(service))
        await _drive_inproc(service, stream.warmup, workload.tasks)
        if drifting:
            _apply_updates(oracle, stream.warmup)
        before = service.stats()
        window.mark()
        tape = Tape(keep=not drifting)
        checked = wrong = 0
        for number, phase in enumerate(stream.phases):
            hook = {len(phase) // 4: stepper.start} if drifting else None
            tape.resume()
            await _drive_inproc(
                service, phase, workload.tasks, tape, stream.side[number], hook
            )
            await stepper.finish()
            tape.pause()
            if drifting:
                _apply_updates(oracle, phase)
                done, bad = await _check_boundary(
                    service, oracle, config.seed, number, shape
                )
                checked += done
                wrong += bad
        after = service.stats()
        report = window.report(RESULTS_DIR / f"trace-{config.workload}.json")
        design = service.describe_design()[CUBE]
        await service.close()
    finally:
        if recorder is not None:
            recorder.uninstall()
    if not drifting:
        checked, wrong = _check_kept(oracle, stream.phases[0], tape.kept)
    layer = _stats_metrics(before, after)
    informational: dict[str, object] = {}
    if drifting:
        swaps = design["swap_history"]
        layer["serving.adaptive.swaps"] = stepper.controller.stats()["swaps"]
        layer["serving.adaptive.replayed_updates"] = sum(
            s["replayed_updates"] for s in swaps
        )
        layer["serving.adaptive.build_ms"] = (
            statistics.median(s["build_s"] for s in swaps) * 1e3
            if swaps
            else None
        )
        layer["serving.adaptive.step_ms"] = (
            statistics.median(stepper.step_s) * 1e3
        )
        informational["plans"] = [s["plan"] for s in swaps]
    return _result(
        config,
        workload,
        stream,
        tape,
        setup_samples=samples,
        report=report,
        layer=layer,
        checked=checked,
        wrong=wrong,
        informational=informational,
    )


def _apply_updates(oracle: Oracle, requests: Sequence[Request]) -> None:
    for endpoint, payload in requests:
        if endpoint == "update":
            oracle.apply(payload["updates"])


async def _check_boundary(
    service: QueryService,
    oracle: Oracle,
    seed: int,
    phase: int,
    shape: Sequence[int],
) -> tuple[int, int]:
    """Untimed reads at a quiescent phase boundary, checked one by one
    against the shadow cube (which has absorbed the harness's deltas)."""
    probes = [
        request
        for request in drift_phase(
            [seed, 99, phase], DRIFT_PHASES[phase], shape, BOUNDARY_CHECKS * 2
        )
        if request[0] == "query"
    ][:BOUNDARY_CHECKS]
    wrong = 0
    for _, payload in probes:
        response = await service.query(payload)
        if not oracle.check_scalar(payload, response):
            wrong += 1
    return len(probes), wrong


def _timed_batches(
    batches: Iterator,
    leg: str,
    parse_s: list[float],
    tape: Tape,
    recorder: trace.Recorder | None,
) -> Iterator:
    """The batch iterator handed to ``ingest()``, timed from outside:
    time inside ``next()`` is parsing, time until the consumer asks again
    is validate + scatter; the two together are one operation, of the
    second class on the spilled leg."""
    iterator = iter(batches)
    while True:
        started = time.perf_counter()
        try:
            batch = next(iterator)
        except StopIteration:
            return
        parsed = time.perf_counter()
        parse_s.append(parsed - started)
        if recorder is not None:
            recorder.add(trace.BATCH_SPAN[1], started, parsed)
        yield batch
        tape.record(
            time.perf_counter() - started, leg, leg == "spill", batch.rows
        )


def _run_ingest(config: RunConfig, workload: Workload, work: Path) -> dict:
    csv, oracle = _prepare(config, work)
    recorder = None
    if config.traced:
        recorder = trace.Recorder()
        recorder.install()
    try:
        samples = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            shape = infer_shape(open_batches(csv))
            plan = IngestPlan(
                shape=shape,
                cuboids=plan_cuboids(shape, INGEST_CUBOIDS, CUBOID_BLOCK),
            )
            samples.append(time.perf_counter() - started)
        window = Window(recorder)
        tape = Tape()
        leg_s: dict[str, list[float]] = {"memory": [], "spill": []}
        parse_s: list[float] = []
        checked = wrong = 0
        spilled_bytes = spill_files = 0
        for cycle in range(op_count(workload, config.seconds, config.smoke)):
            spill_directory = work / f"spill-{cycle}"
            builds = {}
            for leg, leg_plan in (
                ("memory", plan),
                (
                    "spill",
                    replace(plan, budget_bytes=1, spill_directory=spill_directory),
                ),
            ):
                tape.resume()
                before = tape.wall_s
                builds[leg] = ingest(
                    _timed_batches(open_batches(csv), leg, parse_s, tape, recorder),
                    leg_plan,
                )
                tape.pause()
                leg_s[leg].append(tape.wall_s - before)
            spilled = builds["spill"]
            tape.resume()
            reopened = []
            for cuboid in spilled.cuboid_set.cuboids:
                manifest = spill_directory / (
                    "cuboid-" + "-".join(map(str, cuboid.key)) + ".json"
                )
                repro.io.save_index_manifest(cuboid.structure, manifest)
                reopened.append(repro.io.open_index(manifest))
            tape.pause()
            files = list(spill_directory.rglob("*.npy"))
            spill_files = len(files)
            spilled_bytes = sum(f.stat().st_size for f in files)
            done, bad = _check_builds(oracle, builds, reopened, config.seed + cycle)
            checked += done
            wrong += bad
            del reopened
            spilled.release()
        report = window.report(RESULTS_DIR / f"trace-{config.workload}.json")
    finally:
        if recorder is not None:
            recorder.uninstall()
    ingest_s = sum(leg_s["memory"]) + sum(leg_s["spill"])
    flush = (report["trace"] or {}).get("names", {}).get(
        "MultiCuboidAccumulator.flush"
    )
    flush_s = None if flush is None else flush["total_ms"] / 1e3

    def rows_per_s(leg: str) -> float:
        return len(leg_s[leg]) * config.scale.rows / sum(leg_s[leg])

    layer: dict[str, float | None] = {
        "ingest.batches.parse_s": sum(parse_s),
        "ingest.batches.rows_per_s": sum(tape.work) / sum(parse_s),
        "ingest.accumulate.absorb_s": sum(tape.latency_s) - sum(parse_s),
        "ingest.accumulate.flush_s": flush_s,
        "ingest.build.finalize_s": (
            ingest_s - sum(tape.latency_s) - (flush_s or 0.0)
        ),
        "ingest.build.spilled_bytes": spilled_bytes,
        "ingest.build.rows_per_s": rows_per_s("memory"),
        "ingest.build.spill_rows_per_s": rows_per_s("spill"),
        "index.backend.spill_files": spill_files,
    }
    return _result(
        config,
        workload,
        Stream([], []),
        tape,
        setup_samples=samples,
        report=report,
        layer=layer,
        checked=checked,
        wrong=wrong,
        informational={
            "ingest_rows_per_s": layer["ingest.build.rows_per_s"],
            "ingest_spill_rows_per_s": layer["ingest.build.spill_rows_per_s"],
            "leg_s": leg_s,
        },
    )


def _check_builds(
    oracle: Oracle, builds: dict, reopened: Sequence[object], seed: int
) -> tuple[int, int]:
    """Spilled build == in-memory build cell-for-cell, both == the shadow
    cube, and every structure (built, spilled, reopened) answers routed
    range-sums the way numpy slicing does."""
    memory, spilled = builds["memory"], builds["spill"]
    checked = wrong = 0

    def expect(condition: bool) -> None:
        nonlocal checked, wrong
        checked += 1
        wrong += not condition

    expect(np.array_equal(memory.cuboid_set.base, oracle.cube))
    expect(np.array_equal(spilled.cuboid_set.base, memory.cuboid_set.base))
    for index, (in_memory, on_disk) in enumerate(
        zip(memory.cuboid_set.cuboids, spilled.cuboid_set.cuboids)
    ):
        for key, value in in_memory.structure.state_dict().items():
            if isinstance(value, np.ndarray):
                twin = on_disk.structure.state_dict()[key]
                again = reopened[index].state_dict()[key]  # type: ignore[attr-defined]
                expect(np.array_equal(value, twin))
                expect(np.array_equal(value, again))
    rng = np.random.default_rng([seed, 7])
    shape = oracle.shape
    for key in INGEST_CUBOIDS:
        for _ in range(8):
            ranges: list[object] = [None] * len(shape)
            specs = [RangeSpec.all()] * len(shape)
            for dim in key:
                lo, hi = sorted(rng.integers(0, shape[dim], size=2).tolist())
                ranges[dim] = [lo, hi]
                specs[dim] = RangeSpec.between(lo, hi)
            payload = {"op": "sum", "ranges": ranges}
            for build in (memory, spilled):
                value = build.cuboid_set.range_sum(RangeQuery(tuple(specs)))
                expect(oracle.check_scalar(payload, {"value": int(value)}))
    return checked, wrong


def _result(
    config: RunConfig,
    workload: Workload,
    stream: Stream,
    tape: Tape,
    *,
    setup_samples: Sequence[float],
    report: dict,
    layer: dict[str, float | None],
    checked: int,
    wrong: int,
    informational: dict[str, object],
) -> dict:
    """Assemble one run's result from its measurements.

    Every statistic is taken over the whole timed phase: each completed
    operation counts once, in its class.  Where the first class's p95
    is not gated (``Workload.gated_tail``) ``op_p95_ms`` repeats the
    median; ``informational.op_p95_ms`` is the p95 on every workload.
    """
    latencies_ms = [s * 1e3 for s in tape.latency_s]
    attempted = len(tape.latency_s) + len(tape.failures)
    op_ms = [ms for ms, side in zip(latencies_ms, tape.side) if not side]
    # A workload with a single class of operation reports it twice.
    side_ms = [ms for ms, side in zip(latencies_ms, tape.side) if side] or op_ms
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p95_ms": percentile(op_ms, 95 if workload.gated_tail else 50),
        "side_p50_ms": percentile(side_ms, 50),
        "work_per_s": sum(tape.work) / tape.wall_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    assert list(end_to_end) == [m.name for m in END_TO_END]
    by_kind: dict[str, list[float]] = {}
    for kind, value in zip(tape.kind, latencies_ms):
        by_kind.setdefault(kind, []).append(value)
    informational = {
        "op_samples": len(op_ms),
        "side_samples": len(side_ms),
        "op_p95_ms": percentile(op_ms, 95),
        "op_p99_ms": percentile(op_ms, 99),
        "side_p95_ms": percentile(side_ms, 95),
        "side_p99_ms": percentile(side_ms, 99),
        "all_p50_ms": percentile(latencies_ms, 50),
        "all_mean_ms": statistics.fmean(latencies_ms) if latencies_ms else None,
        "setup_samples_s": list(setup_samples),
        "by_endpoint": {
            kind: {
                "samples": len(values),
                "p50_ms": percentile(values, 50),
                "p95_ms": percentile(values, 95),
            }
            for kind, values in sorted(by_kind.items())
        },
        "failures": tape.failures[:20],
        **informational,
    }
    layer = dict(layer)
    layer.update(_trace_metrics(report["trace"]))
    layer["serving.process.cpu_s"] = report["cpu_s"]
    layer["serving.process.cpu_util"] = report["cpu_s"] / report["wall_s"]
    layer["serving.process.rss_mb"] = report["rss_mb"]
    if config.traced:
        layer["trace.op_p50_ms"] = end_to_end["op_p50_ms"]
        service_p50 = layer.get("serving.service.span_ms")
        if workload.driver == "http" and service_p50 is not None:
            # The service span's p50 is over every request, so is this.
            layer["serving.http.overhead_ms"] = (
                informational["all_p50_ms"] - service_p50
            )
    per_layer = {name: layer.get(name) for name in PER_LAYER_NAMES}
    trace_summary = report["trace"]
    ops = {
        "timed": stream.timed_ops or attempted,
        "warmup": len(stream.warmup),
        "callers": workload.tasks
        or (http_clients() if workload.driver == "http" else 1),
    }
    exact = {"ops.timed": ops["timed"], "ops.warmup": ops["warmup"]}
    for name in EXACT_ALWAYS + (EXACT_CELLS if workload.exact_cells else ()):
        if per_layer[name] is not None:
            exact[name] = per_layer[name]
    return {
        "workload": workload.name,
        "classes": {
            "op": workload.op,
            "side": workload.side,
            "work": workload.work_unit,
        },
        "seed": config.seed,
        "seconds": config.seconds,
        "smoke": config.smoke,
        "traced": config.traced,
        "ops": ops,
        "exact": exact,
        "attempted": attempted,
        "failed": len(tape.failures),
        "checked": checked,
        "wrong_answers": wrong,
        "correct": wrong == 0 and checked > 0,
        "timed_s": tape.wall_s,
        "end_to_end": end_to_end,
        "informational": informational,
        "per_layer": per_layer,
        "layers": None if trace_summary is None else trace_summary["layers"],
        "trace_missing": [] if trace_summary is None else trace_summary["missing"],
    }


def run_workload(config: RunConfig) -> dict:
    """Run one workload once; returns its result (see module docstring)."""
    workload = BY_NAME[config.workload]
    work = WORK_DIR / f"{os.getpid()}-{workload.name}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        if workload.driver == "http":
            return asyncio.run(_run_http(config, workload, work))
        if workload.driver == "inproc":
            return asyncio.run(_run_inproc(config, workload, work))
        return _run_ingest(config, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def environment() -> dict:
    """What a result needs to be attributable to a machine and a build."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pinned_env": dict(PINNED_ENV),
        "cleared_env": list(CLEARED_ENV),
        "http_clients": http_clients(),
    }
