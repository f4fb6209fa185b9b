"""Building the service the way a user does, and hosting it.

:func:`build_service` is the set-up every serving workload measures:
ingest the CSV fact table, then register the result — public API only.
:func:`timed_setups` repeats it so ``setup_s`` is a median, not one draw
of a bimodal allocator.

Run as a module (``python3 -m benchmarks.e2e.server --csv …``) this file
is the benchmark-owned server subprocess of the HTTP workloads, so client
and server each get a core.  It talks to the harness over its own pipes:
``READY <port> <json>`` on stdout once ``/healthz`` would answer, then
one-word commands on stdin — ``mark`` starts the measured window (CPU
clock snapshot, spans so far dropped; answered with ``MARKED``),
``stop`` (or end-of-file, so a
dead harness never leaves a server behind) writes the report and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys
import time
from pathlib import Path

from benchmarks.e2e import trace  # the package pins the environment first
from benchmarks.e2e.workloads import CUBE

from repro.ingest import IngestPlan, ingest, open_batches, plan_cuboids
from repro.serving import QueryService, ServingServer

#: The §9 cuboids every serving cube starts with, and their block size.
SERVING_CUBOIDS = ((0, 1), (1, 2))
CUBOID_BLOCK = 2

#: How many times set-up runs per process (the median is reported).
SETUP_REPEATS = 3


def build_service(csv_path: Path, shape: tuple[int, ...]) -> QueryService:
    """CSV → one-pass ingest → a registered, servable cube."""
    plan = IngestPlan(
        shape=shape,
        cuboids=plan_cuboids(shape, SERVING_CUBOIDS, CUBOID_BLOCK),
    )
    result = ingest(open_batches(csv_path), plan)
    service = QueryService()
    service.register_cube(
        CUBE,
        cuboid_set=result.cuboid_set,
        backend=result.backend,
        sum_index="blocked_prefix_sum",
        sum_params={"block_size": 8},
    )
    return service


def timed_setups(
    csv_path: Path, shape: tuple[int, ...], repeats: int = SETUP_REPEATS
) -> tuple[QueryService, list[float]]:
    """Build ``repeats`` times; keep the last service, return all times."""
    samples = []
    service = None
    for _ in range(repeats):
        service = None
        gc.collect()
        started = time.perf_counter()
        service = build_service(csv_path, shape)
        samples.append(time.perf_counter() - started)
    assert service is not None
    return service, samples


def _status_mb(field: str) -> float | None:
    """One ``kB`` field of ``/proc/self/status`` in MB (Linux only)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process, set-up included: work
    moved into set-up shows here.

    ``VmHWM`` where ``/proc`` has it: unlike ``ru_maxrss`` it starts from
    zero at ``exec``, so the server subprocess does not inherit the size
    the harness had when it forked.
    """
    peak = _status_mb("VmHWM")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak


class Window:
    """The measured window of the process hosting the service."""

    def __init__(self, recorder: trace.Recorder | None) -> None:
        self.recorder = recorder
        self.mark()

    def mark(self) -> None:
        if self.recorder is not None:
            self.recorder.reset()
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def report(self, trace_out: Path | None) -> dict:
        """CPU, memory and (when tracing) the span summary since the
        last :meth:`mark`; dumps the raw spans to ``trace_out``."""
        wall_s = time.perf_counter() - self.wall
        out: dict = {
            "cpu_s": time.process_time() - self.cpu,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
            # Resident now, after the timed phase: what serving holds,
            # where the peak may be the ingest that built it.
            "rss_mb": _status_mb("VmRSS"),
            "trace": None,
        }
        if self.recorder is not None:
            out["trace"] = trace.summarize(self.recorder, wall_s)
            if trace_out is not None:
                self.recorder.dump(trace_out)
        return out


async def _serve(args: argparse.Namespace) -> None:
    recorder = None
    if args.trace:
        recorder = trace.Recorder()
        recorder.install()
    shape = tuple(int(n) for n in args.shape.split("x"))
    service, samples = timed_setups(Path(args.csv), shape)
    server = ServingServer(service, port=0)
    await server.start()
    window = Window(recorder)
    print(f"READY {server.port} {json.dumps(samples)}", flush=True)

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    while True:
        line = (await commands.readline()).decode().strip()
        if line == "mark":
            window.mark()
            print("MARKED", flush=True)
        elif line in ("stop", ""):
            break
    report = window.report(Path(args.trace_out) if args.trace_out else None)
    await server.stop()
    Path(args.report).write_text(json.dumps(report))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--csv", required=True)
    parser.add_argument("--shape", required=True, help="e.g. 128x128x64")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
