"""CLI entry point: ``python -m repro.serving``.

Stands up a :class:`~repro.serving.QueryService` with one or more
seeded demo cubes (or whatever shapes you pass via ``--cube``) and
serves until interrupted.  ``--logbook PATH`` records all served
traffic in the §9 advisor workload format and writes it on shutdown —
the *serve → log → re-tune* loop's first leg.

``--ingest NAME=PATH`` registers a cube built by the streaming
ingestion subsystem (:mod:`repro.ingest`) from a CSV/Arrow/Parquet
fact file instead of seeded random data; ``--ingest-cuboids`` /
``--ingest-budget-mb`` / ``--ingest-spill`` forward to the ingest
plan, and an over-budget build spills through a memmap and is served
straight from its spill files (the base cube is adopted, not copied).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import numpy as np

from repro.serving.adaptive import AdaptiveController
from repro.serving.http import ServingServer
from repro.serving.service import QueryService, ServeConfig


def _parse_cube(spec: str) -> tuple[str, tuple[int, ...]]:
    """``name=16x16x8`` → ``("name", (16, 16, 8))``."""
    name, _, dims = spec.partition("=")
    if not name or not dims:
        raise argparse.ArgumentTypeError(
            f"cube spec {spec!r} must look like name=16x16x8"
        )
    try:
        shape = tuple(int(d) for d in dims.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cube spec {spec!r} has a non-integer extent"
        ) from exc
    if not shape or any(d < 1 for d in shape):
        raise argparse.ArgumentTypeError(
            f"cube spec {spec!r} needs positive extents"
        )
    return name, shape


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve OLAP range aggregates over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--cube",
        type=_parse_cube,
        action="append",
        metavar="NAME=SHAPE",
        help="cube to register with seeded random data, e.g. "
        "sales=64x64x16 (repeatable; default demo=32x32x16)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the demo cubes' data (default 0)",
    )
    parser.add_argument(
        "--ingest",
        action="append",
        metavar="NAME=PATH",
        default=None,
        help="register a cube ingested from a data file (CSV always; "
        "Arrow/Parquet with pyarrow), e.g. sales=facts.csv "
        "(repeatable)",
    )
    parser.add_argument(
        "--ingest-cuboids",
        metavar="KEYS",
        default="",
        help='§9 cuboids to accumulate during ingest, e.g. "0,1;1,2"',
    )
    parser.add_argument(
        "--ingest-budget-mb",
        type=float,
        default=None,
        help="accumulator budget for ingested cubes; exceeding it "
        "spills to --ingest-spill",
    )
    parser.add_argument(
        "--ingest-spill",
        metavar="DIR",
        default=None,
        help="spill directory for over-budget ingests",
    )
    parser.add_argument(
        "--logbook",
        metavar="PATH",
        default=None,
        help="record served traffic and write the §9 advisor "
        "workload JSON here on shutdown",
    )
    parser.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=2.0,
        help="scalar-coalescing window (0 disables; default 2ms)",
    )
    parser.add_argument("--cache-capacity", type=int, default=1024)
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument("--max-queue", type=int, default=256)
    parser.add_argument("--timeout-s", type=float, default=30.0)
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="run the adaptive physical-design controller: re-plan "
        "each cube from its live workload window and hot-swap "
        "improved §9 plans with zero downtime",
    )
    parser.add_argument(
        "--adaptive-interval-s",
        type=float,
        default=5.0,
        help="seconds between adaptive advisory cycles (default 5)",
    )
    parser.add_argument(
        "--adaptive-budget",
        type=float,
        default=None,
        help="auxiliary-cell budget for adaptive plans "
        "(default: each cube's own cell count)",
    )
    return parser


def _register_ingested(
    service: QueryService,
    name: str,
    path: str,
    args: argparse.Namespace,
) -> None:
    """Build one cube from a fact file and register the result.

    Spilled builds register with ``cuboid_set=`` so the memmap base is
    adopted without a copy; the ingest's root backend becomes the
    cube's design backend, letting adaptive swaps reclaim superseded
    plans into the same spill directory.
    """
    from repro.ingest import (
        IngestPlan,
        infer_shape,
        ingest,
        open_batches,
        plan_cuboids,
    )

    shape = infer_shape(open_batches(path))
    keys = [
        tuple(int(p) for p in group.split(","))
        for group in args.ingest_cuboids.split(";")
        if group.strip()
    ]
    plan = IngestPlan(
        shape=shape,
        cuboids=plan_cuboids(shape, keys),
        budget_bytes=(
            None
            if args.ingest_budget_mb is None
            else int(args.ingest_budget_mb * (1 << 20))
        ),
        spill_directory=args.ingest_spill,
    )
    result = ingest(open_batches(path), plan)
    extra: dict = {}
    if result.spilled:
        # No indexed tier for an out-of-core cube: the engine's default
        # §3 prefix array is another base-sized array, and its trees
        # build through a base-sized heap transient.  The materialized
        # cuboids (plus the fallback scan over the mapped base) serve it.
        extra["engine"] = None
    service.register_cube(
        name,
        cuboid_set=result.cuboid_set,
        backend=result.backend,
        **extra,
    )
    print(
        f"ingested cube {name!r} from {path}: shape={shape}, "
        f"{result.rows} rows, {len(plan.cuboids)} cuboids, "
        f"spilled={result.spilled}",
        file=sys.stderr,
    )


async def _serve(args: argparse.Namespace) -> None:
    config = ServeConfig(
        coalesce_window_s=args.coalesce_window_ms / 1e3,
        cache_capacity=args.cache_capacity,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        timeout_s=args.timeout_s,
        logbook_path=args.logbook,
        adaptive_interval_s=args.adaptive_interval_s,
        adaptive_space_budget=args.adaptive_budget,
    )
    service = QueryService(config)
    rng = np.random.default_rng(args.seed)
    cubes = args.cube or ([] if args.ingest else [("demo", (32, 32, 16))])
    for name, shape in cubes:
        data = rng.integers(0, 100, size=shape, dtype=np.int64)
        service.register_cube(name, data)
        print(
            f"registered cube {name!r} shape={shape} "
            f"dtype=int64 (seeded)",
            file=sys.stderr,
        )
    for spec in args.ingest or []:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(
                f"--ingest spec {spec!r} must look like name=path.csv"
            )
        _register_ingested(service, name, path, args)
    server = ServingServer(service, host=args.host, port=args.port)
    await server.start()
    controller = None
    if args.adaptive:
        controller = AdaptiveController(service)
        await controller.start()
        print(
            f"adaptive controller on (every "
            f"{config.adaptive_interval_s:g}s; GET /design to inspect)",
            file=sys.stderr,
        )
    print(
        f"serving on http://{server.host}:{server.port} "
        f"(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if controller is not None:
            await controller.stop()
            stats = controller.stats()
            print(
                f"adaptive controller: {stats['cycles']} cycles, "
                f"{stats['swaps']} swaps, {stats['holds']} holds",
                file=sys.stderr,
            )
        await server.stop()
        if args.logbook:
            print(f"logbook written to {args.logbook}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
