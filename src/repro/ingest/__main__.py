"""``python -m repro.ingest`` — build cuboid sets from a data file.

Examples::

    # One-pass build of the base cube plus two cuboids, in memory:
    python -m repro.ingest sales.csv --cuboids "0,1;1,2"

    # Out-of-core: spill accumulators once they exceed 64 MiB, then
    # persist the built structures as zero-copy manifests:
    python -m repro.ingest sales.csv --cuboids "0;1" \\
        --budget-mb 64 --spill /data/spill --persist /data/spill

The cube shape is inferred from the data (one extra pre-scan) unless
``--shape`` pins it.  Arrow/Parquet inputs need the soft ``pyarrow``
dependency; CSV always works.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.index.backend import MemmapBackend
from repro.ingest.batches import (
    DEFAULT_BATCH_ROWS,
    IngestError,
    infer_shape,
    open_batches,
    pyarrow_available,
)
from repro.ingest.build import IngestResult, ingest
from repro.ingest.plan import IngestPlan, plan_cuboids


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--shape must be comma-separated ints, got {text!r}")


def _parse_cuboids(text: str) -> list[tuple[int, ...]]:
    """``"0,1;1,2"`` → ``[(0, 1), (1, 2)]``."""
    keys = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        try:
            keys.append(tuple(int(part) for part in group.split(",")))
        except ValueError:
            raise SystemExit(
                f"--cuboids groups must be comma-separated ints, got {group!r}"
            )
    return keys


def _persist(result: IngestResult, directory: Path) -> dict[str, object]:
    """Write each built structure under ``directory``; returns a record.

    Every structure persists as a manifest
    (:func:`repro.io.save_index_manifest`): a spilled build's arrays are
    referenced in place, an in-memory build's are written beside it.
    """
    from repro.io import save_index_manifest

    directory.mkdir(parents=True, exist_ok=True)
    record: dict[str, object] = {}
    for cuboid in result.cuboid_set.cuboids:
        name = "cuboid-" + "-".join(str(j) for j in cuboid.key)
        target = directory / f"{name}.manifest.json"
        save_index_manifest(cuboid.structure, target)
        record[name] = str(target)
    if result.spilled:
        backend = result.base_backend
        assert isinstance(backend, MemmapBackend)
        record["base"] = [str(p) for p in backend.spill_files]
    summary = directory / "ingest.json"
    summary.write_text(
        json.dumps({"describe": result.describe(), "artifacts": record}, indent=2)
        + "\n"
    )
    record["summary"] = str(summary)
    return record


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ingest",
        description="One-pass streaming build of base cube + §9 cuboids.",
    )
    parser.add_argument("path", help="input data file (CSV/Arrow/Parquet)")
    parser.add_argument(
        "--shape",
        type=_parse_shape,
        default=None,
        help="cube shape, e.g. 64,64,8 (default: inferred by a pre-scan)",
    )
    parser.add_argument(
        "--cuboids",
        type=_parse_cuboids,
        default=[],
        help='semicolon-separated dimension groups, e.g. "0,1;1,2"',
    )
    parser.add_argument(
        "--block-size", type=int, default=8, help="blocked prefix block size"
    )
    parser.add_argument(
        "--dims",
        default=None,
        help="comma-separated dimension column names (default: all but measure)",
    )
    parser.add_argument(
        "--measure", default=None, help="measure column name (default: last)"
    )
    parser.add_argument(
        "--dtype", default="int64", help="measure dtype (default int64)"
    )
    parser.add_argument(
        "--batch-rows", type=int, default=DEFAULT_BATCH_ROWS
    )
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="accumulator budget in MiB; exceeding it spills to --spill",
    )
    parser.add_argument(
        "--spill", default=None, help="spill directory for out-of-core builds"
    )
    parser.add_argument(
        "--persist",
        default=None,
        help="directory to persist built structures into",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "arrow", "parquet"),
        default=None,
        help="input format (default: sniff from suffix)",
    )
    args = parser.parse_args(argv)

    dims = args.dims.split(",") if args.dims else None
    source_kwargs = dict(
        fmt=args.format,
        dims=dims,
        measure=args.measure,
        dtype=args.dtype,
        batch_rows=args.batch_rows,
    )
    try:
        shape = args.shape
        if shape is None:
            shape = infer_shape(open_batches(args.path, **source_kwargs))
        plan = IngestPlan(
            shape=shape,
            cuboids=plan_cuboids(shape, args.cuboids, args.block_size),
            measure_dtype=args.dtype,
            budget_bytes=(
                None
                if args.budget_mb is None
                else int(args.budget_mb * (1 << 20))
            ),
            spill_directory=args.spill,
            batch_rows=args.batch_rows,
        )
        result = ingest(open_batches(args.path, **source_kwargs), plan)
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 1
    summary = result.describe()
    summary["pyarrow"] = pyarrow_available()
    if args.persist:
        summary["persisted"] = _persist(result, Path(args.persist))
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
