"""Scalar, batch, build and update timings of the four dense registry names.

``prefix_sum`` / ``partial_prefix_sum`` and ``blocked_prefix_sum`` /
``blocked_partial_prefix_sum`` are one class per family; the second name
of each pair is a constructor preset.  This script times all four with
every dimension chosen on the end-to-end benchmark's cube
(``(128, 128, 64)``, ``block_size=8``) — scalar
``range_sum`` over 200 boxes at three box sizes, one 256-box
``sum_many``, the build and a 4-update batch — so the presets can be
compared with their base class, and one commit with another (it uses
registry names only).  It gates nothing; CHANGES.md quotes its table::

    PYTHONPATH=src python benchmarks/bench_dense_family.py
    PYTHONPATH=src python benchmarks/bench_dense_family.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import benchmarks._env  # noqa: E402,F401  (pins thread env)

import numpy as np  # noqa: E402

from repro._util import Box  # noqa: E402
from repro.core.batch_update import PointUpdate  # noqa: E402
from repro.index.registry import create_index  # noqa: E402
from repro.query.workload import random_query_arrays  # noqa: E402

from benchmarks._tables import format_table  # noqa: E402

#: Largest box side per dimension (the issue's three bands).
WIDTHS = (24, 48, 128)


def best_ms(run: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small cube, 2 repeats")
    args = parser.parse_args()
    shape = (32, 32, 16) if args.smoke else (128, 128, 64)
    repeats = 2 if args.smoke else 9
    rng = np.random.default_rng(1997)
    cube = rng.integers(0, 100, size=shape, dtype=np.int64)
    every = tuple(range(len(shape)))
    specs = {
        "prefix_sum": {},
        "partial_prefix_sum": {"prefix_dims": every},
        "blocked_prefix_sum": {"block_size": 8},
        "blocked_partial_prefix_sum": {"prefix_dims": every, "block_size": 8},
    }
    boxes = {}
    for width in WIDTHS:
        lows, highs = random_query_arrays(
            shape, 200, np.random.default_rng(width), max_length=width
        )
        boxes[width] = [
            Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi))
            for lo, hi in zip(lows, highs)
        ]
    batch = random_query_arrays(
        shape, 256, np.random.default_rng(5), max_length=48
    )
    updates = [
        PointUpdate(tuple(int(rng.integers(0, n)) for n in shape), 3)
        for _ in range(4)
    ]
    table = []
    for name, params in specs.items():
        build_ms = best_ms(lambda: create_index(name, cube, **params), repeats)
        structure = create_index(name, cube, **params)
        row = [name, f"{build_ms:.2f}"]
        for width in WIDTHS:

            def scan(width: int = width) -> None:
                for box in boxes[width]:
                    structure.range_sum(box)

            row.append(f"{best_ms(scan, repeats) / len(boxes[width]):.4f}")
        row.append(f"{best_ms(lambda: structure.sum_many(*batch), repeats):.2f}")
        row.append(
            f"{best_ms(lambda: structure.apply_updates(updates), repeats):.3f}"
        )
        table.append(row)
    print(
        format_table(
            f"dense family on {shape}, every dimension chosen (ms, best of {repeats})",
            ["index", "build"]
            + [f"scalar <={w}" for w in WIDTHS]
            + ["sum_many 256", "4 updates"],
            table,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
