"""Sweep that pins ``repro.core.blocked.VECTORIZED_MIN_ROWS``.

A blocked structure answers a batch either by looping its scalar
``range_sum`` or through the vectorized pass of
:mod:`repro.kernels.boundary`; ``blocked_sum_dispatch`` picks by row
count.  This script times both paths directly — not through the
dispatcher — on the end-to-end benchmark's cube (``(128, 128, 64)``,
``blocked_prefix_sum``, ``block_size=8``) for
``K ∈ {1, 2, 4, 8, 16, 32, 64}`` × three box sizes, checks that values
and §8 counters agree, and prints the table ``docs/ARCHITECTURE.md`` quotes::

    PYTHONPATH=src python benchmarks/bench_blocked_dispatch.py
    PYTHONPATH=src python benchmarks/bench_blocked_dispatch.py --smoke
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

from repro.core.blocked import VECTORIZED_MIN_ROWS  # noqa: E402
from repro.index.protocol import RangeSumIndexMixin  # noqa: E402
from repro.index.registry import create_index  # noqa: E402
from repro.instrumentation import AccessCounter  # noqa: E402
from repro.kernels import blocked_sum_many_vectorized  # noqa: E402
from repro.query.workload import random_query_arrays  # noqa: E402

from benchmarks._tables import format_table  # noqa: E402

ROWS = (1, 2, 4, 8, 16, 32, 64)
#: Largest box side per dimension: inside one block, a few blocks, and
#: the serving workloads' "up to a fifth of the axis".
WIDTHS = (6, 24, 48)


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
    repeats = 2 if args.smoke else 15
    rng = np.random.default_rng(1997)
    cube = rng.integers(0, 100, size=shape, dtype=np.int64)
    structure = create_index("blocked_prefix_sum", cube, block_size=8)
    table = []
    for width in WIDTHS:
        for rows in ROWS:
            lows, highs = random_query_arrays(
                shape, rows, rng, max_length=width
            )
            loop_counter, pass_counter = AccessCounter(), AccessCounter()
            looped = RangeSumIndexMixin.sum_many(
                structure, lows, highs, loop_counter
            )
            passed = blocked_sum_many_vectorized(
                structure, lows, highs, pass_counter
            )
            if not np.array_equal(looped, passed):
                raise SystemExit(f"values differ at K={rows} width={width}")
            if loop_counter.snapshot() != pass_counter.snapshot():
                raise SystemExit(f"counters differ at K={rows} width={width}")
            loop_ms = best_ms(
                lambda: RangeSumIndexMixin.sum_many(structure, lows, highs),
                repeats,
            )
            pass_ms = best_ms(
                lambda: blocked_sum_many_vectorized(structure, lows, highs),
                repeats,
            )
            table.append(
                [
                    f"<={width}",
                    rows,
                    f"{loop_ms:.3f}",
                    f"{pass_ms:.3f}",
                    "pass" if pass_ms < loop_ms else "loop",
                    "pass" if rows >= VECTORIZED_MIN_ROWS else "loop",
                ]
            )
    print(
        format_table(
            f"blocked sum_many on {shape}, b=8: scalar loop vs vectorized pass",
            ["box side", "K", "loop ms", "pass ms", "faster", "dispatched"],
            table,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
