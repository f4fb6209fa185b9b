"""One end-to-end benchmark for the whole platform: serve, write, adapt, ingest.

``python3 -m benchmarks.e2e`` drives six named workloads against the
unmodified program (``src/repro``), checks sampled answers against the
harness's own numpy oracle, and prints every metric by name with its
unit.  ``README.md`` next to this file explains the workloads, the load
model and how to run and compare results; ``BENCHMARK.json`` at the
repository root is the contract the driver reads.

Importing the package pins the environment the measurements depend on —
the same idiom as ``benchmarks/_env.py``, but owned by this package so
the instrument cannot be changed from outside it: BLAS/OpenMP pools are
forced to one thread *before* numpy loads, ``REPRO_KERNEL`` is removed
so the program's **default** kernel is what gets measured, and the
checkout's own ``src`` goes first on ``sys.path`` (the driver runs the
benchmark from a bare checkout where ``repro`` is not installed).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Root of the checkout this package sits in (``benchmarks/e2e/../..``).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Where results go: per-run outputs (git-ignored) beside the checked-in
#: ``baseline.json`` and ``budget.md``.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Environment the harness pins in its own process and in every
#: subprocess it starts; recorded in each result.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Variables removed so the program's defaults are what is measured.
CLEARED_ENV = ("REPRO_KERNEL", "REPRO_KERNEL_WORKERS")


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV` / :data:`CLEARED_ENV` and the src path."""
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


pin_environment()
