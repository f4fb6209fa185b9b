"""Deterministic thread environment for the benchmark suite.

Benchmark numbers are only comparable across runs when the implicit
parallelism knobs are pinned: BLAS libraries read ``OMP_NUM_THREADS`` /
``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS`` *at import*.  Importing
this module pins all three before numpy is first loaded — benchmark
scripts import it ahead of ``numpy``, and ``benchmarks/conftest.py``
imports it for pytest-driven runs.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools are pinned to one thread: a library-level pool
#: would both add noise and hide single-thread regressions.
PINNED_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_thread_env() -> None:
    """Force the BLAS thread variables to ``1``."""
    for name in PINNED_BLAS_VARS:
        os.environ[name] = "1"


pin_thread_env()
