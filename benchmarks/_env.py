"""Deterministic thread environment for the benchmark suite.

Benchmark numbers are only comparable across runs when the implicit
parallelism knobs are pinned: BLAS libraries read ``OMP_NUM_THREADS`` /
``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS`` *at import*.  Importing
this module pins all three before numpy is first loaded — benchmark
scripts import it ahead of ``numpy``, and ``benchmarks/conftest.py``
imports it for pytest-driven runs.

Every BENCH json records :func:`thread_config` so a stored result is
attributable to the thread configuration that produced it.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools are pinned to one thread: a library-level pool
#: would both add noise and hide single-thread regressions.
PINNED_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_thread_env() -> dict[str, object]:
    """Pin the thread knobs; returns the effective configuration.

    The BLAS variables are forced to ``1``.
    """
    for name in PINNED_BLAS_VARS:
        os.environ[name] = "1"
    return thread_config()


def thread_config() -> dict[str, object]:
    """The effective thread configuration, for BENCH json payloads."""
    config: dict[str, object] = {
        name.lower(): os.environ.get(name) for name in PINNED_BLAS_VARS
    }
    config["cpu_count"] = os.cpu_count()
    return config


pin_thread_env()
