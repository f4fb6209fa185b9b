"""Pluggable execution backends for the hot query paths.

See :mod:`repro.kernels.protocol` for the contract,
:mod:`repro.kernels.registry` for registration and the selection
precedence (call site > per-index override > ``$REPRO_KERNEL`` >
``"numpy"``), and ``docs/KERNELS.md`` for the design discussion.

Importing this package registers the shipped backends:

* ``numpy`` — the serial primitives; the default;
* ``threaded`` — the same primitives sharded over a worker pool;
* ``numba`` — JIT segment reduce when numba is importable, silently the
  numpy path otherwise;
* ``auto`` — ``threaded`` on multi-core hosts, ``numpy`` on single-core.
"""

from __future__ import annotations

import os

from repro.kernels.boundary import (
    blocked_sum_many_vectorized,
    box_reduce_many,
)
from repro.kernels.corner import (
    combine_corner_values,
    corner_table,
    gather_corner_values,
)
from repro.kernels.numba_kernel import NumbaKernel, numba_available
from repro.kernels.numpy_kernel import NumpyKernel
from repro.kernels.protocol import ExecutionKernel
from repro.kernels.registry import (
    DEFAULT_KERNEL,
    ENV_KERNEL,
    KernelInfo,
    available_kernels,
    get_kernel,
    kernel_info,
    register_kernel,
    resolve_kernel,
)
from repro.kernels.threaded import ENV_WORKERS, ThreadedKernel


@register_kernel(
    "auto",
    description="threaded on multi-core hosts, numpy on single-core",
)
def _auto_kernel() -> ExecutionKernel:
    workers = os.environ.get(ENV_WORKERS)
    cores = int(workers) if workers else (os.cpu_count() or 1)
    return get_kernel("threaded" if cores > 1 else "numpy")


__all__ = [
    "DEFAULT_KERNEL",
    "ENV_KERNEL",
    "ENV_WORKERS",
    "ExecutionKernel",
    "KernelInfo",
    "NumbaKernel",
    "NumpyKernel",
    "ThreadedKernel",
    "available_kernels",
    "blocked_sum_many_vectorized",
    "box_reduce_many",
    "combine_corner_values",
    "corner_table",
    "gather_corner_values",
    "get_kernel",
    "kernel_info",
    "numba_available",
    "register_kernel",
    "resolve_kernel",
]
