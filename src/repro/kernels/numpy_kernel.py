"""The ``numpy`` backend: the three primitives, single-threaded.

The default backend, and the serial delegate the ``threaded`` and
``numba`` backends run per shard or fall back to.  It is intentionally
boring: one fancy-indexed gather per corner batch, one
gather + ``ufunc.reduceat`` per run list, one ``ufunc.at`` per scatter.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels.corner import (
    combine_corner_values,
    gather_corner_values,
)
from repro.kernels.registry import register_kernel
from repro.kernels.segments import scatter_serial, segment_reduce_serial


@register_kernel(
    "numpy",
    description="single-threaded numpy; the default and the serial "
    "delegate of the other backends",
)
class NumpyKernel:
    """Serial numpy implementation of the three kernel primitives."""

    name = "numpy"

    def corner_gather(
        self,
        prefix: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        operator: InvertibleOperator,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        if len(lows) == 0:
            target = operator.accumulation_dtype(prefix.dtype)
            return np.zeros(0, dtype=target)
        values, valid, signs = gather_corner_values(
            prefix, lows, highs, counter
        )
        return combine_corner_values(values, valid, signs, operator)

    def segment_reduce(
        self,
        flat: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        operator: InvertibleOperator,
    ) -> np.ndarray:
        return segment_reduce_serial(flat, starts, lengths, operator)

    def scatter(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        deltas: np.ndarray,
        operator: InvertibleOperator,
    ) -> None:
        scatter_serial(target, indices, deltas, operator)
