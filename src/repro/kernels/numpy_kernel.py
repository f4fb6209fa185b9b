"""The three primitives as methods of one object.

Intentionally boring: one fancy-indexed gather per corner batch, one
gather + ``ufunc.reduceat`` per run list, one ``ufunc.at`` per scatter.
They are methods of a class, reached through :func:`resolve_kernel`,
so that a tracer can wrap ``type(resolve_kernel())``'s attributes and
attribute time to this layer (``benchmarks/e2e/trace.py`` does).
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels.corner import (
    combine_corner_values,
    gather_corner_values,
)
from repro.kernels.segments import scatter_serial, segment_reduce_serial


class NumpyKernel:
    """Numpy implementation of the three kernel primitives."""

    def corner_gather(
        self,
        prefix: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        operator: InvertibleOperator,
        counter: AccessCounter = NULL_COUNTER,
    ) -> np.ndarray:
        """Theorem-1 corner gather + combine for ``K`` validated queries.

        Args:
            prefix: The (possibly blocked) prefix array ``P``.
            lows: Validated non-empty ``(K, d)`` inclusive lower bounds.
            highs: Validated ``(K, d)`` inclusive upper bounds.
            operator: The structure's invertible operator.
            counter: Charged one ``prefix_cells`` unit per valid corner.

        Returns:
            A ``(K,)`` array of aggregates in the accumulation dtype.
        """
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
        """Reduce ``n`` contiguous runs of a flat array with ``⊕``.

        Run ``i`` covers ``flat[starts[i] : starts[i] + lengths[i]]``
        (``lengths[i] >= 1``).  Runs may appear in any order and overlap
        freely.  The caller owns the counter accounting (it knows whether
        the runs are cube cells or prefix cells).

        Returns:
            An ``(n,)`` array of per-run aggregates in the accumulation
            dtype of ``flat``.
        """
        return segment_reduce_serial(flat, starts, lengths, operator)

    def scatter(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        deltas: np.ndarray,
        operator: InvertibleOperator,
    ) -> None:
        """Apply point deltas to a flat array: ``t[i] = t[i] ⊕ delta``.

        Duplicate indices apply repeatedly, exactly as a sequential
        per-update loop would (``ufunc.at`` semantics).
        """
        scatter_serial(target, indices, deltas, operator)


_KERNEL = NumpyKernel()


def resolve_kernel() -> NumpyKernel:
    """The process's one kernel instance."""
    return _KERNEL
