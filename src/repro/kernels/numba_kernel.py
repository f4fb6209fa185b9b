"""The optional ``numba`` JIT backend (feature-flagged, soft-degrading).

When numba is importable (and ``REPRO_NUMBA_DISABLE`` is unset), the
segment-reduce inner loop is replaced with an ``@njit(nogil=True)``
compiled loop for additive reductions over numeric dtypes — the one
primitive where a compiled loop beats ``reduceat`` (no gather buffer, no
index expansion).  Everything else, and every non-JIT-able combination
(xor/product operators, bool/object dtypes), delegates to the serial
numpy backend.

When numba is absent the backend still registers and works: it *is* the
numpy backend with a different name and ``jit_active = False``.  The
degradation is silent by design — no warnings — so CI can run the
no-numba leg under ``PYTHONWARNINGS=error`` and prove the fallback path
is warning-clean.
"""

from __future__ import annotations

import importlib.util
import os
from collections.abc import Callable

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.kernels.numpy_kernel import NumpyKernel
from repro.kernels.registry import register_kernel

#: Set (to any non-empty value) to force the numpy fallback even when
#: numba is installed — the CI "without numba" leg uses this.
ENV_DISABLE = "REPRO_NUMBA_DISABLE"


def numba_available() -> bool:
    """Whether the JIT can activate (numba importable, not disabled)."""
    if os.environ.get(ENV_DISABLE):
        return False
    return importlib.util.find_spec("numba") is not None


@register_kernel(
    "numba",
    description="JIT-compiled segment reduce when numba is importable; "
    "degrades silently to the numpy backend otherwise",
)
class NumbaKernel(NumpyKernel):
    """Numba-accelerated backend with a graceful numpy fallback."""

    name = "numba"

    def __init__(self) -> None:
        self.jit_active = numba_available()
        self._seg_sum: Callable[..., None] | None = None

    def _compiled_seg_sum(self) -> Callable[..., None] | None:
        """Lazily compile the additive segment loop (None on failure)."""
        if not self.jit_active:
            return None
        if self._seg_sum is None:
            try:
                from numba import njit  # type: ignore[import-not-found]

                @njit(nogil=True, cache=False)
                def seg_sum(flat, starts, lengths, out):  # pragma: no cover
                    for i in range(len(starts)):
                        acc = out[i]
                        base = starts[i]
                        for j in range(lengths[i]):
                            acc = acc + flat[base + j]
                        out[i] = acc

                self._seg_sum = seg_sum
            except Exception:
                self.jit_active = False
                return None
        return self._seg_sum

    def segment_reduce(
        self,
        flat: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        operator: InvertibleOperator,
    ) -> np.ndarray:
        if (
            operator.name == "sum"
            and flat.dtype.kind in "iuf"
            and len(starts) > 0
        ):
            seg_sum = self._compiled_seg_sum()
            if seg_sum is not None:
                target = operator.accumulation_dtype(flat.dtype)
                out = np.zeros(len(starts), dtype=target)
                seg_sum(
                    np.ascontiguousarray(flat, dtype=target),
                    np.asarray(starts, dtype=np.int64),
                    np.asarray(lengths, dtype=np.int64),
                    out,
                )
                return out
        return super().segment_reduce(flat, starts, lengths, operator)
