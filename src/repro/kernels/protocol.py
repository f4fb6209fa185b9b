"""The narrow execution-kernel contract behind the hot query paths.

The paper's structures reduce every range aggregate to three primitive
array operations, and those primitives — not the structures — are where
all the machine time goes:

* **corner gather + combine**: read the ``K · 2^d`` Theorem-1 corners of
  a prefix array and fold them per query with the operator's ``⊕`` / ``⊖``
  algebra;
* **boundary-scan reduce**: aggregate many contiguous runs of raw cube
  cells (the §4 boundary regions, flattened batch-wide into run lists);
* **batched update scatter**: apply point deltas to the retained source
  cube before the §5 prefix machinery runs.

:class:`ExecutionKernel` is the contract for a backend implementing those
three primitives.  Structures never import a concrete backend; they call
:func:`repro.kernels.resolve_kernel` and go through this surface, so the
serial ``numpy`` primitives, the ``threaded`` shard-and-combine pool and
the optional ``numba`` JIT all plug in behind the same three methods.
A backend decides *how* a primitive runs, never *which* algorithm a
structure uses: every backend must return bit-identical values and
charge the counter identically (the references are
:mod:`repro.query.naive` and each structure's scalar ``range_sum``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter


@runtime_checkable
class ExecutionKernel(Protocol):
    """Contract for a pluggable execution backend (see module docstring)."""

    #: Registry name of the backend (``"numpy"``, ``"threaded"``, ...).
    name: str

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
        ...

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
        ...

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
        ...
