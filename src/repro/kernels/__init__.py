"""The three array primitives behind the hot query paths.

The paper's structures reduce every range aggregate to three primitive
array operations, and those primitives — not the structures — are where
the machine time goes:

* **corner gather + combine** (:mod:`repro.kernels.corner`): read the
  ``K · 2^d`` Theorem-1 corners of a prefix array and fold them per
  query with the operator's ``⊕`` / ``⊖`` algebra;
* **segment reduce** (:mod:`repro.kernels.segments`): aggregate many
  contiguous runs of cells (the §4 boundary regions, flattened
  batch-wide into run lists by :mod:`repro.kernels.boundary`);
* **update scatter**: apply point deltas to a materialized cuboid's
  group-by array before the §5 prefix machinery runs.

There is one implementation of each, reached through the
:class:`NumpyKernel` instance :func:`resolve_kernel` returns.  See
``docs/ARCHITECTURE.md`` § "Execution primitives".
"""

from __future__ import annotations

from repro.kernels.boundary import (
    blocked_sum_many_vectorized,
    box_reduce_many,
)
from repro.kernels.corner import (
    combine_corner_values,
    corner_table,
    gather_corner_values,
)
from repro.kernels.numpy_kernel import NumpyKernel, resolve_kernel

__all__ = [
    "NumpyKernel",
    "blocked_sum_many_vectorized",
    "box_reduce_many",
    "combine_corner_values",
    "corner_table",
    "gather_corner_values",
    "resolve_kernel",
]
