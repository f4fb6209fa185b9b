"""Naive range-query baselines (no precomputation).

The paper's point of departure (§1): without auxiliary information a
range-sum or range-max must touch every cell of the query region — a cost
equal to the query's volume, versus the prefix-sum method's constant
``2^d``.  These scanners are the control arm of every benchmark.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro._util import Box, check_query_box
from repro.core.operators import SUM, InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter


def naive_range_sum(
    cube: np.ndarray,
    box: Box,
    counter: AccessCounter = NULL_COUNTER,
    operator: InvertibleOperator = SUM,
) -> object:
    """Aggregate every cell of ``box`` directly from the cube.

    The oracle follows the normative empty-range rule: an empty box
    aggregates zero cells, which is the operator identity.
    """
    if check_query_box(box, cube.shape):
        return operator.identity
    counter.count_cube(box.volume)
    return operator.reduce_box(cube[box.slices()])


def naive_group_by(
    array: np.ndarray,
    dims: Sequence[int],
    counter: AccessCounter = NULL_COUNTER,
) -> np.ndarray:
    """SUM group-by of ``array`` over the axes not in ``dims``.

    One axis reduce in the operator's accumulation dtype (bool and
    signed integers in ``int64``, unsigned in ``uint64``, floats in
    ``float64``), with the result's axes in ``dims``' order.  Every cell
    of ``array`` is read once.
    """
    kept = sorted(dims)
    rest = tuple(j for j in range(array.ndim) if j not in kept)
    counter.count_cube(array.size)
    grouped = array.sum(
        axis=rest, dtype=SUM.accumulation_dtype(array.dtype)
    )
    return np.transpose(grouped, [kept.index(d) for d in dims])


def naive_max_index(
    cube: np.ndarray, box: Box, counter: AccessCounter = NULL_COUNTER
) -> tuple[int, ...]:
    """Index of a maximum cell of ``box`` by full scan.

    An empty box has no witness cell, so it stays an error here (the
    ``None`` answer lives on the protocol ``query`` surface).
    """
    return _extreme_index(cube, box, counter, np.argmax)


def naive_min_index(
    cube: np.ndarray, box: Box, counter: AccessCounter = NULL_COUNTER
) -> tuple[int, ...]:
    """Index of a minimum cell of ``box`` by full scan."""
    return _extreme_index(cube, box, counter, np.argmin)


def _extreme_index(
    cube: np.ndarray,
    box: Box,
    counter: AccessCounter,
    arg: Callable[[np.ndarray], Any],
) -> tuple[int, ...]:
    check_query_box(box, cube.shape, allow_empty=False)
    counter.count_cube(box.volume)
    window = cube[box.slices()]
    local = np.unravel_index(int(arg(window)), window.shape)
    return tuple(int(l + o) for l, o in zip(box.lo, local))


def naive_max_value(
    cube: np.ndarray, box: Box, counter: AccessCounter = NULL_COUNTER
) -> object:
    """Maximum value of ``box`` by full scan."""
    return cube[naive_max_index(cube, box, counter)]


def naive_sum_range(
    cube: np.ndarray,
    bounds: Sequence[tuple[int, int]],
    counter: AccessCounter = NULL_COUNTER,
) -> object:
    """Convenience wrapper taking ``(lo, hi)`` pairs per dimension."""
    box = Box(
        tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds)
    )
    return naive_range_sum(cube, box, counter)
