"""Vectorized batch execution of range queries.

Every structure in :mod:`repro.core` answers one query at a time through a
Python-level loop over its ``2^d`` corners (or ``3^d`` blocked pieces).
That is the right shape for the paper's *element-access* cost model, but a
server answering thousands of structurally identical queries pays the
Python interpreter ``K`` times for work numpy can do once.

This module is the batch kernel.  Queries arrive as a pair of ``(K, d)``
integer arrays (inclusive lower/upper bounds per query); Theorem 1's
``2^d``-corner combination is evaluated for *all* ``K`` queries with a
constant number of numpy operations:

1. a cached ``(2^d, d)`` corner table is broadcast against the bounds to
   form all ``K · 2^d`` corner coordinates at once;
2. corners with a ``−1`` component (the implicit zero reads of Theorem 1)
   are masked out;
3. the remaining coordinates are raveled into flat offsets and resolved
   with a **single fancy-indexed gather** on ``P.ravel()``;
4. the gathered values are combined along the corner axis with the
   operator's ufunc (alternating-sign subtraction for SUM).

The same kernel serves the basic prefix-sum cube (§3), the partial
prefix-sum cube (§9.1, through a lazily built full-prefix cache), and the
block-aligned internal regions of the blocked cube (§4).  MAX/MIN batches
run a level-synchronous *shared-frontier* descent of the §6 tree (MIN's
tree is ordered by ``<``): all
``K`` searches walk the tree together, one vectorized wave per level, with
the branch-and-bound prune applied across the whole frontier.

Results are element-wise identical to the scalar paths for exact dtypes
(integers, bool); floating-point results may differ only by summation
order.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro._util import Box
from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels import resolve_kernel

# Re-exported: this module is the corner primitives' historical home.
from repro.kernels.corner import (
    combine_corner_values as combine_corner_values,
    corner_table as corner_table,
    gather_corner_values as gather_corner_values,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.range_max import RangeMaxTree
    from repro.query.ranges import RangeQuery


# ----------------------------------------------------------------------
# Query normalization
# ----------------------------------------------------------------------


def normalize_query_arrays(
    lows: object,
    highs: object,
    shape: Sequence[int],
    *,
    allow_empty: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a query batch to ``(K, d)`` int64 arrays.

    Args:
        lows: Inclusive lower bounds, array-like of shape ``(K, d)``
            (a single ``(d,)`` query is promoted to ``K = 1``).
        highs: Inclusive upper bounds, same shape as ``lows``.
        shape: The cube shape the queries must fit inside.
        allow_empty: When True, rows with ``hi < lo`` anywhere are legal
            empty queries (the identity-returning paths pass this);
            their bounds are not range-checked, matching the scalar
            empty-box rule of :func:`repro._util.check_query_box`.

    Returns:
        ``(lows, highs)`` as int64 arrays of shape ``(K, d)``.

    Raises:
        ValueError: On shape mismatch, non-integral input, an empty range
            (``hi < lo``) unless ``allow_empty``, or bounds outside the
            cube.
    """
    ndim = len(shape)
    lo = np.asarray(lows)
    hi = np.asarray(highs)
    if lo.ndim == 1:
        lo = lo[None, :]
    if hi.ndim == 1:
        hi = hi[None, :]
    if lo.shape != hi.shape:
        raise ValueError(
            f"lows shape {lo.shape} does not match highs shape {hi.shape}"
        )
    if lo.ndim != 2 or lo.shape[1] != ndim:
        raise ValueError(
            f"queries must have shape (K, {ndim}); got {lo.shape}"
        )
    for name, arr in (("lows", lo), ("highs", hi)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"{name} must be integers, got dtype {arr.dtype}"
            )
    lo = lo.astype(np.int64, copy=False)
    hi = hi.astype(np.int64, copy=False)
    if lo.shape[0] == 0:
        return lo, hi
    empty = np.any(hi < lo, axis=1)
    if not allow_empty and np.any(empty):
        k = int(np.argmax(empty))
        raise ValueError(f"empty query region at row {k}: lo > hi")
    sizes = np.asarray(shape, dtype=np.int64)
    bad = np.any((lo < 0) | (hi >= sizes), axis=1) & ~empty
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"query {k} ({lo[k]}..{hi[k]}) outside cube of shape {shape}"
        )
    return lo, hi


def solve_with_identity(
    lo: np.ndarray,
    hi: np.ndarray,
    identity: object,
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run a batch solver on the non-empty rows, filling empty rows.

    The batch counterpart of the scalar empty-range rule: each row with
    ``hi < lo`` in any dimension contributes the operator identity, and
    the underlying kernel only ever sees validated non-empty rows.

    Args:
        lo, hi: Normalized ``(K, d)`` bounds (``allow_empty=True``).
        identity: The operator identity written into empty rows.
        solve: Kernel mapping non-empty ``(M, d)`` bounds to ``(M,)``
            results; decides the result dtype.

    Returns:
        A ``(K,)`` array of aggregates.
    """
    empty = np.any(hi < lo, axis=1)
    if not np.any(empty):
        return solve(lo, hi)
    filled = solve(lo[~empty], hi[~empty])
    out = np.full(lo.shape[0], identity, dtype=filled.dtype)
    out[~empty] = filled
    return out


def boxes_to_arrays(
    queries: Sequence[Box | RangeQuery],
    shape: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a sequence of :class:`Box` / ``RangeQuery`` to bound arrays.

    Args:
        queries: Boxes or range-query objects (mixed freely).
        shape: Cube shape used to resolve ``RangeQuery`` specs.

    Returns:
        ``(lows, highs)`` int64 arrays of shape ``(K, d)``.
    """
    from repro.query.ranges import canonical_box

    ndim = len(shape)
    lows = np.empty((len(queries), ndim), dtype=np.int64)
    highs = np.empty((len(queries), ndim), dtype=np.int64)
    for k, query in enumerate(queries):
        box = canonical_box(query, shape)
        lows[k] = box.lo
        highs[k] = box.hi
    return lows, highs


# ----------------------------------------------------------------------
# The corner-gather kernel (Theorem 1, batched)
# ----------------------------------------------------------------------


def prefix_sum_many(
    prefix: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    operator: InvertibleOperator,
    counter: AccessCounter = NULL_COUNTER,
) -> np.ndarray:
    """Answer ``K`` range-sums against a full prefix array in O(1) ops.

    This is the tentpole kernel: one corner broadcast, one gather, two
    ufunc reductions — no per-query Python.

    Args:
        prefix: The prefix array ``P`` with every dimension accumulated.
        lows: Validated ``(K, d)`` inclusive lower bounds.
        highs: Validated ``(K, d)`` inclusive upper bounds.
        operator: The structure's invertible operator.
        counter: Charged per valid corner read, as in the scalar path.

    Returns:
        A ``(K,)`` array of aggregates.
    """
    if lows.shape[0] == 0:
        return np.empty(0, dtype=prefix.dtype)
    return resolve_kernel().corner_gather(
        prefix, lows, highs, operator, counter
    )


# ----------------------------------------------------------------------
# Batched MAX / MIN: shared-frontier tree descent
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _child_offsets(fanout: int, ndim: int) -> np.ndarray:
    """The ``(fanout^d, d)`` offset grid of a node's children."""
    grids = np.meshgrid(
        *([np.arange(fanout)] * ndim), indexing="ij"
    )
    offsets = np.stack([g.reshape(-1) for g in grids], axis=1).astype(
        np.int64
    )
    offsets.setflags(write=False)
    return offsets


def batch_max_index(
    tree: RangeMaxTree,
    lows: np.ndarray,
    highs: np.ndarray,
    counter: AccessCounter = NULL_COUNTER,
) -> tuple[np.ndarray, np.ndarray]:
    """Answer ``K`` range-max queries with one shared tree descent (§6).

    All searches walk the tree together, level-synchronously: each wave
    processes every live ``(query, node)`` pair at one level with
    vectorized classification (internal / boundary-resolved / descend)
    and applies the §6.1.3 branch-and-bound prune across the whole
    frontier — a node whose precomputed max cannot beat its query's best
    value so far is dropped without expansion.

    Maximum *values* are exact.  When several cells tie, the reported
    index may differ from the scalar path's choice (both are valid
    argmax witnesses inside the query box).  A ``"min"``-ordered tree
    runs the same descent under ``<`` and answers range-MIN.

    Args:
        tree: A built :class:`RangeMaxTree`.
        lows: Validated ``(K, d)`` lower bounds.
        highs: Validated ``(K, d)`` upper bounds.
        counter: Charged per tree node and raw cell touched.

    Returns:
        ``(indices, values)``: a ``(K, d)`` int64 array of argmax cell
        coordinates and the ``(K,)`` array of maxima.
    """
    K, ndim = lows.shape
    source_flat = tree.source.reshape(-1)
    if K == 0:
        return (
            np.empty((0, ndim), dtype=np.int64),
            np.empty(0, dtype=tree.source.dtype),
        )
    fanout = tree.fanout
    order = tree.order
    better, at_least = order.better, order.at_least
    shape_arr = np.asarray(tree.shape, dtype=np.int64)
    # Seed every query's best with A[l] (the scalar path's seed).
    best_flat = np.ravel_multi_index(tuple(lows.T), tree.shape)
    best_value = source_flat[best_flat].copy()
    counter.count_cube(K)
    # Lowest covering level per query (§6.1.2): smallest i with
    # l_j // b^i == h_j // b^i in every dimension, capped at the root.
    levels = np.full(K, tree.height, dtype=np.int64)
    assigned = np.zeros(K, dtype=bool)
    span = 1
    for level in range(tree.height + 1):
        same = ((lows // span) == (highs // span)).all(axis=1)
        newly = same & ~assigned
        levels[newly] = level
        assigned |= newly
        span *= fanout
    # Frontier entries per level: (query ids, node coordinates).
    frontier: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for level in range(1, tree.height + 1):
        at_level = np.nonzero(levels == level)[0]
        if at_level.size:
            span = fanout**level
            frontier.setdefault(level, []).append(
                (at_level, lows[at_level] // span)
            )
    # Queries whose covering level is 0 are single cells: already seeded.
    for level in range(tree.height, 0, -1):
        parts = frontier.pop(level, [])
        if not parts:
            continue
        qid = np.concatenate([p[0] for p in parts])
        nodes = np.concatenate([p[1] for p in parts])
        node_values = tree.values[level][tuple(nodes.T)]
        counter.count_tree(len(qid))
        # Branch-and-bound across the whole frontier: a node whose best
        # cannot strictly improve its query's best is dropped.
        alive = better(node_values, best_value[qid])
        if not np.any(alive):
            continue
        qid = qid[alive]
        nodes = nodes[alive]
        node_values = node_values[alive]
        stored_flat = tree.positions[level][tuple(nodes.T)]
        stored = np.stack(
            np.unravel_index(stored_flat, tree.shape), axis=1
        )
        resolved = (
            (stored >= lows[qid]) & (stored <= highs[qid])
        ).all(axis=1)
        # I ∪ B_in: the stored argmax lies inside the query region, so
        # one access settles the node (internal nodes always land here).
        if np.any(resolved):
            rq = qid[resolved]
            rv = node_values[resolved]
            order.best.at(best_value, rq, rv)
            winners = at_least(rv, best_value[rq])
            best_flat[rq[winners]] = stored_flat[resolved][winners]
        # B_out: descend into children overlapping the query region.
        descend = ~resolved
        if not np.any(descend):
            continue
        dq = qid[descend]
        dn = nodes[descend]
        offsets = _child_offsets(fanout, ndim)
        children = dn[:, None, :] * fanout + offsets[None, :, :]
        child_shape = np.asarray(
            tree.level_shape(level - 1), dtype=np.int64
        )
        exists = (children < child_shape).all(axis=2)
        child_span = fanout ** (level - 1)
        cover_lo = children * child_span
        cover_hi = np.minimum(
            cover_lo + child_span - 1, shape_arr - 1
        )
        overlaps = (
            (cover_lo <= highs[dq][:, None, :])
            & (cover_hi >= lows[dq][:, None, :])
        ).all(axis=2)
        select = (exists & overlaps).reshape(-1)
        if not np.any(select):
            continue
        per_entry = offsets.shape[0]
        next_qid = np.repeat(dq, per_entry)[select]
        next_nodes = children.reshape(-1, ndim)[select]
        if level - 1 == 0:
            # Leaf wave: children are raw cube cells inside the region.
            flat = np.ravel_multi_index(tuple(next_nodes.T), tree.shape)
            cell_values = source_flat[flat]
            counter.count_cube(len(flat))
            order.best.at(best_value, next_qid, cell_values)
            winners = at_least(cell_values, best_value[next_qid])
            best_flat[next_qid[winners]] = flat[winners]
        else:
            frontier.setdefault(level - 1, []).append(
                (next_qid, next_nodes)
            )
    indices = np.stack(
        np.unravel_index(best_flat, tree.shape), axis=1
    ).astype(np.int64)
    return indices, best_value


# ----------------------------------------------------------------------
# Rolling windows as a query batch
# ----------------------------------------------------------------------


def rolling_window_bounds(
    shape: Sequence[int],
    axis: int,
    window: int,
    fixed: Sequence[tuple[int, int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds arrays for every position of a sliding window (§1).

    A rolling sum along ``axis`` is ``n − w + 1`` structurally identical
    range queries; expressing them as a ``(K, d)`` batch lets the prefix
    kernel answer the whole sweep with shifted-prefix differences in one
    gather instead of a per-window loop.

    Args:
        shape: Cube shape.
        axis: Dimension the window slides along.
        window: Window length in ranks.
        fixed: Optional ``(lo, hi)`` bounds for the other dimensions
            (defaults to their full extent).

    Returns:
        ``(lows, highs)`` int64 arrays of shape ``(n_axis − w + 1, d)``.
    """
    ndim = len(shape)
    if not 0 <= axis < ndim:
        raise ValueError(f"axis {axis} out of range")
    if not 1 <= window <= shape[axis]:
        raise ValueError(f"window {window} invalid for axis {axis}")
    bounds = (
        [(0, n - 1) for n in shape]
        if fixed is None
        else [tuple(pair) for pair in fixed]
    )
    if len(bounds) != ndim:
        raise ValueError(
            f"fixed bounds cover {len(bounds)} dims, cube has {ndim}"
        )
    positions = shape[axis] - window + 1
    lows = np.empty((positions, ndim), dtype=np.int64)
    highs = np.empty((positions, ndim), dtype=np.int64)
    for j, (lo, hi) in enumerate(bounds):
        lows[:, j] = lo
        highs[:, j] = hi
    starts = np.arange(positions, dtype=np.int64)
    lows[:, axis] = starts
    highs[:, axis] = starts + window - 1
    return lows, highs
