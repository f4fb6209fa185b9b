"""Batch updates to prefix-sum arrays (paper §5).

A single point update of ``A[x1..xd]`` dirties every ``P[y1..yd]`` with
``y_j >= x_j`` — up to the whole array ``P`` (``O(N)``).  In OLAP practice
updates arrive in batches (e.g. nightly loads), so the paper batches ``k``
updates, each carried as ``(location, value-to-add)``, and partitions all
*affected* cells of ``P`` into disjoint rectangular regions such that every
cell in a region needs the same combined delta (Properties 1 and 2 in
§5.1).  Theorem 2 bounds the region count by ``∏_{j=0}^{d−1}(k+j) / d!``.

The partition is the paper's recursion on ``d``:

* ``d = 1``: sort the update indices ``u_1 <= ... <= u_k``; region ``i``
  is ``[u_i, u_{i+1} − 1]`` (with ``u_{k+1} = n``) and receives the running
  total ``V_i = v_1 ⊕ ... ⊕ v_i``.
* ``d > 1``: sort by the first index; slab ``i`` spans
  ``[u_i, u_{i+1} − 1]`` on dimension 1 and recursively solves the
  ``(d−1)``-dimensional problem over the first ``i`` updates' remaining
  coordinates.

The blocked variant (§5.2) first contracts updates block-wise — one
combined delta per touched ``b^d`` block — then runs the same algorithm on
the contracted index space against the blocked prefix array.

Every holder of a cube takes a batch one way: :func:`write_batch` stages
it (every cell's exact new value must fit) and writes the cube once, then
each structure's ``absorb`` maintains only its derived arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from operator import add, mul, xor
from typing import Any

import numpy as np

from repro._util import Box
from repro.core.operators import SUM, InvertibleOperator


@dataclass(frozen=True)
class PointUpdate:
    """One buffered update: set ``A[index]``'s contribution up by ``delta``.

    ``delta`` is the paper's *value-to-add*: new value ⊖ old value.  Use
    :func:`delta_for_assignment` to derive it from an assignment-style
    update under a generic operator.
    """

    index: tuple[int, ...]
    delta: object


def delta_for_assignment(
    old_value: object,
    new_value: object,
    operator: InvertibleOperator = SUM,
) -> object:
    """The value-to-add turning ``old_value`` into ``new_value``."""
    return operator.invert(new_value, old_value)


def combine_duplicate_updates(
    updates: Sequence[PointUpdate], operator: InvertibleOperator = SUM
) -> list[PointUpdate]:
    """Merge updates hitting the same cell into one combined delta.

    The paper assumes distinct locations "for clarity"; merging first makes
    the batch algorithm insensitive to that restriction.
    """
    return _merge(updates, operator.apply)


def _merge(
    updates: Sequence[PointUpdate], apply: Callable[[Any, Any], Any]
) -> list[PointUpdate]:
    merged: dict[tuple[int, ...], object] = {}
    for update in updates:
        if update.index in merged:
            merged[update.index] = apply(merged[update.index], update.delta)
        else:
            merged[update.index] = update.delta
    return [PointUpdate(index, delta) for index, delta in merged.items()]


class UnfitUpdate(ValueError):
    """A batch :func:`stage_changes` rejects: raised before any write."""


@dataclass(frozen=True)
class CellChanges:
    """A batch staged against its cube: per distinct cell, the merged
    delta (``updates``, what §5 partitions), its flat index, and its pre-
    and post-batch values in the cube's dtype (what §7 maintains from;
    ``None`` when no cube was read, see :func:`merge_changes`)."""

    updates: list[PointUpdate]
    flat: np.ndarray
    old: np.ndarray | None = None
    new: np.ndarray | None = None


#: Python's unbounded counterparts of the shipped ``⊕`` ufuncs: an
#: integer batch is replayed in them, so no step can wrap unseen.
_EXACT: dict[object, Callable[[Any, Any], Any]] = {
    np.add: add, np.bitwise_xor: xor, np.multiply: mul,
}


def merge_changes(
    updates: Sequence[PointUpdate],
    shape: Sequence[int],
    operator: InvertibleOperator = SUM,
) -> CellChanges:
    """Merge a delta batch per cell and check its indices (else
    :class:`UnfitUpdate`), reading no cube: all derived arrays need when
    the cube's owner wrote it, or the structure keeps none."""
    from repro.kernels.segments import flatten_updates

    merged = combine_duplicate_updates(updates, operator)
    try:
        flat, _ = flatten_updates(merged, tuple(shape))
    except ValueError as exc:
        raise UnfitUpdate(f"updates: {exc}") from exc
    return CellChanges(merged, flat)


def stage_changes(
    cube: np.ndarray,
    updates: Sequence[PointUpdate],
    what: str = "update",
    operator: InvertibleOperator | None = SUM,
) -> CellChanges:
    """Merge a batch with ``operator`` and read its cells once, unwritten.

    Each distinct cell's new value is ``old ⊕ merged``; with
    ``operator=None`` the batch assigns values instead (§7's
    ``⟨index, value⟩`` points: the last one per cell wins).  On an
    integer or bool cube the batch is replayed in order in exact
    arithmetic: every running cell value must stay integral and inside
    the dtype, and on an integer cube every delta must itself be a value
    of the dtype (an unsigned cell never takes a negative delta).  numpy
    would wrap or saturate such cells silently, while the wider prefix
    arrays would not.

    Raises:
        UnfitUpdate: An index of the wrong arity or outside ``cube``, or
            a delta those checks reject (``what`` names the batch).
    """
    kind = cube.dtype.kind
    exact = kind in "biu"
    apply: Callable[[Any, Any], Any] = (
        (lambda old, new: new) if operator is None
        else _EXACT.get(operator.apply, operator.apply) if exact
        else operator.apply
    )
    if exact:  # deltas as the Python numbers they hold
        updates = [PointUpdate(u.index, np.asarray(u.delta).item()) for u in updates]
    staged = _merge(updates, apply)
    flat = merge_changes(staged, cube.shape).flat
    old = np.take(cube, flat)
    if not exact:
        try:
            deltas = np.asarray([u.delta for u in staged]).astype(cube.dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UnfitUpdate(f"{what}s: {exc}") from exc
        new = np.asarray(apply(old, deltas)).astype(cube.dtype)
        return CellChanges(staged, flat, old, new)
    lo, hi = (0, 1) if kind == "b" else (
        int(np.iinfo(cube.dtype).min), int(np.iinfo(cube.dtype).max)
    )
    running = {u.index: value for u, value in zip(staged, old.tolist())}
    for position, update in enumerate(updates):
        delta: Any = update.delta
        value = apply(running[update.index], delta)
        integral = not isinstance(value, float) or value.is_integer()
        if not (
            integral and lo <= value <= hi and (kind == "b" or lo <= delta <= hi)
        ):
            raise UnfitUpdate(
                f"{what} {position}: a {cube.dtype} cell at {update.index} "
                f"cannot take {delta!r} (running value {value!r}; "
                f"the dtype holds integers in [{lo}, {hi}])"
            )
        running[update.index] = int(value)
    new = np.array([running[u.index] for u in staged], dtype=cube.dtype)
    return CellChanges(staged, flat, old, new)


def write_batch(
    cube: np.ndarray,
    updates: Sequence[PointUpdate],
    counts: np.ndarray | None = None,
    count_updates: Sequence[PointUpdate] | None = None,
    operator: InvertibleOperator | None = SUM,
) -> tuple[CellChanges, CellChanges | None]:
    """The one write of a cube ``A`` (and its record ``counts``): stage
    both batches (:func:`stage_changes`; counts add), so a rejected one
    raises :class:`UnfitUpdate` before either array changes, then write
    each once (:func:`write_changes`) and return the changes."""
    what = "update" if operator is not None else "assignment"
    changes = stage_changes(cube, updates, what, operator)
    count_changes = None
    if count_updates is not None:
        if counts is None:
            raise ValueError("count updates on a holder built without a counts cube")
        count_changes = stage_changes(counts, count_updates, "count update")
    for target, staged in ((cube, changes), (counts, count_changes)):
        if target is not None and staged is not None:
            write_changes(target, staged)
    return changes, count_changes


def write_changes(cube: np.ndarray, changes: CellChanges) -> None:
    """Write a batch :func:`stage_changes` accepted into ``cube`` (synced
    when memory-mapped)."""
    from repro.index.backend import _backing_memmap

    assert changes.new is not None
    np.put(cube, changes.flat, changes.new)
    backing = _backing_memmap(cube)
    if backing is not None:
        backing.flush()


def typed_updates(
    updates: Sequence[PointUpdate], dtype: np.dtype
) -> list[PointUpdate]:
    """``updates`` with every delta in ``dtype``, integers wrapping modulo
    its width like the array they are ``⊕``-ed into (a Python ``int``
    beside a ``uint64`` array would make it ``float64``)."""
    deltas: Any = [u.delta for u in updates]
    if np.dtype(dtype).kind in "iu":
        modulus = 1 << (8 * np.dtype(dtype).itemsize)
        deltas = np.array([int(d) % modulus for d in deltas], dtype=np.uint64)
    typed = np.asarray(deltas).astype(dtype)
    return [PointUpdate(u.index, d) for u, d in zip(updates, typed)]


def partition_updates(
    updates: Sequence[PointUpdate],
    shape: Sequence[int],
    operator: InvertibleOperator = SUM,
) -> list[tuple[Box, object]]:
    """Partition the affected cells of ``P`` into delta-uniform regions.

    Args:
        updates: Buffered point updates (duplicates are merged first).
        shape: Shape of the prefix array ``P``.
        operator: The aggregation operator whose group structure combines
            deltas.

    Returns:
        Disjoint ``(region, combined_delta)`` pairs covering exactly the
        affected cells.  Their count satisfies the Theorem 2 bound
        ``∏_{j=0}^{d−1}(k+j)/d!`` (checked empirically in the benchmark
        suite).
    """
    shape = tuple(int(n) for n in shape)
    ndim = len(shape)
    merged = combine_duplicate_updates(updates, operator)
    for update in merged:
        if len(update.index) != ndim:
            raise ValueError(
                f"update index {update.index} has wrong dimensionality"
            )
        if not all(0 <= x < n for x, n in zip(update.index, shape)):
            raise ValueError(
                f"update index {update.index} outside shape {shape}"
            )
    points = [(u.index, u.delta) for u in merged]
    return _partition(points, shape, operator)


def _partition(
    points: list[tuple[tuple[int, ...], object]],
    shape: tuple[int, ...],
    operator: InvertibleOperator,
) -> list[tuple[Box, object]]:
    """The recursion of §5.1 over ``(index-tail, delta)`` pairs."""
    if not points:
        return []
    ndim = len(shape)
    if ndim == 0:
        # A §9.1 subset with no chosen dimension: the (merged) update
        # dirties its own cell and nothing else.
        return [(Box((), ()), points[0][1])]
    points = sorted(points, key=lambda p: p[0][0])
    boundaries = [p[0][0] for p in points] + [shape[0]]
    regions: list[tuple[Box, object]] = []
    if ndim == 1:
        running = operator.identity
        for i, (point, delta) in enumerate(points):
            running = operator.apply(running, delta)
            lo, hi = boundaries[i], boundaries[i + 1] - 1
            if lo > hi:
                continue
            regions.append((Box((lo,), (hi,)), running))
        return regions
    for i in range(len(points)):
        lo, hi = boundaries[i], boundaries[i + 1] - 1
        if lo > hi:
            continue
        tails = [(p[0][1:], p[1]) for p in points[: i + 1]]
        for sub_box, delta in _partition(tails, shape[1:], operator):
            regions.append(
                (Box((lo,) + sub_box.lo, (hi,) + sub_box.hi), delta)
            )
    return regions


def apply_batch_to_prefix(
    prefix: np.ndarray,
    updates: Sequence[PointUpdate],
    operator: InvertibleOperator = SUM,
    prefix_dims: Sequence[int] | None = None,
) -> int:
    """Apply a batch of updates to a prefix array in place.

    Args:
        prefix: The array to repair, accumulated along ``prefix_dims``.
        updates: Point updates in ``prefix``'s own coordinates.
        operator: The aggregation operator.
        prefix_dims: The accumulated dimensions (§9.1's ``X'``; every
            dimension by default).  An update at ``x`` dirties the cells
            with ``y_j >= x_j`` on these and ``y_j == x_j`` on the rest,
            so the §5.1 partition runs once per distinct passive
            coordinate, inside the chosen-dimension subspace.

    Returns:
        The number of delta-uniform regions written (for Theorem 2
        validation; each affected cell of ``P`` is written exactly once).
    """
    chosen = (
        tuple(range(prefix.ndim)) if prefix_dims is None else tuple(prefix_dims)
    )
    passive = tuple(j for j in range(prefix.ndim) if j not in chosen)
    groups: dict[tuple[int, ...], list[PointUpdate]] = {}
    for update in updates:
        if len(update.index) != prefix.ndim:
            raise ValueError(
                f"update index {update.index} has wrong dimensionality"
            )
        groups.setdefault(
            tuple(update.index[j] for j in passive), []
        ).append(
            PointUpdate(tuple(update.index[j] for j in chosen), update.delta)
        )
    chosen_shape = tuple(prefix.shape[j] for j in chosen)
    # Chosen axes first, so a region of the chosen subspace indexes a
    # group's slab directly.
    ordered = prefix.transpose(chosen + passive)
    written = 0
    for fixed, group in groups.items():
        regions = partition_updates(group, chosen_shape, operator)
        written += len(regions)
        # Length-1 slices, not integers, on the passive axes: the slab
        # stays a writable view even when no dimension is chosen.
        slab = ordered[
            (slice(None),) * len(chosen)
            + tuple(slice(x, x + 1) for x in fixed)
        ]
        for box, delta in regions:
            view = slab[box.slices()]
            view[...] = operator.apply(view, delta)
    return written


def apply_updates_naive(
    prefix: np.ndarray,
    updates: Sequence[PointUpdate],
    operator: InvertibleOperator = SUM,
) -> int:
    """One-at-a-time baseline: each update rewrites its whole suffix box.

    Returns:
        Total cells written (the batch algorithm's advantage is that it
        writes each affected cell once; this baseline writes popular cells
        up to ``k`` times).
    """
    cells_written = 0
    for update in updates:
        slices = tuple(slice(x, None) for x in update.index)
        view = prefix[slices]
        view[...] = operator.apply(view, update.delta)
        cells_written += view.size
    return cells_written


def contract_updates_to_blocks(
    updates: Sequence[PointUpdate],
    block_size: int,
    operator: InvertibleOperator = SUM,
    dims: Sequence[int] | None = None,
) -> list[PointUpdate]:
    """Phase 1 of the blocked batch update (§5.2).

    Every update's location is contracted to its block index — along
    ``dims`` only when given (the blocked dimensions of a §9.1 subset;
    the others keep their cell coordinate) — and deltas landing in the
    same block are combined, so phase 2 can treat each block as one
    element of the contracted cube.
    """
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    contracted = [
        PointUpdate(
            tuple(
                x // block_size if dims is None or j in dims else x
                for j, x in enumerate(update.index)
            ),
            update.delta,
        )
        for update in updates
    ]
    return combine_duplicate_updates(contracted, operator)


def theorem2_region_bound(k: int, d: int) -> int:
    """The Theorem 2 upper bound ``∏_{j=0}^{d−1}(k+j) / d!`` on regions."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    numerator = 1
    for j in range(d):
        numerator *= k + j
    factorial = 1
    for j in range(2, d + 1):
        factorial *= j
    return numerator // factorial
