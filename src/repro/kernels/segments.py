"""Segment-reduce / scatter machinery.

``segment_reduce_serial`` is the gather-into-buffer + ``ufunc.reduceat``
pattern: rather than interleaving (start, end) offsets — which makes
``reduceat`` also reduce the junk *between* runs, costing O(span) — we
gather exactly the cells the runs cover into one contiguous buffer and
reduce at monotone offsets, so the work is bounded by the cells actually
scanned.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import InvertibleOperator


def exclusive_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of run lengths: the ``reduceat`` offsets."""
    offsets = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def expand_runs(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell indices covered by the runs, plus the reduce offsets.

    Args:
        starts: ``(n,)`` flat start index of each run.
        lengths: ``(n,)`` run lengths, all ``>= 1``.

    Returns:
        ``(cells, offsets)`` — the concatenated per-run cell indices and
        the exclusive offsets where each run begins inside ``cells``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = exclusive_offsets(lengths)
    total = int(lengths.sum())
    # position-within-run = global position − (run offset broadcast out).
    positions = np.arange(total, dtype=np.int64) - np.repeat(
        offsets, lengths
    )
    cells = np.repeat(starts, lengths) + positions
    return cells, offsets


def segment_reduce_serial(
    flat: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    operator: InvertibleOperator,
) -> np.ndarray:
    """Reduce each run ``flat[starts[i] : starts[i]+lengths[i]]`` with ⊕."""
    target = operator.accumulation_dtype(flat.dtype)
    if len(starts) == 0:
        return np.zeros(0, dtype=target)
    apply_ufunc = operator.apply
    if not isinstance(apply_ufunc, np.ufunc):  # pragma: no cover
        raise TypeError(
            "segment_reduce requires a ufunc operator; "
            f"{operator.name!r} is not one"
        )
    cells, offsets = expand_runs(starts, lengths)
    buffer = flat[cells].astype(target, copy=False)
    return apply_ufunc.reduceat(buffer, offsets, dtype=target)


def scatter_serial(
    target: np.ndarray,
    indices: np.ndarray,
    deltas: np.ndarray,
    operator: InvertibleOperator,
) -> None:
    """Apply ``target[i] = target[i] ⊕ delta`` for each (index, delta).

    ``ufunc.at`` is unbuffered, so duplicate indices apply sequentially —
    the same semantics as the historical per-update Python loop.  Deltas
    that numpy cannot safely cast into the target dtype (e.g. negative
    ints into an unsigned cube, or object-dtype Python scalars) fall back
    to that loop, preserving the old behaviour exactly.
    """
    apply_ufunc = operator.apply
    deltas_arr = np.asarray(deltas)
    if (
        isinstance(apply_ufunc, np.ufunc)
        and deltas_arr.dtype != object
        and np.can_cast(deltas_arr.dtype, target.dtype, "same_kind")
    ):
        apply_ufunc.at(target, indices, deltas_arr.astype(target.dtype))
        return
    flat_indices = np.asarray(indices).ravel()
    for pos, delta in zip(flat_indices.tolist(), np.ravel(deltas_arr)):
        target[pos] = operator.apply(target[pos], delta)


def flatten_updates(
    updates: object, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Turn ``PointUpdate``-style records into flat (indices, deltas).

    Args:
        updates: A sequence of objects with ``.index`` (a coordinate
            tuple) and ``.delta`` attributes.
        shape: The cube shape the coordinates address.

    Returns:
        ``(indices, deltas)`` — ``(n,)`` flat int64 indices and the delta
        values as an array (object dtype when deltas are mixed Python
        scalars, which :func:`scatter_serial` handles via its fallback).

    Raises:
        ValueError: A coordinate tuple of the wrong arity, or a
            coordinate that is negative or not below its extent — the
            structures call this before their first write, so a rejected
            batch changes nothing.
    """
    seq = list(updates)  # type: ignore[call-overload]
    if not seq:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    for update in seq:
        if len(update.index) != len(shape):
            raise ValueError(
                f"update index {update.index} has wrong dimensionality "
                f"for a {len(shape)}-d cube"
            )
    coords = np.array([u.index for u in seq], dtype=np.int64)
    flat = np.ravel_multi_index(tuple(coords.T), shape).astype(np.int64)
    deltas = np.array([u.delta for u in seq])
    return flat, deltas
