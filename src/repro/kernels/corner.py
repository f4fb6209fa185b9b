"""The batched Theorem-1 corner primitives (gather, mask, combine).

:mod:`repro.query.batch` re-exports them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter


@lru_cache(maxsize=None)
def corner_table(ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached ``(2^d, d)`` corner choices and their Theorem-1 signs.

    Row ``c`` of ``take_hi`` says, per dimension, whether corner ``c``
    reads ``h_j`` (True) or ``l_j − 1`` (False); ``signs[c]`` is ``+1``
    when the number of low choices is even, else ``−1``.

    Returns:
        ``(take_hi, signs)`` — a ``(2^d, d)`` bool array and a ``(2^d,)``
        int8 array.  Both are cached; callers must not mutate them.
    """
    if ndim < 1:
        raise ValueError("the corner table needs at least one dimension")
    count = 1 << ndim
    codes = np.arange(count, dtype=np.uint32)
    take_hi = (
        (codes[:, None] >> np.arange(ndim - 1, -1, -1)[None, :]) & 1
    ).astype(bool)
    low_choices = ndim - take_hi.sum(axis=1)
    signs = np.where(low_choices % 2 == 0, 1, -1).astype(np.int8)
    take_hi.setflags(write=False)
    signs.setflags(write=False)
    return take_hi, signs


def gather_corner_values(
    prefix: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    counter: AccessCounter = NULL_COUNTER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read all ``K · 2^d`` Theorem-1 corners of ``P`` in one gather.

    Args:
        prefix: The prefix array ``P`` (any number of dimensions).
        lows: Validated ``(K, d)`` inclusive lower bounds.
        highs: Validated ``(K, d)`` inclusive upper bounds.
        counter: Charged one ``prefix_cells`` unit per *valid* corner
            (corners with a ``−1`` coordinate are the implicit zero and
            cost nothing), matching the scalar path's accounting.

    Returns:
        ``(values, valid, signs)``: a ``(K, 2^d)`` array of gathered
        ``P`` cells (garbage where invalid), a ``(K, 2^d)`` bool validity
        mask, and the shared ``(2^d,)`` sign row.
    """
    take_hi, signs = corner_table(prefix.ndim)
    # (K, 2^d, d) corner coordinates: h_j where take_hi, else l_j − 1.
    corners = np.where(
        take_hi[None, :, :], highs[:, None, :], lows[:, None, :] - 1
    )
    valid = (corners >= 0).all(axis=2)
    clipped = np.maximum(corners, 0)
    flat = np.ravel_multi_index(
        tuple(np.moveaxis(clipped, 2, 0)), prefix.shape
    )
    values = prefix.ravel()[flat.reshape(-1)].reshape(flat.shape)
    counter.count_prefix(int(valid.sum()))
    return values, valid, signs


def combine_corner_values(
    values: np.ndarray,
    valid: np.ndarray,
    signs: np.ndarray,
    operator: InvertibleOperator,
) -> np.ndarray:
    """Reduce gathered corners to per-query aggregates (Theorem 1).

    Positive and negative corners are reduced separately with the
    operator's ufunc (invalid corners contribute the identity) and then
    combined once with ``⊖`` — the exact algebra of the scalar path, so
    integer results are bit-identical.
    """
    positive_mask = valid & (signs > 0)[None, :]
    negative_mask = valid & (signs < 0)[None, :]
    apply_ufunc = operator.apply
    if not isinstance(apply_ufunc, np.ufunc):  # pragma: no cover
        raise TypeError(
            "the batch kernel requires a ufunc operator; "
            f"{operator.name!r} is not one"
        )
    # ``values`` is gathered from a prefix array already promoted by
    # ``accumulation_dtype``; stating the reduce dtype keeps the corner
    # algebra in that dtype even if a caller hands in narrower corners.
    target = operator.accumulation_dtype(values.dtype)
    positive = apply_ufunc.reduce(
        np.where(positive_mask, values, operator.identity),
        axis=1,
        dtype=target,
    )
    negative = apply_ufunc.reduce(
        np.where(negative_mask, values, operator.identity),
        axis=1,
        dtype=target,
    )
    return operator.invert(positive, negative)
