"""One-pass vectorized boundary machinery for the blocked structures.

The scalar ``range_sum`` of a blocked structure answers one query's
boundary regions in Python: plan the ``3^{d'}`` decomposition, pick
method 1 (scan the region) or method 2 (superblock minus complement) per
region, and reduce each scan with a separate ``reduce_box`` call.
Looped over a batch, ``K`` queries pay the interpreter ``K · 3^{d'}``
times.

This module evaluates the *entire batch* in a constant number of array
passes:

1. per chosen dimension, the §4.2 split points (``l'``, ``h'``, the
   aligned superblock bounds) are computed for all ``K`` queries at once,
   giving a ``(3, K)`` piece table per dimension;
2. the combo loop runs over the ``3^{d'}`` *slots* — not over queries —
   and classifies every query's region under that combo in vectorized
   form: empty / internal / method 1 / method 2 (the same
   ``volume(region) ≤ volume(complement) + 2^{d'} − 1`` rule, applied
   row-wise);
3. method-2 complements are peeled axis by axis exactly like
   :func:`repro._util.box_difference`, but for all affected queries at
   once;
4. every raw-cube scan this produces — across all queries, combos and
   complement pieces — lands in one flat list of boxes, reduced by one
   :func:`box_reduce_many` call (gather + ``ufunc.reduceat`` through the
   kernel's ``segment_reduce``, in slices of bounded size);
5. per-query contributions are folded with ``ufunc.at`` into positive /
   negative accumulators and combined once with ``⊖``.

Access counting is preserved exactly: the same ``prefix_cells`` /
``cube_cells`` totals are charged as the scalar loop would charge.  The
pass costs a fixed ~0.5 ms over the slots whatever ``K`` is, so
:func:`repro.core.blocked.blocked_sum_dispatch` sends only batches of
enough rows here.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.core.operators import InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.kernels.numpy_kernel import resolve_kernel
from repro.kernels.segments import exclusive_offsets


#: Most raw cells one slice of a batch's run list may cover.  The
#: gather behind ``segment_reduce`` holds ~36 B of index, offset and
#: value buffers per scanned cell, so a batch's transient memory is
#: ~2.4 MB however many cells it scans (a single run longer than this,
#: i.e. a longer last axis, is still one slice).  Slices this size also
#: stay cache-resident: 256 boxes of the e2e cube take 46 ms at 2^16,
#: 56 ms at 2^18 and 72 ms unsliced.
MAX_SCAN_CELLS = 1 << 16


def c_strides(shape: tuple[int, ...]) -> np.ndarray:
    """Element (not byte) strides of a C-ordered array of ``shape``."""
    strides = np.ones(len(shape), dtype=np.int64)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    return strides


def box_reduce_many(
    array: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    operator: InvertibleOperator,
) -> np.ndarray:
    """Reduce ``n`` axis-aligned boxes of one array in a single pass.

    Each box is expanded into its contiguous last-axis runs (one run per
    row of the box), the runs of all boxes are reduced together through
    the kernel's ``segment_reduce`` in slices of at most
    :data:`MAX_SCAN_CELLS` cells, and per-box totals come from a second
    ``reduceat`` over each slice's run aggregates.  Boxes may appear in
    any order and overlap freely.  The caller owns counter accounting.

    Args:
        array: The source array (C-ordered; array backends materialize
            C layouts).
        box_lo: ``(n, d)`` inclusive lower corners, all inside ``array``.
        box_hi: ``(n, d)`` inclusive upper corners, ``>= box_lo``.
        operator: The invertible operator (must expose a ufunc).

    Returns:
        An ``(n,)`` array of box aggregates in the accumulation dtype.
    """
    target = operator.accumulation_dtype(array.dtype)
    n = len(box_lo)
    if n == 0:
        return np.zeros(0, dtype=target)
    apply_ufunc = operator.apply
    if not isinstance(apply_ufunc, np.ufunc):  # pragma: no cover
        raise TypeError(
            "box_reduce_many requires a ufunc operator; "
            f"{operator.name!r} is not one"
        )
    flat = np.reshape(array, -1)
    extents = box_hi - box_lo + 1
    strides = c_strides(tuple(int(s) for s in array.shape))
    base = (box_lo * strides[None, :]).sum(axis=1)
    run_length = extents[:, -1]
    runs_per_box = (
        np.prod(extents[:, :-1], axis=1)
        if array.ndim > 1
        else np.ones(n, dtype=np.int64)
    )
    box_offsets = exclusive_offsets(runs_per_box)
    cell_offsets = exclusive_offsets(runs_per_box * run_length)
    total_runs = int(runs_per_box.sum())
    out = np.full(n, operator.identity, dtype=target)
    segment_reduce = resolve_kernel().segment_reduce
    # The run list is generated and reduced one slice of the global run
    # sequence at a time (see MAX_SCAN_CELLS): a slice ends at the last
    # run that keeps it within the cap, and always holds at least one.
    first, scanned = 0, 0
    while first < total_runs:
        budget = scanned + MAX_SCAN_CELLS
        box = int(np.searchsorted(cell_offsets, budget, "right")) - 1
        stop = int(
            box_offsets[box]
            + (budget - cell_offsets[box]) // run_length[box]
        )
        stop = min(max(stop, first + 1), total_runs)
        runs = np.arange(first, stop, dtype=np.int64)
        box_of_run = np.searchsorted(box_offsets, runs, "right") - 1
        # Mixed-radix decode of each run's rank within its box: the rank
        # counts row-major over the leading d-1 extents, so peeling from
        # the last leading axis upward recovers per-axis offsets.
        remainder = runs - box_offsets[box_of_run]
        starts = base[box_of_run]
        for j in range(array.ndim - 2, -1, -1):
            axis_extent = extents[box_of_run, j]
            starts += (remainder % axis_extent) * strides[j]
            remainder //= axis_extent
        lengths = run_length[box_of_run]
        run_values = segment_reduce(flat, starts, lengths, operator)
        # A slice covers a contiguous range of boxes; the first and last
        # may continue in a neighbouring slice, so fold, don't assign.
        lo_box, hi_box = int(box_of_run[0]), int(box_of_run[-1]) + 1
        folded = apply_ufunc.reduceat(
            run_values,
            np.maximum(box_offsets[lo_box:hi_box] - first, 0),
            dtype=target,
        )
        out[lo_box:hi_box] = apply_ufunc(out[lo_box:hi_box], folded)
        first = stop
        scanned += int(lengths.sum())
    return out


def _aligned_many(
    structure: object,
    chosen_lo: np.ndarray,
    chosen_hi: np.ndarray,
    owners: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    counter: AccessCounter,
) -> np.ndarray:
    """Block-aligned sums from ``P`` for ``n`` chosen-dim regions.

    Args:
        structure: The blocked structure.
        chosen_lo, chosen_hi: ``(n, d')`` raw-coordinate bounds of
            block-aligned regions over the chosen dimensions.
        owners: ``(n,)`` query rows (supplying the passive extents).
        lows, highs: The full ``(K, d)`` query bounds.
        counter: Charged exactly as the scalar ``_aligned_*`` would.

    Returns:
        ``(n,)`` aggregates in the prefix accumulation dtype.
    """
    op = structure.operator
    b = structure.block_size
    prefix = structure.blocked_prefix
    block_lo = chosen_lo // b
    block_hi = chosen_hi // b
    chosen_dims = structure.prefix_dims
    passive_dims = structure.passive_dims
    if not passive_dims:
        # Every dimension is chosen: the slabs are single prefix cells
        # and Theorem 1 applies directly — one corner gather.
        return resolve_kernel().corner_gather(
            prefix, block_lo, block_hi, op, counter
        )
    n = len(block_lo)
    dprime = len(chosen_dims)
    target = op.accumulation_dtype(prefix.dtype)
    positive = np.full(n, op.identity, dtype=target)
    negative = np.full(n, op.identity, dtype=target)
    passive_lo = lows[owners][:, passive_dims]
    passive_hi = highs[owners][:, passive_dims]
    passive_cells = np.prod(passive_hi - passive_lo + 1, axis=1)
    for corner_choice in product((False, True), repeat=dprime):
        coords = np.where(
            np.asarray(corner_choice)[None, :], block_hi, block_lo - 1
        )
        valid = (coords >= 0).all(axis=1)
        if not np.any(valid):
            continue
        counter.count_prefix(int(passive_cells[valid].sum()))
        slab_lo = np.empty((int(valid.sum()), prefix.ndim), dtype=np.int64)
        slab_hi = np.empty_like(slab_lo)
        slab_lo[:, chosen_dims] = coords[valid]
        slab_hi[:, chosen_dims] = coords[valid]
        slab_lo[:, passive_dims] = passive_lo[valid]
        slab_hi[:, passive_dims] = passive_hi[valid]
        values = box_reduce_many(prefix, slab_lo, slab_hi, op)
        if corner_choice.count(False) % 2 == 0:
            positive[valid] = op.apply(
                positive[valid], values.astype(target, copy=False)
            )
        else:
            negative[valid] = op.apply(
                negative[valid], values.astype(target, copy=False)
            )
    return op.invert(positive, negative)


def blocked_sum_many_vectorized(
    structure: object,
    lows: np.ndarray,
    highs: np.ndarray,
    counter: AccessCounter = NULL_COUNTER,
) -> np.ndarray:
    """Batch §4 range-sums with the boundary regions fully vectorized.

    Serves :class:`~repro.core.blocked.BlockedPrefixSumCube` for any
    ``prefix_dims`` (all dimensions chosen, or a chosen subset plus
    passive slabs).  Results and access-counter totals match the scalar
    decomposition exactly.

    Args:
        structure: A blocked prefix-sum cube.
        lows: Validated non-empty ``(K, d)`` inclusive lower bounds.
        highs: Validated ``(K, d)`` inclusive upper bounds.
        counter: Standard access counter.

    Returns:
        A ``(K,)`` array of aggregates.
    """
    op = structure.operator
    b = structure.block_size
    prefix = structure.blocked_prefix
    source = structure.source
    K, ndim = lows.shape
    target = op.accumulation_dtype(prefix.dtype)
    if K == 0:
        return np.zeros(0, dtype=target)
    chosen_dims = np.asarray(structure.prefix_dims, dtype=np.int64)
    passive_dims = np.asarray(structure.passive_dims, dtype=np.int64)
    dprime = len(chosen_dims)
    if dprime == 0:
        # No accumulated dimensions: every query is one raw slab scan.
        volumes = np.prod(highs - lows + 1, axis=1)
        counter.count_cube(int(volumes.sum()))
        return box_reduce_many(source, lows, highs, op).astype(
            target, copy=False
        )
    sizes = np.asarray(structure.shape, dtype=np.int64)[chosen_dims]
    lo_c = lows[:, chosen_dims]
    hi_c = highs[:, chosen_dims]
    # §4.2 split points, all K queries at once (cf. _plan_dimension).
    low_aligned = (lo_c // b) * b  # l''
    low_up = -(-lo_c // b) * b  # l' = b⌈lo/b⌉
    high_down = (hi_c // b) * b  # h'
    high_up = np.minimum(-(-hi_c // b) * b, sizes[None, :])  # h''
    bump = high_up == high_down
    high_up = np.where(
        bump, np.minimum(high_down + b, sizes[None, :]), high_up
    )
    case1 = low_up < high_down
    # Piece tables, shape (3, K, d'): slot 0 = left boundary band,
    # slot 1 = the aligned middle (case 1) or the whole unsplit range
    # (case 2), slot 2 = right boundary band.  Case-2 dimensions leave
    # slots 0 and 2 empty (lo > hi), which the region-validity mask
    # filters exactly like the scalar loop's ``region.is_empty`` skip.
    piece_lo = np.stack(
        (lo_c, np.where(case1, low_up, lo_c), high_down)
    )
    piece_hi = np.stack(
        (
            np.where(case1, low_up - 1, lo_c - 1),
            np.where(case1, high_down - 1, hi_c),
            np.where(case1, hi_c, high_down - 1),
        )
    )
    super_lo = np.stack(
        (low_aligned, np.where(case1, low_up, low_aligned), high_down)
    )
    super_hi = np.stack(
        (low_up - 1, np.where(case1, high_down - 1, high_up - 1), high_up - 1)
    )
    has_internal = case1.all(axis=1)
    positive = np.full(K, op.identity, dtype=target)
    negative = np.full(K, op.identity, dtype=target)
    # The all-middle combination of every all-case-1 query is the
    # internal region: one aligned gather covers the whole batch.
    if np.any(has_internal):
        rows = np.nonzero(has_internal)[0]
        values = _aligned_many(
            structure,
            low_up[rows],
            high_down[rows] - 1,
            rows,
            lows,
            highs,
            counter,
        )
        positive[rows] = op.apply(
            positive[rows], values.astype(target, copy=False)
        )
    # Boundary regions: collect every raw-cube scan (method 1 regions,
    # method 2 complement pieces) and every method-2 superblock, then
    # evaluate each family in one pass.
    scan_lo: list[np.ndarray] = []
    scan_hi: list[np.ndarray] = []
    scan_owner: list[np.ndarray] = []
    scan_positive: list[np.ndarray] = []
    sb_lo: list[np.ndarray] = []
    sb_hi: list[np.ndarray] = []
    sb_owner: list[np.ndarray] = []
    corner_overhead = (1 << dprime) - 1
    for combo in product(range(3), repeat=dprime):
        slots = np.asarray(combo)
        region_lo = piece_lo[slots, :, np.arange(dprime)].T  # (K, d')
        region_hi = piece_hi[slots, :, np.arange(dprime)].T
        rows_mask = (region_lo <= region_hi).all(axis=1)
        if all(s == 1 for s in combo):
            # All-middle: internal for all-case-1 rows (handled above).
            rows_mask &= ~has_internal
        if not np.any(rows_mask):
            continue
        rows = np.nonzero(rows_mask)[0]
        r_lo = region_lo[rows]
        r_hi = region_hi[rows]
        s_lo = super_lo[slots, :, np.arange(dprime)].T[rows]
        s_hi = super_hi[slots, :, np.arange(dprime)].T[rows]
        region_vol = np.prod(r_hi - r_lo + 1, axis=1)
        sb_vol = np.prod(s_hi - s_lo + 1, axis=1)
        method1 = region_vol <= sb_vol - region_vol + corner_overhead
        if np.any(method1):
            scan_lo.append(r_lo[method1])
            scan_hi.append(r_hi[method1])
            scan_owner.append(rows[method1])
            scan_positive.append(np.ones(int(method1.sum()), dtype=bool))
        if np.any(~method1):
            m2 = ~method1
            sb_lo.append(s_lo[m2])
            sb_hi.append(s_hi[m2])
            sb_owner.append(rows[m2])
            # Peel the complement (superblock minus region) axis by
            # axis, mirroring repro._util.box_difference: a below piece
            # and an above piece per axis, then the working box shrinks
            # to the region along that axis.
            work_lo = s_lo[m2].copy()
            work_hi = s_hi[m2].copy()
            p_lo = r_lo[m2]
            p_hi = r_hi[m2]
            p_rows = rows[m2]
            for t in range(dprime):
                below = work_lo[:, t] < p_lo[:, t]
                if np.any(below):
                    piece_l = work_lo[below].copy()
                    piece_h = work_hi[below].copy()
                    piece_h[:, t] = p_lo[below, t] - 1
                    scan_lo.append(piece_l)
                    scan_hi.append(piece_h)
                    scan_owner.append(p_rows[below])
                    scan_positive.append(
                        np.zeros(int(below.sum()), dtype=bool)
                    )
                above = p_hi[:, t] < work_hi[:, t]
                if np.any(above):
                    piece_l = work_lo[above].copy()
                    piece_h = work_hi[above].copy()
                    piece_l[:, t] = p_hi[above, t] + 1
                    scan_lo.append(piece_l)
                    scan_hi.append(piece_h)
                    scan_owner.append(p_rows[above])
                    scan_positive.append(
                        np.zeros(int(above.sum()), dtype=bool)
                    )
                work_lo[:, t] = p_lo[:, t]
                work_hi[:, t] = p_hi[:, t]
    # Method-2 superblocks: one aligned pass for the whole batch.
    if sb_owner:
        owners = np.concatenate(sb_owner)
        values = _aligned_many(
            structure,
            np.concatenate(sb_lo),
            np.concatenate(sb_hi),
            owners,
            lows,
            highs,
            counter,
        )
        op.apply.at(positive, owners, values.astype(target, copy=False))
    # All raw-cube scans (method-1 regions + method-2 complements): one
    # box_reduce_many over the source.
    if scan_owner:
        owners = np.concatenate(scan_owner)
        signs = np.concatenate(scan_positive)
        chosen_l = np.concatenate(scan_lo)
        chosen_h = np.concatenate(scan_hi)
        full_lo = np.empty((len(owners), ndim), dtype=np.int64)
        full_hi = np.empty_like(full_lo)
        full_lo[:, chosen_dims] = chosen_l
        full_hi[:, chosen_dims] = chosen_h
        if len(passive_dims):
            full_lo[:, passive_dims] = lows[owners][:, passive_dims]
            full_hi[:, passive_dims] = highs[owners][:, passive_dims]
        volumes = np.prod(full_hi - full_lo + 1, axis=1)
        counter.count_cube(int(volumes.sum()))
        values = box_reduce_many(source, full_lo, full_hi, op).astype(
            target, copy=False
        )
        if np.any(signs):
            op.apply.at(positive, owners[signs], values[signs])
        if not np.all(signs):
            op.apply.at(negative, owners[~signs], values[~signs])
    return op.invert(positive, negative)
