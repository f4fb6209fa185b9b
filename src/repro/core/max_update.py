"""Batch updates for the range-max tree (paper §7).

The input is a list of ``⟨index, value⟩`` assignment points into ``A``.
The algorithm runs one phase per tree level, bottom-up; each phase scans
its input list once, applies the updates to the contracted array ``A_i``,
maintains per-parent auxiliary state, and emits a (usually much shorter)
update list for the next level.

Per sibling set ``S`` with parent ``x`` (stored max index ``y0``, max
value ``v0``), an update ``⟨y, v⟩`` is classified:

* **increase-update** (``v`` larger than the current value): *active* when
  ``v > v0`` — the parent's max moves to ``y`` (``tag = 1``); an increase
  matching ``v0`` while ``tag = −1`` also *recovers* the max (``tag = 1``,
  the paper's rule 1(c)); otherwise passive.
* **decrease-update**: *active* only when ``y = y0`` and no active
  increase was seen first (``tag = 0 → −1``); if an active increase
  already beat ``v0``, the decrease cannot matter (rule 2(b)).

``tag = −1`` surviving to the end of the list is the only case requiring a
full rescan of the sibling set.  One extension beyond the paper's
exposition (which only tracks values): when a child's max *index* moves at
an unchanged max *value* — possible one level up once ties exist — the
parent's stored index is refreshed and propagated, keeping every ancestor's
index pointing at a live maximum cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.range_max import RangeMaxTree


@dataclass(frozen=True)
class MaxAssignment:
    """One buffered assignment ``A[index] = value``."""

    index: tuple[int, ...]
    value: object


@dataclass
class MaxUpdateStats:
    """Work accounting for one batch application."""

    assignments: int = 0
    items_per_phase: list[int] = field(default_factory=list)
    nodes_written: int = 0
    rescans: int = 0
    rescan_cells: int = 0

    @property
    def total_items(self) -> int:
        """Total update items processed across all phases."""
        return sum(self.items_per_phase)


@dataclass
class _ParentState:
    """Auxiliary variables of §7 for one touched parent node."""

    orig_pos: int  # stored max index (flat into A) before the batch
    orig_val: object  # v0 — stored max value before the batch
    tag: int = 0
    cand_pos: int = -1  # new_max_index (flat) when tag == 1
    cand_val: object = None
    refreshed_pos: int | None = None  # equal-value index move of y0


def apply_max_updates(
    tree: RangeMaxTree, assignments: Sequence[MaxAssignment]
) -> MaxUpdateStats:
    """Apply a batch of assignments to ``A`` and repair the max tree (§7):
    :func:`~repro.core.batch_update.write_batch` stages them (the last
    per cell wins; a value its cell cannot hold exactly is rejected) and
    writes ``A`` once, then the tree's ``absorb`` runs.

    Args:
        tree: The tree to update in place (its ``source`` cube included).
        assignments: Buffered ``⟨index, value⟩`` points.

    Returns:
        Statistics on the per-phase work (list lengths, rescans).
    """
    from repro.core.batch_update import PointUpdate, write_batch

    changes, _ = write_batch(
        tree.source,
        [PointUpdate(a.index, a.value) for a in assignments],
        operator=None,
    )
    return tree.absorb(changes)


def repair_max_tree(
    tree: RangeMaxTree, flat: np.ndarray, old: np.ndarray, new: np.ndarray
) -> MaxUpdateStats:
    """Repair the levels after distinct cells of ``A`` (C-order ``flat``
    indices) went from ``old`` to ``new`` values (§7), one phase per
    level, bottom-up, under the tree's order (a ``"min"`` tree's
    increase is a smaller value).  ``tree.source`` must already hold the
    new values: a level-1 rescan reads it.  Returns the per-phase work
    statistics."""
    stats = MaxUpdateStats(assignments=len(flat))
    if not len(flat) or tree.height == 0:
        tree.backend.flush()
        return stats

    # Phase items: (child_node_index, old_pos, old_val, new_pos, new_val)
    # at the phase's level; level-0 "nodes" are cells of A whose pos is
    # their own flat index.
    coords = zip(*(c.tolist() for c in np.unravel_index(flat, tree.shape)))
    items: list[tuple[tuple[int, ...], int, object, int, object]] = [
        (index, pos, old_val, pos, new_val)
        for index, pos, old_val, new_val in zip(
            coords, flat.tolist(), old, new
        )
    ]

    for level in range(tree.height):
        stats.items_per_phase.append(len(items))
        items = _run_phase(tree, level, items, stats)
        if not items:
            break
    else:
        # Updates reached the root level: apply them (no parents above).
        stats.items_per_phase.append(len(items))
        _apply_items(tree, tree.height, items, stats)
    # Sync spill files before handing back: callers (and crash recovery)
    # may read the backend's storage by path, not through this process.
    tree.backend.flush()
    return stats


def _apply_items(
    tree: RangeMaxTree,
    level: int,
    items: Sequence[tuple[tuple[int, ...], int, object, int, object]],
    stats: MaxUpdateStats,
) -> None:
    """Write update items into the storage of ``level`` (``A`` itself,
    level 0, is written by the caller before the repair starts)."""
    for node, _old_pos, _old_val, new_pos, new_val in items:
        if level > 0:
            vals = tree.values[level]
            pos = tree.positions[level]
            assert vals is not None and pos is not None
            vals[node] = new_val
            pos[node] = new_pos
        stats.nodes_written += 1


def _run_phase(
    tree: RangeMaxTree,
    level: int,
    items: list[tuple[tuple[int, ...], int, object, int, object]],
    stats: MaxUpdateStats,
) -> list[tuple[tuple[int, ...], int, object, int, object]]:
    """Process one phase: apply items at ``level``, emit for ``level+1``."""
    parent_level = level + 1
    better = tree.order.better
    parent_vals = tree.values[parent_level]
    parent_pos = tree.positions[parent_level]
    assert parent_vals is not None and parent_pos is not None
    states: dict[tuple[int, ...], _ParentState] = {}

    for node, old_pos, old_val, new_pos, new_val in items:
        _apply_items(tree, level, [(node, old_pos, old_val, new_pos, new_val)], stats)
        parent = tuple(c // tree.fanout for c in node)
        state = states.get(parent)
        if state is None:
            state = _ParentState(
                orig_pos=int(parent_pos[parent]),
                orig_val=parent_vals[parent],
            )
            states[parent] = state
        child_was_max = old_pos == state.orig_pos
        if better(new_val, old_val):
            _handle_increase(state, new_pos, new_val, better)
        elif better(old_val, new_val):
            if child_was_max and state.tag == 0:
                state.tag = -1
        elif new_pos != old_pos and child_was_max and state.tag == 0:
            state.refreshed_pos = new_pos

    next_items: list[tuple[tuple[int, ...], int, object, int, object]] = []
    for parent, state in states.items():
        new_pos, new_val = _finalize_parent(tree, level, parent, state, stats)
        if new_pos == state.orig_pos and new_val == state.orig_val:
            continue
        next_items.append(
            (parent, state.orig_pos, state.orig_val, new_pos, new_val)
        )
    return next_items


def _handle_increase(
    state: _ParentState,
    new_pos: int,
    new_val: object,
    better: Callable[[object, object], object],
) -> None:
    """Rules 1(b) and 1(c) of §7 for an increase-update."""
    if state.tag == 1:
        if better(new_val, state.cand_val):
            state.cand_pos = new_pos
            state.cand_val = new_val
    elif better(new_val, state.orig_val) or (
        state.tag == -1 and new_val == state.orig_val
    ):
        state.tag = 1
        state.cand_pos = new_pos
        state.cand_val = new_val


def _finalize_parent(
    tree: RangeMaxTree,
    level: int,
    parent: tuple[int, ...],
    state: _ParentState,
    stats: MaxUpdateStats,
) -> tuple[int, object]:
    """Resolve a parent's new (pos, val) once its phase's list is done."""
    if state.tag == 1:
        return state.cand_pos, state.cand_val
    if state.tag == -1:
        return _rescan_children(tree, level, parent, stats)
    if state.refreshed_pos is not None:
        return state.refreshed_pos, state.orig_val
    return state.orig_pos, state.orig_val


def _rescan_children(
    tree: RangeMaxTree,
    level: int,
    parent: tuple[int, ...],
    stats: MaxUpdateStats,
) -> tuple[int, object]:
    """Full scan of a sibling set (the ``tag = −1`` fallback of §7)."""
    stats.rescans += 1
    region = tree.node_region(level + 1, parent)
    if level == 0:
        window = tree.source[region.slices()]
        stats.rescan_cells += window.size
        local = np.unravel_index(
            int(tree.order.arg_best(window)), window.shape
        )
        point = tuple(l + o for l, o in zip(region.lo, local))
        return (
            int(np.ravel_multi_index(point, tree.shape)),
            tree.source[point],
        )
    vals = tree.values[level]
    pos = tree.positions[level]
    assert vals is not None and pos is not None
    child_shape = tree.level_shape(level)
    slices = tuple(
        slice(
            c * tree.fanout, min((c + 1) * tree.fanout, n)
        )
        for c, n in zip(parent, child_shape)
    )
    window = vals[slices]
    stats.rescan_cells += window.size
    local = np.unravel_index(int(tree.order.arg_best(window)), window.shape)
    child = tuple(s.start + o for s, o in zip(slices, local))
    return int(pos[child]), vals[child]
