"""Counters for the element-access cost proxy used throughout the paper.

Section 8 of the paper: *"We use the number of elements required to answer
the query as a proxy for response time."*  Every query structure in this
library accepts an :class:`AccessCounter` and charges one unit per element
it reads:

* ``cube_cells`` — reads of the raw data cube ``A``;
* ``prefix_cells`` — reads of a prefix-sum array ``P`` (basic or blocked);
* ``tree_nodes`` — reads of hierarchical-tree nodes (max tree, tree-sum);
* ``index_nodes`` — reads of secondary index nodes (B-tree, R*-tree).

Benchmarks compare these counts directly against the paper's analytic cost
formulas (e.g. ``2^d + S·F(b)`` for the blocked prefix-sum method).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class AccessCounter:
    """Mutable tally of element accesses, grouped by storage structure.

    Increments are serialized through an internal lock: the serving
    layer offloads heavy computations to its worker pool, so one cube's
    counter is charged from several threads at once, and the plain
    ``int`` read-modify-write of ``+=`` would drop charges under that
    interleaving.  The lock is per-counter and uncontended elsewhere.
    """

    cube_cells: int = 0
    prefix_cells: int = 0
    tree_nodes: int = 0
    index_nodes: int = 0
    enabled: bool = field(default=True, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def count_cube(self, cells: int = 1) -> None:
        """Charge ``cells`` reads of the raw data cube ``A``."""
        if self.enabled:
            with self._lock:
                self.cube_cells += cells

    def count_prefix(self, cells: int = 1) -> None:
        """Charge ``cells`` reads of a prefix-sum array ``P``."""
        if self.enabled:
            with self._lock:
                self.prefix_cells += cells

    def count_tree(self, nodes: int = 1) -> None:
        """Charge ``nodes`` reads of hierarchical-tree nodes."""
        if self.enabled:
            with self._lock:
                self.tree_nodes += nodes

    def count_index(self, nodes: int = 1) -> None:
        """Charge ``nodes`` reads of secondary-index nodes."""
        if self.enabled:
            with self._lock:
                self.index_nodes += nodes

    @property
    def total(self) -> int:
        """Total elements accessed, all structures combined."""
        return (
            self.cube_cells
            + self.prefix_cells
            + self.tree_nodes
            + self.index_nodes
        )

    def reset(self) -> None:
        """Zero every tally."""
        with self._lock:
            self.cube_cells = 0
            self.prefix_cells = 0
            self.tree_nodes = 0
            self.index_nodes = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the current tallies (for reporting)."""
        with self._lock:
            return {
                "cube_cells": self.cube_cells,
                "prefix_cells": self.prefix_cells,
                "tree_nodes": self.tree_nodes,
                "index_nodes": self.index_nodes,
                "total": self.total,
            }


class _NullCounter(AccessCounter):
    """A counter that ignores every charge (zero-overhead default)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def count_cube(self, cells: int = 1) -> None:  # noqa: D102
        pass

    def count_prefix(self, cells: int = 1) -> None:  # noqa: D102
        pass

    def count_tree(self, nodes: int = 1) -> None:  # noqa: D102
        pass

    def count_index(self, nodes: int = 1) -> None:  # noqa: D102
        pass


#: Shared do-nothing counter used when the caller does not ask for counts.
NULL_COUNTER = _NullCounter()
