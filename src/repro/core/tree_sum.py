"""Tree-hierarchy range-sum — the comparator structure of paper §8.

Section 8 asks whether the balanced tree used for range-max is also a good
range-sum structure.  The answer is no: without an analogue of branch and
bound, a range-sum must traverse *every* boundary node down to the leaves,
paying ``F(b)·Σ_{k=0}^{t−1} S / b^{k(d−1)}`` element accesses versus the
prefix-sum method's ``2^d + S·F(b)`` — the gap plotted in Figure 11.

This module implements the structure faithfully so the comparison can be
measured, not just computed from the cost model:

* nodes store the sum of the region they cover;
* a query starts at the lowest-level covering node and recurses into
  boundary children (internal children resolve in one access, external
  children are skipped);
* subtraction **is** used, as §8's analysis grants for fairness: when a
  region covers more than half of a node's region, the node's stored sum
  minus the complement is evaluated instead, which is why ``F(b) ≈ b/4``
  rather than ``b/2`` for both contenders.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro._util import Box, box_difference, full_box
from repro.core.operators import SUM, InvertibleOperator
from repro.instrumentation import NULL_COUNTER, AccessCounter


class TreeSumHierarchy:
    """A balanced ``b^d``-ary tree of region sums (paper §8).

    Args:
        cube: The raw data cube ``A`` (retained; leaf reads come from it).
        fanout: Per-dimension fanout ``b >= 2``.
        operator: Invertible aggregation operator; default SUM.  (The tree
            itself never uses the inverse except for the fairness
            subtraction; a non-invertible operator could drop that.)
    """

    def __init__(
        self,
        cube: np.ndarray,
        fanout: int,
        operator: InvertibleOperator = SUM,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.fanout = int(fanout)
        self.operator = operator
        self.source = np.array(cube, copy=True)
        self.shape = tuple(int(n) for n in cube.shape)
        self.ndim = cube.ndim
        self.levels: list[np.ndarray | None] = [None]
        current = self.source
        # Node sums run in the operator's accumulation dtype: a single
        # node aggregates up to b^d cells, which already wraps an int8
        # source (the same policy as the prefix sweeps).
        target = operator.accumulation_dtype(cube.dtype)
        while any(n > 1 for n in current.shape):
            contracted = current
            for axis in range(contracted.ndim):
                edges = np.arange(0, contracted.shape[axis], self.fanout)
                contracted = operator.apply.reduceat(
                    contracted, edges, axis=axis, dtype=target
                )
            self.levels.append(contracted)
            current = contracted
        self.height = len(self.levels) - 1

    @property
    def node_count(self) -> int:
        """Total non-leaf nodes stored (comparable to a blocked P of the
        same ``b``, plus the higher levels — the tree's space is a factor
        ``b^d/(b^d − 1)`` above the single blocked array)."""
        return sum(lv.size for lv in self.levels[1:] if lv is not None)

    def node_region(self, level: int, node: tuple[int, ...]) -> Box:
        """The leaf region covered by a node."""
        span = self.fanout**level
        lo = tuple(c * span for c in node)
        hi = tuple(
            min((c + 1) * span, n) - 1 for c, n in zip(node, self.shape)
        )
        return Box(lo, hi)

    def range_sum(
        self, box: Box, counter: AccessCounter = NULL_COUNTER
    ) -> object:
        """Evaluate ``Sum(box)`` by tree traversal."""
        self._check_box(box)
        level, node = self._lowest_covering_node(box)
        return self._sum_region(level, node, box, counter)

    def total(self, counter: AccessCounter = NULL_COUNTER) -> object:
        """Aggregate of the entire cube (one root access)."""
        return self.range_sum(full_box(self.shape), counter)

    def _lowest_covering_node(self, box: Box) -> tuple[int, tuple[int, ...]]:
        level = 0
        span = 1
        while level < self.height:
            if all(
                lo // span == hi // span for lo, hi in zip(box.lo, box.hi)
            ):
                break
            level += 1
            span *= self.fanout
        return level, tuple(lo // span for lo in box.lo)

    def _sum_region(
        self,
        level: int,
        node: tuple[int, ...],
        region: Box,
        counter: AccessCounter,
    ) -> object:
        """Sum of ``region`` (⊆ the node's cover) below ``node``."""
        op = self.operator
        cover = self.node_region(level, node)
        if level == 0:
            counter.count_cube(1)
            return self.source[node]
        if cover == region:
            counter.count_tree(1)
            return self.levels[level][node]
        if 2 * region.volume > cover.volume:
            # Fairness subtraction (§8): resolve via the complement.
            counter.count_tree(1)
            total = self.levels[level][node]
            for piece in box_difference(cover, region):
                total = op.invert(
                    total, self._descend(level, node, piece, counter)
                )
            return total
        return self._descend(level, node, region, counter)

    def _descend(
        self,
        level: int,
        node: tuple[int, ...],
        region: Box,
        counter: AccessCounter,
    ) -> object:
        """Recurse into the children overlapping ``region``."""
        op = self.operator
        total = op.identity
        child_level = level - 1
        child_shape = (
            self.shape if child_level == 0 else self.levels[child_level].shape
        )
        if child_level == 0:
            # Children are raw cells: scan the overlap directly.
            counter.count_cube(region.volume)
            return op.reduce_box(self.source[region.slices()])
        for child in self._iter_children(node, child_shape):
            cover = self.node_region(child_level, child)
            overlap = cover.intersect(region)
            if overlap.is_empty:
                continue
            if overlap == cover:
                counter.count_tree(1)
                total = op.apply(total, self.levels[child_level][child])
            else:
                total = op.apply(
                    total,
                    self._sum_region(child_level, child, overlap, counter),
                )
        return total

    def _iter_children(
        self, node: tuple[int, ...], child_shape: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        from itertools import product

        ranges = [
            range(c * self.fanout, min((c + 1) * self.fanout, n))
            for c, n in zip(node, child_shape)
        ]
        return product(*ranges)

    def _check_box(self, box: Box) -> None:
        if box.ndim != self.ndim:
            raise ValueError(
                f"query has {box.ndim} dims, cube has {self.ndim}"
            )
        if box.is_empty:
            raise ValueError(f"empty query region {box}")
        for j, (lo, hi, n) in enumerate(zip(box.lo, box.hi, self.shape)):
            if not 0 <= lo <= hi < n:
                raise ValueError(
                    f"range {lo}:{hi} outside dimension {j} of size {n}"
                )
