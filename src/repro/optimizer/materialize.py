"""Executing a §9 physical-design plan: materialized cuboid prefix sums.

:mod:`repro.optimizer.cuboid_selection` *chooses* a set of
``(cuboid, block size)`` prefix sums; this module *builds and serves*
them.  Each chosen cuboid's group-by array is computed from the base cube
(summing out the dimensions fixed at ``all``), a blocked prefix-sum
structure is built over it, and incoming range queries are routed to the
cheapest materialized ancestor — falling back to a scan of the base cube
when no ancestor is materialized.

This closes the §9 loop: the selector's cost model can be validated
against real access counts (``benchmarks/bench_materialized_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro._util import Box
from repro.cube.cuboid import CuboidKey, is_ancestor
from repro.index.backend import AdoptingBackend, resolve_backend
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.optimizer.cost_model import boundary_cells_per_surface
from repro.optimizer.cuboid_selection import Materialization
from repro.query.ranges import RangeQuery, SpecKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch_update import PointUpdate
    from repro.core.blocked import BlockedPrefixSumCube
    from repro.index.backend import ArrayBackend


@dataclass
class MaterializedCuboid:
    """One built cuboid: its key, the prefix structure over it, and
    whether that structure reads the set's base itself (``shares_base``:
    a cuboid over every dimension needs no group-by of its own)."""

    key: CuboidKey
    structure: BlockedPrefixSumCube
    shares_base: bool = False

    @property
    def block_size(self) -> int:
        """Block size the structure was built with."""
        return self.structure.block_size


class MaterializedCuboidSet:
    """A servable set of cuboid prefix sums (the executed §9 plan).

    Args:
        cube: The base measure cube ``A`` (for fallback scans).  The
            set keeps its own copy, taken through ``backend`` and
            written by :meth:`apply_updates` — or, through an
            :class:`~repro.index.AdoptingBackend`, reads the caller's
            ``A`` itself and leaves writing it to the caller, as after
            :meth:`rebase`.  A cuboid over every dimension reads the
            set's ``A`` rather than a copy.
        plan: Materializations to build, e.g. ``SelectionResult.chosen``.
        backend: Array backend every cuboid structure allocates through
            (pass a :class:`~repro.index.MemmapBackend` to spill the
            whole plan out of core).
    """

    def __init__(
        self,
        cube: np.ndarray,
        plan: Sequence[Materialization],
        backend: ArrayBackend | None = None,
    ) -> None:
        cube = np.asarray(cube)
        #: Whether :meth:`apply_updates` writes ``base`` (a copy the set
        #: owns) or the caller does (an adopted ``A``).
        self.owns_base = not isinstance(backend, AdoptingBackend)
        if isinstance(backend, AdoptingBackend):
            scope, self.base = backend.inner, cube
        else:
            scope = resolve_backend(backend)
            self.base = scope.materialize("base", cube)
        self.shape = tuple(int(n) for n in self.base.shape)
        self.ndim = self.base.ndim
        self.backend = backend
        self.plan: tuple[Materialization, ...] = tuple(plan)
        self.cuboids: list[MaterializedCuboid] = []
        for chosen in plan:
            if not chosen.key:
                raise ValueError("cannot materialize the empty cuboid")
            if chosen.key[-1] >= self.ndim:
                raise ValueError(
                    f"cuboid {chosen.key} exceeds a {self.ndim}-d cube"
                )
            dropped = tuple(
                j for j in range(self.ndim) if j not in set(chosen.key)
            )
            structure = chosen.index_spec().build(
                self.base.sum(axis=dropped) if dropped else self.base,
                backend=scope if dropped else AdoptingBackend(scope),
            )
            self.cuboids.append(
                MaterializedCuboid(chosen.key, structure, not dropped)
            )

    @classmethod
    def from_accumulated(
        cls,
        base: np.ndarray,
        plan: Sequence[Materialization],
        structures: Sequence[BlockedPrefixSumCube],
        backend: ArrayBackend | None = None,
    ) -> MaterializedCuboidSet:
        """Assemble a set whose structures were built elsewhere.

        The streaming ingest builder (:mod:`repro.ingest`) accumulates
        every cuboid's group-by cells in one pass over the record stream
        and finalizes each structure in place; this constructor adopts
        those structures — and the base cube, *without* the copy
        ``__init__`` takes (the set owns and writes it until a
        :meth:`rebase`) — so an out-of-core build never holds a second
        ``N``-cell array.

        Args:
            base: The accumulated base cube (adopted as-is; for spilled
                ingests this is a memmap).
            plan: The materializations, aligned with ``structures``.
            structures: One built structure per plan entry.
            backend: The backend the accumulators were allocated
                through; retained so :meth:`release` can reclaim the
                whole build.
        """
        plan = tuple(plan)
        if len(plan) != len(structures):
            raise ValueError(
                f"{len(plan)} materializations but {len(structures)} "
                "built structures"
            )
        base = np.asarray(base)
        self = cls.__new__(cls)
        self.base = base
        self.owns_base = True
        self.shape = tuple(int(n) for n in base.shape)
        self.ndim = base.ndim
        self.backend = backend
        self.plan = plan
        self.cuboids = [
            MaterializedCuboid(chosen.key, structure)
            for chosen, structure in zip(plan, structures)
        ]
        return self

    def release(self) -> int:
        """Retire this set's backend-held arrays (spill files, handles).

        Drops the structures (so the mapped memory can be reclaimed by
        refcounting) and releases the backend the set was built through.
        Only call on a set whose backend is *not* shared with live
        structures — the serving layer builds every set through its own
        :meth:`~repro.index.ArrayBackend.subscope` precisely so a
        superseded plan can be reclaimed without touching the engine's
        arrays.  Returns the number of spill files released.
        """
        self.cuboids.clear()
        if self.backend is None:
            return 0
        return self.backend.release()

    @property
    def storage_cells(self) -> int:
        """Auxiliary cells held across every materialized structure."""
        return sum(c.structure.storage_cells for c in self.cuboids)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, query: RangeQuery) -> MaterializedCuboid | None:
        """The cheapest materialized ancestor for a query, if any.

        Candidates are cuboids whose dimension set covers every dimension
        the query constrains; the model cost ``2^{d_c} + S·F(b_c)`` (with
        the query's own surface) picks among them — the same rule the
        selector's cost accounting uses.
        """
        key = query.cuboid_key(self.shape)
        best: tuple[float, MaterializedCuboid] | None = None
        surface = self._query_surface(query)
        for cuboid in self.cuboids:
            if not is_ancestor(cuboid.key, key):
                continue
            cost = 2.0 ** len(cuboid.key) + surface * (
                boundary_cells_per_surface(cuboid.block_size)
            )
            if best is None or cost < best[0]:
                best = (cost, cuboid)
        return None if best is None else best[1]

    def covering(self, dims: Sequence[int]) -> MaterializedCuboid | None:
        """The smallest materialized cuboid whose key covers ``dims``.

        A SUM group-by is distributive, so any ancestor's group-by
        array reduces to the ``dims`` roll-up; the fewest cells is the
        cheapest reduce.
        """
        key = tuple(dims)
        return min(
            (c for c in self.cuboids if is_ancestor(c.key, key)),
            key=lambda c: c.structure.source.size,
            default=None,
        )

    def _query_surface(self, query: RangeQuery) -> float:
        lengths = [
            float(spec.length(n))
            for spec, n in zip(query.specs, self.shape)
            if spec.kind is not SpecKind.ALL
        ]
        if not lengths:
            return 0.0
        volume = 1.0
        for x in lengths:
            volume *= x
        return sum(2.0 * volume / x for x in lengths)

    def _project_query(
        self, query: RangeQuery, cuboid: MaterializedCuboid
    ) -> Box:
        """The query's box in a cuboid's own (reduced) coordinates.

        Dimensions of the cuboid the query leaves at ``all`` span their
        full extent; dimensions the query constrains carry their resolved
        bounds.  Dimensions *outside* the cuboid were summed out during
        materialization, which is exactly what ``all`` means.
        """
        lo = []
        hi = []
        for position, j in enumerate(cuboid.key):
            bounds = query.specs[j].resolve(self.shape[j])
            size = cuboid.structure.shape[position]
            assert size == self.shape[j]
            lo.append(bounds[0])
            hi.append(bounds[1])
        return Box(tuple(lo), tuple(hi))

    def range_sum(
        self,
        query: RangeQuery,
        counter: AccessCounter = NULL_COUNTER,
    ) -> object:
        """Answer a range-sum via the routed cuboid (or a base scan)."""
        if query.ndim != self.ndim:
            raise ValueError(
                f"query has {query.ndim} dims, cube has {self.ndim}"
            )
        cuboid = self.route(query)
        if cuboid is None:
            box = query.to_box(self.shape)
            counter.count_cube(box.volume)
            return self.base[box.slices()].sum()
        return cuboid.structure.range_sum(
            self._project_query(query, cuboid), counter
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def apply_updates(self, updates: Sequence[PointUpdate]) -> None:
        """Propagate a batch of base-cube point updates to every
        materialized cuboid (§5 run per structure).

        The base is staged and written once
        (:func:`~repro.core.batch_update.write_batch`), here when the set
        owns it (else its owner already has).  Each update projects onto
        a cuboid by dropping the summed-out coordinates; the merged
        deltas go ``⊕`` into the cuboid's own group-by array, and the
        structure's ``absorb`` repairs its prefix array.
        """
        from repro.core.batch_update import PointUpdate, merge_changes, write_batch
        from repro.kernels import resolve_kernel

        if self.owns_base:
            write_batch(self.base, updates)
        for cuboid in self.cuboids:
            structure = cuboid.structure
            projected = [
                PointUpdate(tuple(u.index[j] for j in cuboid.key), u.delta)
                for u in updates
            ]
            changes = merge_changes(projected, structure.shape, structure.operator)
            if not cuboid.shares_base:
                deltas = np.array([u.delta for u in changes.updates])
                resolve_kernel().scatter(
                    structure.source.reshape(-1), changes.flat, deltas,
                    structure.operator,
                )
            structure.absorb(changes)

    def rebase(self, base: np.ndarray) -> None:
        """Hand the base to its owner: read ``base`` — equal to the
        current base — from now on, in the set and every cuboid that
        reads the base itself, and leave writing it to the owner (how a
        served cube adopts a set, and how a set built from a snapshot of
        the live base is installed over it)."""
        self.base = base
        self.owns_base = False
        for cuboid in self.cuboids:
            if cuboid.shares_base:
                cuboid.structure.source = base
