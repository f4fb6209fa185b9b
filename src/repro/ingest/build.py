"""Driving a streaming build end to end: absorb, finalize, assemble.

:func:`ingest` is the tentpole path — **one pass** over the record
stream fills every accumulator (:mod:`repro.ingest.accumulate`), then
each cuboid's finalize step runs the ordinary registry construction over
its cells *in place* (through an :class:`~repro.index.AdoptingBackend`,
so no accumulator is copied) and the results assemble into a servable
:class:`~repro.optimizer.materialize.MaterializedCuboidSet`.  Building
each array independently would cost one full pass over the source per
array (the base plus each cuboid, ``k + 1`` scans); the ``ingest-build``
workload of ``benchmarks/e2e`` measures the one-pass path end to end.

Failure atomicity: any error mid-stream (malformed batch, out-of-range
record, a source that dies halfway) releases every accumulator scope
before re-raising, so an aborted ingest leaves no partial spill files
behind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterable
from typing import Any

from repro.index.backend import (
    AdoptingBackend,
    ArrayBackend,
    MemmapBackend,
)
from repro.ingest.accumulate import MultiCuboidAccumulator
from repro.ingest.batches import RecordBatch
from repro.ingest.plan import IngestPlan
from repro.optimizer.materialize import MaterializedCuboidSet


@dataclass
class IngestResult:
    """A finished streaming build.

    Attributes:
        cuboid_set: The servable set (its own backend is the cuboid
            scope, so ``cuboid_set.release()`` retires the structures
            without deleting the base cube's spill file).
        plan: The plan that was executed.
        backend: The *root* backend the build allocated through.  Both
            accumulator scopes are children of it, so it doubles as the
            served cube's design backend.
        base_backend: The child scope holding the base accumulator's
            spill file (``backend.subscope("base")``).
        rows: Records absorbed.
        batches: Batches absorbed.
        spilled: Whether the build went through a
            :class:`~repro.index.MemmapBackend`.
    """

    cuboid_set: MaterializedCuboidSet
    plan: IngestPlan
    backend: ArrayBackend
    base_backend: ArrayBackend
    rows: int
    batches: int
    spilled: bool

    def release(self) -> int:
        """Tear down this build: structures, base, spill files.

        Releases only the scopes the build created — never the root
        backend, which the caller may share with sibling builds.
        """
        released = self.cuboid_set.release()
        return released + self.base_backend.release()

    def describe(self) -> dict[str, Any]:
        """A plain-dict summary for CLIs and logs."""
        return {
            "rows": self.rows,
            "batches": self.batches,
            "shape": list(self.plan.shape),
            "cuboids": [list(c.key) for c in self.plan.cuboids],
            "spilled": self.spilled,
            "accumulator_bytes": self.plan.accumulator_bytes(),
            "backend": self.backend.describe(),
            "base_backend": self.base_backend.describe(),
        }


def _finalize(
    accumulator: MultiCuboidAccumulator,
) -> tuple[MaterializedCuboidSet, AdoptingBackend]:
    """Build each cuboid's structure over its cells, without copying.

    The adopting backend hands the accumulated cells straight to the
    structure constructor (``materialize`` becomes adoption) while any
    *fresh* arrays a structure needs — a blocked-partial's positions,
    say — still allocate in the cuboid scope, so everything the finished
    set owns releases as one unit.  A cuboid over every dimension is
    built over the base accumulator, as
    :class:`~repro.optimizer.MaterializedCuboidSet` builds it over ``A``.
    """
    plan = accumulator.plan
    adopting = AdoptingBackend(accumulator.cuboid_scope)
    group_bys = iter(accumulator.cuboids)
    structures = [
        chosen.index_spec().build(
            accumulator.base
            if len(chosen.key) == plan.ndim
            else next(group_bys).cells,
            backend=adopting,
        )
        for chosen in plan.cuboids
    ]
    cuboid_set = MaterializedCuboidSet.from_accumulated(
        accumulator.base, plan.cuboids, structures, backend=adopting
    )
    return cuboid_set, adopting


def ingest(
    batches: Iterable[RecordBatch],
    plan: IngestPlan,
    backend: ArrayBackend | None = None,
) -> IngestResult:
    """One pass over ``batches`` → a servable materialized cuboid set.

    Args:
        batches: Record batches (e.g. from
            :func:`repro.ingest.open_batches`).  Consumed exactly once.
        plan: What to build.
        backend: Root array backend; ``None`` lets the plan's memory
            model choose (spilling through a memmap when the
            accumulators outgrow ``plan.budget_bytes``).
    """
    accumulator = MultiCuboidAccumulator(plan, backend)
    try:
        for batch in batches:
            accumulator.absorb(batch)
        cuboid_set, adopting = _finalize(accumulator)
        accumulator.flush()
        adopting.flush()
    except BaseException:
        accumulator.release()
        raise
    return IngestResult(
        cuboid_set=cuboid_set,
        plan=plan,
        backend=accumulator.backend,
        base_backend=accumulator.base_scope,
        rows=accumulator.rows,
        batches=accumulator.batches,
        spilled=isinstance(accumulator.backend, MemmapBackend),
    )


def in_memory_reference(
    batches: Iterable[RecordBatch], plan: IngestPlan
) -> MaterializedCuboidSet:
    """The non-streaming reference: densify, then ``__init__`` as usual.

    Materializes the full base cube in memory and lets
    :class:`MaterializedCuboidSet` compute every group-by with
    ``base.sum(axis=dropped)`` — the differential oracle the ingest
    tests compare streamed builds against, bit for bit (integer
    measures).
    """
    dense_plan = replace(plan, cuboids=(), budget_bytes=None)
    accumulator = MultiCuboidAccumulator(dense_plan, backend=None)
    for batch in batches:
        accumulator.absorb(batch)
    return MaterializedCuboidSet(accumulator.base, plan.cuboids)
