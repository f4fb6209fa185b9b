"""One-pass dense accumulators: record batches in, cuboid cells out.

The streaming build's core trick: instead of materializing the base cube
and then scanning it once per §9 cuboid (``k + 1`` full passes), a
:class:`MultiCuboidAccumulator` scatters every record batch into the
base accumulator *and* each cuboid's group-by accumulator as it arrives.
One pass over the source populates every dense cell array; the finalize
step then runs the ordinary in-place prefix-sum construction over each
accumulator (:mod:`repro.ingest.build`).

All accumulators are allocated through an
:class:`~repro.index.ArrayBackend`, so a plan over budget spills its
cells to ``.npy`` files and the scatter writes stream through the page
cache.  The base accumulator lives in ``backend.subscope("base")`` and
cuboid cells in ``backend.subscope("cuboids")``: a finished
:class:`~repro.optimizer.materialize.MaterializedCuboidSet` can retire
its structures without deleting the base cube's spill file, and an
aborted build can release everything it allocated without touching
sibling builds that share the caller's root backend.

Aggregation is SUM — the same aggregate
:class:`~repro.optimizer.materialize.MaterializedCuboidSet` computes
with ``base.sum(axis=dropped)`` — and the cuboid dtype matches numpy's
sum promotion (:func:`repro.ingest.plan.group_by_dtype`), so for integer
measures a streamed build is bit-identical to the in-memory one.
"""

from __future__ import annotations

import numpy as np

from repro.index.backend import ArrayBackend
from repro.ingest.batches import IngestError, RecordBatch
from repro.ingest.plan import IngestPlan


def _scatter_add(flat: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``flat[indices] += values`` with duplicate indices accumulating.

    ``np.add.at`` is the unbuffered form — plain fancy-indexed ``+=``
    silently drops all but one contribution per duplicated cell.
    """
    np.add.at(flat, indices, values.astype(flat.dtype, copy=False))


def validate_batch(batch: RecordBatch, plan: IngestPlan) -> np.ndarray:
    """Check one batch against the plan; returns its coordinate array.

    Raises :class:`IngestError` on a dimensionality mismatch or any
    coordinate outside the cube — *before* anything is scattered, so a
    bad batch never half-applies.
    """
    coords = batch.coords
    if coords.shape[1] != plan.ndim:
        raise IngestError(
            f"batch has {coords.shape[1]}-d coordinates, plan shape "
            f"is {plan.ndim}-d"
        )
    extent = np.asarray(plan.shape, dtype=np.int64)
    out_of_range = (coords < 0) | (coords >= extent)
    if out_of_range.any():
        row = int(np.argwhere(out_of_range.any(axis=1))[0, 0])
        raise IngestError(
            f"record coordinate {tuple(int(c) for c in coords[row])} "
            f"outside cube shape {plan.shape}"
        )
    return coords


class CuboidAccumulator:
    """Dense group-by cells for one cuboid, filled batch by batch."""

    def __init__(
        self,
        name: str,
        key: tuple[int, ...],
        shape: tuple[int, ...],
        dtype: np.dtype,
        backend: ArrayBackend,
    ) -> None:
        self.key = key
        self.shape = shape
        self.cells = backend.empty(name, shape, dtype)
        self.cells[...] = 0
        self._flat = self.cells.reshape(-1)

    def absorb(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Scatter one batch (base-coordinate ``coords``) into the cells."""
        projected = coords[:, self.key]
        flat_index = np.ravel_multi_index(tuple(projected.T), self.shape)
        _scatter_add(self._flat, flat_index, values)


class MultiCuboidAccumulator:
    """The whole plan's accumulators, absorbing each batch exactly once.

    Args:
        plan: What to build (shape, cuboids, dtypes).
        backend: Root array backend; ``None`` asks the plan's memory
            model (:meth:`IngestPlan.make_backend`) to pick one.
    """

    def __init__(self, plan: IngestPlan, backend: ArrayBackend | None = None) -> None:
        self.plan = plan
        #: Whether this build created its root backend (via the plan's
        #: memory model) or was handed one the caller may be sharing
        #: with other builds — releasing a shared root would unlink
        #: *their* live spill files too.
        self.owns_backend = backend is None
        self.backend = plan.make_backend() if backend is None else backend
        #: Cuboid cells (and later their finalize structures) live in a
        #: child scope so the finished set can be retired independently
        #: of the base accumulator.
        self.cuboid_scope = self.backend.subscope("cuboids")
        #: The base accumulator gets its own child scope as well, so the
        #: abort path can tear this build down without ever calling
        #: ``release()`` on a root backend it does not own.
        self.base_scope = self.backend.subscope("base")
        self.base = self.base_scope.empty("base", plan.shape, plan.base_dtype)
        self.base[...] = 0
        self._base_flat = self.base.reshape(-1)
        #: One accumulator per cuboid that drops a dimension, in plan
        #: order; a cuboid over every dimension reads ``base`` itself.
        self.cuboids: list[CuboidAccumulator] = [
            CuboidAccumulator(
                "cuboid-" + "-".join(str(j) for j in chosen.key),
                chosen.key,
                plan.cuboid_shape(chosen.key),
                plan.group_dtype,
                self.cuboid_scope,
            )
            for chosen in plan.cuboids
            if len(chosen.key) < plan.ndim
        ]
        self.rows = 0
        self.batches = 0

    def absorb(self, batch: RecordBatch) -> None:
        """Validate one batch and scatter it into every accumulator."""
        coords = validate_batch(batch, self.plan)
        flat_index = np.ravel_multi_index(tuple(coords.T), self.plan.shape)
        _scatter_add(self._base_flat, flat_index, batch.values)
        for accumulator in self.cuboids:
            accumulator.absorb(coords, batch.values)
        self.rows += batch.rows
        self.batches += 1

    def flush(self) -> None:
        """Sync every accumulator scope's dirty pages to disk."""
        self.cuboid_scope.flush()
        self.base_scope.flush()
        self.backend.flush()

    def release(self) -> int:
        """Tear this build down (abort path): its own scopes only.

        A caller-provided root backend may be shared with sibling
        builds, so only the scopes *this* accumulator created are
        released; the root itself is released only when this build made
        it (``backend=None`` → :meth:`IngestPlan.make_backend`).
        """
        self.cuboids.clear()
        released = self.cuboid_scope.release() + self.base_scope.release()
        if self.owns_backend:
            released += self.backend.release()
        return released
