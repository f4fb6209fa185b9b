"""The ingest plan: what to build, in what dtype, under what budget.

An :class:`IngestPlan` names the cube shape, the measure dtype, and the
set of §9 cuboids whose dense cells the one-pass accumulators should
populate alongside the base cube.  It also owns the *accumulator memory
model*: :meth:`IngestPlan.accumulator_bytes` prices the resident cost of
every accumulator up front, and :meth:`IngestPlan.make_backend` spills
the whole build through a :class:`~repro.index.MemmapBackend` whenever
that price exceeds ``budget_bytes`` — so a cube larger than RAM (or
larger than the budget an operator grants the ingest) builds with
bounded resident footprint instead of an OOM kill mid-scan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.index.backend import ArrayBackend, MemmapBackend, MemoryBackend
from repro.optimizer.cuboid_selection import Materialization


def group_by_dtype(measure_dtype: object) -> np.dtype:
    """The dtype of a cuboid's group-by cells for a given measure dtype.

    Matches ``base.sum(axis=dropped)`` exactly — numpy's default sum
    promotion (``int8 → int64``, ``uint8 → uint64``, floats unchanged) —
    so a streamed cuboid accumulator is bit-compatible with the arrays
    :class:`~repro.optimizer.materialize.MaterializedCuboidSet` computes
    from an in-memory base cube.
    """
    return np.zeros((1,), dtype=np.dtype(measure_dtype)).sum(axis=0).dtype


@dataclass(frozen=True)
class IngestPlan:
    """One streaming build: shape, measure, cuboids, memory budget.

    Attributes:
        shape: The base cube's shape (records outside it are an
            :class:`~repro.ingest.IngestError`).
        cuboids: §9 materializations whose group-by cells the single
            pass accumulates alongside the base cube (aggregation is
            SUM, exactly like
            :class:`~repro.optimizer.materialize.MaterializedCuboidSet`).
        measure_dtype: Base-cube dtype records accumulate into
            (duplicate records for one cell add up, so pick a dtype with
            headroom; integer kinds ``iuf`` only).
        budget_bytes: Resident-accumulator budget; when the plan's
            accumulators outgrow it the build spills through a
            :class:`~repro.index.MemmapBackend` under
            ``spill_directory``.  ``None`` means unbounded (in-memory).
        spill_directory: Where spilled builds put their ``.npy`` files;
            required when a budgeted plan actually spills.
        batch_rows: Advisory batch size for sources the plan opens.
    """

    shape: tuple[int, ...]
    cuboids: tuple[Materialization, ...] = ()
    measure_dtype: str = "int64"
    budget_bytes: int | None = None
    spill_directory: str | os.PathLike[str] | None = field(
        default=None, compare=False
    )
    batch_rows: int = 65536

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        if not shape or any(n < 1 for n in shape):
            raise ValueError(f"shape must have positive extents, got {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cuboids", tuple(self.cuboids))
        dtype = np.dtype(self.measure_dtype)
        if dtype.kind not in "iuf":
            raise ValueError(
                f"measure dtype must be integer or float, got {dtype}"
            )
        ndim = len(shape)
        for chosen in self.cuboids:
            if not chosen.key:
                raise ValueError("cannot accumulate the empty cuboid")
            if any(not 0 <= j < ndim for j in chosen.key):
                raise ValueError(
                    f"cuboid {chosen.key} exceeds a {ndim}-d cube"
                )

    # ------------------------------------------------------------------
    # Accumulator memory model
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def base_dtype(self) -> np.dtype:
        """The base accumulator's dtype (= the measure dtype)."""
        return np.dtype(self.measure_dtype)

    @property
    def group_dtype(self) -> np.dtype:
        """The cuboid accumulators' dtype (numpy sum promotion)."""
        return group_by_dtype(self.base_dtype)

    def cuboid_shape(self, key: Sequence[int]) -> tuple[int, ...]:
        """A cuboid's dense group-by shape in base coordinates."""
        return tuple(self.shape[j] for j in key)

    def accumulator_bytes(self) -> int:
        """Total bytes of every dense accumulator the plan allocates.

        The base cube in the measure dtype plus the group-by cells, in
        the sum-promoted dtype, of each cuboid that drops a dimension (a
        cuboid over every dimension reads the base) — the resident price
        of the one-pass build before any finalize structure is added.
        """
        total = int(np.prod(self.shape)) * self.base_dtype.itemsize
        for chosen in self.cuboids:
            if len(chosen.key) < self.ndim:
                cells = int(np.prod(self.cuboid_shape(chosen.key)))
                total += cells * self.group_dtype.itemsize
        return total

    @property
    def spills(self) -> bool:
        """Whether the accumulators outgrow the configured budget."""
        return (
            self.budget_bytes is not None
            and self.accumulator_bytes() > self.budget_bytes
        )

    def make_backend(self) -> ArrayBackend:
        """The backend the memory model selects for this build."""
        if not self.spills:
            return MemoryBackend()
        if self.spill_directory is None:
            raise ValueError(
                f"plan needs {self.accumulator_bytes()} accumulator "
                f"bytes, over the {self.budget_bytes}-byte budget, but "
                "no spill_directory is configured"
            )
        return MemmapBackend(Path(self.spill_directory), tag="ingest")


def plan_cuboids(
    shape: Sequence[int],
    keys: Sequence[Sequence[int]],
    block_size: int = 8,
) -> tuple[Materialization, ...]:
    """Convenience: uniform-block materializations for a list of keys.

    The §9 selector produces richer plans; this helper covers the CLI
    and test cases where the cuboid list is given by hand.
    """
    shape = tuple(int(n) for n in shape)
    chosen = []
    for key in keys:
        key_t = tuple(sorted(int(j) for j in key))
        cells = 1.0
        for j in key_t:
            cells *= -(-shape[j] // block_size)  # ceil division
        chosen.append(
            Materialization(key=key_t, block_size=int(block_size), space=cells)
        )
    return tuple(chosen)
