"""Zero-downtime adaptive physical design: the loop's actuator.

The closed loop this module completes:

1. **observe** — every served query and update lands in the cube's
   :class:`~repro.query.observer.WorkloadObserver` (a bounded,
   decay-weighted window over live traffic);
2. **decide** — each cycle, :func:`~repro.optimizer.advisor.re_advise`
   re-runs the §9 selection against the window with the incumbent plan
   as warm start and Theorem-2 update costs in the objective, yielding a
   :class:`~repro.optimizer.advisor.DesignDelta` gated by hysteresis;
3. **actuate** — when the delta clears the gate, the controller builds
   the candidate :class:`~repro.optimizer.materialize.MaterializedCuboidSet`
   *off the event loop* and hot-swaps it in without dropping a request.

The hot-swap protocol (the part that makes "zero downtime" true rather
than aspirational):

* under the cube's **read lock**: snapshot the base cube (the build's
  input only) and switch on *pending-update recording*
  (``cube.pending_design_updates = []``).
  The read lock excludes writers, so the copy and the recording switch
  are atomic with respect to ``/update`` — no delta can land between
  them and be lost;
* **off-loop build**: the candidate set is built from the copy on the
  service's worker pool, so queries and updates keep flowing during
  the seconds a large build can take.  Any ``/update`` accepted meanwhile mutates the
  *live* tiers normally and is also appended to the recording list
  (under the write lock, inside :meth:`QueryService._apply_update`);
* under the **write lock**: replay the recorded updates into the new
  set's cuboids (:meth:`~repro.optimizer.materialize.MaterializedCuboidSet.absorb`:
  the live base already holds them), point the set at that base
  (:meth:`~repro.optimizer.materialize.MaterializedCuboidSet.rebase`),
  install it as ``cube.cuboids``, bump the generation, and invalidate
  the result cache.  The write lock drains in-flight reads
  (including coalesced batches running on pool threads), so no reader
  ever observes half a swap, and replay-then-install means the new plan
  answers are bit-identical to the old plan's from its first request —
  the invariant ``tests/serving/test_adaptive.py`` pins down.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from repro.index.backend import AdoptingBackend, resolve_backend
from repro.optimizer.advisor import DesignDelta
from repro.optimizer.materialize import MaterializedCuboidSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.service import QueryService, ServedCube


class SwapInFlight(RuntimeError):
    """A second actuation was attempted while one is still building."""


class AdaptiveController:
    """Periodically re-plan every served cube and hot-swap improvements.

    Args:
        service: The service whose cubes this controller tunes.  Its
            config sets the cycle interval (``adaptive_interval_s``) and
            every planning knob (see :meth:`QueryService.plan_delta`).

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  :meth:`step` runs one advisory cycle for
    one cube synchronously-awaitable, which is what the tests drive
    instead of sleeping through wall-clock intervals.
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self.interval_s = service.config.adaptive_interval_s
        self.cycles = 0
        self.swaps = 0
        self.holds = 0
        self.last_error: str | None = None
        self._task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the background advisory loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.create_task(
                self._loop(), name="repro-adaptive"
            )

    async def stop(self) -> None:
        """Cancel the loop and wait for it to unwind."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def __aenter__(self) -> AdaptiveController:
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            await self.run_cycle()

    # ------------------------------------------------------------------
    # One advisory cycle
    # ------------------------------------------------------------------

    async def run_cycle(self) -> dict[str, DesignDelta]:
        """Advise (and possibly swap) every healthy cube once.

        A failure on one cube is recorded in :attr:`last_error` and does
        not stop the cycle for the others — a controller crash must
        never take query serving down with it.
        """
        deltas: dict[str, DesignDelta] = {}
        for name in list(self.service.cubes):
            try:
                delta = await self.step(name)
            except Exception as exc:  # noqa: BLE001 — isolate per cube
                self.last_error = f"{name}: {type(exc).__name__}: {exc}"
                continue
            if delta is not None:
                deltas[name] = delta
        self.cycles += 1
        return deltas

    async def step(self, name: str) -> DesignDelta | None:
        """One observe→decide→(maybe) actuate pass for one cube.

        Returns the delta the advisor produced, or ``None`` when the
        cube is unknown, quarantined, or mid-swap already.
        """
        cube = self.service.cubes.get(name)
        if (
            cube is None
            or not cube.healthy
            or cube.pending_design_updates is not None
        ):
            return None
        snapshot = cube.observer.snapshot()
        loop = asyncio.get_running_loop()
        delta = await loop.run_in_executor(
            self.service._ensure_executor(),
            lambda: self.service.plan_delta(cube, snapshot),
        )
        if delta.should_swap:
            await self.actuate(cube, delta)
        else:
            self.holds += 1
        return delta

    # ------------------------------------------------------------------
    # Actuation (the hot swap)
    # ------------------------------------------------------------------

    async def actuate(self, cube: ServedCube, delta: DesignDelta) -> None:
        """Build ``delta.candidate`` off-loop and install it atomically.

        See the module docstring for the full protocol.  Raises
        :class:`SwapInFlight` if a build for this cube is already
        running; any build failure clears the recording switch and
        re-raises, leaving the incumbent serving untouched.
        """
        if cube.pending_design_updates is not None:
            raise SwapInFlight(
                f"cube {cube.name!r} already has a rebuild in flight"
            )
        async with cube.rwlock.read_locked():
            # Atomic with respect to /update: writers are excluded, so
            # every update after this point is recorded for replay.
            base_snapshot = cube.base.copy()
            cube.pending_design_updates = []
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        # Each rebuild allocates through its own subscope of the cube's
        # design backend, so the plan it supersedes can be released
        # (spill files deleted, handle tracking dropped) the moment the
        # swap lands — without per-swap scoping, a long-lived adaptive
        # service leaks one plan's worth of memmap handles and on-disk
        # bytes per swap.
        build_backend = None
        if cube.design_backend is not None:
            cube.design_generation += 1
            build_backend = cube.design_backend.subscope(
                f"design-g{cube.design_generation}"
            )
        try:
            # Adopting: the set reads the snapshot, not a copy of it,
            # until ``rebase`` points it at the live base.
            candidate = await loop.run_in_executor(
                self.service._ensure_executor(),
                lambda: MaterializedCuboidSet(
                    base_snapshot,
                    delta.candidate,
                    backend=AdoptingBackend(resolve_backend(build_backend)),
                ),
            )
        except BaseException:
            cube.pending_design_updates = None
            if build_backend is not None:
                build_backend.release()
            raise
        build_s = time.perf_counter() - started
        async with cube.rwlock.write_locked():
            pending = cube.pending_design_updates or []
            if pending:
                candidate.absorb(pending)
            candidate.rebase(cube.base)
            cube.pending_design_updates = None
            superseded = cube.cuboids
            cube.cuboids = candidate
            cube.generation += 1
            self.service.cache.invalidate_cube(cube.name)
        # Reclaim the superseded plan outside the write lock: release
        # only unlinks files and drops references (readers that raced
        # the swap keep their mapped pages until their refs die), so it
        # needs no exclusion.
        released_files = 0 if superseded is None else superseded.release()
        self.swaps += 1
        cube.swap_history.append(
            {
                "at": time.time(),
                "generation": cube.generation,
                "build_s": build_s,
                "replayed_updates": len(pending),
                "released_files": released_files,
                "plan": [
                    {"key": list(m.key), "block_size": m.block_size}
                    for m in delta.candidate
                ],
                "builds": len(delta.builds),
                "drops": len(delta.drops),
                "resizes": len(delta.resizes),
                "gain": delta.gain,
                "improvement_ratio": delta.improvement_ratio,
            }
        )

    def stats(self) -> dict:
        """Controller counters (surfaced by ``python -m repro.serving``)."""
        return {
            "interval_s": self.interval_s,
            "cycles": self.cycles,
            "swaps": self.swaps,
            "holds": self.holds,
            "running": self._task is not None and not self._task.done(),
            "last_error": self.last_error,
        }
