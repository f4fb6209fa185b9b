"""The adaptive controller: hot swaps under live traffic, bit for bit.

The load-bearing guarantee: a plan swap is *invisible* in served
answers.  Queries racing the swap (including coalesced batches running
on pool threads) and updates landing mid-build must all come back
exactly as an untouched reference engine answers them.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.optimizer.materialize import MaterializedCuboidSet
from repro.serving import AdaptiveController, SwapInFlight
from repro.serving.service import QueryService, ServeConfig

SHAPE = (24, 24, 8)


def make_service(**overrides) -> QueryService:
    config = ServeConfig(
        coalesce_window_s=overrides.pop("coalesce_window_s", 0.0),
        adaptive_min_weight=4.0,
        observer_decay=overrides.pop("observer_decay", 1.0),
        **overrides,
    )
    service = QueryService(config)
    rng = np.random.default_rng(0xADA5)
    service.register_cube(
        "c", rng.integers(0, 50, size=SHAPE, dtype=np.int64)
    )
    return service


def hot_payload(i: int) -> dict:
    lo = i % 8
    return {
        "cube": "c",
        "op": "sum",
        "ranges": [[lo, lo + 11], [lo, lo + 11], None],
    }


async def drive_hot_traffic(service: QueryService, n: int = 40) -> None:
    for i in range(n):
        await service.query(hot_payload(i))


def expected(service: QueryService, payload: dict) -> int:
    base = service.cubes["c"].base
    slices = tuple(
        slice(None) if r is None else slice(r[0], r[1] + 1)
        for r in payload["ranges"]
    )
    return int(base[slices].sum())


class TestControllerCycle:
    def test_step_swaps_once_then_holds(self) -> None:
        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)
            first = await controller.step("c")
            assert first is not None and first.should_swap
            assert service.cubes["c"].plan
            assert controller.swaps == 1
            second = await controller.step("c")
            assert second is not None and not second.should_swap
            assert controller.holds == 1
            assert len(service.cubes["c"].swap_history) == 1
            await service.close()

        asyncio.run(main())

    def test_step_skips_unknown_and_quarantined(self) -> None:
        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            assert await controller.step("nope") is None
            service.cubes["c"].healthy = False
            assert await controller.step("c") is None
            await service.close()

        asyncio.run(main())

    def test_run_cycle_isolates_per_cube_failures(self) -> None:
        async def main() -> None:
            service = make_service()
            await drive_hot_traffic(service)
            plan_delta = service.plan_delta

            def failing_plan_delta(cube, snapshot):
                return plan_delta(cube, snapshot, hysteresis=0.5)

            service.plan_delta = failing_plan_delta  # type: ignore[method-assign]
            controller = AdaptiveController(service)
            deltas = await controller.run_cycle()
            assert deltas == {}
            assert controller.last_error is not None
            assert controller.last_error.startswith("c:")
            assert "hysteresis" in controller.last_error
            assert controller.cycles == 1
            await service.close()

        asyncio.run(main())

    def test_background_loop_start_stop(self) -> None:
        async def main() -> None:
            service = make_service(adaptive_interval_s=0.01)
            async with AdaptiveController(service) as controller:
                await drive_hot_traffic(service)
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if controller.swaps:
                        break
            assert controller.swaps >= 1
            assert not controller.stats()["running"]
            await service.close()

        asyncio.run(main())


class TestHotSwapDifferential:
    def test_answers_identical_across_mid_traffic_swap(self) -> None:
        """Queries racing the swap agree exactly with direct numpy."""

        async def main() -> None:
            service = make_service(coalesce_window_s=0.002)
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)

            async def ask(i: int) -> None:
                payload = hot_payload(i)
                want = expected(service, payload)
                result = await service.query(payload)
                assert result["value"] == want, payload

            # Fire a wave of concurrent queries (coalescer on) and the
            # swap in the same gather: requests overlap the build, the
            # write-locked install, and both plans' serving windows.
            before = service.cubes["c"].generation
            await asyncio.gather(
                *(ask(i) for i in range(32)),
                controller.step("c"),
                *(ask(i) for i in range(32, 64)),
            )
            assert controller.swaps == 1
            assert service.cubes["c"].generation == before + 1
            # And the new plan serves the same numbers afterwards.
            for i in range(16):
                payload = hot_payload(i)
                result = await service.query(payload)
                assert result["value"] == expected(service, payload)
            await service.close()

        asyncio.run(main())

    def test_updates_during_build_are_replayed(self) -> None:
        """Deltas accepted while the new set builds appear in it."""

        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)
            delta = service.plan_delta(
                service.cubes["c"], service.cubes["c"].observer.snapshot()
            )
            assert delta.should_swap

            build_started = asyncio.Event()
            release_build = threading.Event()
            loop = asyncio.get_running_loop()
            real_build = MaterializedCuboidSet

            class SlowBuild(MaterializedCuboidSet):
                def __init__(self, *args, **kwargs):
                    loop.call_soon_threadsafe(build_started.set)
                    assert release_build.wait(10.0)
                    real_build.__init__(self, *args, **kwargs)

            import repro.serving.adaptive as adaptive_module

            adaptive_module.MaterializedCuboidSet = SlowBuild
            try:
                cube = service.cubes["c"]
                swap = asyncio.create_task(
                    controller.actuate(cube, delta)
                )
                await build_started.wait()
                assert cube.pending_design_updates is not None
                # Updates land on the LIVE tiers while the build blocks.
                await service.update(
                    {
                        "cube": "c",
                        "updates": [
                            {"index": [0, 0, 0], "delta": 7},
                            {"index": [5, 5, 1], "delta": -3},
                        ],
                    }
                )
                assert len(cube.pending_design_updates) == 2
                release_build.set()
                await swap
            finally:
                adaptive_module.MaterializedCuboidSet = real_build
            assert cube.pending_design_updates is None
            assert cube.swap_history[-1]["replayed_updates"] == 2
            # The materialized tier saw the mid-build deltas: a query
            # covering the updated cells matches the mutated base.
            payload = {
                "cube": "c",
                "op": "sum",
                "ranges": [[0, 6], [0, 6], None],
            }
            result = await service.query(payload)
            assert result["tier"] == "materialized"
            assert result["value"] == expected(service, payload)
            await service.close()

        asyncio.run(main())

    def test_second_actuation_while_building_is_refused(self) -> None:
        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)
            cube = service.cubes["c"]
            delta = service.plan_delta(cube, cube.observer.snapshot())
            cube.pending_design_updates = []  # simulate in-flight build
            with pytest.raises(SwapInFlight):
                await controller.actuate(cube, delta)
            cube.pending_design_updates = None
            await service.close()

        asyncio.run(main())

    def test_failed_build_leaves_incumbent_serving(self) -> None:
        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)
            cube = service.cubes["c"]
            delta = service.plan_delta(cube, cube.observer.snapshot())

            import repro.serving.adaptive as adaptive_module

            real_build = MaterializedCuboidSet

            def boom(*args, **kwargs):
                raise RuntimeError("allocator on fire")

            adaptive_module.MaterializedCuboidSet = boom
            try:
                with pytest.raises(RuntimeError, match="on fire"):
                    await controller.actuate(cube, delta)
            finally:
                adaptive_module.MaterializedCuboidSet = real_build
            assert cube.pending_design_updates is None
            assert cube.cuboids is None  # incumbent (none) untouched
            payload = hot_payload(0)
            result = await service.query(payload)
            assert result["value"] == expected(service, payload)
            await service.close()

        asyncio.run(main())


class TestEndpoints:
    def test_advise_dry_run_does_not_actuate(self) -> None:
        async def main() -> None:
            service = make_service()
            await drive_hot_traffic(service)
            out = await service.advise({"cube": "c"})
            assert out["delta"]["should_swap"]
            assert out["delta"]["builds"]
            assert out["window"]["window_queries"] == 40
            assert service.cubes["c"].plan == ()  # nothing happened
            await service.close()

        asyncio.run(main())

    def test_advise_accepts_overrides_and_rejects_junk(self) -> None:
        from repro.serving.errors import BadRequest

        async def main() -> None:
            service = make_service()
            await drive_hot_traffic(service)
            held = await service.advise(
                {"cube": "c", "hysteresis": 1e9}
            )
            assert not held["delta"]["should_swap"]
            with pytest.raises(BadRequest, match="hysteresis"):
                await service.advise({"cube": "c", "hysteresis": 0.2})
            with pytest.raises(BadRequest, match="space_budget"):
                await service.advise(
                    {"cube": "c", "space_budget": "lots"}
                )
            await service.close()

        asyncio.run(main())

    def test_rollup_after_advise_and_swap(self) -> None:
        """The swapped-in cuboids answer roll-ups, updates included."""

        async def main() -> None:
            service = make_service()
            shadow = service.cubes["c"].base.copy()
            await drive_hot_traffic(service)
            advice = await service.advise({"cube": "c"})
            assert advice["delta"]["should_swap"]
            await AdaptiveController(service).step("c")
            keys = [set(m.key) for m in service.cubes["c"].plan]
            assert keys
            update = {"index": [3, 5, 1], "delta": 7}
            await service.update({"cube": "c", "updates": [update]})
            shadow[3, 5, 1] += 7
            for dims in ([0], [1], [2], [0, 1], [1, 0], [0, 2], [1, 2]):
                got = await service.rollup({"cube": "c", "dims": dims})
                rest = tuple(j for j in range(3) if j not in dims)
                want = np.transpose(
                    shadow.sum(axis=rest), np.argsort(np.argsort(dims))
                )
                assert got["values"] == want.reshape(-1).tolist(), dims
                covered = any(set(dims) <= key for key in keys)
                assert got["tier"] == (
                    "materialized" if covered else "indexed"
                ), dims
            await service.close()

        asyncio.run(main())

    def test_design_view_reports_swap_history(self) -> None:
        import json

        async def main() -> None:
            service = make_service()
            controller = AdaptiveController(service)
            await drive_hot_traffic(service)
            await controller.step("c")
            view = service.describe_design()["c"]
            assert view["plan"]
            assert len(view["swap_history"]) == 1
            assert not view["swap_in_flight"]
            assert view["predicted_tier_cost"]["materialized"] < (
                view["predicted_tier_cost"]["fallback"]
            )
            json.dumps(view)  # wire-ready
            await service.close()

        asyncio.run(main())

    def test_http_surface_serves_advise_and_design(self) -> None:
        from repro.serving.client import ServingClient
        from repro.serving.http import ServingServer

        async def main() -> None:
            service = make_service()
            await drive_hot_traffic(service)
            server = ServingServer(service)
            await server.start()
            client = ServingClient("127.0.0.1", server.port)
            try:
                await client.connect()
                advised = await client.request(
                    "POST", "/advise", {"cube": "c"}
                )
                assert advised["delta"]["should_swap"]
                design = await client.request("GET", "/design")
                assert "c" in design
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(main())


def drift_requests(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    hot_dims: tuple[int, ...],
    count: int,
    update_fraction: float = 0.0,
) -> list[tuple[str, dict]]:
    """Seeded ``(path, body)`` traffic whose hot cuboid is ``hot_dims``.

    Queries constrain each hot dimension to a sub-range of about 40 % of
    its extent and leave the rest at ``all``; ``update_fraction`` of the
    requests are ``/update`` posts of four random point deltas.
    """
    requests: list[tuple[str, dict]] = []
    for _ in range(count):
        if rng.random() < update_fraction:
            updates = [
                {
                    "index": [int(rng.integers(0, n)) for n in shape],
                    "delta": int(rng.integers(1, 10)),
                }
                for _ in range(4)
            ]
            requests.append(("/update", {"cube": "c", "updates": updates}))
            continue
        ranges: list[object] = []
        for dim, extent in enumerate(shape):
            if dim not in hot_dims:
                ranges.append(None)
                continue
            length = max(
                1, min(extent, round(0.4 * extent * rng.uniform(0.5, 1.5)))
            )
            lo = int(rng.integers(0, extent - length + 1))
            ranges.append([lo, lo + length - 1])
        requests.append(
            ("/query", {"cube": "c", "op": "sum", "ranges": ranges})
        )
    return requests


class TestDrift:
    """Traffic moves from the <d0, d1> cuboid to <d1, d2> plus updates."""

    def test_readvising_after_drift_beats_frozen_plan(self) -> None:
        """The adaptive loop's deterministic payoff, under one model.

        Both plans are scored by the advisor's own update-aware
        objective over the post-drift window: the plan tuned for the
        warm-up traffic must cost >= 1.5x the re-stepped plan per unit
        query weight.  Requests run one at a time, so the window (and
        the ratio) does not depend on timing.
        """
        shape = (48, 48, 24)

        async def main() -> float:
            service = QueryService(
                ServeConfig(
                    coalesce_window_s=0.0,
                    cache_capacity=0,
                    observer_decay=0.97,
                    adaptive_min_weight=4.0,
                )
            )
            rng = np.random.default_rng(1997)
            service.register_cube(
                "c", rng.integers(0, 1000, size=shape, dtype=np.int64)
            )
            controller = AdaptiveController(service)

            async def replay(requests: list[tuple[str, dict]]) -> None:
                for path, body in requests:
                    if path == "/update":
                        await service.update(body)
                    else:
                        await service.query(body)

            await replay(drift_requests(rng, shape, (0, 1), 150))
            await controller.step("c")
            await replay(drift_requests(rng, shape, (1, 2), 150, 0.1))
            cube = service.cubes["c"]
            snapshot = cube.observer.snapshot()

            def mean_cost() -> float:
                delta = service.plan_delta(cube, snapshot)
                return delta.incumbent_cost / snapshot.query_weight

            frozen = mean_cost()
            await controller.step("c")
            adaptive = mean_cost()
            assert controller.swaps == 2
            await service.close()
            return frozen / adaptive

        assert asyncio.run(main()) >= 1.5

    def test_drift_over_http_triggers_adaptation(self) -> None:
        from repro.serving.client import ServingClient
        from repro.serving.http import ServingServer

        async def send(port: int, requests: list[tuple[str, dict]]) -> None:
            """Four keep-alive clients at once; any non-2xx raises."""

            async def worker(share: list[tuple[str, dict]]) -> None:
                async with ServingClient("127.0.0.1", port) as client:
                    for path, body in share:
                        await client.request("POST", path, body)

            await asyncio.gather(
                *(worker(requests[i::4]) for i in range(4))
            )

        async def main() -> None:
            service = make_service(observer_decay=0.97)
            controller = AdaptiveController(service)
            server = ServingServer(service)
            await server.start()
            try:
                rng = np.random.default_rng(11)
                await send(
                    server.port, drift_requests(rng, SHAPE, (0, 1), 60)
                )
                first = await controller.step("c")
                assert first is not None and first.should_swap
                await send(
                    server.port,
                    drift_requests(rng, SHAPE, (1, 2), 120, 0.1),
                )
                await controller.step("c")
                history = service.cubes["c"].swap_history
                assert len(history) >= 1
            finally:
                await server.stop()

        asyncio.run(main())


class TestSwapResourceReclamation:
    """The memmap-leak regression: N hot swaps on a spill-backed cube
    must not accumulate spill files, on-disk bytes, or live mappings —
    each swap releases the plan it supersedes."""

    @staticmethod
    def _spill_state(root) -> tuple[int, int]:
        files = sorted(root.rglob("*.npy"))
        return len(files), sum(p.stat().st_size for p in files)

    @staticmethod
    def _mapped_spill_segments(root) -> int:
        import gc

        gc.collect()
        maps = Path("/proc/self/maps")
        if not maps.exists():  # pragma: no cover - non-Linux
            return 0
        return sum(
            1
            for line in maps.read_text().splitlines()
            if str(root) in line
        )

    def test_swaps_stabilize_handles_and_disk(self, tmp_path) -> None:
        from repro.index.backend import MemmapBackend
        from repro.optimizer.advisor import DesignDelta
        from repro.optimizer.cuboid_selection import Materialization

        spill = tmp_path / "design"
        plans = [
            (Materialization((0, 1), 4, 36.0),),
            (
                Materialization((1, 2), 4, 24.0),
                Materialization((0,), 8, 3.0),
            ),
        ]

        async def main() -> None:
            service = QueryService(ServeConfig(coalesce_window_s=0.0))
            rng = np.random.default_rng(0xCAFE)
            data = rng.integers(0, 50, size=SHAPE, dtype=np.int64)
            backend = MemmapBackend(spill)
            service.register_cube(
                "c", data, backend=backend, plan=plans[0], indexed=False
            )
            cube = service.cubes["c"]
            controller = AdaptiveController(service)
            payload = {
                "cube": "c",
                "op": "sum",
                "ranges": [[2, 13], [1, 9], None],
            }
            want = expected(service, payload)
            states: dict[int, list] = {0: [], 1: []}
            for i in range(6):
                candidate = plans[(i + 1) % 2]
                delta = DesignDelta(
                    shape=SHAPE,
                    incumbent=cube.plan,
                    candidate=candidate,
                    incumbent_cost=1000.0,
                    candidate_cost=10.0,
                    build_cost=1.0,
                    hysteresis=1.0,
                )
                await controller.actuate(cube, delta)
                # Served answers unaffected by the swap.
                response = await service.query(payload)
                assert response["value"] == want
                # Every surviving spill file belongs to the *current*
                # generation's subscope — nothing from older plans.
                current = f"design-g{cube.design_generation}"
                for path in spill.rglob("*.npy"):
                    assert current in str(path), path
                states[(i + 1) % 2].append(
                    (
                        self._spill_state(spill),
                        self._mapped_spill_segments(spill),
                    )
                )
            # Same plan -> same file count, same bytes, same number of
            # live mappings, every time it is re-installed: nothing
            # accumulates across swaps.
            for parity in (0, 1):
                assert len(set(states[parity])) == 1, states[parity]
            history = cube.swap_history
            assert all(h["released_files"] > 0 for h in history[1:])
            await service.close()

        asyncio.run(main())

    def test_failed_build_releases_its_scope(self, tmp_path) -> None:
        from repro.index.backend import MemmapBackend
        from repro.optimizer.advisor import DesignDelta
        from repro.optimizer.cuboid_selection import Materialization

        async def main() -> None:
            service = QueryService(ServeConfig(coalesce_window_s=0.0))
            rng = np.random.default_rng(7)
            data = rng.integers(0, 50, size=SHAPE, dtype=np.int64)
            spill = tmp_path / "design"
            service.register_cube(
                "c",
                data,
                backend=MemmapBackend(spill),
                plan=[Materialization((0, 1), 4, 36.0)],
                indexed=False,
            )
            cube = service.cubes["c"]
            controller = AdaptiveController(service)
            before = self._spill_state(spill)
            bad = DesignDelta(
                shape=SHAPE,
                incumbent=cube.plan,
                # Key beyond the cube's dimensionality: the build raises.
                candidate=(Materialization((0, 7), 4, 1.0),),
                incumbent_cost=10.0,
                candidate_cost=1.0,
                build_cost=0.1,
                hysteresis=1.0,
            )
            with pytest.raises(ValueError):
                await controller.actuate(cube, bad)
            assert cube.pending_design_updates is None
            assert self._spill_state(spill) == before
            await service.close()

        asyncio.run(main())
