"""Overload behavior: explicit shedding, deadlines, bounded admitted latency."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.serving import (
    QueryService,
    ServeConfig,
    ServingClient,
    ServingClientError,
    ServingServer,
)
from repro.serving.errors import Overloaded, QueryTimeout


def _slow_service(
    *,
    delay_s: float,
    max_inflight: int,
    max_queue: int,
    timeout_s: float = 30.0,
    workers: int = 2,
) -> QueryService:
    """A service whose every scalar execution sleeps on a worker thread.

    ``offload_cells=0`` forces execution off the event loop, so queries
    genuinely occupy their admission slots while the controller fields
    the rest of the burst.
    """
    rng = np.random.default_rng(0x10AD)
    data = rng.integers(0, 9, size=(6, 6)).astype(np.int64)
    service = QueryService(
        ServeConfig(
            coalesce_window_s=0.0,
            cache_capacity=0,
            max_inflight=max_inflight,
            max_queue=max_queue,
            timeout_s=timeout_s,
            offload_cells=0,
            executor_workers=workers,
        )
    )
    service.register_cube("c", data)
    real = service.router.run_scalar

    def slow(*args, **kwargs):
        time.sleep(delay_s)
        return real(*args, **kwargs)

    service.router.run_scalar = slow  # type: ignore[method-assign]
    return service


PAYLOAD = {"cube": "c", "op": "sum", "ranges": [[0, 5], [0, 5]]}


def test_burst_beyond_queue_is_shed_explicitly() -> None:
    service = _slow_service(delay_s=0.05, max_inflight=2, max_queue=2)

    async def burst() -> list:
        return await asyncio.gather(
            *(service.query(dict(PAYLOAD)) for _ in range(20)),
            return_exceptions=True,
        )

    results = asyncio.run(burst())
    shed = [r for r in results if isinstance(r, Overloaded)]
    completed = [r for r in results if isinstance(r, dict)]
    # The whole burst lands in one tick: 2 slots + 2 queue seats admit
    # exactly 4; the other 16 are declined up front, not queued.
    assert len(completed) == 4
    assert len(shed) == 16
    assert all(r["value"] == completed[0]["value"] for r in completed)
    stats = service.admission.stats()
    assert stats["shed"] == 16
    assert stats["peak_inflight"] == 2
    assert stats["peak_queued"] == 2
    assert stats["inflight"] == 0 and stats["queued"] == 0


def test_admitted_latency_stays_bounded_under_overload() -> None:
    delay = 0.03
    service = _slow_service(delay_s=delay, max_inflight=2, max_queue=2)

    async def burst() -> list[float]:
        async def timed() -> float | None:
            started = time.perf_counter()
            try:
                await service.query(dict(PAYLOAD))
            except Overloaded:
                return None
            return time.perf_counter() - started

        samples = await asyncio.gather(*(timed() for _ in range(30)))
        return [s for s in samples if s is not None]

    latencies = asyncio.run(burst())
    assert latencies
    # Worst case for an admitted request: wait out the in-flight pair
    # plus the queue ahead of it — a few delay quanta, never the whole
    # burst. Generous factor for slow CI machines.
    assert max(latencies) < delay * 4 + 1.0


def test_deadline_expiry_maps_to_timeout() -> None:
    service = _slow_service(
        delay_s=0.5, max_inflight=1, max_queue=4, timeout_s=0.05, workers=1
    )

    async def run() -> None:
        with pytest.raises(QueryTimeout):
            await service.query(dict(PAYLOAD))
        assert service.admission.stats()["timeouts"] == 1
        # The slot was not leaked by the cancelled request.
        assert service.admission.inflight == 0

    asyncio.run(run())


def test_shed_requests_surface_as_429_over_http() -> None:
    service = _slow_service(delay_s=0.02, max_inflight=1, max_queue=1)

    async def drive() -> tuple[list[int], list[float]]:
        server = ServingServer(service)
        await server.start()
        statuses: list[int] = []
        latencies: list[float] = []

        async def one_connection() -> None:
            async with ServingClient(server.host, server.port) as client:
                for _ in range(8):
                    started = time.perf_counter()
                    try:
                        await client.request("POST", "/query", PAYLOAD)
                    except ServingClientError as exc:
                        statuses.append(exc.status)
                        continue
                    latencies.append(time.perf_counter() - started)
                    statuses.append(200)

        try:
            await asyncio.gather(*(one_connection() for _ in range(8)))
        finally:
            await server.stop()
        return statuses, latencies

    statuses, latencies = asyncio.run(drive())
    # Under 8-way pressure on a 1+1 service, some requests are shed
    # with an explicit 429 and the rest complete normally.
    assert len(statuses) == 64
    assert set(statuses) == {200, 429}
    # Bounded latency for the admitted requests.
    assert max(latencies) < 5.0
