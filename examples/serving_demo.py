"""Serving demo: an OLAP dashboard backend over HTTP in one process.

Starts the async query service (``repro.serving``) on an ephemeral port,
registers a sales cube with a materialized-cuboid plan behind it, and
plays a dashboard's worth of traffic through the real HTTP stack:
scalar range queries (coalesced into shared batch gathers), a slice, a
roll-up, cache-hit repeats, and a point update that invalidates the
cache.  Every served answer is verified against numpy brute force.

Run:
    python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.optimizer.cuboid_selection import Materialization
from repro.serving import (
    QueryService,
    ServeConfig,
    ServingClient,
    ServingServer,
)


def build_sales_cube() -> np.ndarray:
    """24 months × 8 regions × 6 product lines of unit sales."""
    rng = np.random.default_rng(7_1997)
    return rng.integers(0, 500, size=(24, 8, 6)).astype(np.int64)


async def run_dashboard(sales: np.ndarray) -> None:
    service = QueryService(
        ServeConfig(coalesce_window_s=0.002, cache_capacity=256)
    )
    # A materialized month×region cuboid serves fully-covering SUM
    # queries from the smaller aggregate; everything else routes to the
    # prefix-sum index, with naive scans as the safety net.
    service.register_cube(
        "sales",
        sales,
        plan=[Materialization(key=(0, 1), block_size=1, space=0.0)],
    )
    server = ServingServer(service)
    await server.start()
    print(f"serving on {server.host}:{server.port}")

    try:
        async with ServingClient(server.host, server.port) as client:
            # 1. A burst of scalar asks, fired concurrently the way a
            #    dashboard fans out its tiles — one connection per tile
            #    so the asks are truly simultaneous, and the coalescer
            #    merges them into shared sum_many gathers.  Each tile
            #    constrains the product dimension, so the month×region
            #    cuboid can't serve it and the asks hit the prefix-sum
            #    index, where coalescing applies.
            async def ask_tile(lo: int, hi: int) -> dict:
                async with ServingClient(
                    server.host, server.port
                ) as tile:
                    return await tile.query(
                        "sales", [[lo, hi], None, [0, 2]]
                    )

            windows = [(lo, lo + 5) for lo in range(0, 16, 3)]
            results = await asyncio.gather(
                *(ask_tile(lo, hi) for lo, hi in windows)
            )
            for (lo, hi), result in zip(windows, results):
                want = int(sales[lo : hi + 1, :, 0:3].sum())
                assert result["value"] == want, (result, want)
                print(
                    f"months {lo:2d}–{hi:2d}, products 0–2: total "
                    f"{result['value']:>8}  (tier: {result['tier']})"
                )
            stats = await client.stats()
            batches = stats["coalescer"]["batches"]
            submitted = stats["coalescer"]["submitted"]
            print(
                f"coalescer: {submitted} asks served by {batches} "
                f"engine gathers"
            )
            assert batches < submitted

            # A query the month×region cuboid *can* cover (full product
            # extent) routes to the smaller materialized aggregate.
            covered = await client.query("sales", [[0, 11], [0, 3], None])
            assert covered["value"] == int(sales[0:12, 0:4].sum())
            assert covered["tier"] == "materialized"
            print(
                f"H1 totals for regions 0–3: {covered['value']} "
                f"(tier: {covered['tier']})"
            )

            # 2. A slice (sugar over /query) and a roll-up (one reduce
            #    of the smallest cuboid or cube that holds it).
            sliced = await client.slice("sales", {1: 3})
            assert sliced["value"] == int(sales[:, 3, :].sum())
            print(f"region 3 all-time total: {sliced['value']}")

            rolled = await client.rollup("sales", [2])
            assert rolled["values"] == sales.sum(axis=(0, 1)).tolist()
            print(f"per-product totals: {rolled['values']}")

            # 3. Re-asking a tile's window hits the result cache.
            repeat = await client.query("sales", [[0, 5], None, [0, 2]])
            assert repeat["tier"] == "cache" and repeat["cached"]
            print("repeat ask answered from the result cache")

            # 4. A late-arriving fact: one point update invalidates the
            #    cache and propagates through every tier.
            sales[3, 2, 1] += 250
            updated = await client.update(
                "sales", [{"index": [3, 2, 1], "delta": 250}]
            )
            assert updated["generation"] == 1
            fresh = await client.query("sales", [[0, 5], None, None])
            assert fresh["value"] == int(sales[0:6].sum())
            assert not fresh["cached"]
            print(
                f"after update: months 0–5 total {fresh['value']} "
                f"(generation {fresh['generation']})"
            )
    finally:
        await server.stop()


def main() -> None:
    sales = build_sales_cube()
    asyncio.run(run_dashboard(sales))
    print("\nall served answers verified against numpy brute force")


if __name__ == "__main__":
    main()
