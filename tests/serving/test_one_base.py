"""One base array per served cube.

Every tier of a registered cube — the engine's routes, the materialized
cuboid set, the fallback scan — reads the same base (and counts) array,
and an update writes it exactly once.  The checks: no route or cuboid
holds a cube-shaped measure array of its own, and after a batch with
duplicate indexes the base, every tier's answers and a shadow array
agree (a second write of the base would double those deltas).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.index.backend import MemmapBackend, _backing_memmap
from repro.ingest import IngestPlan, batches_from_cube, ingest, plan_cuboids
from repro.optimizer.advisor import DesignDelta
from repro.optimizer.cuboid_selection import Materialization
from repro.serving import AdaptiveController
from repro.serving.service import QueryService, ServeConfig, ServedCube

SHAPE = (12, 10, 8)
BLOCKED = {"sum_index": "blocked_prefix_sum", "sum_params": {"block_size": 8}}
CUBOIDS = ((0, 1), (1, 2))
#: Arrays a structure derives from the cube (never a measure copy).
DERIVED = {"prefix", "_batch_prefix"}


def _data() -> np.ndarray:
    rng = np.random.default_rng(0xBA5E)
    return rng.integers(0, 50, size=SHAPE, dtype=np.int64)


def _held_measure_arrays(structure: object) -> list[tuple[str, np.ndarray]]:
    """Cube-shaped measure arrays a structure holds as attributes."""
    return [
        (name, value)
        for name, value in vars(structure).items()
        if isinstance(value, np.ndarray)
        and value.shape == SHAPE
        and name not in DERIVED
    ]


def assert_one_base(cube: ServedCube) -> None:
    """Every cube-shaped measure array of every tier is the base/counts."""
    if cube.engine is not None:
        for aggregate in ("sum", "count", "max", "min"):
            route = cube.engine.route(aggregate)
            if route is None:
                continue
            owner = cube.counts if aggregate == "count" else cube.base
            held = _held_measure_arrays(route.index)
            assert held, f"{aggregate} route holds no source array"
            for name, array in held:
                assert np.shares_memory(array, owner), (aggregate, name)
    if cube.cuboids is not None:
        assert np.shares_memory(cube.cuboids.base, cube.base)
        for cuboid in cube.cuboids.cuboids:
            for name, array in _held_measure_arrays(cuboid.structure):
                assert np.shares_memory(array, cube.base), (cuboid.key, name)


def _ingested(
    data: np.ndarray, spill: object, cuboids: tuple = CUBOIDS
) -> dict:
    backend = None if spill is None else MemmapBackend(spill)
    plan = IngestPlan(shape=SHAPE, cuboids=plan_cuboids(SHAPE, cuboids, 2))
    result = ingest(batches_from_cube(data), plan, backend=backend)
    return {
        "cuboid_set": result.cuboid_set,
        "backend": result.backend,
        **BLOCKED,
    }


async def _swapped(service: QueryService) -> None:
    """An /advise round plus a hot swap to a plan with a cuboid over
    every dimension (the one cuboid that reads the base itself)."""
    await service.advise({"cube": "c"})
    cube = service.cubes["c"]
    await AdaptiveController(service).actuate(
        cube,
        DesignDelta(
            shape=SHAPE,
            incumbent=cube.plan,
            candidate=(
                Materialization((0, 1, 2), 4, 0.0),
                Materialization((1,), 2, 0.0),
            ),
            incumbent_cost=1000.0,
            candidate_cost=10.0,
            build_cost=1.0,
            hysteresis=1.0,
        ),
    )


REGISTRATIONS = {
    "default": lambda data, tmp: {"cube": data},
    "blocked": lambda data, tmp: {"cube": data, **BLOCKED},
    "counts": lambda data, tmp: {
        "cube": data,
        "counts": np.ones(SHAPE, dtype=np.int64),
        **BLOCKED,
    },
    "plan": lambda data, tmp: {
        "cube": data,
        "plan": [Materialization(key, 2, 0.0) for key in CUBOIDS],
        **BLOCKED,
    },
    "ingest-memory": lambda data, tmp: _ingested(data, None),
    "ingest-memmap": lambda data, tmp: _ingested(data, tmp / "spill"),
    # A plan with the cuboid over every dimension: it reads the base.
    "ingest-full-cuboid": lambda data, tmp: _ingested(
        data, None, ((0, 1, 2), (1, 2))
    ),
    "ingest-full-cuboid-memmap": lambda data, tmp: _ingested(
        data, tmp / "spill", ((0, 1, 2), (1, 2))
    ),
    "advise-swap": lambda data, tmp: {
        "cube": data,
        "plan": [Materialization((0, 1), 2, 0.0)],
        **BLOCKED,
    },
    "plan-memmap": lambda data, tmp: {
        "cube": data,
        "plan": [Materialization(key, 2, 0.0) for key in CUBOIDS],
        "backend": MemmapBackend(tmp / "spill"),
        **BLOCKED,
    },
    "advise-swap-memmap": lambda data, tmp: {
        "cube": data,
        "plan": [Materialization((0, 1), 2, 0.0)],
        "backend": MemmapBackend(tmp / "spill"),
        **BLOCKED,
    },
    "no-engine": lambda data, tmp: {
        "cube": data,
        "indexed": False,
        "plan": [Materialization(key, 2, 0.0) for key in CUBOIDS],
    },
}


def assert_plan_spilled(cube: ServedCube) -> None:
    """Under a memmap design backend every cuboid that does not read the
    base keeps its group-by source out of core, not on the heap."""
    assert cube.cuboids is not None
    for cuboid in cube.cuboids.cuboids:
        if len(cuboid.key) < len(SHAPE):
            source = cuboid.structure.source
            assert _backing_memmap(source) is not None, cuboid.key


@pytest.mark.parametrize("registration", sorted(REGISTRATIONS))
def test_one_base_written_once(registration, tmp_path) -> None:
    data = _data()
    shadow = data.copy()
    service = QueryService(ServeConfig(coalesce_window_s=0.0))
    cube = service.register_cube(
        "c", **REGISTRATIONS[registration](data, tmp_path)
    )

    async def scenario() -> None:
        if registration.startswith("advise-swap"):
            await _swapped(service)
        assert_one_base(cube)
        if registration.endswith("-memmap"):
            assert_plan_spilled(cube)
        updates = [
            ((1, 2, 3), 7),
            ((1, 2, 3), -3),  # the same cell again
            ((0, 0, 0), 5),
            ((11, 9, 7), 2),
            ((0, 0, 0), 1),
        ]
        await service.update(
            {
                "cube": "c",
                "updates": [
                    {"index": list(index), "delta": delta}
                    for index, delta in updates
                ],
            }
        )
        for index, delta in updates:
            shadow[index] += delta
        assert np.array_equal(cube.base, shadow)
        assert_one_base(cube)
        seen = set()
        for ranges in (
            [[0, 11], [2, 7], None],  # dims {0, 1}: a covering cuboid
            [None, [1, 9], [2, 7]],  # dims {1, 2}
            [[1, 1], [2, 2], [3, 3]],
            [[0, 5], None, [0, 4]],
            [None, None, None],
        ):
            window = shadow[
                tuple(
                    slice(None) if r is None else slice(r[0], r[1] + 1)
                    for r in ranges
                )
            ]
            for op, want in (
                ("sum", window.sum()),
                ("max", window.max()),
                ("min", window.min()),
            ):
                got = await service.query(
                    {"cube": "c", "op": op, "ranges": ranges}
                )
                assert got["value"] == int(want), (op, ranges, got)
                seen.add(got["tier"])
        assert ("indexed" in seen) == (cube.engine is not None)
        if cube.cuboids is not None:
            assert "materialized" in seen
        await service.close()

    asyncio.run(scenario())
