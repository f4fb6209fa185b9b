"""Differential tests: served answers ≡ direct engine answers, bit for bit.

Scenarios come from the fuzz harness's generator
(:func:`repro.verify.scenarios.scenario_for` /
:func:`~repro.verify.driver.build_source`), so cube shapes, dtypes, and
backends sweep the same adversarial space the verification suite covers
and every value is exactly representable — equality below is ``==``, not
``approx``.  The reference :class:`RangeQueryEngine` is built
*independently* of the service's, so agreement is end-to-end: parsing,
routing, coalescing, caching, and updates all have to preserve the
engine's answers exactly.
"""

from __future__ import annotations

import asyncio
import itertools

import numpy as np
import pytest

from repro._util import Box
from repro.core.batch_update import PointUpdate
from repro.index.backend import MemmapBackend
from repro.query import RangeQueryEngine
from repro.serving.service import QueryService, ServeConfig
from repro.verify.driver import build_source
from repro.verify.scenarios import scenario_for

SEEDS = range(10)

BOX_TAG = 0x5E12F
UPDATE_TAG = 0x5E12E


def random_box(rng: np.random.Generator, shape) -> Box:
    lo, hi = [], []
    for size in shape:
        a = int(rng.integers(0, size))
        b = int(rng.integers(0, size))
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Box(tuple(lo), tuple(hi))


def empty_box(rng: np.random.Generator, shape) -> Box:
    box = random_box(rng, shape)
    lo, hi = list(box.lo), list(box.hi)
    dim = int(rng.integers(0, len(shape)))
    lo[dim] = int(rng.integers(1, shape[dim] + 1))
    hi[dim] = lo[dim] - 1
    return Box(tuple(lo), tuple(hi))


def to_ranges(box: Box) -> list:
    return [[int(lo), int(hi)] for lo, hi in zip(box.lo, box.hi)]


def _updatable(dtype: np.dtype) -> bool:
    """Dtypes whose served point updates this test exercises.

    Bool and unsigned cubes need dtype-aware delta envelopes (the fuzz
    harness's update steps own that coverage); here we drive the serving
    path with plain signed deltas.
    """
    return dtype.kind in ("i", "f")


async def _compare_scalars(service, engine, boxes, *, generation):
    """Ask sum/count/average for every box concurrently (coalescing on)
    and compare each answer to the direct engine call, exactly."""
    for op in ("sum", "count", "average"):
        served = await asyncio.gather(
            *(
                service.query(
                    {"cube": "t", "op": op, "ranges": to_ranges(box)}
                )
                for box in boxes
            )
        )
        direct = [getattr(engine, op)(box) for box in boxes]
        for box, got, want in zip(boxes, served, direct):
            assert got["value"] == want, (
                f"{op} over {box} diverged: served {got['value']!r} "
                f"(tier {got['tier']}) vs engine {want!r}"
            )
            assert got["generation"] == generation


async def _compare_witnesses(service, engine, boxes):
    """MAX/MIN: values must match exactly; witnesses must be valid."""
    for op in ("max", "min"):
        for box in boxes:
            if box.is_empty:
                continue
            got = await service.query(
                {"cube": "t", "op": op, "ranges": to_ranges(box)}
            )
            index, value = getattr(engine, op)(box)
            assert got["value"] == value, (
                f"{op} over {box}: served {got['value']!r} vs "
                f"engine {value!r}"
            )
            served_cell = service.cubes["t"].base[
                tuple(got["index"])
            ]
            assert served_cell == value  # any argmax/argmin witness


def _kbox_rollup(shape, dims) -> tuple[np.ndarray, np.ndarray]:
    """The roll-up as one full-extent box per kept coordinate."""
    ranks = np.indices([shape[d] for d in dims]).reshape(len(dims), -1).T
    lows = np.zeros((len(ranks), len(shape)), dtype=np.int64)
    highs = np.tile(np.asarray(shape, dtype=np.int64) - 1, (len(ranks), 1))
    lows[:, dims] = highs[:, dims] = ranks
    return lows, highs


async def _compare_rollups(service, engine, shadow):
    """Every non-empty dims subset, against a numpy reduce of ``shadow``
    (a copy the service never sees) and, on exact dtypes, against the
    engine's K-box batch over the same grid."""
    ndim = shadow.ndim
    exact = shadow.dtype.kind in "biu"
    reduce_dtype = {"u": np.uint64, "f": np.float64}.get(
        shadow.dtype.kind, np.int64
    )
    for size in range(1, ndim + 1):
        for dims in itertools.combinations(range(ndim), size):
            rest = tuple(j for j in range(ndim) if j not in dims)
            want = shadow.sum(axis=rest, dtype=reduce_dtype)
            for op in ("sum", "count", "average") if exact else ("sum",):
                got = await service.rollup(
                    {"cube": "t", "op": op, "dims": list(dims)}
                )
                if op == "sum":
                    assert got["values"] == want.reshape(-1).tolist(), dims
                if exact:
                    lows, highs = _kbox_rollup(shadow.shape, dims)
                    kbox = getattr(engine, f"{op}_many")(lows, highs)
                    assert got["values"] == kbox.tolist(), (op, dims)


@pytest.mark.parametrize("seed", SEEDS)
def test_served_equals_engine(seed, tmp_path) -> None:
    scenario = scenario_for("prefix_sum", seed)
    assert scenario is not None  # prefix_sum always has a fuzz profile
    source = build_source(scenario)
    backend = (
        MemmapBackend(tmp_path) if scenario.backend == "memmap" else None
    )
    engine = RangeQueryEngine(source.copy())
    shadow = source.copy()
    service = QueryService(
        ServeConfig(coalesce_window_s=0.002, coalesce_max_batch=64)
    )
    service.register_cube("t", source, backend=backend)

    rng = np.random.default_rng([BOX_TAG, seed])
    boxes = [random_box(rng, scenario.shape) for _ in range(10)]
    boxes += [empty_box(rng, scenario.shape) for _ in range(2)]

    async def drive() -> None:
        await _compare_scalars(service, engine, boxes, generation=0)
        await _compare_witnesses(service, engine, boxes)
        # Second pass: answers now come from the cache and must still
        # be identical.
        await _compare_scalars(service, engine, boxes, generation=0)
        assert service.cache.stats()["hits"] > 0
        await _compare_rollups(service, engine, shadow)

        if _updatable(source.dtype):
            update_rng = np.random.default_rng([UPDATE_TAG, seed])
            updates = []
            for _ in range(5):
                index = tuple(
                    int(update_rng.integers(0, n))
                    for n in scenario.shape
                )
                delta = int(update_rng.integers(-9, 10))
                updates.append({"index": list(index), "delta": delta})
            await service.update({"cube": "t", "updates": updates})
            engine.apply_updates(
                [
                    PointUpdate(tuple(u["index"]), u["delta"])
                    for u in updates
                ]
            )
            for u in updates:
                shadow[tuple(u["index"])] += u["delta"]
            # Post-update: stale cache entries must not leak through.
            await _compare_scalars(service, engine, boxes, generation=1)
            await _compare_witnesses(service, engine, boxes)
            await _compare_rollups(service, engine, shadow)

    asyncio.run(drive())
    # The concurrent asks really did coalesce into shared gathers.
    assert service.coalescer.largest_batch >= 2
    assert service.coalescer.batches < service.coalescer.submitted


def test_served_equals_engine_with_counts_cube(tmp_path) -> None:
    """AVERAGE with a real counts cube: the (sum, count) pair end to end."""
    rng = np.random.default_rng(0xAB5E)
    data = rng.integers(-40, 41, size=(6, 7, 4)).astype(np.int64)
    counts = rng.integers(0, 4, size=data.shape).astype(np.int64)
    engine = RangeQueryEngine(data.copy(), counts=counts.copy())
    service = QueryService(ServeConfig(coalesce_window_s=0.001))
    service.register_cube("t", data, counts=counts)

    boxes = [random_box(rng, data.shape) for _ in range(12)]

    async def drive() -> None:
        await _compare_scalars(service, engine, boxes, generation=0)
        await service.update(
            {
                "cube": "t",
                "updates": [{"index": [2, 3, 1], "delta": 17}],
                "count_updates": [{"index": [2, 3, 1], "delta": 2}],
            }
        )
        engine.apply_updates(
            [PointUpdate((2, 3, 1), 17)],
            [PointUpdate((2, 3, 1), 2)],
        )
        await _compare_scalars(service, engine, boxes, generation=1)

    asyncio.run(drive())


def test_coalesced_and_per_query_dispatch_agree() -> None:
    """Window on vs window off must not change a single answer."""
    rng = np.random.default_rng(0xC0A1)
    data = rng.integers(-30, 31, size=(9, 9, 5)).astype(np.int64)
    coalesced = QueryService(ServeConfig(coalesce_window_s=0.002))
    direct = QueryService(ServeConfig(coalesce_window_s=0.0))
    coalesced.register_cube("t", data)
    direct.register_cube("t", data)
    boxes = [random_box(rng, data.shape) for _ in range(16)]

    async def ask(service) -> list:
        results = await asyncio.gather(
            *(
                service.query(
                    {"cube": "t", "op": "sum", "ranges": to_ranges(box)}
                )
                for box in boxes
            )
        )
        return [r["value"] for r in results]

    a = asyncio.run(ask(coalesced))
    b = asyncio.run(ask(direct))
    assert a == b
    assert coalesced.coalescer.largest_batch >= 2
    assert direct.coalescer.batches == 0
