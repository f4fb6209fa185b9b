"""Differential tests: served answers ≡ a numpy shadow ≡ direct engine
answers, bit for bit.

Scenarios come from the fuzz harness's generator
(:func:`repro.verify.scenarios.scenario_for` /
:func:`~repro.verify.driver.build_source`), so cube shapes, dtypes, and
backends sweep the same adversarial space the verification suite covers
and every value is exactly representable — equality below is ``==``, not
``approx``.  The truth is a numpy ``shadow`` copy the service never
sees; the reference :class:`RangeQueryEngine` is built *independently*
of the service's and kept as a cross-check.  Agreement is end-to-end:
parsing, routing, coalescing, caching, updates (accepted and rejected)
and plan swaps all have to preserve the answers exactly.
"""

from __future__ import annotations

import asyncio
import itertools

import numpy as np
import pytest

from repro._util import Box
from repro.core.batch_update import PointUpdate
from repro.index.backend import MemmapBackend
from repro.optimizer.advisor import DesignDelta
from repro.optimizer.cuboid_selection import Materialization
from repro.query import RangeQueryEngine
from repro.serving import AdaptiveController
from repro.serving.errors import BadRequest
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


def _exact_sum(window: np.ndarray) -> object:
    """``window``'s sum as the Python number the service must answer."""
    dtype = {"u": np.uint64, "f": np.float64}.get(window.dtype.kind, np.int64)
    return window.sum(dtype=dtype).item()


def _shadow_answer(shadow: np.ndarray, op: str, box: Box) -> object:
    """sum/count/average over ``box`` computed straight from ``shadow``."""
    window = shadow[box.slices()]
    total = _exact_sum(window)
    if op == "sum":
        return total
    if op == "count":
        return window.size
    return None if window.size == 0 else float(total) / float(window.size)


async def _compare_scalars(service, engine, boxes, *, generation, shadow=None):
    """Ask sum/count/average for every box concurrently (coalescing on)
    and compare each answer exactly to ``shadow`` (when given) and to the
    direct engine call."""
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
            if shadow is not None:
                truth = _shadow_answer(shadow, op, box)
                assert got["value"] == truth, (
                    f"{op} over {box}: served {got['value']!r} "
                    f"(tier {got['tier']}) vs shadow {truth!r}"
                )
            assert got["value"] == want, (
                f"{op} over {box} diverged: served {got['value']!r} "
                f"(tier {got['tier']}) vs engine {want!r}"
            )
            assert got["generation"] == generation


async def _compare_witnesses(service, engine, boxes, shadow):
    """MAX/MIN: values must match ``shadow`` and the engine exactly, and
    each witness must be a cell of the box holding that value."""
    for op in ("max", "min"):
        for box in boxes:
            if box.is_empty:
                continue
            got = await service.query(
                {"cube": "t", "op": op, "ranges": to_ranges(box)}
            )
            window = shadow[box.slices()]
            truth = window.max() if op == "max" else window.min()
            assert got["value"] == truth, (
                f"{op} over {box}: served {got['value']!r} vs "
                f"shadow {truth!r}"
            )
            index, value = getattr(engine, op)(box)
            assert got["value"] == value, (
                f"{op} over {box}: served {got['value']!r} vs "
                f"engine {value!r}"
            )
            witness = tuple(got["index"])
            assert box.contains_point(witness), (op, box, witness)
            assert shadow[witness] == truth  # any argmax/argmin witness


async def _compare_batches(service, boxes, shadow, generation):
    """``/query_batch``: one batch per operator, compared exactly to
    ``shadow``.  sum/count/average take every box, empty ones included;
    MAX/MIN take the non-empty boxes, each witness a cell of its box
    holding the value."""
    for op in ("sum", "count", "average", "max", "min"):
        rows = [
            box for box in boxes if op not in ("max", "min") or not box.is_empty
        ]
        got = await service.query_batch(
            {"cube": "t", "op": op, "queries": [to_ranges(b) for b in rows]}
        )
        assert got["generation"] == generation
        if op not in ("max", "min"):
            truth = [_shadow_answer(shadow, op, box) for box in rows]
            assert got["values"] == truth, (op, got["tier"])
            continue
        for box, value, index in zip(rows, got["values"], got["indices"]):
            window = shadow[box.slices()]
            truth = window.max() if op == "max" else window.min()
            assert value == truth, (op, box, got["tier"])
            witness = tuple(index)
            assert box.contains_point(witness), (op, box, witness)
            assert shadow[witness] == truth


async def _compare_slices(service, shadow):
    """``/slice`` fixing the first and the last dimension, against
    ``shadow`` with the same coordinates fixed."""
    ndim = shadow.ndim
    for dim in sorted({0, ndim - 1}):
        rank = shadow.shape[dim] // 2
        selector = [slice(None)] * ndim
        selector[dim] = rank
        window = shadow[tuple(selector)]
        for op, truth in (
            ("sum", _exact_sum(window)),
            ("max", window.max()),
        ):
            got = await service.slice(
                {"cube": "t", "op": op, "fixed": {str(dim): rank}}
            )
            assert got["value"] == truth, (op, dim, got)


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


async def _swap_plan(service, ndim: int) -> None:
    """An ``/advise`` round, then a hot swap to a plan with a cuboid over
    every dimension (the one cuboid that reads the base itself)."""
    await service.advise({"cube": "t"})
    cube = service.cubes["t"]
    await AdaptiveController(service).actuate(
        cube,
        DesignDelta(
            shape=cube.shape,
            incumbent=cube.plan,
            candidate=(
                Materialization(tuple(range(ndim)), 2, 0.0),
                Materialization((1,), 1, 0.0),
            ),
            incumbent_cost=1000.0,
            candidate_cost=10.0,
            build_cost=1.0,
            hysteresis=1.0,
        ),
    )


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
    ndim = source.ndim
    service = QueryService(ServeConfig(coalesce_window_s=0.002))
    plan = [Materialization((0, 1), 2, 0.0)] if ndim >= 2 else None
    service.register_cube("t", source, backend=backend, plan=plan)

    rng = np.random.default_rng([BOX_TAG, seed])
    boxes = [random_box(rng, scenario.shape) for _ in range(10)]
    boxes += [empty_box(rng, scenario.shape) for _ in range(2)]

    async def compare_all(generation: int) -> None:
        await _compare_scalars(
            service, engine, boxes, generation=generation, shadow=shadow
        )
        await _compare_witnesses(service, engine, boxes, shadow)
        await _compare_batches(service, boxes, shadow, generation)
        await _compare_rollups(service, engine, shadow)
        await _compare_slices(service, shadow)

    async def drive() -> None:
        await compare_all(generation=0)
        # Second pass: answers now come from the cache and must still
        # be identical.
        await _compare_scalars(
            service, engine, boxes, generation=0, shadow=shadow
        )
        assert service.cache.stats()["hits"] > 0
        generation = 0

        if source.dtype.kind in "iu":
            # A delta no cell of the dtype can take: a 400 that changes
            # neither the generation nor any answer.
            unfit = int(np.iinfo(source.dtype).max) + 1
            with pytest.raises(BadRequest):
                await service.update(
                    {
                        "cube": "t",
                        "updates": [
                            {"index": [0] * ndim, "delta": 1},
                            {"index": [0] * ndim, "delta": unfit},
                        ],
                    }
                )
            assert service.cubes["t"].generation == generation
            await compare_all(generation)

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
            generation += 1
            engine.apply_updates(
                [
                    PointUpdate(tuple(u["index"]), u["delta"])
                    for u in updates
                ]
            )
            for u in updates:
                shadow[tuple(u["index"])] += u["delta"]
            # Post-update: stale cache entries must not leak through.
            await compare_all(generation)

        if ndim >= 2:
            await _swap_plan(service, ndim)
            generation += 1
            await compare_all(generation)

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
