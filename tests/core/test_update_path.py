"""One update path: every holder of a cube takes a batch the same way.

Stage → write once → derive: each holder below stages a batch against
its cube with the same exact-fit rule, writes it once, and lets each
structure maintain only its derived arrays.  So the same batch gets the
same decision from every holder.  A rejected batch raises
:class:`~repro.core.batch_update.UnfitUpdate` (a 400 when served) and
leaves every array byte-identical.  An accepted one answers equal to a
numpy reduce of a shadow array, exactly — uint64 cells beyond float64's
integers included.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Iterator
from itertools import product

import numpy as np
import pytest

from repro._util import Box
from repro.core.batch_update import PointUpdate, UnfitUpdate
from repro.cube.datacube import DataCube
from repro.cube.dimensions import IntegerDimension
from repro.index.registry import (
    IndexSpec,
    available_indexes,
    create_index,
    get_index_info,
)
from repro.optimizer.cuboid_selection import Materialization
from repro.optimizer.materialize import MaterializedCuboidSet
from repro.query.engine import RangeQueryEngine
from repro.serving.errors import BadRequest
from repro.serving.service import QueryService, ServeConfig

SHAPE = (2, 2)

#: Construction params per registered dense index (cubes of ``SHAPE``).
DENSE_PARAMS: dict[str, dict] = {
    "prefix_sum": {},
    "partial_prefix_sum": {"prefix_dims": (0,)},
    "blocked_prefix_sum": {"block_size": 2},
    "blocked_partial_prefix_sum": {"prefix_dims": (0,), "block_size": 2},
    "range_max_tree": {"fanout": 2},
}


def _dense_updating() -> list[str]:
    return [
        name
        for name in available_indexes()
        if not get_index_info(name).sparse_input
        and get_index_info(name).fuzz_profile is not None
        and get_index_info(name).fuzz_profile.supports_updates
    ]


def _keeps_cube(name: str) -> bool:
    index = create_index(name, np.zeros(SHAPE), **DENSE_PARAMS[name])
    return getattr(index, "source", None) is not None


def _uint64_cube() -> np.ndarray:
    cube = np.zeros(SHAPE, dtype=np.uint64)
    cube[1, 1] = 2**60 + 1  # no exact float64 home
    cube[0, 0] = 10
    return cube


#: name -> (cube, delta batch, accepted?)
BATCHES: dict[str, tuple[np.ndarray, list[tuple[tuple[int, ...], int]], bool]] = {
    "int8_overflow": (np.full(SHAPE, 100, np.int8), [((0, 0), 100)], False),
    "uint8_decrement": (np.full(SHAPE, 40, np.uint8), [((1, 0), -10)], False),
    "bool_past_true": (np.ones(SHAPE, dtype=bool), [((0, 1), 1)], False),
    "uint64_beyond_float": (_uint64_cube(), [((0, 0), 5)], True),
    "int64_duplicate": (
        np.arange(4, dtype=np.int64).reshape(SHAPE),
        [((0, 1), 3), ((1, 0), 2), ((0, 1), -7)],
        True,
    ),
}


def _boxes(shape: tuple[int, ...]) -> Iterator[Box]:
    """Every non-empty box of a small cube."""
    for lo in product(*(range(n) for n in shape)):
        for hi in product(*(range(l, n) for l, n in zip(lo, shape))):
            yield Box(lo, hi)


def _exact_sum(shadow: np.ndarray, box: Box) -> int:
    """The numpy reduce of a shadow window in Python integers."""
    return int(shadow[box.slices()].astype(object).sum())


def _state_arrays(structure: object) -> list[np.ndarray]:
    state = structure.state_dict()  # type: ignore[attr-defined]
    return [v for v in state.values() if isinstance(v, np.ndarray)]


def _engine_arrays(engine: RangeQueryEngine) -> list[np.ndarray]:
    arrays = [engine.base]
    if engine.counts is not None:
        arrays.append(engine.counts)
    for name in ("sum", "count", "max", "min"):
        route = engine.route(name)
        if route is not None:
            arrays += _state_arrays(route)
    return arrays


def _cuboid_arrays(cuboids: MaterializedCuboidSet) -> list[np.ndarray]:
    arrays = [cuboids.base]
    for cuboid in cuboids.cuboids:
        arrays += _state_arrays(cuboid.structure)
    return arrays


def _check_engine(
    engine: RangeQueryEngine, shadow: np.ndarray, counts: np.ndarray
) -> None:
    boxes = list(_boxes(SHAPE))
    lows = np.array([box.lo for box in boxes])
    highs = np.array([box.hi for box in boxes])
    sums = engine.sum_many(lows, highs)
    for k, box in enumerate(boxes):
        window = shadow[box.slices()]
        assert engine.sum(box) == _exact_sum(shadow, box) == int(sums[k])
        assert engine.count(box) == _exact_sum(counts, box)
        assert engine.max(box)[1] == window.max()
        assert engine.min(box)[1] == window.min()


class Holder:
    """One holder of a cube: how it applies a batch, which arrays it
    holds, and how its answers are checked against the shadow.  Built
    from a cube and a record-counts array (ignored by holders without
    one)."""

    def apply(self, updates: list[PointUpdate]) -> None:
        raise NotImplementedError

    def arrays(self) -> list[np.ndarray]:
        raise NotImplementedError

    def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
        raise NotImplementedError


def _dense_holder(name: str) -> type[Holder]:
    class DenseIndex(Holder):
        def __init__(self, cube: np.ndarray, counts: np.ndarray) -> None:
            self.index = create_index(name, cube, **DENSE_PARAMS[name])

        def apply(self, updates: list[PointUpdate]) -> None:
            self.index.apply_updates(updates)

        def arrays(self) -> list[np.ndarray]:
            return _state_arrays(self.index)

        def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
            boxes = list(_boxes(SHAPE))
            lows = np.array([box.lo for box in boxes])
            highs = np.array([box.hi for box in boxes])
            many = self.index.query_many(lows, highs)
            for k, box in enumerate(boxes):
                if get_index_info(name).kind == "max":
                    expected = shadow[box.slices()].max()
                    assert self.index.query(box)[1] == expected
                    assert many[1][k] == expected
                else:
                    expected = _exact_sum(shadow, box)
                    assert self.index.query(box) == expected
                    assert int(many[k]) == expected

    DenseIndex.__name__ = name
    return DenseIndex


class Engine(Holder):
    spec: IndexSpec = IndexSpec.of("prefix_sum")

    def __init__(self, cube: np.ndarray, counts: np.ndarray) -> None:
        self.engine = RangeQueryEngine(
            cube,
            sum_index=self.spec,
            max_index=IndexSpec.of("range_max_tree", fanout=2),
            counts=counts,
        )

    def apply(self, updates: list[PointUpdate]) -> None:
        ones = [PointUpdate(u.index, 1) for u in updates]
        self.engine.apply_updates(updates, ones)

    def arrays(self) -> list[np.ndarray]:
        return _engine_arrays(self.engine)

    def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
        _check_engine(self.engine, shadow, counts)


class BlockedEngine(Engine):
    spec = IndexSpec.of("blocked_prefix_sum", block_size=2)


class CuboidSet(Holder):
    """A standalone set: it owns (and writes) its base."""

    def __init__(self, cube: np.ndarray, counts: np.ndarray) -> None:
        self.cuboids = MaterializedCuboidSet(
            cube,
            [Materialization((0,), 1, 0.0), Materialization((0, 1), 2, 0.0)],
        )

    def apply(self, updates: list[PointUpdate]) -> None:
        self.cuboids.apply_updates(updates)

    def arrays(self) -> list[np.ndarray]:
        return _cuboid_arrays(self.cuboids)

    def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
        assert np.array_equal(self.cuboids.base.astype(object), shadow)
        for cuboid in self.cuboids.cuboids:
            dropped = tuple(j for j in range(len(SHAPE)) if j not in cuboid.key)
            groupby = shadow.astype(object).sum(axis=dropped) if dropped else shadow
            for box in _boxes(groupby.shape):
                expected = _exact_sum(groupby, box)
                assert cuboid.structure.range_sum(box) == expected


class DataCubeHolder(Holder):
    indexed = False

    def __init__(self, cube: np.ndarray, counts: np.ndarray) -> None:
        dims = [IntegerDimension("x", 0, 1), IntegerDimension("y", 0, 1)]
        self.cube = DataCube(dims, cube, counts)
        if self.indexed:
            self.cube.build_index(max_fanout=2)
            # One measure array: the cube reads the engine's by reference.
            assert np.shares_memory(self.cube.measures, self.cube.engine.base)
            assert np.shares_memory(self.cube.counts, self.cube.engine.counts)

    def apply(self, updates: list[PointUpdate]) -> None:
        self.cube.absorb(
            [{"x": u.index[0], "y": u.index[1], "m": u.delta} for u in updates],
            measure="m",
        )

    def arrays(self) -> list[np.ndarray]:
        if self.indexed:
            return _engine_arrays(self.cube.engine)
        return [self.cube.measures, self.cube.counts]

    def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
        assert np.array_equal(self.cube.measures.astype(object), shadow)
        assert np.array_equal(self.cube.counts, counts)
        if self.indexed:
            _check_engine(self.cube.engine, shadow, counts)


class IndexedDataCube(DataCubeHolder):
    indexed = True


class ServedCubeHolder(Holder):
    with_engine = True

    def __init__(self, cube: np.ndarray, counts: np.ndarray) -> None:
        self.service = QueryService(ServeConfig(coalesce_window_s=0.0))
        extra: dict = {} if self.with_engine else {"indexed": False}
        self.service.register_cube(
            "c",
            cube,
            counts=counts,
            plan=[Materialization((0,), 1, 0.0)],
            **extra,
        )
        self.served = self.service.cubes["c"]
        assert (self.served.engine is not None) == self.with_engine

    def apply(self, updates: list[PointUpdate]) -> None:
        payload = {
            "cube": "c",
            "updates": [
                {"index": list(u.index), "delta": u.delta} for u in updates
            ],
            "count_updates": [
                {"index": list(u.index), "delta": 1} for u in updates
            ],
        }
        try:
            asyncio.run(self.service.update(payload))
        except BadRequest as exc:
            assert exc.status == 400
            assert self.served.healthy
            raise UnfitUpdate(str(exc)) from exc

    def arrays(self) -> list[np.ndarray]:
        arrays = [self.served.base, self.served.counts]
        if self.served.engine is not None:
            arrays += _engine_arrays(self.served.engine)
        assert self.served.cuboids is not None
        return arrays + _cuboid_arrays(self.served.cuboids)

    def check(self, shadow: np.ndarray, counts: np.ndarray) -> None:
        async def answers() -> None:
            for box in _boxes(SHAPE):
                ranges = [[l, h] for l, h in zip(box.lo, box.hi)]
                for op, source in (("sum", shadow), ("count", counts)):
                    answer = await self.service.query(
                        {"cube": "c", "op": op, "ranges": ranges}
                    )
                    assert answer["value"] == _exact_sum(source, box), (
                        op,
                        box,
                        answer,
                    )
            # A roll-up onto dim 0 reads the materialized cuboid.
            rollup = await self.service.rollup(
                {"cube": "c", "op": "sum", "dims": [0]}
            )
            assert rollup["values"] == [
                int(v) for v in shadow.astype(object).sum(axis=1)
            ]

        asyncio.run(answers())


class EnginelessServedCube(ServedCubeHolder):
    with_engine = False


HOLDERS: dict[str, Callable[..., Holder]] = {
    **{
        name: _dense_holder(name)
        for name in _dense_updating()
        if _keeps_cube(name)
    },
    "engine": Engine,
    "engine_blocked_b2": BlockedEngine,
    "cuboid_set": CuboidSet,
    "datacube": DataCubeHolder,
    "datacube_indexed": IndexedDataCube,
    "served": ServedCubeHolder,
    "served_without_engine": EnginelessServedCube,
}


def test_every_dense_index_keeping_its_cube_is_a_holder():
    dense = _dense_updating()
    assert set(dense) <= set(DENSE_PARAMS)
    assert {"prefix_sum", "blocked_prefix_sum", "range_max_tree"} <= set(
        HOLDERS
    )
    # §9.1's partial prefix sum drops A: it has nothing to stage.
    assert "partial_prefix_sum" in dense
    assert "partial_prefix_sum" not in HOLDERS


@pytest.mark.parametrize(
    ("holder", "batch"),
    [
        (holder, batch)
        for holder in sorted(HOLDERS)
        for batch in sorted(BATCHES)
        # A standalone §6 tree refuses bool cubes at construction (the
        # engine reads one through an int8 view), so it holds none.
        if not (holder == "range_max_tree" and batch == "bool_past_true")
    ],
)
def test_same_batch_same_decision(holder: str, batch: str) -> None:
    cube, raw, accepted = BATCHES[batch]
    counts = np.ones(SHAPE, dtype=np.int64)
    target = HOLDERS[holder](cube.copy(), counts.copy())
    updates = [PointUpdate(index, delta) for index, delta in raw]
    before = [(a.dtype, a.tobytes()) for a in target.arrays()]
    shadow = cube.astype(object)
    shadow_counts = counts.copy()
    if accepted:
        target.apply(updates)
        for update in updates:
            shadow[update.index] += update.delta
            shadow_counts[update.index] += 1
    else:
        with pytest.raises(UnfitUpdate):
            target.apply(updates)
        after = [(a.dtype, a.tobytes()) for a in target.arrays()]
        assert after == before  # no byte changed anywhere
    target.check(shadow, shadow_counts)
