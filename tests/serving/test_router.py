"""Tier selection and per-tier execution correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.optimizer.cuboid_selection import Materialization
from repro.query.ranges import RangeQuery, RangeSpec
from repro.serving.router import TieredRouter
from repro.serving.service import QueryService


@pytest.fixture
def data() -> np.ndarray:
    rng = np.random.default_rng(0x1207)
    return rng.integers(-30, 31, size=(8, 7, 6)).astype(np.int64)


def full_box(shape) -> Box:
    return Box((0,) * len(shape), tuple(n - 1 for n in shape))


def query_over(ranges) -> RangeQuery:
    specs = []
    for entry in ranges:
        if entry is None:
            specs.append(RangeSpec.all())
        elif isinstance(entry, int):
            specs.append(RangeSpec.at(entry))
        else:
            specs.append(RangeSpec.between(*entry))
    return RangeQuery(tuple(specs))


class TestChoice:
    def test_materialized_wins_for_covered_sum(self, data) -> None:
        service = QueryService()
        cube = service.register_cube(
            "c", data, plan=[Materialization((0, 1), 1, 0.0)]
        )
        router = TieredRouter()
        # Constrains dims {0, 1} only -> the (0, 1) cuboid covers it.
        rq = query_over([[1, 4], [0, 3], None])
        box = rq.to_box(cube.shape)
        assert router.choose_scalar(cube, "sum", rq, box) == "materialized"
        # Constraining dim 2 as well leaves no covering cuboid.
        rq2 = query_over([[1, 4], [0, 3], [1, 2]])
        box2 = rq2.to_box(cube.shape)
        assert router.choose_scalar(cube, "sum", rq2, box2) == "indexed"

    def test_materialized_only_serves_sum(self, data) -> None:
        service = QueryService()
        cube = service.register_cube(
            "c", data, plan=[Materialization((0, 1), 1, 0.0)]
        )
        router = TieredRouter()
        rq = query_over([[1, 4], [0, 3], None])
        box = rq.to_box(cube.shape)
        assert router.choose_scalar(cube, "count", rq, box) == "indexed"
        assert router.choose_scalar(cube, "max", rq, box) == "indexed"

    def test_fallback_when_no_engine(self, data) -> None:
        service = QueryService()
        cube = service.register_cube("c", data, indexed=False)
        router = TieredRouter()
        rq = query_over([None, None, None])
        box = rq.to_box(cube.shape)
        for op in ("sum", "count", "average", "max", "min"):
            assert router.choose_scalar(cube, op, rq, box) == "fallback"
        assert router.choose_batch(cube, "sum") == "fallback"


class TestExecution:
    """Every tier must agree with numpy on every operator."""

    @pytest.fixture
    def cube(self, data):
        service = QueryService()
        return service.register_cube(
            "c",
            data,
            counts=np.ones_like(data),
            plan=[Materialization((0, 1), 1, 0.0)],
        )

    def test_all_tiers_agree_on_sum(self, cube, data) -> None:
        router = TieredRouter()
        rq = query_over([[1, 5], [2, 6], None])
        box = rq.to_box(cube.shape)
        expected = int(data[1:6, 2:7, :].sum())
        for tier in ("materialized", "indexed", "fallback"):
            assert (
                router.run_scalar(cube, tier, "sum", rq, box) == expected
            ), tier

    @pytest.mark.parametrize("op", ["count", "average", "max", "min"])
    def test_indexed_and_fallback_agree(self, cube, data, op) -> None:
        router = TieredRouter()
        rq = query_over([[1, 5], [2, 6], [0, 3]])
        box = rq.to_box(cube.shape)
        indexed = router.run_scalar(cube, "indexed", op, rq, box)
        fallback = router.run_scalar(cube, "fallback", op, rq, box)
        window = data[1:6, 2:7, 0:4]
        if op == "count":
            assert indexed == fallback == window.size
        elif op == "average":
            assert indexed == pytest.approx(float(window.mean()))
            assert fallback == pytest.approx(float(window.mean()))
        else:
            extreme = (
                int(window.max()) if op == "max" else int(window.min())
            )
            assert indexed[1] == fallback[1] == extreme
            # Both witnesses must actually hold the extreme value.
            assert int(data[indexed[0]]) == extreme
            assert int(data[fallback[0]]) == extreme

    def test_empty_box_scalar_semantics(self, cube) -> None:
        router = TieredRouter()
        empty = Box((3, 0, 0), (2, 6, 5))
        assert router.run_scalar(cube, "indexed", "sum", None, empty) == 0
        assert router.run_scalar(cube, "fallback", "sum", None, empty) == 0
        assert router.run_scalar(cube, "indexed", "count", None, empty) == 0
        assert (
            router.run_scalar(cube, "indexed", "average", None, empty)
            is None
        )
        with pytest.raises(ValueError):
            router.run_scalar(cube, "fallback", "max", None, empty)

    def test_batch_tiers_agree(self, cube, data) -> None:
        router = TieredRouter()
        lows = np.array([[0, 0, 0], [1, 2, 3], [4, 0, 2]], dtype=np.int64)
        highs = np.array([[7, 6, 5], [5, 4, 4], [4, 6, 3]], dtype=np.int64)
        for op in ("sum", "count", "average"):
            indexed = router.run_batch(cube, "indexed", op, lows, highs)
            fallback = router.run_batch(cube, "fallback", op, lows, highs)
            np.testing.assert_array_equal(
                np.asarray(indexed, dtype=np.float64),
                np.asarray(fallback, dtype=np.float64),
            )
        for op in ("max", "min"):
            idx_i, val_i = router.run_batch(cube, "indexed", op, lows, highs)
            idx_f, val_f = router.run_batch(cube, "fallback", op, lows, highs)
            np.testing.assert_array_equal(val_i, val_f)
            # Witnesses may differ on ties; both must be valid.
            for row, value in enumerate(val_i):
                assert data[tuple(idx_i[row])] == value
                assert data[tuple(idx_f[row])] == value

    def test_latency_accounting(self, cube) -> None:
        router = TieredRouter()
        router.record("c", "indexed", 0.002)
        router.record("c", "indexed", 0.004)
        router.record("c", "fallback", 0.1)
        stats = router.stats()
        indexed = stats["c"]["indexed"]
        assert indexed["queries"] == 2
        assert indexed["avg_ms"] == pytest.approx(3.0)
        assert indexed["max_ms"] == pytest.approx(4.0)
        assert stats["c"]["fallback"]["queries"] == 1
