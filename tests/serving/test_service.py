"""QueryService endpoint semantics, error taxonomy, and logbook wiring."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.optimizer.cuboid_selection import Materialization
from repro.query import RangeQueryEngine, WorkloadObserver
from repro.query.ranges import SpecKind
from repro.serving.errors import (
    BadRequest,
    CubeInconsistent,
    UnknownResource,
)
from repro.serving.service import QueryService, ServeConfig

ROLLUP_SHAPE = (9, 8, 7)

#: Roll-up cubes per dtype; uint64 cells sit above 2^53, where a float64
#: detour would round.
ROLLUP_DTYPES = {
    "int64": lambda rng: rng.integers(-25, 26, ROLLUP_SHAPE),
    "int32": lambda rng: rng.integers(-25, 26, ROLLUP_SHAPE).astype(np.int32),
    "bool": lambda rng: rng.integers(0, 2, ROLLUP_SHAPE).astype(bool),
    "uint64": lambda rng: (
        rng.integers(0, 1 << 20, ROLLUP_SHAPE) + (1 << 53)
    ).astype(np.uint64),
    "float32": lambda rng: rng.normal(size=ROLLUP_SHAPE).astype(np.float32),
}

_PLAN = [Materialization((0, 1), 1, 0.0), Materialization((1, 2), 1, 0.0)]

#: The default §3 engine; a blocked engine beside a cuboid plan; and a
#: cube served by its cuboids alone.
ROLLUP_REGISTRATIONS = {
    "prefix": {},
    "blocked_plan": {
        "sum_index": "blocked_prefix_sum",
        "sum_params": {"block_size": 8},
        "plan": _PLAN,
    },
    "cuboid_only": {"indexed": False, "plan": _PLAN},
}

#: Exact cuboid key, ancestor reduce, base reduce, and unsorted orders.
ROLLUP_DIMS = [[0, 1], [1], [0, 2], [1, 0], [2, 0]]


def _exact(cells: np.ndarray) -> type:
    return np.uint64 if cells.dtype.kind == "u" else np.int64


@pytest.fixture
def data() -> np.ndarray:
    rng = np.random.default_rng(0x5E4E)
    return rng.integers(-25, 26, size=(9, 8, 7)).astype(np.int64)


@pytest.fixture
def service(data) -> QueryService:
    service = QueryService(ServeConfig(coalesce_window_s=0.0))
    service.register_cube("sales", data, counts=np.ones_like(data))
    return service


def run(coro):
    return asyncio.run(coro)


class TestQuery:
    def test_sum_matches_numpy(self, service, data) -> None:
        result = run(
            service.query(
                {"cube": "sales", "ranges": [[2, 6], None, [1, 3]]}
            )
        )
        assert result["value"] == int(data[2:7, :, 1:4].sum())
        assert result["tier"] == "indexed"
        assert not result["cached"]

    def test_singleton_and_all_ranges(self, service, data) -> None:
        result = run(
            service.query(
                {"cube": "sales", "ranges": [4, None, [0, 6]]}
            )
        )
        assert result["value"] == int(data[4, :, :].sum())

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_witness_ops_return_index(self, service, data, op) -> None:
        result = run(
            service.query(
                {
                    "cube": "sales",
                    "op": op,
                    "ranges": [[1, 7], [0, 5], None],
                }
            )
        )
        window = data[1:8, 0:6, :]
        extreme = int(window.max() if op == "max" else window.min())
        assert result["value"] == extreme
        assert data[tuple(result["index"])] == extreme

    def test_empty_box_identity(self, service) -> None:
        result = run(
            service.query(
                {"cube": "sales", "ranges": [[5, 2], None, None]}
            )
        )
        assert result["value"] == 0

    def test_empty_box_max_is_bad_request(self, service) -> None:
        with pytest.raises(BadRequest):
            run(
                service.query(
                    {
                        "cube": "sales",
                        "op": "max",
                        "ranges": [[5, 2], None, None],
                    }
                )
            )

    def test_unknown_cube_and_bad_payloads(self, service) -> None:
        with pytest.raises(UnknownResource):
            run(service.query({"cube": "nope", "ranges": [None] * 3}))
        with pytest.raises(BadRequest):
            run(service.query({"cube": "sales", "ranges": [None]}))
        with pytest.raises(BadRequest):
            run(
                service.query(
                    {"cube": "sales", "op": "median", "ranges": [None] * 3}
                )
            )
        with pytest.raises(BadRequest):
            run(
                service.query(
                    {"cube": "sales", "ranges": [[0, 1, 2], None, None]}
                )
            )
        with pytest.raises(BadRequest):
            run(
                service.query(
                    {"cube": "sales", "ranges": [[0, 99], None, None]}
                )
            )


class TestBatchSliceRollup:
    def test_batch_matches_engine(self, service, data) -> None:
        engine = RangeQueryEngine(data)
        queries = [
            [[0, 4], [1, 5], [2, 6]],
            [[3, 3], None, [0, 0]],
            [[5, 2], None, None],  # empty row -> identity
        ]
        result = run(
            service.query_batch({"cube": "sales", "queries": queries})
        )
        lows = np.array([[0, 1, 2], [3, 0, 0], [5, 0, 0]])
        highs = np.array([[4, 5, 6], [3, 7, 0], [2, 7, 6]])
        expected = engine.sum_many(lows, highs)
        assert result["values"] == expected.tolist()

    def test_batch_validation(self, service) -> None:
        with pytest.raises(BadRequest):
            run(service.query_batch({"cube": "sales", "queries": []}))
        with pytest.raises(BadRequest, match="row cap 4096"):
            run(
                service.query_batch(
                    {"cube": "sales", "queries": [[None] * 3] * 4097}
                )
            )

    def test_slice_fixes_dimensions(self, service, data) -> None:
        result = run(
            service.slice({"cube": "sales", "fixed": {"0": 3, "2": 5}})
        )
        assert result["value"] == int(data[3, :, 5].sum())

    def test_slice_validation(self, service) -> None:
        with pytest.raises(BadRequest):
            run(service.slice({"cube": "sales", "fixed": {"9": 0}}))
        with pytest.raises(BadRequest, match="duplicate"):
            run(
                service.slice(
                    {"cube": "sales", "fixed": {"1": 0, "01": 2}}
                )
            )
        with pytest.raises(BadRequest):
            run(service.slice({"cube": "sales", "fixed": "nope"}))

    @pytest.mark.parametrize(
        "dims", ROLLUP_DIMS, ids=lambda dims: "dims" + "".join(map(str, dims))
    )
    @pytest.mark.parametrize("dtype", sorted(ROLLUP_DTYPES))
    @pytest.mark.parametrize("registration", sorted(ROLLUP_REGISTRATIONS))
    def test_rollup_matches_numpy_groupby(
        self, registration, dtype, dims
    ) -> None:
        cells = ROLLUP_DTYPES[dtype](np.random.default_rng(0x6B0))
        counts = np.random.default_rng(0xC0).integers(0, 3, cells.shape)
        counts[0] = 0  # whole groups with a zero count
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        for name, held in (("plain", None), ("counted", counts)):
            service.register_cube(
                name, cells, counts=held, **ROLLUP_REGISTRATIONS[registration]
            )
        rest = tuple(j for j in range(cells.ndim) if j not in dims)
        order = np.argsort(np.argsort(dims))

        def grid(array: np.ndarray, reduce_dtype) -> list:
            reduced = array.sum(axis=rest, dtype=reduce_dtype)
            return np.transpose(reduced, order).reshape(-1).tolist()

        float_cube = cells.dtype.kind == "f"
        totals = grid(cells, np.float64 if float_cube else _exact(cells))
        volume = int(np.prod([cells.shape[j] for j in rest]))
        expected = {("plain", "sum"): totals, ("counted", "sum"): totals}
        for name, count_grid in (
            ("plain", [volume] * len(totals)),
            ("counted", grid(counts, np.int64)),
        ):
            expected[name, "count"] = count_grid
            expected[name, "average"] = [
                None if c == 0 else float(t) / float(c)
                for t, c in zip(totals, count_grid)
            ]
        # Exact-dtype SUM reads the smallest covering cuboid of the
        # (0, 1) / (1, 2) plan; everything else reduces the base.
        covered = registration != "prefix" and not float_cube and (
            set(dims) <= {0, 1} or set(dims) <= {1, 2}
        )
        for (name, op), want in expected.items():
            payload = {"cube": name, "dims": dims, "op": op}
            if op == "sum" and covered:
                tier = "materialized"
            elif registration == "cuboid_only":
                tier = "fallback"
            else:
                tier = "indexed"
            result = run(service.rollup(payload))
            assert result["tier"] == tier, (name, op)
            assert result["shape"] == [cells.shape[d] for d in dims]
            assert result["values"] == want, (name, op)

    def test_rollup_counts_the_cells_it_reduces(self) -> None:
        """§8 accounting: one read per cell of the array reduced."""
        cells = np.arange(128 * 128 * 4, dtype=np.int64).reshape(128, 128, 4)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        served = service.register_cube(
            "c", cells, plan=[Materialization((0, 1), 8, 0.0)]
        )

        def charged(dims: list[int], op: str) -> int:
            before = served.counter.snapshot()["cube_cells"]
            run(service.rollup({"cube": "c", "dims": dims, "op": op}))
            return served.counter.snapshot()["cube_cells"] - before

        assert charged([0, 1], "sum") == 128 * 128  # cuboid (0, 1)
        assert charged([0, 2], "sum") == cells.size  # the base
        assert charged([0, 2], "count") == 0  # no counts cube
        assert charged([0, 2], "average") == cells.size

    def test_rollup_average(self, service, data) -> None:
        result = run(
            service.rollup(
                {"cube": "sales", "dims": [2], "op": "average"}
            )
        )
        expected = data.mean(axis=(0, 1))
        assert np.allclose(result["values"], expected)

    def test_rollup_validation(self, service) -> None:
        with pytest.raises(BadRequest):
            run(service.rollup({"cube": "sales", "dims": []}))
        with pytest.raises(BadRequest):
            run(service.rollup({"cube": "sales", "dims": [0, 0]}))
        with pytest.raises(BadRequest):
            run(service.rollup({"cube": "sales", "dims": [7]}))
        with pytest.raises(BadRequest):
            run(
                service.rollup(
                    {"cube": "sales", "dims": [0], "op": "max"}
                )
            )
        wide = QueryService()
        wide.register_cube("c", np.ones((257, 256)))
        with pytest.raises(BadRequest, match="cap 65536"):
            run(wide.rollup({"cube": "c", "dims": [0, 1]}))


class TestUpdate:
    def test_update_propagates_to_all_tiers(self, data) -> None:
        from repro.optimizer.cuboid_selection import Materialization

        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube(
            "c", data, plan=[Materialization((0, 1), 1, 0.0)]
        )

        async def scenario() -> None:
            await service.update(
                {
                    "cube": "c",
                    "updates": [
                        {"index": [1, 2, 3], "delta": 11},
                        {"index": [0, 0, 0], "delta": -4},
                        {"index": [1, 2, 3], "delta": 1},  # duplicate cell
                    ],
                }
            )
            shifted = data.copy()
            shifted[1, 2, 3] += 12
            shifted[0, 0, 0] -= 4
            # Materialized tier (dims {0,1} constrained only).
            m = await service.query(
                {"cube": "c", "ranges": [[0, 4], [0, 4], None]}
            )
            assert m["tier"] == "materialized"
            assert m["value"] == int(shifted[0:5, 0:5, :].sum())
            # Indexed tier.
            i = await service.query(
                {"cube": "c", "ranges": [[0, 4], [0, 4], [0, 5]]}
            )
            assert i["tier"] == "indexed"
            assert i["value"] == int(shifted[0:5, 0:5, 0:6].sum())
            # Max tree absorbed the delta too.
            x = await service.query(
                {"cube": "c", "op": "max", "ranges": [1, 2, 3]}
            )
            assert x["value"] == int(shifted[1, 2, 3])

        run(scenario())

    def test_adopted_base_update_applies_once(self) -> None:
        """register_cube(cuboid_set=...) with no cube= adopts the set's
        own base array, and every later set reads the served base too;
        the base is written once per update — a second write would
        permanently diverge the fallback tier from the materialized
        one after the first update."""
        from repro.ingest import (
            IngestPlan,
            batches_from_cube,
            ingest,
            plan_cuboids,
        )
        from repro.optimizer.materialize import MaterializedCuboidSet

        rng = np.random.default_rng(0xADD)
        data = rng.integers(0, 50, size=(6, 5, 4)).astype(np.int64)
        plan = IngestPlan(
            shape=data.shape,
            cuboids=plan_cuboids(data.shape, [(0, 1)], 2),
        )
        result = ingest(batches_from_cube(data), plan)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        served = service.register_cube(
            "ingested",
            cuboid_set=result.cuboid_set,
            indexed=False,
            backend=result.backend,
        )
        assert np.shares_memory(served.base, result.cuboid_set.base)
        shifted = data.copy()

        async def push(index, delta) -> None:
            await service.update(
                {
                    "cube": "ingested",
                    "updates": [{"index": list(index), "delta": delta}],
                }
            )
            shifted[index] += delta

        async def check_tiers_agree() -> None:
            # Dims {0, 1} constrained only → the materialized cuboid.
            m = await service.query(
                {"cube": "ingested", "ranges": [[0, 4], [1, 3], None]}
            )
            assert m["tier"] == "materialized"
            assert m["value"] == int(shifted[0:5, 1:4, :].sum())
            # Dim 2 constrained → no covering cuboid, no engine → the
            # base-scan fallback over the shared array.
            f = await service.query(
                {"cube": "ingested", "ranges": [None, None, [1, 2]]}
            )
            assert f["tier"] == "fallback"
            assert f["value"] == int(shifted[:, :, 1:3].sum())

        async def scenario() -> None:
            await push((1, 2, 3), 11)
            await check_tiers_agree()
            assert served.base[1, 2, 3] == shifted[1, 2, 3]
            # A hot swap builds the new set from a snapshot copy, then
            # rebases it onto the served base: the base stays one array,
            # written once per update.
            rebuilt = MaterializedCuboidSet(served.base.copy(), plan.cuboids)
            rebuilt.rebase(served.base)
            served.cuboids = rebuilt
            assert np.shares_memory(served.base, served.cuboids.base)
            await push((0, 0, 0), -4)
            await check_tiers_agree()
            assert served.base[0, 0, 0] == shifted[0, 0, 0]

        run(scenario())

    def test_cuboid_set_over_different_data_rejected(self, data) -> None:
        """cube= plus cuboid_set= must cover the same data; a set built
        over different cells would silently diverge tier answers."""
        from repro.optimizer.cuboid_selection import Materialization
        from repro.optimizer.materialize import MaterializedCuboidSet

        plan = [Materialization((0, 1), 1, 0.0)]
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        stale = MaterializedCuboidSet(data + 1, plan)
        with pytest.raises(ValueError, match="different data"):
            service.register_cube("c", data, cuboid_set=stale)
        matching = MaterializedCuboidSet(data, plan)
        service.register_cube("c", data, cuboid_set=matching)

    def test_one_set_is_served_once(self) -> None:
        """Two served cubes over one set would both write its base while
        each engine absorbs only its own cube's updates, so the second
        registration is refused; the first keeps serving, every tier in
        step with a shadow."""
        from repro.ingest import (
            IngestPlan,
            batches_from_cube,
            ingest,
            plan_cuboids,
        )

        rng = np.random.default_rng(0x0B1)
        data = rng.integers(0, 50, size=(8, 6, 4)).astype(np.int64)
        plan = IngestPlan(
            shape=data.shape,
            cuboids=plan_cuboids(data.shape, [(0, 1)], 2),
        )
        cuboid_set = ingest(batches_from_cube(data), plan).cuboid_set
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("a", cuboid_set=cuboid_set)
        with pytest.raises(ValueError, match="already served"):
            service.register_cube("b", cuboid_set=cuboid_set)
        assert sorted(service.cubes) == ["a"]
        shadow = data.copy()
        shadow[1, 1, 1] += 100

        async def scenario() -> None:
            await service.update(
                {"cube": "a", "updates": [{"index": [1, 1, 1], "delta": 100}]}
            )
            for ranges, tier in (
                ([[1, 1], [1, 1], [1, 1]], "indexed"),
                ([[0, 7], [1, 1], None], "materialized"),
            ):
                got = await service.query({"cube": "a", "ranges": ranges})
                window = shadow[
                    tuple(
                        slice(None) if r is None else slice(r[0], r[1] + 1)
                        for r in ranges
                    )
                ]
                assert (got["tier"], got["value"]) == (tier, int(window.sum()))

        run(scenario())

    def test_updates_overflowing_only_together_queued_on_a_read(
        self,
    ) -> None:
        """Two batches that each fit an int8 cell but not together, both
        waiting on an in-flight read: each is staged under the write
        lock against the cell it finds, so the second is a 400 and the
        cube stays healthy (not quarantined mid-apply)."""
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        cube = service.register_cube(
            "c",
            np.full((4, 4), 100, dtype=np.int8),
            plan=[Materialization((0,), 1, 0.0)],
        )
        payload = {"cube": "c", "updates": [{"index": [0, 0], "delta": 20}]}

        async def scenario() -> list:
            async with cube.rwlock.read_locked():
                pending = [
                    asyncio.ensure_future(service.update(payload))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.05)
                assert not any(task.done() for task in pending)
            return await asyncio.gather(*pending, return_exceptions=True)

        outcomes = run(scenario())
        assert sum(isinstance(o, dict) for o in outcomes) == 1
        assert sum(isinstance(o, BadRequest) for o in outcomes) == 1
        assert cube.healthy
        assert cube.base[0, 0] == 120
        for op in ("sum", "max", "min"):
            answer = run(
                service.query(
                    {"cube": "c", "op": op, "ranges": [[0, 0], [0, 0]]}
                )
            )
            assert answer["value"] == 120, op

    def test_update_validation(self, service) -> None:
        with pytest.raises(BadRequest):
            run(service.update({"cube": "sales", "updates": []}))
        with pytest.raises(BadRequest):
            run(
                service.update(
                    {
                        "cube": "sales",
                        "updates": [{"index": [0, 0], "delta": 1}],
                    }
                )
            )
        with pytest.raises(BadRequest):
            run(
                service.update(
                    {
                        "cube": "sales",
                        "updates": [{"index": [99, 0, 0], "delta": 1}],
                    }
                )
            )
        with pytest.raises(BadRequest):
            run(
                service.update(
                    {
                        "cube": "sales",
                        "updates": [
                            {"index": [0, 0, 0], "delta": "many"}
                        ],
                    }
                )
            )

    @pytest.mark.parametrize(
        "dtype,fill,deltas",
        [
            (np.int8, 100, [100]),
            (np.uint8, 200, [100]),
            # Each delta fits; only their sum on the one cell overflows.
            (np.int8, 100, [20, 20]),
            (np.uint8, 200, [30, 30]),
            # numpy saturates a bool cell (True + 1 stays True).
            (np.bool_, True, [1]),
            # No float64 holds this delta at all.
            (np.float64, 1.5, [10**400]),
        ],
    )
    def test_overflowing_update_rejected(self, dtype, fill, deltas) -> None:
        """A delta whose exact result does not fit the cell dtype is a
        400 and leaves every tier untouched (numpy would wrap the base
        cell while the int64 prefix arrays add exactly)."""
        data = np.full((4, 4), fill, dtype=dtype)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube(
            "c", data, plan=[Materialization((0,), 1, 0.0)]
        )
        total = int(data.sum())

        async def scenario() -> None:
            with pytest.raises(BadRequest):
                await service.update(
                    {
                        "cube": "c",
                        "updates": [
                            {"index": [0, 0], "delta": d} for d in deltas
                        ],
                    }
                )
            cube = service.cubes["c"]
            assert cube.generation == 0 and cube.healthy
            assert np.array_equal(cube.base, data)
            indexed = await service.query({"cube": "c", "ranges": [0, 0]})
            assert indexed["tier"] == "indexed"
            assert indexed["value"] == fill
            materialized = await service.query(
                {"cube": "c", "ranges": [[0, 3], None]}
            )
            assert materialized["tier"] == "materialized"
            assert materialized["value"] == total
            for op in ("max", "min"):
                answer = await service.query(
                    {"cube": "c", "op": op, "ranges": [None, None]}
                )
                assert answer["value"] == fill

        run(scenario())

    def test_int8_min_at_dtype_floor(self) -> None:
        """/query op=min over an int8 cube holding -128 answers -128 at
        the cell that holds it (MAX over a negated cube wrapped it)."""
        data = np.arange(16, dtype=np.int8).reshape(4, 4)
        data[2, 1] = -128
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("c", data)
        answer = run(
            service.query({"cube": "c", "op": "min", "ranges": [None, None]})
        )
        assert answer["tier"] == "indexed"
        assert answer["value"] == -128
        assert answer["index"] == [2, 1]

    def test_rejected_update_leaves_every_tier_untouched(self) -> None:
        """An inapplicable delta must 400 before any tier mutates.

        Regression: the engine and cuboids had already absorbed the
        batch when the base-cube assignment raised (numpy 2.x rejects a
        negative delta into an unsigned cube), leaving the tiers
        permanently disagreeing with no generation bump.
        """
        from repro.optimizer.cuboid_selection import Materialization

        data = np.arange(1, 25, dtype=np.uint32).reshape(4, 3, 2)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube(
            "u", data, plan=[Materialization((0, 1), 1, 0.0)]
        )

        async def scenario() -> None:
            with pytest.raises(BadRequest):
                await service.update(
                    {
                        "cube": "u",
                        "updates": [
                            {"index": [0, 0, 0], "delta": 5},
                            {"index": [1, 1, 1], "delta": -1000},
                        ],
                    }
                )
            cube = service.cubes["u"]
            assert cube.generation == 0
            assert cube.healthy
            # Every tier still answers from the pristine cube,
            # including the first update entry that was individually
            # applicable.
            materialized = await service.query(
                {"cube": "u", "ranges": [[0, 3], [0, 2], None]}
            )
            assert materialized["tier"] == "materialized"
            assert materialized["value"] == int(data.sum())
            indexed = await service.query(
                {"cube": "u", "ranges": [[0, 3], [0, 2], 0]}
            )
            assert indexed["tier"] == "indexed"
            assert indexed["value"] == int(data[:, :, 0].sum())

        run(scenario())

    def test_delta_validation_mirrors_apply_semantics(self) -> None:
        """The dry run accepts exactly what the apply loop accepts.

        On an unsigned cube, positive duplicate deltas validate and
        apply; a batch containing any negative delta is rejected up
        front without mutating a single tier — even when the batch's
        net effect would be representable — because that is precisely
        when numpy's in-place assignment would raise mid-loop.
        """
        data = np.full((2, 2), 100, dtype=np.uint16)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("u", data, indexed=False)

        async def scenario() -> None:
            result = await service.update(
                {
                    "cube": "u",
                    "updates": [
                        {"index": [0, 0], "delta": 30},
                        {"index": [0, 0], "delta": 20},  # duplicate cell
                    ],
                }
            )
            assert result["applied"] == 2
            value = await service.query({"cube": "u", "ranges": [0, 0]})
            assert value["value"] == 150
            # Nets to +30, but numpy raises on the -20 assignment.
            with pytest.raises(BadRequest):
                await service.update(
                    {
                        "cube": "u",
                        "updates": [
                            {"index": [1, 1], "delta": -20},
                            {"index": [1, 1], "delta": 50},
                        ],
                    }
                )
            assert service.cubes["u"].generation == 1
            untouched = await service.query(
                {"cube": "u", "ranges": [1, 1]}
            )
            assert untouched["value"] == 100

        run(scenario())

    def test_mid_apply_failure_quarantines_the_cube(self, data) -> None:
        """If a tier still fails mid-apply, the cube must stop serving.

        The dry run catches dtype/overflow failures up front; anything
        that slips past it may have torn the tiers, so the service
        bumps the generation, drops the cube's cache entries, and
        refuses further requests instead of answering inconsistently.
        """
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("c", data)

        class Boom:
            def apply_updates(self, updates):
                raise RuntimeError("torn mid-batch")

        service.cubes["c"].cuboids = Boom()  # type: ignore[assignment]

        async def scenario() -> None:
            with pytest.raises(CubeInconsistent):
                await service.update(
                    {
                        "cube": "c",
                        "updates": [{"index": [0, 0, 0], "delta": 1}],
                    }
                )
            cube = service.cubes["c"]
            assert not cube.healthy
            assert cube.generation == 1  # stale cache entries cannot hit
            with pytest.raises(CubeInconsistent):
                await service.query({"cube": "c", "ranges": [0, 0, 0]})
            assert service.stats()["cubes"]["c"]["healthy"] is False

        run(scenario())

    def test_update_waits_for_inflight_offloaded_read(self, data) -> None:
        """A read running on the worker pool sees a consistent snapshot.

        The per-cube read/write lock makes an update wait for offloaded
        reads to drain (and vice versa), so a pool-thread scan can never
        observe the tiers torn mid-update.
        """
        import threading

        service = QueryService(
            ServeConfig(coalesce_window_s=0.0, offload_cells=1)
        )
        service.register_cube("c", data, indexed=False)
        release = threading.Event()

        async def scenario() -> None:
            loop = asyncio.get_running_loop()
            entered = asyncio.Event()
            real = service.router.run_scalar

            def slow(*args, **kwargs):
                loop.call_soon_threadsafe(entered.set)
                release.wait(timeout=10)
                return real(*args, **kwargs)

            service.router.run_scalar = slow  # type: ignore[method-assign]
            try:
                query_task = asyncio.ensure_future(
                    service.query(
                        {"cube": "c", "ranges": [None, None, None]}
                    )
                )
                await entered.wait()  # the scan is mid-flight on the pool
                update_task = asyncio.ensure_future(
                    service.update(
                        {
                            "cube": "c",
                            "updates": [{"index": [0, 0, 0], "delta": 9}],
                        }
                    )
                )
                await asyncio.sleep(0.05)
                assert not update_task.done()  # writer waits for reader
                release.set()
                result = await query_task
                assert result["value"] == int(data.sum())  # pre-update
                await update_task
            finally:
                service.router.run_scalar = real  # type: ignore[method-assign]
            fresh = await service.query(
                {"cube": "c", "ranges": [None, None, None]}
            )
            assert fresh["value"] == int(data.sum()) + 9

        run(scenario())

    def test_count_updates_keep_average_exact(self, data) -> None:
        counts = np.full_like(data, 2)
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("c", data, counts=counts)

        async def scenario() -> None:
            await service.update(
                {
                    "cube": "c",
                    "updates": [{"index": [0, 0, 0], "delta": 10}],
                    "count_updates": [
                        {"index": [0, 0, 0], "delta": 3}
                    ],
                }
            )
            result = await service.query(
                {"cube": "c", "op": "average", "ranges": [0, 0, 0]}
            )
            assert result["value"] == pytest.approx(
                (float(data[0, 0, 0]) + 10) / 5.0
            )

        run(scenario())

    def test_generation_bump_and_invalidation_hold_write_lock(
        self, service, data
    ) -> None:
        """The bump and cache invalidation must land before the write
        lock drops: a reader admitted between unlock and a later bump
        would cache a stale answer under the new generation."""
        cube = service.cubes["sales"]
        observed: list[tuple[bool, int]] = []
        real_invalidate = service.cache.invalidate_cube

        def spying_invalidate(name: str) -> int:
            observed.append((cube.rwlock.writing, cube.generation))
            return real_invalidate(name)

        service.cache.invalidate_cube = spying_invalidate  # type: ignore[method-assign]
        before = cube.generation
        try:
            run(
                service.update(
                    {
                        "cube": "sales",
                        "updates": [{"index": [0, 0, 0], "delta": 5}],
                    }
                )
            )
        finally:
            service.cache.invalidate_cube = real_invalidate  # type: ignore[method-assign]
        assert observed == [(True, before + 1)]


class TestRegistration:
    def test_duplicate_and_bad_names(self, data) -> None:
        service = QueryService()
        service.register_cube("a", data)
        with pytest.raises(ValueError):
            service.register_cube("a", data)
        with pytest.raises(ValueError):
            service.register_cube("", data)
        with pytest.raises(ValueError):
            service.register_cube("a/b", data)

    def test_registration_copies_the_cube(self, data) -> None:
        source = data.copy()
        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        service.register_cube("c", source, indexed=False)
        source[0, 0, 0] += 1000  # caller-side mutation is invisible
        result = run(
            service.query({"cube": "c", "ranges": [0, 0, 0]})
        )
        assert result["value"] == int(data[0, 0, 0])

    def test_describe_cubes(self, service) -> None:
        catalog = service.describe_cubes()
        assert catalog["sales"]["tiers"] == ["indexed", "fallback"]
        assert catalog["sales"]["has_counts"]
        assert catalog["sales"]["shape"] == [9, 8, 7]


class TestLogbook:
    def test_served_traffic_lands_in_advisor_format(
        self, data, tmp_path
    ) -> None:
        path = tmp_path / "workload.json"
        service = QueryService(
            ServeConfig(coalesce_window_s=0.0, logbook_path=str(path))
        )
        service.register_cube("c", data)

        async def scenario() -> None:
            await service.query(
                {"cube": "c", "ranges": [[1, 4], None, 2]}
            )
            await service.query(
                {"cube": "c", "ranges": [[1, 4], None, 2]}
            )  # cache hits are traffic too
            await service.query_batch(
                {
                    "cube": "c",
                    "queries": [
                        [None, [2, 5], None],
                        [[8, 0], None, None],  # empty: no signal
                    ],
                }
            )
            await service.close()

        run(scenario())
        log = WorkloadObserver.load(path)
        assert len(log) == 3  # two scalars + one non-empty batch row
        assert log.queries == service.cubes["c"].observer.queries
        first = log.queries[0]
        assert first.specs[0].kind is SpecKind.RANGE
        assert first.specs[1].kind is SpecKind.ALL
        assert first.specs[2].kind is SpecKind.SINGLETON
        # The §9 selector consumes it directly.
        window = log.snapshot()
        assert window.workloads()
        assert window.length_matrix().shape[1] == 3

    def test_logbooks_written_per_cube_even_without_traffic(
        self, data, tmp_path
    ) -> None:
        """Every configured logbook writes, suffixed per cube.

        Regression: the filter was ``if cube.logbook``, and the log
        defines ``__len__`` — so a zero-query logbook was falsy and
        silently skipped, and in a multi-cube service the single cube
        that saw traffic claimed the bare ``logbook_path`` with no cube
        suffix, making the file's attribution ambiguous.
        """
        path = tmp_path / "traffic.json"
        service = QueryService(
            ServeConfig(coalesce_window_s=0.0, logbook_path=str(path))
        )
        service.register_cube("hot", data)
        service.register_cube("cold", data)
        run(service.query({"cube": "hot", "ranges": [0, 0, 0]}))

        written = service.save_logbooks()
        assert sorted(written) == [
            str(tmp_path / "traffic-cold.json"),
            str(tmp_path / "traffic-hot.json"),
        ]
        hot = WorkloadObserver.load(tmp_path / "traffic-hot.json")
        cold = WorkloadObserver.load(tmp_path / "traffic-cold.json")
        assert (len(hot), len(cold)) == (1, 0)

    def test_single_cube_empty_logbook_still_writes(
        self, data, tmp_path
    ) -> None:
        path = tmp_path / "idle.json"
        service = QueryService(
            ServeConfig(coalesce_window_s=0.0, logbook_path=str(path))
        )
        service.register_cube("c", data)
        assert service.save_logbooks() == [str(path)]
        assert len(WorkloadObserver.load(path)) == 0

    def test_no_logbook_by_default(self, service) -> None:
        run(
            service.query({"cube": "sales", "ranges": [None, None, None]})
        )
        assert service.save_logbooks() == []


class TestStats:
    def test_stats_surface(self, service, data) -> None:
        async def scenario() -> None:
            await service.query(
                {"cube": "sales", "ranges": [[0, 4], None, None]}
            )
            await service.query(
                {"cube": "sales", "ranges": [[0, 4], None, None]}
            )

        run(scenario())
        stats = service.stats()
        cube = stats["cubes"]["sales"]
        assert cube["queries"] == 2
        assert cube["generation"] == 0
        assert cube["tiers"]["indexed"]["queries"] == 1
        assert cube["access_counts"]["total"] > 0
        assert stats["cache"]["hits"] == 1
        assert stats["admission"]["completed"] == 2

    def test_access_counts_cover_every_tier(self, data) -> None:
        """Materialized and fallback hits charge the cube's counter the
        cells their structure reports, like the indexed tier."""
        from repro.instrumentation import AccessCounter
        from repro.optimizer.cuboid_selection import Materialization
        from repro.query.ranges import RangeQuery, RangeSpec

        service = QueryService(ServeConfig(coalesce_window_s=0.0))
        cube = service.register_cube(
            "c", data, indexed=False, plan=[Materialization((0, 1), 1, 0.0)]
        )

        def ask(payload: dict, tier: str) -> int:
            before = service.stats()["cubes"]["c"]["access_counts"]["total"]
            assert run(service.query(payload))["tier"] == tier
            after = service.stats()["cubes"]["c"]["access_counts"]["total"]
            return after - before

        covered = RangeQuery(
            (
                RangeSpec.between(1, 5),
                RangeSpec.between(2, 6),
                RangeSpec.all(),
            )
        )
        reported = AccessCounter()
        cube.cuboids.range_sum(covered, reported)
        assert reported.total > 0
        assert (
            ask({"cube": "c", "ranges": [[1, 5], [2, 6], None]}, "materialized")
            == reported.total
        )
        for op in ("sum", "max", "min"):
            payload = {"cube": "c", "op": op, "ranges": [[1, 5], [2, 6], [0, 3]]}
            assert ask(payload, "fallback") == 5 * 5 * 4
