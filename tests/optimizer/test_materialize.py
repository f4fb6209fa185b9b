"""Tests for the executed §9 plan (materialized cuboid prefix sums)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instrumentation import AccessCounter
from repro.optimizer.cuboid_selection import (
    CuboidSelector,
    Materialization,
    workloads_from_log,
)
from repro.optimizer.materialize import MaterializedCuboidSet
from repro.query.ranges import RangeQuery, RangeSpec
from repro.query.workload import (
    WorkloadProfile,
    generate_query_log,
    make_cube,
)

SHAPE = (40, 30, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(173)


@pytest.fixture
def cube(rng):
    return make_cube(SHAPE, rng, high=100)


def brute_force(cube, query):
    return int(cube[query.to_box(cube.shape).slices()].sum())


class TestRouting:
    def test_query_routes_to_covering_cuboid(self, cube):
        plan = [Materialization((0, 1), 4, 0.0)]
        served = MaterializedCuboidSet(cube, plan)
        query = RangeQuery(
            (RangeSpec.between(5, 20), RangeSpec.at(7), RangeSpec.all())
        )
        routed = served.route(query)
        assert routed is not None and routed.key == (0, 1)

    def test_uncovered_query_falls_back(self, cube):
        plan = [Materialization((0, 1), 4, 0.0)]
        served = MaterializedCuboidSet(cube, plan)
        query = RangeQuery(
            (RangeSpec.all(), RangeSpec.all(), RangeSpec.between(1, 5))
        )
        assert served.route(query) is None
        counter = AccessCounter()
        assert served.range_sum(query, counter) == brute_force(cube, query)
        assert counter.cube_cells > 0

    def test_cheapest_ancestor_wins(self, cube):
        """A fine-blocked small cuboid beats the coarse base cuboid."""
        plan = [
            Materialization((0, 1, 2), 16, 0.0),
            Materialization((0,), 1, 0.0),
        ]
        served = MaterializedCuboidSet(cube, plan)
        query = RangeQuery(
            (RangeSpec.between(3, 30), RangeSpec.all(), RangeSpec.all())
        )
        routed = served.route(query)
        assert routed is not None and routed.key == (0,)


class TestAnswers:
    def test_answers_match_brute_force(self, cube, rng):
        plan = [
            Materialization((0, 1, 2), 4, 0.0),
            Materialization((0, 1), 2, 0.0),
            Materialization((1,), 1, 0.0),
        ]
        served = MaterializedCuboidSet(cube, plan)
        profile = WorkloadProfile(
            range_probability=(0.7, 0.6, 0.3),
            singleton_probability=0.5,
            range_lengths=((4, 30), (3, 20), (2, 6)),
        )
        for query in generate_query_log(SHAPE, profile, 120, rng):
            assert served.range_sum(query) == brute_force(cube, query)

    def test_group_by_projection(self, cube):
        """A query on (1,) served by the (0, 1) cuboid sums out dim 0."""
        plan = [Materialization((0, 1), 1, 0.0)]
        served = MaterializedCuboidSet(cube, plan)
        query = RangeQuery(
            (RangeSpec.all(), RangeSpec.between(10, 19), RangeSpec.all())
        )
        counter = AccessCounter()
        got = served.range_sum(query, counter)
        assert got == int(cube[:, 10:20, :].sum())
        # Any raw-cell reads are boundary cells of the small group-by
        # array, never a scan of the 3200-cell base region.
        assert counter.cube_cells <= 4

    def test_empty_plan_is_all_scans(self, cube):
        served = MaterializedCuboidSet(cube, [])
        query = RangeQuery.full(3)
        counter = AccessCounter()
        assert served.range_sum(query, counter) == int(cube.sum())
        assert counter.cube_cells == cube.size

    def test_storage_accounting(self, cube):
        plan = [
            Materialization((0, 1, 2), 2, 0.0),
            Materialization((0,), 1, 0.0),
        ]
        served = MaterializedCuboidSet(cube, plan)
        expected = (20 * 15 * 4) + 40
        assert served.storage_cells == expected

    def test_invalid_cuboid_rejected(self, cube):
        with pytest.raises(ValueError):
            MaterializedCuboidSet(cube, [Materialization((5,), 1, 0.0)])


class TestEndToEndWithSelector:
    def test_selected_plan_serves_the_log(self, cube, rng):
        """The full §9 loop: log → selector → build → serve → verify."""
        profile = WorkloadProfile(
            range_probability=(0.8, 0.5, 0.2),
            singleton_probability=0.6,
            range_lengths=((5, 30), (4, 20), (2, 6)),
        )
        log = generate_query_log(SHAPE, profile, 150, rng)
        workloads = workloads_from_log(log, SHAPE)
        selector = CuboidSelector(SHAPE, workloads, space_limit=3000)
        plan = selector.solve()
        served = MaterializedCuboidSet(cube, plan.chosen)
        assert served.storage_cells <= 3000 * 1.05
        naive_total = 0
        served_total = 0
        for query in log:
            counter = AccessCounter()
            assert served.range_sum(query, counter) == brute_force(
                cube, query
            )
            served_total += counter.total
            naive_total += query.to_box(SHAPE).volume
        assert served_total < naive_total


class TestMaintenance:
    def test_updates_propagate_to_every_cuboid(self, cube, rng):
        from repro.core.batch_update import PointUpdate

        plan = [
            Materialization((0, 1, 2), 4, 0.0),
            Materialization((0, 1), 1, 0.0),
            Materialization((1,), 2, 0.0),
        ]
        served = MaterializedCuboidSet(cube, plan)
        mirror = cube.copy()
        updates = []
        for _ in range(20):
            index = tuple(int(rng.integers(0, n)) for n in SHAPE)
            delta = int(rng.integers(-10, 20))
            updates.append(PointUpdate(index, delta))
            mirror[index] += delta
        served.apply_updates(updates)
        profile = WorkloadProfile(
            range_probability=(0.7, 0.6, 0.3),
            singleton_probability=0.5,
            range_lengths=((4, 30), (3, 20), (2, 6)),
        )
        for query in generate_query_log(SHAPE, profile, 60, rng):
            expected = int(mirror[query.to_box(SHAPE).slices()].sum())
            assert served.range_sum(query) == expected

    def test_caller_array_untouched(self, cube):
        from repro.core.batch_update import PointUpdate

        original = cube.copy()
        served = MaterializedCuboidSet(
            cube, [Materialization((0,), 1, 0.0)]
        )
        served.apply_updates([PointUpdate((0, 0, 0), 100)])
        assert np.array_equal(cube, original)

    def test_fallback_reads_updated_base(self, cube):
        """A standalone set writes its own base once per update, so the
        scan no cuboid covers sees the deltas too."""
        from repro.core.batch_update import PointUpdate

        original = cube.copy()
        served = MaterializedCuboidSet(
            cube, [Materialization((0, 1), 2, 0.0)]
        )
        updates = [
            PointUpdate((1, 2, 3), 5),
            PointUpdate((1, 2, 3), -2),
            PointUpdate((39, 29, 7), 4),
        ]
        served.apply_updates(updates)
        mirror = original.copy()
        for update in updates:
            mirror[update.index] += update.delta
        query = RangeQuery(
            (RangeSpec.all(), RangeSpec.all(), RangeSpec.between(3, 7))
        )
        assert served.route(query) is None
        assert served.range_sum(query) == brute_force(mirror, query)
        assert np.array_equal(cube, original)

    def test_empty_cuboid_rejected(self, cube):
        with pytest.raises(ValueError, match="empty cuboid"):
            MaterializedCuboidSet(cube, [Materialization((), 1, 0.0)])


class TestSubsetMaterializations:
    """§9.1 within §9.2: per-cuboid prefix-dim restrictions."""

    def test_subset_structure_answers_exactly(self, cube, rng):
        # Accumulate only along dim 0 of the (0, 2) cuboid; dim 2 is
        # always a singleton in this workload.
        plan = [
            Materialization((0, 2), 4, 0.0, prefix_dims=(0,)),
        ]
        served = MaterializedCuboidSet(cube, plan)
        for _ in range(40):
            lo = int(rng.integers(0, 30))
            hi = int(rng.integers(lo, 40))
            pin = int(rng.integers(0, 8))
            query = RangeQuery(
                (
                    RangeSpec.between(lo, hi)
                    if lo < hi
                    else RangeSpec.at(lo),
                    RangeSpec.all(),
                    RangeSpec.at(pin),
                )
            )
            assert served.range_sum(query) == brute_force(cube, query)

    def test_subset_updates_propagate(self, cube, rng):
        from repro.core.batch_update import PointUpdate

        plan = [Materialization((0, 1), 2, 0.0, prefix_dims=(1,))]
        served = MaterializedCuboidSet(cube, plan)
        mirror = cube.copy()
        updates = []
        for _ in range(15):
            index = tuple(int(rng.integers(0, n)) for n in SHAPE)
            delta = int(rng.integers(-10, 20))
            updates.append(PointUpdate(index, delta))
            mirror[index] += delta
        served.apply_updates(updates)
        query = RangeQuery(
            (RangeSpec.between(5, 30), RangeSpec.at(7), RangeSpec.all())
        )
        assert served.range_sum(query) == int(
            mirror[5:31, 7, :].sum()
        )

    def test_invalid_subset_rejected(self, cube):
        with pytest.raises(ValueError, match="not part of"):
            MaterializedCuboidSet(
                cube,
                [Materialization((0, 1), 2, 0.0, prefix_dims=(2,))],
            )
