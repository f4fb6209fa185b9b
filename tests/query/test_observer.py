"""WorkloadObserver window semantics and its offline query-log form."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.query import WorkloadObserver
from repro.query.observer import UPDATE_OP
from repro.query.ranges import RangeQuery, RangeSpec
from repro.query.workload import WorkloadProfile, generate_query_log


def q(lo: int, hi: int, extra: RangeSpec | None = None) -> RangeQuery:
    specs = [RangeSpec.between(lo, hi)]
    if extra is not None:
        specs.append(extra)
    else:
        specs.append(RangeSpec.all())
    return RangeQuery(tuple(specs))


SHAPE = (16, 8)


class TestRecording:
    def test_returns_query_for_inline_use(self) -> None:
        observer = WorkloadObserver(SHAPE)
        query = q(1, 5)
        assert observer.observe_query(query) is query
        assert observer.queries == (query,)

    def test_rejects_wrong_dimensionality(self) -> None:
        observer = WorkloadObserver(SHAPE)
        with pytest.raises(ValueError, match="observer expects"):
            observer.observe_query(RangeQuery((RangeSpec.all(),)))

    def test_rejects_out_of_bounds(self) -> None:
        observer = WorkloadObserver(SHAPE)
        with pytest.raises(ValueError):
            observer.observe_query(q(0, 40))

    def test_observe_box_skips_empty(self) -> None:
        observer = WorkloadObserver(SHAPE)
        assert observer.observe_box(Box((3, 2), (2, 2))) is None
        assert len(observer) == 0
        assert observer.queries_seen == 0

    def test_observe_box_recovers_spec_kinds(self) -> None:
        observer = WorkloadObserver(SHAPE)
        recovered = observer.observe_box(Box((0, 3), (15, 3)))
        assert recovered is not None
        kinds = [spec.kind.name for spec in recovered.specs]
        assert kinds == ["ALL", "SINGLETON"]

    def test_update_counting(self) -> None:
        observer = WorkloadObserver(SHAPE)
        observer.observe_update(3)
        assert observer.updates_seen == 3
        assert observer.snapshot().update_weight == pytest.approx(3.0)
        with pytest.raises(ValueError):
            observer.observe_update(-1)


class TestWindowing:
    def test_capacity_bounds_retention(self) -> None:
        observer = WorkloadObserver(SHAPE, capacity=4)
        for i in range(10):
            observer.observe_query(q(i, i + 1))
        assert len(observer) == 4
        # Oldest dropped: the ring keeps the last four lows (6..9).
        lows = [query.specs[0].lo for query in observer.queries]
        assert lows == [6, 7, 8, 9]
        assert observer.queries_seen == 10

    def test_unbounded_legacy_mode(self) -> None:
        observer = WorkloadObserver(SHAPE, capacity=None, decay=1.0)
        for i in range(100):
            observer.observe_query(q(0, i % 8))
        assert len(observer) == 100
        weights = {w for _, w in observer.snapshot().queries}
        assert weights == {1.0}

    def test_decay_weights_age_with_events(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.5)
        observer.observe_query(q(0, 1))
        observer.observe_query(q(0, 2))
        observer.observe_query(q(0, 3))
        weights = [w for _, w in observer.snapshot().queries]
        assert weights == pytest.approx([0.25, 0.5, 1.0])

    def test_updates_age_queries_too(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.5)
        observer.observe_query(q(0, 1))
        observer.observe_update(2)  # two events: weight halves twice
        (entry,) = observer.snapshot().queries
        assert entry[1] == pytest.approx(0.25)

    def test_op_mix_decays(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.5)
        observer.observe_query(q(0, 1), op="sum")
        observer.observe_query(q(0, 1), op="max")
        snap = observer.snapshot()
        assert snap.op_weights["sum"] == pytest.approx(0.5)
        assert snap.op_weights["max"] == pytest.approx(1.0)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError, match="capacity"):
            WorkloadObserver(SHAPE, capacity=0)
        with pytest.raises(ValueError, match="decay"):
            WorkloadObserver(SHAPE, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            WorkloadObserver(SHAPE, decay=1.5)

    def test_clear_resets_everything(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.9)
        observer.observe_query(q(0, 1))
        observer.observe_update()
        observer.clear()
        assert len(observer) == 0
        snap = observer.snapshot()
        assert not snap.has_queries()
        assert snap.op_weights == {}
        assert snap.queries_seen == 0 and snap.updates_seen == 0


class TestSnapshot:
    def test_snapshot_is_frozen_in_time(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.5)
        observer.observe_query(q(0, 1))
        snap = observer.snapshot()
        observer.observe_query(q(0, 7))
        assert len(snap.queries) == 1
        assert snap.queries[0][1] == pytest.approx(1.0)

    def test_statistics_none_on_empty_window(self) -> None:
        snap = WorkloadObserver(SHAPE).snapshot()
        assert snap.statistics() is None
        assert not snap.has_queries()
        assert snap.update_query_ratio == 0.0

    def test_statistics_weighted_toward_recent(self) -> None:
        observer = WorkloadObserver(SHAPE, decay=0.1)
        observer.observe_query(q(0, 7))  # length 8, nearly decayed away
        observer.observe_query(q(0, 1))  # length 2, fresh
        stats = observer.snapshot().statistics()
        assert stats is not None
        # weights 0.1 and 1.0 → mean ≈ (0.8 + 2) / 1.1
        assert stats.lengths[0] == pytest.approx(2.8 / 1.1)

    def test_workloads_and_length_matrix(self) -> None:
        observer = WorkloadObserver(SHAPE)
        observer.observe_query(q(0, 3))
        observer.observe_query(q(0, 3, RangeSpec.at(2)))
        workloads = observer.snapshot().workloads()
        assert sorted(w.key for w in workloads) == [(0,), (0, 1)]
        matrix = observer.snapshot().length_matrix()
        assert matrix.shape == (2, len(SHAPE))

    def test_to_dict_is_json_ready(self) -> None:
        import json

        observer = WorkloadObserver(SHAPE, decay=0.9)
        observer.observe_query(q(1, 4))
        observer.observe_update()
        payload = observer.snapshot().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["op_weights"][UPDATE_OP] == pytest.approx(1.0)


class TestOfflineLog:
    """``capacity=None, decay=1.0``: the grow-forever log the §9
    optimizers re-tune from offline, and its JSON form."""

    PROFILE = WorkloadProfile(
        range_probability=(0.7, 0.5, 0.2),
        singleton_probability=0.5,
        range_lengths=((3, 15), (2, 10), (2, 4)),
    )
    CUBE_SHAPE = (30, 20, 8)

    def filled_log(self, count: int, seed: int = 211) -> WorkloadObserver:
        log = WorkloadObserver(self.CUBE_SHAPE, capacity=None)
        rng = np.random.default_rng(seed)
        for query in generate_query_log(
            self.CUBE_SHAPE, self.PROFILE, count, rng
        ):
            log.observe_query(query)
        return log

    def test_truthiness_is_a_type_error(self) -> None:
        # The old footgun: an empty log is falsy, so ``if logbook:``
        # silently skipped save/advise paths.  Presence and traffic are
        # now explicit, and boolean coercion fails loudly.
        log = WorkloadObserver(SHAPE)
        with pytest.raises(TypeError, match="is not None"):
            bool(log)
        with pytest.raises(TypeError):
            if log:  # pragma: no cover — raises before the branch
                pass

    def test_length_matrix_matches_direct_call(self) -> None:
        from repro.optimizer.dimension_selection import (
            active_range_lengths,
        )

        log = self.filled_log(50)
        assert np.array_equal(
            log.snapshot().length_matrix(),
            active_range_lengths(log.queries, self.CUBE_SHAPE),
        )

    def test_end_to_end_retuning_cycle(self) -> None:
        """serve → log → select → materialize, from the log alone."""
        from repro.optimizer.cuboid_selection import CuboidSelector
        from repro.optimizer.materialize import MaterializedCuboidSet
        from repro.query.workload import make_cube

        shape = self.CUBE_SHAPE
        cube = make_cube(shape, np.random.default_rng(5), high=50)
        log = self.filled_log(80)
        plan = CuboidSelector(
            shape, log.snapshot().workloads(), 2000
        ).solve()
        served = MaterializedCuboidSet(cube, plan.chosen)
        for query in log.queries[:40]:
            expected = int(cube[query.to_box(shape).slices()].sum())
            assert served.range_sum(query) == expected

    def test_json_roundtrip(self) -> None:
        log = self.filled_log(40)
        restored = WorkloadObserver.from_json(log.to_json())
        assert restored.shape == log.shape
        assert restored.queries == log.queries
        assert restored.capacity is None and restored.decay == 1.0

    def test_file_roundtrip(self, tmp_path) -> None:
        log = WorkloadObserver(SHAPE, capacity=None)
        log.observe_query(q(2, 9, RangeSpec.at(1)))
        path = tmp_path / "log.json"
        log.save(path)
        assert WorkloadObserver.load(path).queries == log.queries

    def test_loads_a_file_the_querylog_shim_wrote(self) -> None:
        text = (
            '{"shape": [16, 8], "queries": '
            '[[["between", 2, 9], ["all"]], [["all"], ["at", 3]]]}'
        )
        restored = WorkloadObserver.from_json(text)
        assert restored.queries == (
            q(2, 9),
            RangeQuery((RangeSpec.all(), RangeSpec.at(3))),
        )
        assert restored.to_json() == text

    def test_bad_spec_kind_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown spec kind"):
            WorkloadObserver.from_json(
                '{"shape": [4], "queries": [[["median", 1]]]}'
            )
