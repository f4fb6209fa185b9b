"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e`` (not collected by tier-1,
whose ``testpaths`` is ``tests``).  They pin the properties the numbers
rest on: seeded request streams, the percentile and self-time
arithmetic, an oracle that notices a wrong answer, a result whose names
match ``BENCHMARK.json``, and a ``compare`` that fails when it should.
"""

from __future__ import annotations

import copy
import json
import re
import time

import pytest

from benchmarks.e2e import REPO_ROOT, cli, trace
from benchmarks.e2e.compare import compare
from benchmarks.e2e.data import SMOKE, Oracle, dense_cube, fact_table
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, benchmark_json
from benchmarks.e2e.trace import END, PARENT, START, Recorder
from benchmarks.e2e.workloads import WORKLOADS, build_stream, encode_stream

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SERVING = [w for w in WORKLOADS if w.driver != "library"]


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", SERVING, ids=lambda w: w.name)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    def stream(seed):
        return encode_stream(
            build_stream(workload, seed, SMOKE.shape, 1.0, smoke=True)
        )

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_point_cold_boxes_are_distinct():
    stream = build_stream(WORKLOADS[0], 5, SMOKE.shape, 1.0, smoke=True)
    keys = [json.dumps(p["ranges"]) for _, p in stream.phases[0]]
    assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert trace.percentile(values, 0) == 1.0
    assert trace.percentile(values, 50) == 2.5
    assert trace.percentile(values, 100) == 4.0
    assert trace.percentile([10.0, 20.0], 95) == pytest.approx(19.5)


def _span(recorder, name, layer, start, end, parent=None, request=None):
    span = [recorder.name_id(name, layer), start, end, parent, request, None]
    recorder.spans.append(span)
    return span


def test_self_time_is_span_minus_covered_children():
    recorder = Recorder()
    root = _span(recorder, "root", "serving.service", 0.0, 10.0, request=0)
    # Two overlapping children cover [1, 5]; a third covers [7, 8].
    _span(recorder, "a", "query.engine", 1.0, 4.0, root, 0)
    _span(recorder, "b", "query.engine", 3.0, 5.0, root, 0)
    leaf_parent = _span(recorder, "c", "serving.cache", 7.0, 8.0, root, 0)
    _span(recorder, "d", "kernels", 7.25, 7.75, leaf_parent, 0)
    selfs = trace.self_times(recorder.spans)
    assert selfs == [5.0, 3.0, 2.0, 0.5, 0.5]

    summary = trace.summarize(recorder, wall_s=10.0)
    layers = summary["layers"]
    assert summary["requests"] == 1
    # The root's own 5 of 10 s are not below it, whatever the layers add up to.
    assert summary["attributed_share"] == pytest.approx(0.5)
    assert layers["serving.service"]["share"] == pytest.approx(0.5)
    assert layers["query.engine"]["self_ms"] == pytest.approx(5000.0)
    assert layers["kernels"]["busy_share"] == pytest.approx(0.05)


def test_operations_count_in_their_class_over_the_whole_run():
    from benchmarks.e2e.run import RunConfig, Tape, _result
    from benchmarks.e2e.workloads import BY_NAME, Stream

    # 90 reads of 1..90 ms and 10 writes of 1..10 s: every one counts, in
    # its class, wherever in the run it fell.
    tape = Tape(wall_s=4.0)
    for position in range(100):
        write = position % 10 == 9
        tape.record((position // 10 + 1.0) if write else 0.001 * (position + 1), "x", write)
    report = {"peak_rss_mb": 1.0, "rss_mb": 1.0, "cpu_s": 1.0, "wall_s": 4.0, "trace": None}
    result = _result(
        RunConfig("drift-write", 1, 1.0), BY_NAME["drift-write"], Stream([], []), tape,
        setup_samples=[2.0, 1.0, 3.0], report=report, layer={}, checked=1, wrong=0,
        informational={},
    )
    e2e = result["end_to_end"]
    reads = [float(p + 1) for p in range(100) if p % 10 != 9]
    assert e2e["op_p50_ms"] == pytest.approx(trace.percentile(reads, 50))
    assert e2e["op_p95_ms"] == pytest.approx(trace.percentile(reads, 95))
    assert e2e["side_p50_ms"] == pytest.approx(5500.0)
    assert result["informational"]["side_p95_ms"] == pytest.approx(9550.0)
    assert e2e["work_per_s"] == pytest.approx(25.0)
    assert e2e["setup_s"] == 2.0
    # point-burst: one class, reported under both names, and a tail that
    # is not gated — the slot repeats the median, the p95 stays visible.
    tape.side = [False] * 100
    alone = _result(
        RunConfig("point-burst", 1, 1.0), BY_NAME["point-burst"], Stream([], []), tape,
        setup_samples=[1.0], report=report, layer={}, checked=1, wrong=0,
        informational={},
    )
    e2e = alone["end_to_end"]
    assert e2e["side_p50_ms"] == e2e["op_p95_ms"] == e2e["op_p50_ms"]
    assert alone["informational"]["op_p95_ms"] > e2e["op_p50_ms"]
    assert [w.name for w in WORKLOADS if w.gated_tail] == [
        "point-cold", "batch-scan", "drift-write"
    ]


def test_missing_span_target_is_reported_not_raised(monkeypatch):
    bogus = trace.Target("serving.cache", "ResultCache.no_such_method", "repro.serving.cache")
    gone = trace.Target("serving.cache", "Gone.method", "repro.serving.no_such_module")
    monkeypatch.setattr(trace, "TARGETS", (*trace.TARGETS, bogus, gone))
    recorder = Recorder()
    try:
        missing = recorder.install()
    finally:
        recorder.uninstall()
    assert missing == ["ResultCache.no_such_method", "Gone.method"]


def test_wrappers_record_nested_spans_and_uninstall_restores():
    from repro.serving.cache import ResultCache

    original = ResultCache.get
    recorder = Recorder()
    recorder.install()
    try:
        cache = ResultCache(4)
        cache.put(("c", "sum", (0,), (1,)), 0, 5)
        assert cache.get(("c", "sum", (0,), (1,)), 0) == (True, 5)
    finally:
        recorder.uninstall()
    assert ResultCache.get is original
    names = [recorder.names[s[0]] for s in recorder.spans]
    assert names == ["ResultCache.put", "ResultCache.get"]
    assert all(s[END] >= s[START] and s[PARENT] is None for s in recorder.spans)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def test_oracle_accepts_right_answers_and_catches_wrong_ones():
    coords, values = fact_table(3, SMOKE)
    oracle = Oracle(dense_cube(SMOKE.shape, coords, values))
    ranges = [[2, 9], None, [0, 3]]
    window = oracle.cube[2:10, :, 0:4]
    right = {"value": int(window.sum())}
    payload = {"op": "sum", "ranges": ranges}
    assert oracle.check_scalar(payload, right)
    assert not oracle.check_scalar(payload, {"value": right["value"] + 1})
    assert not oracle.check_scalar(payload, {"value": None})

    batch = {"op": "sum", "queries": [ranges, ranges]}
    assert oracle.check_batch(batch, {"values": [right["value"]] * 2})
    assert not oracle.check_batch(batch, {"values": [right["value"], 0]})

    rollup = {"op": "sum", "dims": [0, 1]}
    cells = oracle.cube.sum(axis=2).reshape(-1).tolist()
    assert oracle.check_rollup(rollup, {"values": cells})
    cells[-1] += 1
    assert not oracle.check_rollup(rollup, {"values": cells})

    oracle.apply([{"index": [2, 0, 0], "delta": 5}])
    assert oracle.check_scalar(payload, {"value": right["value"] + 5})


def test_a_corrupted_response_fails_the_command(monkeypatch, tmp_path):
    from benchmarks.e2e import run

    plain = run.Connection.request

    async def corrupting(self, method, path, body=b""):
        status, reply = await plain(self, method, path, body)
        if path == "/query" and b'"value"' in reply:
            document = json.loads(reply)
            if isinstance(document["value"], int):
                document["value"] += 1
                reply = json.dumps(document).encode()
        return status, reply

    monkeypatch.setattr(run.Connection, "request", corrupting)
    code = cli.main(
        ["--workload", "point-cold", "--smoke", "--seed", "11",
         "--trace", "0", "--out", str(tmp_path / "corrupt.json")]
    )
    assert code == 1
    result = json.loads((tmp_path / "corrupt.json").read_text())
    run_result = result["workloads"]["point-cold"]["untraced"][0]
    assert run_result["wrong_answers"] > 0 and not run_result["correct"]


# ----------------------------------------------------------------------
# The smoke suite and the contract file
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    started = time.perf_counter()
    code = cli.main(["--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - started
    return code, elapsed, json.loads(out.read_text())


def test_smoke_runs_all_six_workloads_correctly_in_time(smoke):
    code, elapsed, document = smoke
    assert code == 0
    assert elapsed < 30.0
    assert list(document["workloads"]) == [w.name for w in WORKLOADS]
    for runs in document["workloads"].values():
        for run in runs["untraced"] + runs["traced"]:
            assert run["failed"] == 0 and run["wrong_answers"] == 0
            assert run["checked"] > 0 and run["correct"]
            assert run["attempted"] >= 1


def test_smoke_names_match_benchmark_json(smoke):
    _, _, document = smoke
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(document["workloads"])
    e2e = [m["name"] for m in contract["end_to_end"]]
    layer = [m["name"] for m in contract["per_layer"]]
    for name in [*document["workloads"], *e2e, *layer]:
        assert NAME_RULE.fullmatch(name), name
    for runs in document["workloads"].values():
        assert list(runs["untraced"][0]["end_to_end"]) == e2e
        assert list(runs["traced"][0]["per_layer"]) == layer
        for value in runs["untraced"][0]["end_to_end"].values():
            assert value > 0
    assert document["environment"]["pinned_env"]["OMP_NUM_THREADS"] == "1"


def test_traced_serving_runs_attribute_the_request(smoke):
    _, _, document = smoke
    for name, runs in document["workloads"].items():
        traced = runs["traced"][0]
        assert traced["trace_missing"] == []
        if name != "ingest-build":
            # Strictly inside (0, 1): QueryService's own self time is
            # never attributed to the layers below it.
            assert 0.0 < traced["per_layer"]["trace.attributed_share"] < 1.0
    assert document["summary"]["point-cold"]["trace_overhead_ratio"] > 0


def test_benchmark_json_is_generated_from_the_metric_table():
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert contract == benchmark_json(workloads, contract["run_seconds"])
    assert {m.name for m in END_TO_END}.isdisjoint(m.name for m in PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare_verdicts(smoke):
    _, _, document = smoke
    lines, failed = compare(document, document)
    assert not failed and all("worse" not in line for line in lines)

    slower = copy.deepcopy(document)
    for run in slower["workloads"]["point-cold"]["untraced"]:
        run["end_to_end"]["op_p50_ms"] *= 1.5
    lines, failed = compare(document, slower)
    assert failed
    assert any("point-cold" in l and "op_p50_ms" in l and "worse" in l for l in lines)

    recounted = copy.deepcopy(document)
    traced = recounted["workloads"]["batch-scan"]["traced"][0]
    traced["exact"]["instrumentation.counters.prefix_cells"] += 1
    lines, failed = compare(document, recounted)
    assert failed and any("exact count" in line for line in lines)


def test_compare_fails_on_shed_or_wrong_operations_however_fast(smoke):
    _, _, document = smoke
    for field, value in (("failed", 3), ("wrong_answers", 1), ("correct", False)):
        shedding = copy.deepcopy(document)
        run = shedding["workloads"]["dashboard-hot"]["untraced"][0]
        run[field] = value
        # The other way round (A had the failures, B is clean) passes.
        assert not compare(shedding, document)[1]
        for name in ("op_p50_ms", "op_p95_ms", "side_p50_ms"):
            run["end_to_end"][name] *= 0.5  # failed requests carry no latency
        lines, failed = compare(document, shedding)
        assert failed, field
        assert all("worse" not in line for line in lines)
        assert any("dashboard-hot" in l and "seed" in l for l in lines)


def test_compare_reports_wide_spread_as_unresolved(smoke):
    _, _, document = smoke
    noisy = copy.deepcopy(document)
    runs = noisy["workloads"]["point-burst"]["untraced"]
    for factor in (0.7, 1.3):
        extra = copy.deepcopy(runs[0])
        extra["seed"] += 100
        extra["end_to_end"]["op_p50_ms"] *= factor
        runs.append(extra)
    lines, failed = compare(noisy, noisy)
    assert not failed
    assert any("point-burst" in l and "op_p50_ms" in l and "unresolved" in l for l in lines)
