"""The ``determinism`` rule: no unseeded randomness in verify/benchmarks."""

from __future__ import annotations

from repro.analysis.rules import DeterminismRule

from tests.analysis.conftest import lint_fixture


def test_flags_every_seeded_violation():
    report = lint_fixture(
        "repro/verify/determinism_bad.py", DeterminismRule()
    )
    assert len(report.violations) == 5
    messages = " ".join(v.message for v in report.violations)
    assert "np.random.rand" in messages
    assert "np.random.shuffle" in messages
    assert "default_rng" in messages
    assert "random.randint" in messages
    assert "random.Random" in messages


def test_benchmarks_scope_applies():
    report = lint_fixture("benchmarks/bench_bad.py", DeterminismRule())
    assert len(report.violations) == 1
    assert "standard_normal" in report.violations[0].message


def test_seeded_usage_passes():
    report = lint_fixture(
        "repro/verify/determinism_ok.py", DeterminismRule()
    )
    assert report.violations == []


def test_flags_unpinned_worker_pools():
    report = lint_fixture("repro/kernels/pool_bad.py", DeterminismRule())
    assert len(report.violations) == 3
    messages = " ".join(v.message for v in report.violations)
    assert "ThreadPoolExecutor" in messages
    assert "ProcessPoolExecutor" in messages
    assert "max_workers" in messages
    assert "default_rng" in messages


def test_pinned_pools_pass():
    report = lint_fixture("repro/kernels/pool_ok.py", DeterminismRule())
    assert report.violations == []


def test_scope_excludes_core_layers():
    rule = DeterminismRule()
    assert rule.applies_to("src/repro/verify/driver.py")
    assert rule.applies_to("src/repro/kernels/boundary.py")
    assert rule.applies_to("src/repro/ingest/build.py")
    assert rule.applies_to("benchmarks/bench_blocked_dispatch.py")
    assert not rule.applies_to("src/repro/core/prefix_sum.py")
    assert not rule.applies_to("tests/conftest.py")
