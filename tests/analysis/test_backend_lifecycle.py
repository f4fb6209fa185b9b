"""backend-lifecycle: fixtures plus revert coverage of the PR 9 fixes."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import lint_source
from repro.analysis.rules.backend_lifecycle import BackendLifecycleRule

from tests.analysis.conftest import FIXTURES, lint_fixture, rule_lines

REPO_ROOT = Path(__file__).resolve().parents[2]
RULE_ID = BackendLifecycleRule.rule_id


def test_bad_fixture_flags_every_seeded_shape():
    report = lint_fixture("repro/ingest/lifecycle_bad.py", BackendLifecycleRule())
    # 11/12: root and scope both leak on the handler re-raise; 29: the
    # unguarded maybe-owned release; 35: direct parameter release; 40:
    # fall-through leak.
    assert rule_lines(report, RULE_ID) == [11, 12, 29, 35, 40]


def test_ok_fixture_is_clean():
    report = lint_fixture("repro/ingest/lifecycle_ok.py", BackendLifecycleRule())
    assert report.violations == []


def test_exit_kind_named_in_message():
    report = lint_fixture("repro/ingest/lifecycle_bad.py", BackendLifecycleRule())
    messages = {v.line: v.message for v in report.violations}
    assert "exception re-raise path" in messages[11]
    assert "conditionally owned" in messages[29]
    assert "caller-provided" in messages[35]


class TestRevertCoverage:
    """The rule must fail if the PR 9 review fixes were reverted.

    Each test textually re-introduces one shipped bug into a copy of the
    real source (or of the fixture that keeps a removed function's
    shape) and asserts the rule catches it, so the analyzer is shown to
    cover the bug class, not just the seeded fixtures.
    """

    def _lint(self, relative: str, source: str):
        return lint_source(relative, source, [BackendLifecycleRule()])

    def test_real_ingest_build_is_clean(self):
        path = REPO_ROOT / "src/repro/ingest/build.py"
        report = self._lint("src/repro/ingest/build.py", path.read_text())
        assert [v for v in report.violations if v.rule_id == RULE_ID] == []

    def test_unguarding_ingest_root_release_fails(self):
        """Revert: release a caller-provided root on the abort path.

        The shipped bug lived in a builder that has since been removed;
        the fixture's ``guarded_conditional_owner`` keeps its shape.
        """
        relative = "repro/ingest/lifecycle_ok.py"
        original = (FIXTURES / relative).read_text()
        buggy = original.replace(
            "        if owns_root:\n            root.release()\n",
            "        root.release()\n",
        )
        assert buggy != original, "expected the owns_root guard in the fixture"
        report = self._lint(relative, buggy)
        flagged = [v for v in report.violations if v.rule_id == RULE_ID]
        assert flagged, "reverting the owns_root guard must trip the rule"
        assert any("conditionally owned" in v.message for v in flagged)

    def test_real_adaptive_is_clean(self):
        path = REPO_ROOT / "src/repro/serving/adaptive.py"
        report = self._lint("src/repro/serving/adaptive.py", path.read_text())
        assert [v for v in report.violations if v.rule_id == RULE_ID] == []

    def test_removing_adaptive_subscope_release_fails(self):
        """Revert: leak the rebuild subscope when the build aborts."""
        path = REPO_ROOT / "src/repro/serving/adaptive.py"
        original = path.read_text()
        buggy = original.replace(
            "            if build_backend is not None:\n"
            "                build_backend.release()\n",
            "",
        )
        assert buggy != original, "expected the abort-path release in adaptive.py"
        report = self._lint("src/repro/serving/adaptive.py", buggy)
        flagged = [v for v in report.violations if v.rule_id == RULE_ID]
        assert flagged, "removing the abort-path release must trip the rule"
        assert any("re-raise path" in v.message for v in flagged)
