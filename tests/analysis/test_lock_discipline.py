"""lock-discipline: rwlock sides for tier reads/mutations, bump coverage."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import lint_source
from repro.analysis.rules.lock_discipline import LockDisciplineRule

from tests.analysis.conftest import lint_fixture, rule_lines

REPO_ROOT = Path(__file__).resolve().parents[2]
RULE_ID = LockDisciplineRule.rule_id


def test_bad_fixture_flags_every_seeded_shape():
    report = lint_fixture("repro/serving/lock_bad.py", LockDisciplineRule())
    # 6: unlocked run_scalar; 9: unlocked apply_updates; 15: cache
    # invalidation after the write block; 18: generation bump with no
    # lock anywhere; 21: write block that applies but never bumps.
    assert rule_lines(report, RULE_ID) == [6, 9, 15, 18, 21]


def test_unlocked_write_batch_is_flagged():
    """``write_batch`` — the one write of a cube without an engine — is a
    tier mutation like ``apply_updates``: it needs the write side."""
    source = (
        "class Service:\n"
        "    async def unlocked_write(self, cube, updates):\n"
        "        write_batch(cube.base, updates)\n"
    )
    report = lint_source(
        "src/repro/serving/service.py", source, [LockDisciplineRule()]
    )
    assert rule_lines(report, RULE_ID) == [3]


def test_ok_fixture_is_clean():
    """Lexical blocks, the guard-helper lambda pattern, and the
    nested-closure-called-under-lock pattern all pass."""
    report = lint_fixture("repro/serving/lock_ok.py", LockDisciplineRule())
    assert report.violations == []


class TestRevertCoverage:
    """Removing the rwlock read guard from the real service must fail."""

    def _lint(self, source: str):
        return lint_source(
            "src/repro/serving/service.py", source, [LockDisciplineRule()]
        )

    def test_real_service_is_clean(self):
        source = (REPO_ROOT / "src/repro/serving/service.py").read_text()
        report = self._lint(source)
        assert [v for v in report.violations if v.rule_id == RULE_ID] == []

    def test_removing_read_guard_fails(self):
        """Revert: run tier computations without the read lock."""
        source = (REPO_ROOT / "src/repro/serving/service.py").read_text()
        buggy = source.replace(
            "        async with cube.rwlock.read_locked():\n"
            "            return await self._run(fn, work)\n",
            "        return await self._run(fn, work)\n",
        )
        assert buggy != source, "expected the read guard in _run_read"
        report = self._lint(buggy)
        flagged = [v for v in report.violations if v.rule_id == RULE_ID]
        assert flagged, "dropping _run_read's lock must trip the rule"
        assert any("read side" in v.message for v in flagged)

    def test_moving_bump_outside_write_lock_fails(self):
        """Revert: the PR 9-class bug this PR fixed in _apply_update —
        bump generation and invalidate after the write lock drops."""
        source = (REPO_ROOT / "src/repro/serving/service.py").read_text()
        buggy = source.replace(
            "            cube.generation += 1\n"
            "            cube.updates_applied += len(updates)\n"
            "            self.cache.invalidate_cube(cube.name)\n",
            "        cube.generation += 1\n"
            "        cube.updates_applied += len(updates)\n"
            "        self.cache.invalidate_cube(cube.name)\n",
        )
        assert buggy != source, "expected the in-lock bump in _apply_update"
        report = self._lint(buggy)
        flagged = [v for v in report.violations if v.rule_id == RULE_ID]
        assert flagged, "an out-of-lock generation bump must trip the rule"
