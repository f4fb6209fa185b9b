"""The ``box-validation`` rule: registered entry points validate boxes."""

from __future__ import annotations

from repro.analysis.rules import BoxValidationRule

from tests.analysis.conftest import lint_fixture


def test_flags_unvalidated_entry_points():
    report = lint_fixture("registry/box_bad.py", BoxValidationRule())
    names = sorted(v.message for v in report.violations)
    assert len(names) == 3
    assert "UnvalidatedSum.max_value" in names[0]
    assert "UnvalidatedSum.range_sum'" in names[1]
    assert "UnvalidatedSum.range_sum_unchecked" in names[2]


def test_validated_and_delegating_entry_points_pass():
    report = lint_fixture("registry/box_ok.py", BoxValidationRule())
    assert report.violations == []


def test_unregistered_classes_are_ignored():
    report = lint_fixture("registry/box_ok.py", BoxValidationRule())
    assert all(
        "UnregisteredHelper" not in v.message for v in report.violations
    )
