"""Baseline round-trip and context-hash keys."""

from __future__ import annotations

import json

from repro.analysis.baseline import (
    baseline_key,
    load_baseline,
    partition_baseline,
    write_baseline,
)
from repro.analysis.engine import Violation, lint_source


def _violation(path="a.py", line=3, rule="dtype-safety", fingerprint=""):
    return Violation(
        path=path,
        line=line,
        col=1,
        rule_id=rule,
        message="m",
        fingerprint=fingerprint,
    )


def test_key_uses_context_hash_when_available():
    v = _violation(fingerprint="deadbeef00112233")
    assert baseline_key(v) == "a.py:dtype-safety:hdeadbeef00112233"


def test_key_falls_back_to_line_without_fingerprint():
    assert baseline_key(_violation()) == "a.py:dtype-safety:3"


def test_missing_file_is_empty_baseline(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


def test_write_then_load_round_trip(tmp_path):
    target = tmp_path / "cubelint.baseline.json"
    count = write_baseline(
        target,
        [
            _violation(fingerprint="aa" * 8),
            _violation(line=9, fingerprint="bb" * 8),
        ],
    )
    assert count == 2
    payload = json.loads(target.read_text())
    assert payload["version"] == 2
    assert payload["entries"] == [
        "a.py:dtype-safety:h" + "aa" * 8,
        "a.py:dtype-safety:h" + "bb" * 8,
    ]
    assert load_baseline(target) == set(payload["entries"])


def test_write_deduplicates_keys(tmp_path):
    target = tmp_path / "b.json"
    fp = "cc" * 8
    assert (
        write_baseline(
            target,
            [_violation(fingerprint=fp), _violation(line=9, fingerprint=fp)],
        )
        == 1
    )


def test_partition_splits_new_from_grandfathered():
    old = _violation(fingerprint="aa" * 8)
    fresh = _violation(line=7, fingerprint="bb" * 8)
    new, grandfathered = partition_baseline([old, fresh], {baseline_key(old)})
    assert new == [fresh]
    assert grandfathered == [old]


def _lint(source: str):
    from tests.analysis.test_engine import FlagEveryCall

    return lint_source("x.py", source, [FlagEveryCall()])


def test_fingerprint_survives_line_shift():
    """Inserting code above a finding must not change its baseline key."""
    before = _lint("f(1, 2)\n").violations[0]
    after = _lint("# a new comment\n\nx = 0\nf(1, 2)\n").violations[0]
    assert before.line != after.line
    assert before.fingerprint == after.fingerprint
    assert baseline_key(before) == baseline_key(after)


def test_fingerprint_changes_when_statement_edited():
    """Editing a grandfathered statement resurfaces it for review."""
    before = _lint("f(1, 2)\n").violations[0]
    after = _lint("f(1, 3)\n").violations[0]
    assert before.fingerprint != after.fingerprint


def test_fingerprint_spans_multiline_statement():
    """The hash covers the whole statement, stripped per line."""
    compact = _lint("f(1,\n2)\n").violations[0]
    shifted = _lint("pass\nf(1,\n    2)\n").violations[0]
    assert compact.fingerprint == shifted.fingerprint
