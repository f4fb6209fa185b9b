"""Baseline handling: grandfather known violations, fail on new ones.

The baseline is a checked-in JSON file listing violation keys
(``path:rule-id:h<context-hash>``).  A lint run compares its findings
against the baseline: grandfathered entries are reported separately and
do not fail the run, anything new does.  ``python -m repro.analysis
--write-baseline`` regenerates the file; the project keeps it
(near-)empty — real violations get fixed, deliberate exceptions use
inline ``# cubelint: allow[...]`` suppressions instead.

Key format
----------

Keys are ``path:rule-id:h<hash>`` where the hash is a content hash of
the flagged statement's source (:func:`~repro.analysis.engine.
statement_fingerprint`): the identity follows the statement, not its
line number, so an unrelated edit *above* a grandfathered finding
neither un-baselines it nor masks a new violation landing on its old
line.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.engine import Violation

#: Default baseline location (repo root, next to ``pyproject.toml``).
DEFAULT_BASELINE_NAME = "cubelint.baseline.json"

_FORMAT_VERSION = 2


def baseline_key(violation: Violation) -> str:
    """The stable identity of a violation for baseline matching.

    The trailing component is a content hash of the flagged statement,
    so the entry survives the statement moving to a different line but
    not the statement being edited — an edited grandfathered violation
    resurfaces for review instead of hiding forever.  Violations with no
    fingerprint (synthetic, or anchored outside the file) have only
    their line to go by.
    """
    if violation.fingerprint:
        return f"{violation.path}:{violation.rule_id}:h{violation.fingerprint}"
    return f"{violation.path}:{violation.rule_id}:{violation.line}"


def load_baseline(path: Path | str) -> set[str]:
    """Read a baseline file; a missing file is an empty baseline."""
    file_path = Path(path)
    if not file_path.exists():
        return set()
    payload = json.loads(file_path.read_text(encoding="utf-8"))
    entries = payload.get("entries", [])
    return {str(entry) for entry in entries}


def write_baseline(path: Path | str, violations: list[Violation]) -> int:
    """Write ``violations`` as the new baseline; returns the entry count."""
    entries = sorted({baseline_key(v) for v in violations})
    payload = {"version": _FORMAT_VERSION, "entries": entries}
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return len(entries)


def partition_baseline(
    violations: list[Violation], baseline: set[str]
) -> tuple[list[Violation], list[Violation]]:
    """Split findings into ``(new, grandfathered)`` against a baseline."""
    new: list[Violation] = []
    grandfathered: list[Violation] = []
    for violation in violations:
        if baseline_key(violation) in baseline:
            grandfathered.append(violation)
        else:
            new.append(violation)
    return new, grandfathered
