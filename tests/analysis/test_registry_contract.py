"""The ``registry-contract`` rule: registrations match implementations."""

from __future__ import annotations

from repro.analysis.rules import RegistryContractRule
from repro.analysis.rules.registry_contract import protocol_surface

from tests.analysis.conftest import lint_fixture


def test_protocol_surface_extraction():
    tables = protocol_surface()
    assert set(tables["RangeSumIndex"]) == {
        "query",
        "query_many",
        "apply_updates",
        "memory_cells",
        "describe",
    }
    # Mixin methods are concrete; _IndexBase placeholders are not (the
    # one apply_updates path is concrete and ends in absorb).
    assert tables["RangeSumIndexMixin"]["query"]
    assert tables["RangeSumIndexMixin"]["describe"]
    assert tables["RangeSumIndexMixin"]["apply_updates"]
    assert not tables["RangeSumIndexMixin"]["absorb"]
    assert not tables["RangeSumIndexMixin"]["state_dict"]


def test_flags_missing_capabilities():
    report = lint_fixture("registry/contract_bad.py", RegistryContractRule())
    by_message = {v.message for v in report.violations}
    hollow = next(m for m in by_message if "HollowSum" in m)
    assert "absorb" in hollow
    assert "state_dict" in hollow
    assert "from_state" in hollow
    bare = next(m for m in by_message if "BareMax" in m)
    assert "memory_cells" in bare
    assert "query_many" in bare
    assert "describe" in bare


def test_compliant_registrations_pass():
    report = lint_fixture("registry/contract_ok.py", RegistryContractRule())
    assert report.violations == []
