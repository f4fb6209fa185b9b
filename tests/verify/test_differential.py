"""Registry-parametrized differential tests (the harness as pytest).

Every index that advertises a fuzz profile is swept against the shadow
oracle with a fixed-seed budget; a failure message carries the replay
token, so a red test here is immediately reproducible with
``python -m repro.verify --replay <token>``.
"""

from __future__ import annotations

import pytest

from repro.index.registry import available_indexes, get_index_info
from repro.verify import (
    Scenario,
    fuzzable_indexes,
    run_scenario,
    scenario_for,
)
from tests.verify.conftest import SEED_BASE


def _sweep(name: str, seeds: "range") -> None:
    for seed in seeds:
        scenario = scenario_for(name, seed)
        assert scenario is not None
        failure = run_scenario(scenario)
        assert failure is None, (
            f"divergence: {failure.detail}\n"
            f"replay with: python -m repro.verify --replay "
            f"{failure.scenario.to_token()}"
        )


def test_every_registered_index_is_fuzzable():
    """Registering an index without a fuzz profile is a review error."""
    assert fuzzable_indexes() == available_indexes()


@pytest.mark.parametrize("name", fuzzable_indexes())
def test_differential_agreement(name, trial_budget):
    """No divergence from the oracle over the per-index budget."""
    _sweep(name, range(SEED_BASE, SEED_BASE + trial_budget))


@pytest.mark.parametrize(
    "name",
    [n for n in fuzzable_indexes() if get_index_info(n).accepts_backend],
)
def test_differential_agreement_on_memmap(name, trial_budget):
    """Every backend-capable index also agrees when spilled to disk."""
    budget = max(2, trial_budget // 2)
    for seed in range(SEED_BASE + 500, SEED_BASE + 500 + budget):
        scenario = scenario_for(name, seed, force_backend="memmap")
        assert scenario.backend == "memmap"
        failure = run_scenario(scenario)
        assert failure is None, (
            f"divergence: {failure.detail}\n"
            f"replay with: python -m repro.verify --replay "
            f"{failure.scenario.to_token()}"
        )


@pytest.mark.parametrize("name", fuzzable_indexes())
def test_token_round_trip(name):
    """A scenario survives serialization bit-identically."""
    scenario = scenario_for(name, SEED_BASE)
    assert Scenario.from_token(scenario.to_token()) == scenario


def test_token_accepts_raw_json():
    scenario = scenario_for("prefix_sum", SEED_BASE)
    import json

    payload = json.dumps(
        {
            "index": scenario.index,
            "seed": scenario.seed,
            "shape": list(scenario.shape),
            "dtype": scenario.dtype,
            "operator": scenario.operator,
            "params": [list(p) for p in scenario.params],
            "backend": scenario.backend,
            "steps": [list(s) for s in scenario.steps],
            "engine": scenario.engine,
        }
    )
    assert Scenario.from_token(payload) == scenario


def test_legacy_kernel_field_is_ignored():
    """Tokens minted while scenarios named an execution kernel (or
    before they did) replay as the same scenario."""
    import dataclasses
    import json

    scenario = scenario_for("prefix_sum", SEED_BASE)
    payload = dataclasses.asdict(scenario)
    assert "kernel" not in payload
    for legacy in ({"kernel": "threaded"}, {"kernel": "numpy"}, {}):
        rebuilt = Scenario.from_token(json.dumps({**payload, **legacy}))
        assert rebuilt == scenario
    assert run_scenario(rebuilt) is None


def test_cli_seeds_draw_the_pinned_scenarios():
    """``--seed 0/1/6`` draw what they drew while a kernel name was also
    drawn (it was drawn last, so dropping it must not shift the rng
    stream); digests recorded at the last commit that drew one."""
    import dataclasses
    import hashlib
    import json

    from repro.verify.__main__ import SEED_STRIDE

    names = (
        "blocked_partial_prefix_sum",
        "blocked_prefix_sum",
        "partial_prefix_sum",
        "prefix_sum",
        "range_max_tree",
        "sparse_max_rtree",
        "sparse_region_sum",
        "sparse_sum_1d",
    )
    pinned = {
        0: "01a0e1d3a32adf24772e1094f64fd422451e2f18",
        1: "6c633a042d671d6a588239881a614fe78659fc39",
        6: "30c27fac684a4234afd60303300f1887e9f9493a",
    }
    for seed, digest in pinned.items():
        drawn = hashlib.sha1()
        for trial, name in enumerate(names):
            scenario = scenario_for(name, seed * SEED_STRIDE + trial)
            drawn.update(
                json.dumps(
                    dataclasses.asdict(scenario), sort_keys=True
                ).encode()
            )
        assert drawn.hexdigest() == digest


def test_generation_is_deterministic():
    for name in fuzzable_indexes():
        assert scenario_for(name, 123) == scenario_for(name, 123)
        assert scenario_for(name, 123) != scenario_for(name, 124)


def test_cli_sweep_smoke(capsys):
    """The module CLI runs a tiny clean sweep and exits 0."""
    from repro.verify.__main__ import main

    assert main(["--seed", "0", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert "coverage:" in out


def test_cli_replay_of_passing_scenario(capsys):
    from repro.verify.__main__ import main

    token = scenario_for("prefix_sum", SEED_BASE).to_token()
    assert main(["--replay", token]) == 0
    assert "no divergence" in capsys.readouterr().out
