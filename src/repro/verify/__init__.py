"""Differential correctness harness (the repo's fuzzing subsystem).

Every structure registered in :mod:`repro.index.registry` with a
:class:`~repro.index.registry.FuzzProfile` is exercised against the
naive scan oracle of :mod:`repro.query.naive` under randomized
scenarios: adversarial shapes (size-1 axes, high dimensionality), every
declared dtype, every declared operator, interleaved query / batch
update / persistence steps, and both the in-memory and the memmap
array backend.  A failing scenario is shrunk to a minimal reproducer
and serialized to a replayable seed token.

Entry points:

* ``python -m repro.verify --seed 0 --trials 200`` — the CLI sweep.
* :func:`run_scenario` / :func:`scenario_for` — programmatic use; the
  ``tests/verify`` suite parametrizes these over the registry.
* :func:`shrink_scenario` — greedy minimization of a failing scenario.
"""

from repro.verify.driver import Divergence, run_scenario
from repro.verify.scenarios import (
    Scenario,
    fuzzable_indexes,
    scenario_for,
)
from repro.verify.shrink import shrink_scenario

__all__ = [
    "Divergence",
    "Scenario",
    "fuzzable_indexes",
    "run_scenario",
    "scenario_for",
    "shrink_scenario",
]
