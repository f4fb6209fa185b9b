"""Greedy minimization of a failing scenario.

Because every step owns its seed (see
:class:`~repro.verify.scenarios.Scenario`), dropping a step never
changes the randomness of the steps that remain — so the shrinker can
delete steps, shorten axes, swap the memmap backend for memory, and
switch the engine phase off, keeping any candidate that still fails.
The result is the smallest scenario this greedy descent finds, which in
practice is a one- or two-step reproducer on a tiny cube.
"""

from __future__ import annotations

from dataclasses import replace
from collections.abc import Callable, Iterator

from repro.verify.driver import Divergence, run_scenario
from repro.verify.scenarios import Scenario


def shrink_scenario(
    scenario: Scenario,
    *,
    runner: Callable[[Scenario], Divergence | None] = run_scenario,
    max_attempts: int = 200,
) -> tuple[Scenario, Divergence]:
    """Minimize a failing scenario while it keeps failing.

    Args:
        scenario: A scenario for which ``runner`` reports a divergence.
        runner: The evaluation function (injectable for tests).
        max_attempts: Cap on candidate evaluations.

    Returns:
        ``(smallest, divergence)`` — the most-shrunk still-failing
        scenario and its divergence record.

    Raises:
        ValueError: ``scenario`` does not fail under ``runner``.
    """
    failure = runner(scenario)
    if failure is None:
        raise ValueError("scenario does not fail; nothing to shrink")
    best, best_failure = scenario, failure
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _candidates(best):
            attempts += 1
            result = runner(candidate)
            if result is not None:
                best, best_failure = candidate, result
                improved = True
                break
            if attempts >= max_attempts:
                break
    return best, best_failure


def _candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Strictly-smaller variants, most aggressive first."""
    steps = scenario.steps
    # Halve the tail first (log-time on long sequences), then singles.
    if len(steps) > 1:
        yield replace(scenario, steps=steps[: len(steps) // 2])
    for k in reversed(range(len(steps))):
        yield replace(scenario, steps=steps[:k] + steps[k + 1 :])
    if scenario.backend == "memmap":
        yield replace(scenario, backend="memory")
    if scenario.engine:
        yield replace(scenario, engine=False)
    for dim, size in enumerate(scenario.shape):
        if size > 1:
            shape = list(scenario.shape)
            shape[dim] = max(1, size // 2)
            yield replace(scenario, shape=tuple(shape))
