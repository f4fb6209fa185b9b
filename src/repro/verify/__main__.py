"""CLI for the differential harness: ``python -m repro.verify``.

Sweep mode (the default) round-robins scenarios over every registered
index that advertises a fuzz profile::

    python -m repro.verify --seed 0 --trials 200

On the first divergence the scenario is shrunk to a minimal reproducer,
its replay token is printed, an optional JSON artifact is written, and
the process exits 1.  Replay mode re-runs one token::

    python -m repro.verify --replay rv1-...

``--time-budget`` bounds wall-clock for CI smoke jobs; trials past the
budget are skipped and reported, never silently dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.verify.driver import Divergence, run_scenario
from repro.verify.scenarios import Scenario, fuzzable_indexes, scenario_for
from repro.verify.shrink import shrink_scenario

#: Spreads trial numbers across scenario seed space per root seed.
SEED_STRIDE = 1_000_003


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differentially fuzz every registered index "
        "against the naive oracle.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=100,
        help="scenarios to run, round-robin over indexes (default 100)",
    )
    parser.add_argument(
        "--index",
        action="append",
        metavar="NAME",
        help="restrict to this registry name (repeatable)",
    )
    parser.add_argument(
        "--backend",
        choices=("both", "memory", "memmap"),
        default="both",
        help="pin the array backend (default: generator's choice)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new trials after this much wall-clock",
    )
    parser.add_argument(
        "--artifact",
        metavar="PATH",
        help="write a JSON failure artifact here on divergence",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the raw failing scenario without minimizing",
    )
    parser.add_argument(
        "--replay",
        metavar="TOKEN",
        help="re-run one serialized scenario instead of sweeping",
    )
    return parser


def _report(failure: Divergence, artifact: str | None) -> None:
    token = failure.scenario.to_token()
    print("DIVERGENCE:", failure.describe())
    print(json.dumps(failure.detail, indent=2, default=str))
    print(f"replay with: python -m repro.verify --replay {token}")
    if artifact:
        record = {
            "index": failure.scenario.index,
            "scenario": json.loads(_scenario_json(failure)),
            "detail": failure.detail,
            "token": token,
        }
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, default=str)
        print(f"artifact written to {artifact}")


def _scenario_json(failure: Divergence) -> str:
    scenario = failure.scenario
    return json.dumps(
        {
            "index": scenario.index,
            "seed": scenario.seed,
            "shape": list(scenario.shape),
            "dtype": scenario.dtype,
            "operator": scenario.operator,
            "params": [list(pair) for pair in scenario.params],
            "backend": scenario.backend,
            "steps": [list(step) for step in scenario.steps],
            "engine": scenario.engine,
        }
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.replay:
        scenario = Scenario.from_token(args.replay)
        failure = run_scenario(scenario)
        if failure is None:
            print(f"{scenario.index}: scenario passes (no divergence)")
            return 0
        _report(failure, args.artifact)
        return 1

    names = fuzzable_indexes(args.index)
    if not names:
        print("no fuzzable indexes selected", file=sys.stderr)
        return 2
    force = None if args.backend == "both" else args.backend
    started = time.monotonic()
    completed = 0
    per_index: dict[str, int] = {name: 0 for name in names}
    for trial in range(args.trials):
        elapsed = time.monotonic() - started
        if args.time_budget is not None and elapsed > args.time_budget:
            print(
                f"time budget of {args.time_budget:.0f}s exhausted "
                f"after {completed}/{args.trials} trials"
            )
            break
        name = names[trial % len(names)]
        scenario = scenario_for(
            name,
            args.seed * SEED_STRIDE + trial,
            force_backend=force,
        )
        completed += 1
        per_index[name] += 1
        failure = run_scenario(scenario)
        if failure is not None:
            if not args.no_shrink:
                _, failure = shrink_scenario(failure.scenario)
            _report(failure, args.artifact)
            return 1
    coverage = ", ".join(
        f"{name}:{count}" for name, count in sorted(per_index.items())
    )
    print(
        f"OK: {completed} scenarios, {len(names)} indexes, "
        "no divergences"
    )
    print(f"coverage: {coverage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
