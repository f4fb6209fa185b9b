"""Command line of the end-to-end benchmark.

Three ways in, one result schema:

``python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
    The driver contract: one run of one workload; the last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (every end-to-end metric untraced, every
    per-layer metric traced).

``python3 -m benchmarks.e2e [--smoke] [--repeats R] [--out FILE]``
    The suite: every workload (or those named with ``--workload``),
    ``R`` untraced runs on seeds ``seed, seed+1, …`` plus one traced run,
    every metric printed by name with its unit, one result JSON written.

``python3 -m benchmarks.e2e compare A.json B.json``
    Row per (workload, end-to-end metric); see :mod:`.compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import REPO_ROOT, RESULTS_DIR
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.report import budget_markdown, summarize_suite
from benchmarks.e2e.workloads import WORKLOADS

DEFAULT_SEED = 1997

SCHEMA = "repro-e2e-bench/1"

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e",
        description="End-to-end benchmark with a per-layer latency budget.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w.name for w in WORKLOADS],
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="length the timed phase is sized for (operation count = "
        "rate × seconds; see workloads.py)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="driver mode: one run, untraced (0) or traced (1)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small data and operation counts: every path in < 30 s",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="suite mode: untraced runs per workload (seeds seed…seed+R-1)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="where to write the result JSON"
    )
    parser.add_argument(
        "--budget",
        type=Path,
        default=None,
        help="suite mode: also write the latency-budget table (markdown)",
    )
    return parser


def _print_metrics(result: dict) -> None:
    """Every metric by name with its unit, for people."""
    print(
        f"== {result['workload']}  seed={result['seed']} "
        f"traced={int(result['traced'])}  ops={result['ops']['timed']} "
        f"in {result['timed_s']:.2f}s  failed={result['failed']} "
        f"wrong={result['wrong_answers']}/{result['checked']}"
    )
    section = "per_layer" if result["traced"] else "end_to_end"
    for name, value in result[section].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {UNITS[name]}")


def _driver_line(result: dict) -> str:
    """The contract's last line of standard output."""
    section = "per_layer" if result["traced"] else "end_to_end"
    metrics = {
        name: {"value": 0.0 if value is None else value, "unit": UNITS[name]}
        for name, value in result[section].items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _run_isolated(
    args: argparse.Namespace, name: str, seed: int, traced: bool
) -> dict:
    """One run in a process of its own, exactly as the driver starts it:
    memory high-water marks, span wrappers and heap state of one run must
    not leak into the next."""
    out = RESULTS_DIR / f"last-{name}-trace{int(traced)}.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(traced)),
        "--out", str(out),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    # All but the driver's JSON line, which only the driver wants.
    print("".join(done.stdout.splitlines(keepends=True)[:-1]), end="")
    if done.returncode not in (0, 1):
        raise SystemExit(f"run of {name} (seed {seed}) crashed")
    document = json.loads(out.read_text())
    return document["workloads"][name]["traced" if traced else "untraced"][0]


def _write(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)

    # Imported late: this pulls in numpy and the program under test,
    # which ``compare`` above must work without.
    from benchmarks.e2e.run import RunConfig, environment, run_workload

    names = args.workload or [w.name for w in WORKLOADS]
    document: dict = {
        "schema": SCHEMA,
        "environment": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }

    if args.trace is not None:
        if len(names) != 1:
            raise SystemExit("--trace runs exactly one --workload")
        config = RunConfig(
            names[0], args.seed, args.seconds, bool(args.trace), args.smoke
        )
        result = run_workload(config)
        key = "traced" if config.traced else "untraced"
        document["workloads"][names[0]] = {key: [result]}
        out = args.out or RESULTS_DIR / f"last-{names[0]}-trace{args.trace}.json"
        _write(out, document)
        _print_metrics(result)
        print(_driver_line(result))
        return 0 if result["correct"] else 1

    failed = False
    for name in names:
        runs = [
            _run_isolated(args, name, args.seed + repeat, traced=False)
            for repeat in range(args.repeats)
        ]
        traced = _run_isolated(args, name, args.seed, traced=True)
        document["workloads"][name] = {"untraced": runs, "traced": [traced]}
        failed |= not all(r["correct"] and not r["failed"] for r in [*runs, traced])
    document["summary"] = summarize_suite(document)
    out = args.out or RESULTS_DIR / ("smoke.json" if args.smoke else "last.json")
    _write(out, document)
    print(f"result written to {out}")
    if args.budget is not None:
        args.budget.write_text(budget_markdown(document))
        print(f"budget table written to {args.budget}")
    return 1 if failed else 0
