"""``python3 -m benchmarks.e2e compare A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B ÷ A
with its base, and a verdict —

* ``worse``: B's median is worse than A's by more than the metric's
  bound (direction-aware);
* ``unresolved``: not worse, but the run-to-run spread (IQR ÷ median of
  either side) is wider than the bound, so "unchanged" cannot be claimed;
* ``within-bound``: otherwise.

Exact counts (each run's ``exact`` section: operation counts, §8 element
counts, adaptive swaps) must be identical for every seed both files ran.
A failed request has no latency, so a side that sheds load looks faster:
any run of B that is not ``correct``, or has more ``failed`` operations
or ``wrong_answers`` than the same run of A (none, if A did not run that
seed), fails the comparison whatever its timings say.  The exit status
is non-zero on any ``worse`` row, changed exact count or such a run —
this is the A/A acceptance check, and the gate later changes are
measured with.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.e2e.metrics import END_TO_END
from benchmarks.e2e.report import summarize_suite


def verdict(metric_bound: float, better: str, a: dict, b: dict) -> str:
    """The row's verdict from two ``spread_of`` summaries."""
    base, new = a["median"], b["median"]
    change = (new - base) / base if better == "lower" else (base - new) / base
    if change > metric_bound:
        return "worse"
    spreads = [s["spread"] for s in (a, b) if s["spread"] is not None]
    if spreads and max(spreads) > metric_bound:
        return "unresolved"
    return "within-bound"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison fails."""
    summary_a, summary_b = summarize_suite(a), summarize_suite(b)
    lines = [
        f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12}  "
        f"{'B/A':>7}  {'spread A/B':>13}  verdict"
    ]
    failed = False
    for workload in summary_a:
        if workload not in summary_b:
            lines.append(f"{workload:<14} missing from B")
            failed = True
            continue
        for metric in END_TO_END:
            sa = summary_a[workload]["end_to_end"].get(metric.name)
            sb = summary_b[workload]["end_to_end"].get(metric.name)
            if sa is None or sb is None:
                continue
            assert metric.bound is not None
            row = verdict(metric.bound, metric.better, sa, sb)
            failed |= row == "worse"
            spreads = "/".join(
                "n=1" if s["spread"] is None else f"{s['spread'] * 100:.1f}%"
                for s in (sa, sb)
            )
            lines.append(
                f"{workload:<14} {metric.name:<12} {sa['median']:>12.5g} "
                f"{sb['median']:>12.5g}  {sb['median'] / sa['median']:>6.3f}x "
                f"(base {sa['median']:.5g} {metric.unit})  {spreads:>13}  {row}"
            )
        runs_a = {
            (kind, r["seed"]): r
            for kind, runs in a["workloads"][workload].items()
            for r in runs
        }
        for kind, runs in b["workloads"][workload].items():
            for run in runs:
                twin = runs_a.get((kind, run["seed"]))
                where = f"{workload:<14} seed {run['seed']} ({kind}):"
                for count in ("failed", "wrong_answers"):
                    base = 0 if twin is None else twin[count]
                    if run[count] > base:
                        failed = True
                        lines.append(f"{where} {count} {base} -> {run[count]}")
                if not run["correct"]:
                    failed = True
                    lines.append(f"{where} B's run is not correct")
                if twin is None:
                    continue
                ours, theirs = twin["exact"], run["exact"]
                for name in sorted(set(ours) | set(theirs)):
                    if ours.get(name) != theirs.get(name):
                        failed = True
                        lines.append(
                            f"{workload:<14} exact count {name} changed on "
                            f"seed {run['seed']} ({kind}): "
                            f"{ours.get(name)} -> {theirs.get(name)}"
                        )
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, failed = compare(a, b)
    print("\n".join(lines))
    print(
        "FAIL: regression, changed exact count or failed operations"
        if failed
        else "OK"
    )
    return 1 if failed else 0
