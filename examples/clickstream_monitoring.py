"""Clickstream monitoring: multi-measure cubes, rolling windows, and the
self-tuning loop (serve → log → re-tune → re-materialize).

A web-analytics team tracks (day, country, device, page-section) events
carrying two measures: page views and dwell-time.  The example shows

* :class:`MeasureSet` — several measures over shared dimensions, with
  AVERAGE and cross-measure ratios from constant-time queries;
* ROLLING windows (§1 lists ROLLING SUM as a range-sum special case);
* the §9 loop closed by :class:`WorkloadObserver`: live queries are recorded,
  the cuboid selector re-tunes from the log, and the chosen plan is
  materialized and replayed.

Run:
    python examples/clickstream_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import AccessCounter, CategoricalDimension, IntegerDimension
from repro.cube import MeasureSet
from repro.optimizer import CuboidSelector, MaterializedCuboidSet
from repro.query import WorkloadObserver

COUNTRIES = ["US", "DE", "JP", "BR", "IN", "GB"]
DEVICES = ["desktop", "mobile", "tablet"]
SECTIONS = ["home", "search", "product", "checkout", "support"]


def generate_events(rng: np.random.Generator, count: int):
    for _ in range(count):
        yield {
            "day": int(rng.integers(1, 91)),
            "country": COUNTRIES[int(rng.integers(0, len(COUNTRIES)))],
            "device": DEVICES[int(rng.integers(0, len(DEVICES)))],
            "section": SECTIONS[int(rng.integers(0, len(SECTIONS)))],
            "views": int(rng.integers(1, 20)),
            "dwell_seconds": int(rng.integers(5, 600)),
        }


def main() -> None:
    rng = np.random.default_rng(90)
    dimensions = [
        IntegerDimension("day", 1, 90),
        CategoricalDimension("country", COUNTRIES),
        CategoricalDimension("device", DEVICES),
        CategoricalDimension("section", SECTIONS),
    ]
    events = MeasureSet.from_records(
        generate_events(rng, 60_000),
        dimensions,
        measures=["views", "dwell_seconds"],
    )
    events.build_indexes(block_size=1, max_fanout=3)
    print(f"clickstream cube: {events.shape}, measures "
          f"{events.measure_names}")

    # --- Multi-measure dashboard queries -------------------------------
    q1_views = events.sum("views", day=(1, 30))
    q1_dwell = events.average("dwell_seconds", day=(1, 30))
    print(f"\ndays 1–30: {q1_views} views, "
          f"avg dwell {q1_dwell:.0f}s per event")
    engagement = events.ratio(
        "dwell_seconds", "views", section="checkout"
    )
    print(f"checkout dwell-per-view ratio: {engagement:.1f}s")
    where, peak = events.max("views", device="mobile")
    print(f"hottest mobile cell: {peak} views at {where}")

    # --- Rolling 7-day views (§1's ROLLING SUM) ------------------------
    print("\n7-day rolling views (first 8 windows):")
    engine = events.cube("views").engine
    for start, total in list(engine.rolling_sum(axis=0, window=7))[:8]:
        print(f"  days {start + 1:>2}–{start + 7:>2}: {total}")

    # --- The self-tuning loop -------------------------------------------
    print("\nself-tuning: recording one week of ad-hoc traffic ...")
    views_cube = events.cube("views")
    log = WorkloadObserver(events.shape, capacity=None)
    for _ in range(250):
        conditions: dict[str, object] = {}
        if rng.random() < 0.9:  # analysts almost always range over days
            start = int(rng.integers(1, 60))
            conditions["day"] = (start, start + int(rng.integers(6, 30)))
        if rng.random() < 0.5:
            conditions["country"] = COUNTRIES[
                int(rng.integers(0, len(COUNTRIES)))
            ]
        if rng.random() < 0.3:
            conditions["section"] = SECTIONS[
                int(rng.integers(0, len(SECTIONS)))
            ]
        query = log.observe_query(views_cube.parse_query(conditions))
        views_cube.engine.sum(query)  # serve it

    workloads = log.snapshot().workloads()
    print(f"  log: {len(log)} queries across "
          f"{len(workloads)} cuboid buckets")
    budget = 6000
    plan = CuboidSelector(events.shape, workloads, budget).solve()
    print(f"  re-tuned plan under {budget} aux cells:")
    names = ("day", "country", "device", "section")
    for chosen in plan.chosen:
        label = tuple(names[j] for j in chosen.key)
        print(f"    {label} with b={chosen.block_size} "
              f"({chosen.space:.0f} cells)")

    served = MaterializedCuboidSet(views_cube.measures, plan.chosen)
    replay_cost = 0
    naive_cost = 0
    for query in log.queries:
        counter = AccessCounter()
        served.range_sum(query, counter)
        replay_cost += counter.total
        naive_cost += query.to_box(events.shape).volume
    print(f"  replaying the log on the plan: {replay_cost} accesses "
          f"vs {naive_cost} naive ({naive_cost / replay_cost:.0f}x)")


if __name__ == "__main__":
    main()
