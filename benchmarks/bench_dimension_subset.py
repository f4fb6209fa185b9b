"""§9.1 executed: dimension-subset prefix sums under a real workload.

The §9.1 selection algorithms optimize a multiplicative cost model
(factor 2 per prefix-summed attribute, ``r_ij`` per passive one).  This
bench builds :class:`PartialPrefixSumCube` structures for several subsets
over a workload whose ranges concentrate on two of four attributes, and
measures real access counts per subset — the heuristic's choice should
measure cheapest (or tie with the exact optimum).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prefix_sum import PartialPrefixSumCube
from repro.instrumentation import AccessCounter
from repro.optimizer.dimension_selection import (
    active_range_lengths,
    exact_selection,
    heuristic_selection,
)
from repro.query.workload import WorkloadProfile, generate_query_log, make_cube

from benchmarks._tables import format_table

SHAPE = (60, 48, 10, 6)


def test_subset_choice_validates_on_real_accesses(report, benchmark):
    rng = np.random.default_rng(193)
    cube = make_cube(SHAPE, rng, high=50)
    profile = WorkloadProfile(
        range_probability=(0.9, 0.8, 0.05, 0.0),
        singleton_probability=0.7,
        range_lengths=((8, 40), (6, 30), (2, 5), (2, 2)),
    )
    log = generate_query_log(SHAPE, profile, 150, rng)
    lengths = active_range_lengths(log, SHAPE)
    heuristic_chosen, _ = heuristic_selection(lengths)
    exact_chosen, _ = exact_selection(lengths)

    def compute():
        candidates = {
            "none (scan)": (),
            "all dims": tuple(range(4)),
            "heuristic X'": tuple(heuristic_chosen),
            "exact X'": tuple(exact_chosen),
            "anti-choice": tuple(
                j for j in range(4) if j not in set(heuristic_chosen)
            ),
        }
        rows = []
        reference = None
        for label, dims in candidates.items():
            structure = PartialPrefixSumCube(cube, dims)
            total = 0
            for query in log:
                box = query.to_box(SHAPE)
                counter = AccessCounter()
                value = structure.range_sum(box, counter)
                if reference is None:
                    reference = {}
                if box in reference:
                    assert value == reference[box]
                else:
                    reference[box] = value
                total += counter.total
            rows.append([label, str(dims), total, total // len(log)])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    report(
        format_table(
            "§9.1 executed: measured accesses per subset choice, "
            f"cube {SHAPE}, 150-query log (ranges on dims 0 and 1)",
            ["subset", "dims", "total accesses", "per query"],
            rows,
            note="The heuristic/exact choice must beat scanning, the "
            "anti-choice, and over-selection.",
        )
    )
    totals = {row[0]: row[2] for row in rows}
    assert totals["heuristic X'"] <= totals["none (scan)"]
    assert totals["heuristic X'"] <= totals["anti-choice"]
    assert totals["exact X'"] <= totals["none (scan)"]


@pytest.mark.parametrize("dims", [(), (0, 1), (0, 1, 2, 3)])
def test_subset_wall_time(dims, benchmark):
    rng = np.random.default_rng(197)
    cube = make_cube(SHAPE, rng, high=50)
    structure = PartialPrefixSumCube(cube, dims)
    from repro.query.workload import random_box

    boxes = [random_box(SHAPE, rng) for _ in range(50)]
    benchmark.pedantic(
        lambda: [structure.range_sum(b) for b in boxes],
        rounds=3,
        iterations=1,
    )
