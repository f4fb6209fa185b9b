"""Hierarchy levels as block-aligned ranges (§4 meets OLAP drill-down).

Time-like dimensions carry hierarchies (month ⊂ quarter ⊂ year); any
level's value covers a contiguous leaf range, so drill-down queries are
the paper's range queries.  Choosing the §4 block size equal to a level's
fan-out makes every query at that level block-aligned — answered from the
blocked ``P`` alone, no raw-cell scans.  The bench measures accesses per
level on a month axis for aligned (b = 3, b = 12) and misaligned (b = 5)
block sizes.

(The demonstration is one-dimensional on purpose: with further
dimensions in the query, the paper's ``h' = b⌊h/b⌋`` split can route an
aligned band through a superblock whose complement touches another
dimension's boundary cells, so "zero raw reads" only holds per aligned
axis — an interaction the assertions below would otherwise hide.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.core.blocked import BlockedPrefixSumCube
from repro.cube.hierarchy import month_hierarchy
from repro.instrumentation import AccessCounter

from benchmarks._tables import format_table

YEARS = list(range(2015, 2025))  # 120 months


@pytest.fixture(scope="module")
def months():
    return month_hierarchy("month", YEARS)


def test_alignment_table(months, report, benchmark):
    rng = np.random.default_rng(293)
    series = rng.integers(0, 1000, (120,)).astype(np.int64)

    def compute():
        rows = []
        for block in (3, 5, 12):
            structure = BlockedPrefixSumCube(series, block)
            for level in ("quarter", "year"):
                cube_cells = 0
                prefix_cells = 0
                labels = months.labels(level)
                for label in labels:
                    lo, hi = months.level_range(level, label)
                    counter = AccessCounter()
                    got = structure.range_sum(Box((lo,), (hi,)), counter)
                    assert got == int(series[lo : hi + 1].sum())
                    cube_cells += counter.cube_cells
                    prefix_cells += counter.prefix_cells
                rows.append(
                    [
                        block,
                        level,
                        len(labels),
                        prefix_cells / len(labels),
                        cube_cells / len(labels),
                    ]
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    report(
        format_table(
            "§4 × hierarchies: accesses per drill-down query, "
            "120-month axis",
            [
                "b",
                "level",
                "queries",
                "avg P reads",
                "avg raw-cell reads",
            ],
            rows,
            note="b = 3 (quarter fan-out) and b = 12 (year fan-out) keep "
            "their levels block-aligned: zero raw-cell reads.  A "
            "misaligned b = 5 must scan boundary months.",
        )
    )
    by_key = {(row[0], row[1]): row[4] for row in rows}
    assert by_key[(3, "quarter")] == 0.0
    assert by_key[(3, "year")] == 0.0  # years are 4 whole quarters
    assert by_key[(12, "year")] == 0.0
    assert by_key[(5, "quarter")] > 0.0
    assert by_key[(5, "year")] > 0.0


def test_hierarchy_query_wall_time(months, benchmark):
    rng = np.random.default_rng(307)
    series = rng.integers(0, 1000, (120,)).astype(np.int64)
    structure = BlockedPrefixSumCube(series, 3)
    ranges = [
        months.level_range("quarter", label)
        for label in months.labels("quarter")
    ]
    benchmark(
        lambda: [
            structure.range_sum(Box((lo,), (hi,))) for lo, hi in ranges
        ]
    )
