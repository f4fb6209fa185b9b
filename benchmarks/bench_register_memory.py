"""How many copies of the base cube a served cube holds.

§4 keeps "the raw cube" beside the block-level ``P``, and §6 stores
only indices because values are "recoverable from ``A`` itself" — so a
served cube needs the base array once, plus each structure's derived
arrays (``P``, the block ``P``, the tree levels).  This bench registers
the e2e-shaped ``(128, 128, 64)`` int64 cube five ways and reports,
under ``tracemalloc``, the bytes still held after ``register_cube``
(resident) and the high-water mark during it (peak), both divided by
the base cube's bytes.  The ingest row registers a prebuilt
``cuboid_set`` whose base is adopted, so its figures count only what
registration adds beyond that base.

Run: ``python -m pytest benchmarks/bench_register_memory.py -q``.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections.abc import Callable

import numpy as np

from repro.ingest import IngestPlan, batches_from_cube, ingest, plan_cuboids
from repro.optimizer.cuboid_selection import Materialization
from repro.serving import QueryService

from benchmarks._tables import format_table

SHAPE = (128, 128, 64)
BLOCKED = {"sum_index": "blocked_prefix_sum", "sum_params": {"block_size": 8}}
#: The cuboids and block size every e2e serving cube is ingested with.
CUBOIDS = ((0, 1), (1, 2))
CUBOID_BLOCK = 2

#: (resident, peak) ceilings per registration, as multiples of the base
#: cube's bytes.  Resident: the base once plus derived arrays — the §3
#: ``P`` and the counts cube are one more base-sized array each, the
#: tree levels 0.03, the plan's group-by cuboids another 0.03.  When
#: every structure kept its own copy of the base the same rows measured
#: 5.07 / 4.07 / 6.07 / 5.10 / 3.07.  Peak: those copies' peaks, which no
#: row may exceed; the tree build's transient int64 positions array and
#: its padded level copies dominate it.
BOUNDS = {
    "default (§3 sum, max + min trees)": (2.10, 11.11),
    "blocked b=8": (1.10, 10.11),
    "blocked b=8 + counts": (2.10, 12.11),
    "blocked b=8 + plan (0,1),(1,2)": (1.15, 10.11),
    "ingested cuboid_set + blocked b=8": (0.10, 9.11),
}


def _traced(register: Callable[[], object]) -> tuple[int, int]:
    """(bytes still held, peak bytes) allocated while ``register`` ran."""
    gc.collect()
    tracemalloc.start()
    try:
        served = register()
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del served
    return resident, peak


def _registrations(cube: np.ndarray) -> dict[str, Callable[[], object]]:
    counts = np.ones(SHAPE, dtype=np.int64)
    plan = [Materialization(key, CUBOID_BLOCK, 0.0) for key in CUBOIDS]
    ingested = ingest(
        batches_from_cube(cube),
        IngestPlan(shape=SHAPE, cuboids=plan_cuboids(SHAPE, CUBOIDS, CUBOID_BLOCK)),
    )
    return {
        "default (§3 sum, max + min trees)": lambda: QueryService().register_cube(
            "c", cube
        ),
        "blocked b=8": lambda: QueryService().register_cube("c", cube, **BLOCKED),
        "blocked b=8 + counts": lambda: QueryService().register_cube(
            "c", cube, counts=counts, **BLOCKED
        ),
        "blocked b=8 + plan (0,1),(1,2)": lambda: QueryService().register_cube(
            "c", cube, plan=plan, **BLOCKED
        ),
        "ingested cuboid_set + blocked b=8": lambda: QueryService().register_cube(
            "c",
            cuboid_set=ingested.cuboid_set,
            backend=ingested.backend,
            **BLOCKED,
        ),
    }


def test_register_memory_table(report) -> None:
    cube = np.random.default_rng(0).integers(0, 1000, size=SHAPE, dtype=np.int64)
    rows = []
    measured = {}
    for name, register in _registrations(cube).items():
        resident, peak = _traced(register)
        measured[name] = (resident / cube.nbytes, peak / cube.nbytes)
        rows.append([name, *measured[name], *BOUNDS[name]])
    report(
        format_table(
            f"register_cube memory on a {SHAPE} int64 cube "
            f"({cube.nbytes / 2**20:.0f} MB), multiples of the base's bytes",
            ["registration", "resident", "peak", "resident ≤", "peak ≤"],
            rows,
            "tracemalloc around register_cube alone; the ingested row's "
            "base is adopted, so it counts only what registration adds.",
        )
    )
    for name, (resident, peak) in measured.items():
        resident_bound, peak_bound = BOUNDS[name]
        assert resident <= resident_bound, (name, resident)
        assert peak <= peak_bound, (name, peak)
