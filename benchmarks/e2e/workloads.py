"""The six workloads: what each sends, why it exists, how it is sized.

Request streams are pure functions of ``(workload, seed, seconds,
scale)``: the program under test only ever sees the generated payloads.
A stream is a fixed *number of operations* (``rate × seconds``, never a
wall-clock limit) so that the exact §8 element counts repeat for a given
seed; the rates below are sized so the timed phase lasts about
``--seconds`` at the commit that introduced the benchmark.

The harness owns these generators — nothing here imports
``repro.serving.loadgen`` or the older ``benchmarks/bench_*.py`` — so a
later change cannot speed the benchmark up by editing the load.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

#: Name every workload registers its cube under.
CUBE = "bench"

#: One request: ``(endpoint, payload)`` with endpoint one of ``query``,
#: ``query_batch``, ``rollup``, ``update`` — both the ``QueryService``
#: method name and the HTTP path.
Request = tuple[str, dict]

#: ``point-cold`` rotates its operator through these (a fixed rotation,
#: not a draw: the share of slow MAX queries must not vary with the seed).
POINT_OPS = ("sum", "count", "average", "max")

#: Boxes per ``/query_batch`` request on ``batch-scan``.
BATCH_ROWS = 256

#: ``batch-scan`` rotates its requests through this cycle: batches of
#: sum, sum, count, max, with every second max replaced by a roll-up —
#: one roll-up every :data:`ROLLUP_EVERY` requests, in a fixed position.
BATCH_CYCLE = ("sum", "sum", "count", "max", "sum", "sum", "count", "rollup")
ROLLUP_EVERY = len(BATCH_CYCLE)

#: ``dashboard-hot``: size of the re-asked pool (fits the 1024-entry
#: result cache) and the share of requests drawn from it.
POOL_SIZE = 256
HOT_SHARE = 0.9

#: ``drift-write``: constrained dimensions per phase, share of requests
#: that are updates, and point deltas per update.
DRIFT_PHASES = ((0, 1), (1, 2), (0, 2))
UPDATE_SHARE = 0.1
DELTAS_PER_UPDATE = 4


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark.

    Attributes:
        name: Final name (later issues cite it).
        why: One line for ``BENCHMARK.json``: what it stresses/bypasses.
        driver: ``http`` (service in a subprocess, keep-alive clients),
            ``inproc`` (asyncio tasks calling ``QueryService`` directly)
            or ``library`` (the ingest path, no service).
        tasks: Concurrent closed-loop callers for ``inproc`` drivers
            (``http`` uses ``min(nproc, 4)`` connections).
        rate: Operations per requested second (sizing only, see module
            docstring).
        smoke_ops: Fixed operation count under ``--smoke``.
        op: The operations ``op_p50_ms`` / ``op_p95_ms`` are taken over.
        gated_tail: Whether ``op_p95_ms`` is that class's p95: only on
            the workloads where the issue gates one and it repeats
            (``point-cold``, ``batch-scan``, ``drift-write``).  Elsewhere
            the slot repeats the median and the p95 is informational
            (README, "demoted, not widened").
        side: The workload's second class of operation, which
            ``side_p50_ms`` is taken over (a workload with one class
            reports it under both names).
        work_unit: What ``work_per_s`` counts on this workload.
        cycle: Requests after which the mix of request kinds repeats
            (the timed phase is a whole number of cycles).
        exact_cells: Whether the §8 element counts repeat bit-for-bit
            for a seed.  Not on ``drift-write``: how many reads the old
            plan answers depends on when the concurrent swap lands.
    """

    name: str
    why: str
    driver: str
    rate: float
    smoke_ops: int
    op: str
    side: str
    work_unit: str
    tasks: int = 0
    cycle: int = 1
    exact_cells: bool = True
    gated_tail: bool = True


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="point-cold",
        why="distinct ad-hoc boxes over HTTP: framing, JSON and the "
        "coalescer window dominate; cache and batch kernels do nothing",
        driver="http",
        rate=420,
        smoke_ops=300,
        op="sum, count and average queries (prefix-sum index)",
        side="max queries (range-max tree search)",
        work_unit="requests",
    ),
    Workload(
        name="point-burst",
        why="32 in-process callers of distinct sums: the coalescer and "
        "sum_many in their intended regime with HTTP bypassed",
        driver="inproc",
        tasks=32,
        gated_tail=False,
        rate=1660,
        smoke_ops=1200,
        op="sum queries",
        side="the same sum queries (one class)",
        work_unit="requests",
    ),
    Workload(
        name="dashboard-hot",
        why="90% re-asks from a pool that fits the result cache: HTTP, "
        "JSON and cache do the work; engine and kernels are bypassed",
        driver="http",
        gated_tail=False,
        rate=3500,
        smoke_ops=1200,
        op="re-asked pool boxes (cache hits)",
        side="fresh boxes (cache misses)",
        work_unit="requests",
    ),
    Workload(
        name="batch-scan",
        why="256-box query_batch plus roll-ups: engine *_many, kernels "
        "and large-array JSON dominate; coalescer and cache are bypassed",
        driver="http",
        rate=6.6,
        cycle=ROLLUP_EVERY,
        smoke_ops=32,
        op="256-box query_batch requests",
        side="roll-up requests",
        work_unit="boxes and roll-up cells",
    ),
    Workload(
        name="drift-write",
        why="reads beside 10% updates while the constrained dims drift "
        "and the adaptive controller swaps plans: the write path's guard",
        driver="inproc",
        tasks=8,
        exact_cells=False,
        rate=2590,
        smoke_ops=900,
        op="queries (reads)",
        side="updates of 4 point deltas (writes)",
        work_unit="requests",
    ),
    Workload(
        name="ingest-build",
        why="the CLI ingest path in memory, spilled through memmaps, "
        "then manifest save/open: shares kernels, none of the pipeline",
        driver="library",
        gated_tail=False,
        rate=0.28,
        smoke_ops=1,
        op="record batches of the in-memory ingest()",
        side="record batches of the spilled ingest() (budget_bytes=1)",
        work_unit="rows",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Stream:
    """The requests of one run: an untimed warm-up, then timed phases.

    Every workload but ``drift-write`` has a single phase.  ``side``
    says, request for request, which timed operations belong to the
    workload's second class (:attr:`Workload.side`).
    """

    warmup: list[Request]
    phases: list[list[Request]] = field(default_factory=list)
    side: list[list[bool]] = field(default_factory=list)

    @property
    def timed_ops(self) -> int:
        return sum(len(phase) for phase in self.phases)


def op_count(workload: Workload, seconds: float, smoke: bool) -> int:
    """Operations in the timed phase (fixed per ``(seconds, smoke)``)."""
    if smoke:
        return workload.smoke_ops
    cycles = max(1, round(workload.rate * seconds / workload.cycle))
    return cycles * workload.cycle


# ----------------------------------------------------------------------
# Box and payload generators
# ----------------------------------------------------------------------


def _boxes(
    rng: np.random.Generator, shape: Sequence[int], count: int
) -> list[list[list[int]]]:
    """``count`` uniform boxes as wire ranges ``[[lo, hi], ...]``."""
    pairs = np.stack(
        [rng.integers(0, n, size=(count, 2)) for n in shape], axis=1
    )
    pairs.sort(axis=2)
    return pairs.tolist()


def _distinct_boxes(
    rng: np.random.Generator, shape: Sequence[int], count: int
) -> list[list[list[int]]]:
    """Uniform boxes with no repeats (a repeat would be a cache hit)."""
    seen: set[tuple] = set()
    out: list[list[list[int]]] = []
    while len(out) < count:
        for box in _boxes(rng, shape, count - len(out)):
            key = tuple(map(tuple, box))
            if key not in seen:
                seen.add(key)
                out.append(box)
    return out


def _query(op: str, ranges: list) -> Request:
    return "query", {"cube": CUBE, "op": op, "ranges": ranges}


def point_cold(seed: int, shape: Sequence[int], count: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    boxes = _distinct_boxes(rng, shape, count)
    return [
        _query(POINT_OPS[position % len(POINT_OPS)], box)
        for position, box in enumerate(boxes)
    ]


def point_burst(seed: int, shape: Sequence[int], count: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [_query("sum", box) for box in _distinct_boxes(rng, shape, count)]


def _free_a_dimension(boxes: list[list], every: int) -> list[list]:
    """Leave dimension 0 or 2 (alternating) of every ``every``-th box
    unconstrained, so that a miss on it routes to a materialized cuboid
    ((1, 2) or (0, 1)) instead of the indexed tier."""
    for count, position in enumerate(range(0, len(boxes), every)):
        boxes[position][2 if count % 2 else 0] = None
    return boxes


def dashboard_pool(seed: int, shape: Sequence[int]) -> list[list]:
    """The re-asked panel boxes; every other one is a roll-up panel
    (one dimension unconstrained)."""
    rng = np.random.default_rng([seed, 1])
    return _free_a_dimension(_distinct_boxes(rng, shape, POOL_SIZE), 2)


def dashboard_hot(
    seed: int, pool: list[list], shape: Sequence[int], count: int
) -> tuple[list[Request], list[bool]]:
    """The requests, and which of them are fresh boxes (not re-asks)."""
    rng = np.random.default_rng(seed)
    hot = rng.random(count) < HOT_SHARE
    picks = rng.integers(0, len(pool), size=count).tolist()
    # One fresh box in three is a roll-up panel too: the timed misses
    # exercise the materialized tier as well as the indexed one, and the
    # p95 (the median miss) stays well inside the slower, indexed mode.
    fresh = iter(
        _free_a_dimension(
            _distinct_boxes(rng, shape, int(count - hot.sum())), 3
        )
    )
    requests = [
        _query("sum", pool[pick] if is_hot else next(fresh))
        for is_hot, pick in zip(hot.tolist(), picks)
    ]
    return requests, (~hot).tolist()


def batch_scan(seed: int, shape: Sequence[int], count: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    for position in range(count):
        op = BATCH_CYCLE[position % ROLLUP_EVERY]
        if op == "rollup":
            out.append(
                ("rollup", {"cube": CUBE, "op": "sum", "dims": [0, 1]})
            )
        else:
            out.append(
                (
                    "query_batch",
                    {
                        "cube": CUBE,
                        "op": op,
                        "queries": _boxes(rng, shape, BATCH_ROWS),
                    },
                )
            )
    return out


def drift_phase(
    seed: int | Sequence[int],
    dims: Sequence[int],
    shape: Sequence[int],
    count: int,
) -> list[Request]:
    """One drift phase: sums constraining ``dims`` only, 10 % updates."""
    rng = np.random.default_rng(seed)
    is_update = (rng.random(count) < UPDATE_SHARE).tolist()
    boxes = _boxes(rng, shape, count)
    cells = np.stack(
        [
            rng.integers(0, n, size=(count, DELTAS_PER_UPDATE))
            for n in shape
        ],
        axis=2,
    ).tolist()
    deltas = rng.integers(1, 10, size=(count, DELTAS_PER_UPDATE)).tolist()
    out: list[Request] = []
    for position in range(count):
        if is_update[position]:
            updates = [
                {"index": index, "delta": delta}
                for index, delta in zip(cells[position], deltas[position])
            ]
            out.append(("update", {"cube": CUBE, "updates": updates}))
        else:
            ranges = [
                box if dim in dims else None
                for dim, box in enumerate(boxes[position])
            ]
            out.append(_query("sum", ranges))
    return out


def build_stream(
    workload: Workload,
    seed: int,
    shape: Sequence[int],
    seconds: float,
    smoke: bool = False,
) -> Stream:
    """The full request stream of one run.

    The timed requests are drawn from ``seed``; the untimed warm-up
    prefix from ``seed + 1`` (``dashboard-hot`` first asks its whole pool
    once, so the timed phase starts with the cache populated the way a
    long-running dashboard would have it).
    """
    count = op_count(workload, seconds, smoke)
    warm = max(8, count // 10)
    name = workload.name
    if name == "dashboard-hot":
        pool = dashboard_pool(seed, shape)
        warmup = [_query("sum", box) for box in pool]
        warmup += dashboard_hot(seed + 1, pool, shape, warm)[0]
        timed, fresh = dashboard_hot(seed, pool, shape, count)
        return Stream(warmup, [timed], [fresh])
    if name == "point-cold":
        warmup = point_cold(seed + 1, shape, warm)
        phases = [point_cold(seed, shape, count)]
    elif name == "point-burst":
        warmup = point_burst(seed + 1, shape, warm)
        phases = [point_burst(seed, shape, count)]
    elif name == "batch-scan":
        warmup = batch_scan(seed + 1, shape, ROLLUP_EVERY)
        phases = [batch_scan(seed, shape, count)]
    elif name == "drift-write":
        per_phase = max(4, count // len(DRIFT_PHASES))
        warmup = drift_phase(seed + 1, DRIFT_PHASES[0], shape, warm)
        phases = [
            drift_phase([seed, k], dims, shape, per_phase)
            for k, dims in enumerate(DRIFT_PHASES)
        ]
    else:
        raise ValueError(f"workload {name!r} sends no requests")
    return Stream(
        warmup, phases, [[_is_side(request) for request in p] for p in phases]
    )


def _is_side(request: Request) -> bool:
    """Second-class operations that the request itself identifies: MAX
    queries (``point-cold``), roll-ups (``batch-scan``) and updates
    (``drift-write``)."""
    endpoint, payload = request
    return endpoint in ("rollup", "update") or (
        endpoint == "query" and payload["op"] == "max"
    )


def encode_stream(stream: Stream) -> bytes:
    """The stream exactly as it goes on the wire (self-test: same seed →
    byte-identical, different seed → different)."""
    return b"\n".join(
        endpoint.encode() + b" " + encode_body(payload)
        for part in [stream.warmup, *stream.phases]
        for endpoint, payload in part
    )


def encode_body(payload: dict) -> bytes:
    """One request body: compact JSON, key order as generated."""
    return json.dumps(payload, separators=(",", ":")).encode()
