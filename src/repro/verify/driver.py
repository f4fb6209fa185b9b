"""The differential scenario driver: build, drive, diff, report.

:func:`run_scenario` materializes a :class:`~repro.verify.scenarios.Scenario`
— source cube, shadow mirror, index under test — and replays its step
sequence, diffing every answer against the :mod:`repro.verify.oracle`
shadow reducers.  SUM-family answers go through the protocol layer's
:meth:`~repro.index.protocol.InstrumentedIndex.compare_query` /
``compare_query_many`` helpers; MAX answers need semantic validation
(any cell attaining the maximum is a correct witness), which the driver
performs itself.  Any exception escaping a step is itself a divergence:
a fuzzer input must never crash a structure that declared support for
it.

The driver is deliberately oracle-first: the expected answer is always
computed *before* the index is consulted, from a shadow array the index
never sees.
"""

from __future__ import annotations

import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from repro._util import Box
from repro.core.batch_update import PointUpdate
from repro.core.blocked import VECTORIZED_MIN_ROWS
from repro.core.operators import get_operator
from repro.index.backend import MemmapBackend
from repro.index.protocol import InstrumentedIndex, values_match
from repro.index.registry import IndexInfo, create_index, get_index_info
from repro.verify.oracle import (
    IDENTITIES,
    oracle_aggregate,
    oracle_max_value,
    oracle_sparse_max_value,
    shadow_dtype,
)
from repro.verify.scenarios import (
    DATA_TAG,
    ENGINE_TAG,
    STEP_TAG,
    Scenario,
    updates_allowed,
)

#: Cell values stay inside this envelope through every update, so the
#: narrowest fuzzed dtype (int8) never overflows and float32 cells stay
#: exactly representable.
VALUE_BOUND = 80


@dataclass
class Divergence:
    """One disagreement between an index and the oracle."""

    scenario: Scenario
    detail: dict

    def describe(self) -> str:
        """A one-paragraph human summary (the CLI's failure banner)."""
        what = self.detail.get("kind", "divergence")
        return (
            f"{self.scenario.index} diverged ({what}) on shape "
            f"{self.scenario.shape} dtype {self.scenario.dtype} "
            f"backend {self.scenario.backend}: {self.detail}"
        )


def run_scenario(scenario: Scenario) -> Divergence | None:
    """Replay ``scenario`` and return its first divergence, if any.

    Exceptions raised by the structure under test are reported as
    ``kind="exception"`` divergences rather than propagated — a crash
    on declared-valid input is a bug the harness exists to catch.
    """
    try:
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            return _run(scenario, tmp)
    except Exception:
        return Divergence(
            scenario,
            {
                "kind": "exception",
                "error": traceback.format_exc(limit=20),
            },
        )


def build_source(scenario: Scenario) -> np.ndarray:
    """The scenario's source cube, fully determined by its seed.

    Every value is exactly representable in the scenario dtype *and* in
    the shadow dtype: small integers for SUM/XOR domains, powers of two
    for PRODUCT (whose running products then span at most ``2**±40``,
    far inside float64).  Sparse-input scenarios zero out ~75% of cells
    so the dense-region finder and the outlier R*-tree both get work.
    """
    rng = np.random.default_rng([DATA_TAG, scenario.seed])
    shape = scenario.shape
    dtype = np.dtype(scenario.dtype)
    if scenario.operator == "product":
        values = np.ones(shape, dtype=np.float64)
        flat = values.reshape(-1)
        budget = min(flat.size, 40)
        doubles = int(rng.integers(0, budget + 1))
        halves = int(rng.integers(0, budget + 1))
        order = rng.permutation(flat.size)
        flat[order[:doubles]] = 2.0
        flat[order[doubles : doubles + halves]] = 0.5
        return values
    if scenario.operator == "xor":
        data = rng.integers(0, 64, size=shape)
    elif dtype == np.bool_:
        data = rng.integers(0, 2, size=shape)
    elif dtype.kind == "u":
        data = rng.integers(0, 51, size=shape)
    else:
        data = rng.integers(-50, 51, size=shape)
    if get_index_info(scenario.index).sparse_input:
        data[rng.random(shape) < 0.75] = 0
    return data.astype(dtype)


def _run(scenario: Scenario, tmpdir: str) -> Divergence | None:
    info = get_index_info(scenario.index)
    source = build_source(scenario)
    shadow = source.astype(
        shadow_dtype(scenario.dtype, scenario.operator)
    )
    params = scenario.param_dict()
    if info.kind == "sum" and not info.sparse_input:
        params["operator"] = get_operator(scenario.operator)
    backend = (
        MemmapBackend(tmpdir) if scenario.backend == "memmap" else None
    )
    if info.sparse_input:
        from repro.sparse import SparseCube

        cube: object = SparseCube.from_dense(source)
    else:
        cube = source
    inner = create_index(scenario.index, cube, backend=backend, **params)
    index = InstrumentedIndex(inner)
    for position, (kind, step_seed) in enumerate(scenario.steps):
        rng = np.random.default_rng(
            [STEP_TAG, scenario.seed, step_seed]
        )
        runner = _STEP_RUNNERS[kind]
        detail = runner(scenario, info, index, shadow, rng)
        if detail is not None:
            detail.setdefault("step", position)
            detail.setdefault("step_kind", kind)
            return Divergence(scenario, detail)
    if scenario.engine:
        detail = _run_engine_phase(scenario)
        if detail is not None:
            detail.setdefault("step_kind", "engine")
            return Divergence(scenario, detail)
    return None


# ---------------------------------------------------------------------------
# Steps


def _random_box(rng: np.random.Generator, shape: tuple) -> Box:
    lo, hi = [], []
    for size in shape:
        a = int(rng.integers(0, size))
        b = int(rng.integers(0, size))
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Box(tuple(lo), tuple(hi))


def _empty_box(rng: np.random.Generator, shape: tuple) -> Box:
    """A box that is empty in one randomly chosen dimension."""
    box = _random_box(rng, shape)
    lo, hi = list(box.lo), list(box.hi)
    dim = int(rng.integers(0, len(shape)))
    lo[dim] = int(rng.integers(1, shape[dim] + 1))
    hi[dim] = lo[dim] - 1
    return Box(tuple(lo), tuple(hi))


def _box_payload(box: Box) -> list:
    return [list(map(int, box.lo)), list(map(int, box.hi))]


def _check_max_query(
    info: IndexInfo,
    index: object,
    shadow: np.ndarray,
    box: Box,
    *,
    kind: str = "query",
) -> dict | None:
    """Semantic witness validation for one MAX query.

    The index is free to return *any* cell attaining the maximum, so
    the check is: the value equals the oracle's maximum, the witness
    lies inside the box, and the shadow holds that value at the witness.
    """
    if info.sparse_input:
        expected = oracle_sparse_max_value(shadow, box)
    else:
        expected = oracle_max_value(shadow, box)
    actual = index.query(box)
    if actual is None or expected is None:
        if actual is None and expected is None:
            return None
        return {
            "kind": kind,
            "box": _box_payload(box),
            "expected": repr(expected),
            "actual": repr(actual),
        }
    witness, value = actual
    witness = tuple(int(i) for i in np.atleast_1d(np.asarray(witness)))
    problem = None
    if not values_match(value, expected):
        problem = "value is not the region maximum"
    elif not box.contains_point(witness):
        problem = "witness index outside the query box"
    elif not values_match(shadow[witness], value):
        problem = "witness cell does not hold the reported value"
    if problem is None:
        return None
    return {
        "kind": kind,
        "box": _box_payload(box),
        "expected": repr(expected),
        "actual": f"({witness}, {value!r})",
        "problem": problem,
    }


def _step_query(scenario, info, index, shadow, rng):
    box = _random_box(rng, scenario.shape)
    if info.kind == "max":
        return _check_max_query(info, index, shadow, box)
    expected = oracle_aggregate(shadow, box, scenario.operator)
    return index.compare_query(box, expected)


def _step_query_empty(scenario, info, index, shadow, rng):
    box = _empty_box(rng, scenario.shape)
    if info.kind == "max":
        actual = index.query(box)
        if actual is None:
            return None
        return {
            "kind": "query_empty",
            "box": _box_payload(box),
            "expected": "None",
            "actual": repr(actual),
        }
    return index.compare_query(box, IDENTITIES[scenario.operator])


def _step_query_many(scenario, info, index, shadow, rng):
    # Row counts straddle the blocked structures' row-count dispatch.
    count = int(rng.integers(2, 2 * VECTORIZED_MIN_ROWS + 1))
    if info.kind == "max":
        return _check_max_query_many(
            scenario, info, index, shadow, rng, count
        )
    boxes = []
    for _ in range(count):
        if rng.random() < 0.25:
            boxes.append(_empty_box(rng, scenario.shape))
        else:
            boxes.append(_random_box(rng, scenario.shape))
    lows = np.array([box.lo for box in boxes])
    highs = np.array([box.hi for box in boxes])
    expected = np.array(
        [
            oracle_aggregate(shadow, box, scenario.operator)
            for box in boxes
        ]
    )
    return index.compare_query_many(lows, highs, expected)


def _check_max_query_many(scenario, info, index, shadow, rng, count):
    """Batch MAX probe; every box is anchored at a stored cell.

    The batch MAX path demands a witness per query, so boxes covering
    no stored cell are rejected by contract (that behaviour is pinned
    by unit tests); the fuzzer only feeds it witness-bearing boxes.
    """
    stored = np.argwhere(shadow != 0)
    if info.sparse_input and stored.size == 0:
        return None
    boxes = []
    for _ in range(count):
        box = _random_box(rng, scenario.shape)
        if info.sparse_input:
            anchor = stored[int(rng.integers(0, stored.shape[0]))]
            box = Box(
                tuple(min(l, int(a)) for l, a in zip(box.lo, anchor)),
                tuple(max(h, int(a)) for h, a in zip(box.hi, anchor)),
            )
        boxes.append(box)
    lows = np.array([box.lo for box in boxes])
    highs = np.array([box.hi for box in boxes])
    indices, values = index.query_many(lows, highs)
    for k, box in enumerate(boxes):
        if info.sparse_input:
            expected = oracle_sparse_max_value(shadow, box)
        else:
            expected = oracle_max_value(shadow, box)
        witness = tuple(int(i) for i in np.atleast_1d(indices[k]))
        value = values[k]
        problem = None
        if not values_match(value, expected):
            problem = "value is not the region maximum"
        elif not box.contains_point(witness):
            problem = "witness index outside the query box"
        elif not values_match(shadow[witness], value):
            problem = "witness cell does not hold the reported value"
        if problem is not None:
            return {
                "kind": "query_many",
                "row": int(k),
                "box": _box_payload(box),
                "expected": repr(expected),
                "actual": f"({witness}, {value!r})",
                "problem": problem,
            }
    return None


def _draw_delta(
    rng: np.random.Generator, current: object, operator: str
) -> tuple:
    """A delta keeping the cell inside the exact-value envelope.

    Returns ``(delta, new_value)``; the caller writes ``new_value``
    into the shadow and hands ``delta`` to the index.
    """
    if operator == "xor":
        delta = int(rng.integers(0, 64))
        return delta, int(current) ^ delta
    draw = int(rng.integers(-30, 31))
    new = int(np.clip(int(current) + draw, -VALUE_BOUND, VALUE_BOUND))
    return new - int(current), new


def _step_update(scenario, info, index, shadow, rng):
    count = int(rng.integers(1, 6))
    updates = []
    for _ in range(count):
        point = tuple(
            int(rng.integers(0, size)) for size in scenario.shape
        )
        delta, new = _draw_delta(rng, shadow[point], scenario.operator)
        shadow[point] = new
        updates.append(PointUpdate(point, delta))
    index.apply_updates(updates)
    # Immediately probe: a stale prefix/tree/cell shows up right here.
    return _step_query(scenario, info, index, shadow, rng)


def _step_persist(scenario, info, index, shadow, rng):
    from repro.io import open_index, save_index_manifest

    with tempfile.TemporaryDirectory(prefix="repro-persist-") as tmp:
        manifest = save_index_manifest(index, f"{tmp}/index.json")
        clone = InstrumentedIndex(open_index(manifest, mode="c"))
        box = _random_box(rng, scenario.shape)
        if info.kind == "max":
            return _check_max_query(info, clone, shadow, box, kind="persist")
        expected = oracle_aggregate(shadow, box, scenario.operator)
        detail = clone.compare_query(box, expected)
    if detail is not None:
        detail["kind"] = "persist"
    return detail


_STEP_RUNNERS = {
    "query": _step_query,
    "query_empty": _step_query_empty,
    "query_many": _step_query_many,
    "update": _step_update,
    "persist": _step_persist,
}


# ---------------------------------------------------------------------------
# Engine phase


def _run_engine_phase(scenario: Scenario) -> dict | None:
    """Drive a :class:`RangeQueryEngine` built on the scenario's index.

    This reuses the planner's routing table end to end: SUM routes to
    the index under test, COUNT to a counts-cube twin, AVERAGE to the
    SUM/COUNT pair (``None`` over zero-count regions), MAX/MIN to a §6
    tree — all checked against the same shadow mirror, scalar and batch.
    The phase regenerates a pristine source (the step sequence may have
    mutated the shared shadow through the index under test).
    """
    from repro.index.registry import IndexSpec
    from repro.query.engine import RangeQueryEngine

    rng = np.random.default_rng([ENGINE_TAG, scenario.seed])
    source = build_source(scenario)
    shadow = source.astype(
        shadow_dtype(scenario.dtype, scenario.operator)
    )
    counts = rng.integers(0, 4, size=scenario.shape).astype(np.int64)
    count_shadow = counts.copy()
    engine = RangeQueryEngine(
        source,
        sum_index=IndexSpec.of(scenario.index, **scenario.param_dict()),
        counts=counts,
        max_index=IndexSpec.of("range_max_tree", fanout=4),
    )

    def diff(kind, box, expected, actual):
        if values_match(actual, expected):
            return None
        return {
            "kind": f"engine_{kind}",
            "box": _box_payload(box),
            "expected": repr(expected),
            "actual": repr(actual),
        }

    def probe():
        box = _random_box(rng, scenario.shape)
        window = shadow[box.slices()]
        denominator = int(count_shadow[box.slices()].sum())
        checks = [
            ("sum", window.sum(), engine.sum(box)),
            ("count", denominator, engine.count(box)),
            (
                "average",
                None if denominator == 0 else window.sum() / denominator,
                engine.average(box),
            ),
            ("max", window.max(), engine.max(box)[1]),
            ("min", window.min(), engine.min(box)[1]),
        ]
        for kind, expected, actual in checks:
            detail = diff(kind, box, expected, actual)
            if detail is not None:
                return detail
        return None

    def probe_batch():
        boxes = [_random_box(rng, scenario.shape) for _ in range(5)]
        boxes.append(_empty_box(rng, scenario.shape))
        lows = np.array([box.lo for box in boxes])
        highs = np.array([box.hi for box in boxes])
        sums = engine.sum_many(lows, highs)
        tallies = engine.count_many(lows, highs)
        averages = engine.average_many(lows, highs)
        # MAX/MIN have no identity: the empty last row is theirs to skip.
        _, tops = engine.max_many(lows[:-1], highs[:-1])
        _, bottoms = engine.min_many(lows[:-1], highs[:-1])
        for k, box in enumerate(boxes):
            window = shadow[box.slices()]
            denominator = int(count_shadow[box.slices()].sum())
            expected_average = (
                None if denominator == 0 else window.sum() / denominator
            )
            rows = [
                ("sum_many", window.sum(), sums[k]),
                ("count_many", denominator, tallies[k]),
                ("average_many", expected_average, averages[k]),
            ]
            if window.size:
                rows.append(("max_many", window.max(), tops[k]))
                rows.append(("min_many", window.min(), bottoms[k]))
            for kind, expected, actual in rows:
                detail = diff(kind, box, expected, actual)
                if detail is not None:
                    detail["row"] = k
                    return detail
        return None

    detail = probe() or probe() or probe_batch()
    if detail is not None:
        return detail
    empty = _empty_box(rng, scenario.shape)
    detail = (
        diff("sum", empty, 0, engine.sum(empty))
        or diff("count", empty, 0, engine.count(empty))
        or diff("average", empty, None, engine.average(empty))
    )
    if detail is not None:
        return detail
    profile = get_index_info(scenario.index).fuzz_profile
    if updates_allowed(profile.supports_updates, scenario.dtype, "sum"):
        updates, count_updates = [], []
        for _ in range(4):
            point = tuple(
                int(rng.integers(0, size)) for size in scenario.shape
            )
            delta, new = _draw_delta(rng, shadow[point], "sum")
            shadow[point] = new
            count_shadow[point] += 1
            updates.append(PointUpdate(point, delta))
            count_updates.append(PointUpdate(point, 1))
        engine.apply_updates(updates, count_updates)
        detail = probe() or probe_batch()
    return detail or _probe_extremes(scenario, rng) or _probe_update_dtypes(scenario)


def _probe_extremes(
    scenario: Scenario, rng: np.random.Generator
) -> dict | None:
    """MAX/MIN through the engine on a cube holding its dtype's extremes
    (bool: False and True; floats: ``finfo.min`` / ``finfo.max``), scalar and batch,
    before and after an update moving both planted cells inward by one.
    Kept apart from the sum probes, whose shadow would overflow."""
    from repro.index.registry import IndexSpec
    from repro.query.engine import RangeQueryEngine

    dtype = np.dtype(scenario.dtype)
    if dtype == np.bool_:
        planted: tuple = (False, True)
    else:
        limits = (np.finfo if dtype.kind == "f" else np.iinfo)(dtype)
        planted = (limits.min, limits.max)
    shadow = build_source(scenario)
    cells = [
        tuple(int(i) for i in np.unravel_index(flat, shadow.shape))
        for flat in rng.permutation(shadow.size)[:2]
    ]
    for cell, value in zip(cells, planted):
        shadow[cell] = value
    with np.errstate(over="ignore", invalid="ignore"):
        # The sum route's prefix sums overflow here; only MAX/MIN are read.
        engine = RangeQueryEngine(
            shadow,
            sum_index=IndexSpec.of(scenario.index, **scenario.param_dict()),
            max_index=IndexSpec.of("range_max_tree", fanout=4),
        )
    boxes = [_random_box(rng, scenario.shape) for _ in range(3)]
    boxes.append(Box((0,) * shadow.ndim, tuple(n - 1 for n in shadow.shape)))
    lows = np.array([box.lo for box in boxes])
    highs = np.array([box.hi for box in boxes])
    profile = get_index_info(scenario.index).fuzz_profile
    updates = [PointUpdate(cells[0], 1), PointUpdate(cells[-1], -1)]
    for stage in ("built", "updated"):
        if stage == "updated":
            if len(cells) < 2 or not updates_allowed(
                profile.supports_updates, scenario.dtype, "sum"
            ):
                return None
            engine.apply_updates(updates)
            for update in updates:
                shadow[update.index] += update.delta
        _, tops = engine.max_many(lows, highs)
        _, bottoms = engine.min_many(lows, highs)
        for k, box in enumerate(boxes):
            window = shadow[box.slices()]
            for kind, expected, actual in (
                ("max", window.max(), engine.max(box)[1]),
                ("min", window.min(), engine.min(box)[1]),
                ("max_many", window.max(), tops[k]),
                ("min_many", window.min(), bottoms[k]),
            ):
                if not values_match(actual, expected):
                    return {
                        "kind": f"engine_extremes_{kind}",
                        "stage": stage,
                        "box": _box_payload(box),
                        "expected": repr(expected),
                        "actual": repr(actual),
                    }
    return None


#: Updates the scenario generator never draws (docs/TESTING.md rule 6),
#: as ``(dtype, background, planted cell, delta)``: unsigned increments,
#: uint64 cells beyond float64's integers, and bool False -> True.
UPDATE_DTYPE_PROBES = (
    ("uint8", 7, 200, 3),
    ("uint32", 7, 2**31 + 9, 3),
    ("uint64", 7, 2**60 + 1, 5),
    ("bool", False, False, 1),
)


def _probe_update_dtypes(scenario: Scenario) -> dict | None:
    """Each :data:`UPDATE_DTYPE_PROBES` cube (first and last cell planted,
    each taking the delta once) through the engine and the scenario's
    index alone: SUM of the cube, scalar and batch, and the engine's
    MAX/MIN must equal an exact shadow.  Draws no random numbers."""
    from repro.index.registry import IndexSpec
    from repro.query.engine import RangeQueryEngine

    profile = get_index_info(scenario.index).fuzz_profile
    if profile is None or not profile.supports_updates:
        return None
    whole = Box((0,) * len(scenario.shape), tuple(n - 1 for n in scenario.shape))
    cells = sorted({whole.lo, whole.hi})
    lows, highs = np.array([whole.lo]), np.array([whole.hi])
    spec = IndexSpec.of(scenario.index, **scenario.param_dict())
    for dtype, background, planted, delta in UPDATE_DTYPE_PROBES:
        cube = np.full(scenario.shape, background, dtype=dtype)
        shadow = cube.astype(object)
        for cell in cells:
            cube[cell], shadow[cell] = planted, planted + delta
        engine, alone = RangeQueryEngine(cube, sum_index=spec), spec.build(cube)
        for holder in (engine, alone):
            holder.apply_updates([PointUpdate(cell, delta) for cell in cells])
        total = shadow.sum()
        checks = {
            "engine_sum": (total, engine.sum(whole)),
            "engine_sum_many": (total, engine.sum_many(lows, highs)[0]),
            "index_sum": (total, alone.query(whole)),
            "index_sum_many": (total, alone.query_many(lows, highs)[0]),
            "engine_max": (shadow.max(), engine.max(whole)[1]),
            "engine_min": (shadow.min(), engine.min(whole)[1]),
        }
        for check, (expected, actual) in checks.items():
            if isinstance(actual, np.generic):
                actual = actual.item()
            # Python compares int with float exactly; numpy would round
            # the int to float64 first and hide the error.
            if actual != expected:
                return {
                    "kind": "engine_update_dtypes",
                    "check": check,
                    "dtype": dtype,
                    "expected": repr(expected),
                    "actual": repr(actual),
                }
    return None
