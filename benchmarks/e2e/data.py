"""The seeded fact table and the harness's own oracle.

Everything here is plain numpy and deliberately imports nothing from
``repro``: the dense shadow cube is accumulated with ``np.add.at`` and
answers are recomputed by slicing it, so a bug in the program's query
paths (including ``repro.query.naive``) cannot hide in the reference.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Header of the generated CSV: dimensions in cube order, measure last
#: (the column layout ``repro.ingest.open_batches`` assumes by default).
CSV_HEADER = "d0,d1,d2,measure"

#: Rows formatted per write; bounds the generator's own memory so the
#: harness does not dominate ``peak_rss_mb`` on in-process workloads.
_CSV_CHUNK_ROWS = 100_000


@dataclass(frozen=True)
class Scale:
    """Size of the data one run is built over."""

    shape: tuple[int, int, int]
    rows: int


#: The measured configuration: ~1.2 M fact rows over a 1 M-cell cube, so
#: that set-up goes through a ~2 s ingest (allocator noise < 10 %).
FULL = Scale(shape=(128, 128, 64), rows=1_200_000)

#: ``--smoke``: every code path, a fraction of the data.
SMOKE = Scale(shape=(32, 32, 16), rows=40_000)


def fact_table(seed: int, scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    """Seeded fact rows: ``(rows, 3)`` coordinates and ``(rows,)`` measures.

    The last cell of the cube always receives a row, so the shape the
    program infers from the file (``infer_shape``) equals ``scale.shape``
    for every seed.
    """
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(0, n, size=scale.rows) for n in scale.shape], axis=1
    )
    coords[-1] = [n - 1 for n in scale.shape]
    values = rng.integers(1, 1000, size=scale.rows)
    return coords.astype(np.int64), values.astype(np.int64)


def write_csv(path: Path, coords: np.ndarray, values: np.ndarray) -> None:
    """Write the fact table as the headered CSV the program ingests."""
    table = np.column_stack([coords, values])
    with open(path, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            part = table[start : start + _CSV_CHUNK_ROWS]
            handle.write(
                ("%d,%d,%d,%d\n" * len(part)) % tuple(part.ravel().tolist())
            )


def dense_cube(
    shape: Sequence[int], coords: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The shadow cube: every fact row added into its cell."""
    cube = np.zeros(tuple(shape), dtype=np.int64)
    np.add.at(cube, tuple(coords.T), values)
    return cube


def _slices(ranges: Sequence[object], shape: Sequence[int]) -> tuple[slice, ...]:
    """Wire-format ranges (``null`` | rank | ``[lo, hi]``) → numpy slices."""
    out = []
    for entry, extent in zip(ranges, shape):
        if entry is None:
            out.append(slice(0, extent))
        elif isinstance(entry, int):
            out.append(slice(entry, entry + 1))
        else:
            lo, hi = entry
            out.append(slice(lo, hi + 1))
    return tuple(out)


class Oracle:
    """Recompute answers from the shadow cube and compare responses.

    Each ``check_*`` returns ``True`` when the response agrees with plain
    numpy slicing of the shadow cube.  ``apply`` keeps the shadow cube in
    step with the harness's own ``/update`` bodies (delta sums commute, so
    no assumption about how the program interleaved them is needed).
    """

    def __init__(self, cube: np.ndarray) -> None:
        self.cube = cube
        self.shape = cube.shape

    def apply(self, updates: Sequence[dict]) -> None:
        for update in updates:
            self.cube[tuple(update["index"])] += update["delta"]

    def _expect(self, op: str, ranges: Sequence[object]) -> object:
        window = self.cube[_slices(ranges, self.shape)]
        if op == "sum":
            return int(window.sum())
        if op == "count":
            return int(window.size)
        if op == "average":
            return float(window.sum()) / float(window.size)
        if op == "max":
            return int(window.max())
        raise ValueError(f"oracle has no operator {op!r}")

    def _agree(self, op: str, ranges: Sequence[object], value: object) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        expected = self._expect(op, ranges)
        if op == "average":
            return math.isclose(value, expected, rel_tol=1e-12)
        return value == expected

    def check_scalar(self, payload: dict, response: dict) -> bool:
        """One ``/query`` response (MAX also checks its witness cell)."""
        op = payload["op"]
        ranges = payload["ranges"]
        if not self._agree(op, ranges, response.get("value")):
            return False
        if op == "max":
            index = response.get("index")
            if not isinstance(index, list) or len(index) != len(self.shape):
                return False
            inside = all(
                s.start <= i < s.stop
                for i, s in zip(index, _slices(ranges, self.shape))
            )
            return inside and int(self.cube[tuple(index)]) == response["value"]
        return True

    def check_batch(self, payload: dict, response: dict) -> bool:
        """First and last row of one ``/query_batch`` response."""
        values = response.get("values")
        queries = payload["queries"]
        if not isinstance(values, list) or len(values) != len(queries):
            return False
        return all(
            self._agree(payload["op"], queries[row], values[row])
            for row in (0, len(queries) - 1)
        )

    def check_rollup(self, payload: dict, response: dict) -> bool:
        """Every cell of one ``/rollup`` response (SUM group-by over
        ascending ``dims``, the only spelling the workloads send)."""
        dims = payload["dims"]
        dropped = tuple(d for d in range(len(self.shape)) if d not in dims)
        expected = self.cube.sum(axis=dropped)
        values = response.get("values")
        if not isinstance(values, list) or len(values) != expected.size:
            return False
        return np.array_equal(
            np.asarray(values, dtype=np.int64), expected.reshape(-1)
        )
