"""Record batches and batch sources for streaming ingestion.

A *record* is one fact-table row: integer coordinates along every cube
dimension plus one measure value.  A :class:`RecordBatch` is a columnar
slab of such records — a ``(rows, d)`` coordinate array and a
``(rows,)`` value array — the unit the one-pass accumulators in
:mod:`repro.ingest.accumulate` consume.

Sources:

* :func:`iter_csv_batches` — always available (stdlib ``csv``), streams
  a headered CSV in bounded-size batches;
* :func:`iter_arrow_batches` / :func:`iter_parquet_batches` — available
  when ``pyarrow`` is importable (a *soft* dependency: absence
  degrades silently to "format unsupported", no import-time failure,
  ``REPRO_PYARROW_DISABLE`` forces the degraded path for CI parity
  legs);
* :func:`batches_from_records` / :func:`batches_from_cube` — in-memory
  sources for tests and benchmarks.

Every source raises :class:`IngestError` on malformed input (ragged
rows, non-numeric fields, wrong column counts) with the offending row
number; the accumulators guarantee that an error mid-stream leaves no
partial spill files behind.
"""

from __future__ import annotations

import csv
import importlib.util
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Set (to any non-empty value) to force the CSV-only path even when
#: pyarrow is installed — the CI "without pyarrow" leg uses this.
ENV_DISABLE_PYARROW = "REPRO_PYARROW_DISABLE"

#: Default rows per batch: large enough that per-batch numpy dispatch
#: amortizes, small enough that a batch's parse buffers stay modest.
DEFAULT_BATCH_ROWS = 65536


class IngestError(ValueError):
    """Malformed ingest input (bad row, bad column set, bad bounds)."""


def pyarrow_available() -> bool:
    """Whether the Arrow/Parquet readers can activate."""
    if os.environ.get(ENV_DISABLE_PYARROW):
        return False
    return importlib.util.find_spec("pyarrow") is not None


@dataclass(frozen=True)
class RecordBatch:
    """One columnar slab of fact rows.

    Attributes:
        coords: ``(rows, d)`` integer coordinates, one column per cube
            dimension (in cube-dimension order).
        values: ``(rows,)`` measure values.
    """

    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.coords.ndim != 2:
            raise IngestError(
                f"batch coords must be 2-D (rows, dims), got "
                f"shape {self.coords.shape}"
            )
        if self.values.ndim != 1:
            raise IngestError(
                f"batch values must be 1-D, got shape {self.values.shape}"
            )
        if len(self.coords) != len(self.values):
            raise IngestError(
                f"batch has {len(self.coords)} coordinate rows but "
                f"{len(self.values)} values"
            )

    @property
    def rows(self) -> int:
        """Number of records in the batch."""
        return len(self.values)


# ----------------------------------------------------------------------
# In-memory sources
# ----------------------------------------------------------------------


def batches_from_records(
    coords: np.ndarray,
    values: np.ndarray,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Slice in-memory record columns into bounded batches."""
    coords = np.asarray(coords)
    values = np.asarray(values)
    if batch_rows < 1:
        raise IngestError(f"batch_rows must be >= 1, got {batch_rows}")
    for start in range(0, len(values), batch_rows):
        yield RecordBatch(
            coords[start : start + batch_rows],
            values[start : start + batch_rows],
        )


def batches_from_cube(
    cube: np.ndarray, batch_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[RecordBatch]:
    """Stream a dense cube as one record per cell (tests, benchmarks).

    Ingesting the result reproduces ``cube`` exactly (integer dtypes),
    which is what the streamed≡in-memory differential tests pin.
    """
    cube = np.asarray(cube)
    flat = cube.reshape(-1)
    for start in range(0, flat.size, batch_rows):
        stop = min(start + batch_rows, flat.size)
        linear = np.arange(start, stop, dtype=np.int64)
        coords = np.stack(
            np.unravel_index(linear, cube.shape), axis=1
        ).astype(np.int64)
        yield RecordBatch(coords, flat[start:stop])


# ----------------------------------------------------------------------
# CSV source (always available)
# ----------------------------------------------------------------------


def _resolve_columns(
    header: Sequence[str],
    dims: Sequence[str] | None,
    measure: str | None,
) -> tuple[list[int], int]:
    """Map dimension/measure column names onto header positions.

    Defaults: the measure is the last column, the dimensions are every
    other column in header order.
    """
    positions = {name: i for i, name in enumerate(header)}
    if len(positions) != len(header):
        raise IngestError(f"duplicate column names in header {header!r}")
    if measure is None:
        measure_at = len(header) - 1
    elif measure in positions:
        measure_at = positions[measure]
    else:
        raise IngestError(
            f"measure column {measure!r} not in header {list(header)!r}"
        )
    if dims is None:
        dim_at = [i for i in range(len(header)) if i != measure_at]
    else:
        missing = [name for name in dims if name not in positions]
        if missing:
            raise IngestError(
                f"dimension column(s) {missing!r} not in header "
                f"{list(header)!r}"
            )
        dim_at = [positions[name] for name in dims]
    if not dim_at:
        raise IngestError("no dimension columns left for the cube")
    if measure_at in dim_at:
        raise IngestError(
            f"column {header[measure_at]!r} used as both dimension "
            "and measure"
        )
    return dim_at, measure_at


def iter_csv_batches(
    path: str | os.PathLike[str],
    *,
    dims: Sequence[str] | None = None,
    measure: str | None = None,
    dtype: object = np.int64,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Stream a headered CSV file as :class:`RecordBatch` slabs.

    Args:
        path: CSV file with a header row.
        dims: Dimension column names, in cube-dimension order; default
            every column except the measure.
        measure: Measure column name; default the last column.
        dtype: Measure dtype the value column is parsed as (parse
            errors — e.g. ``"3.5"`` into an integer cube — raise
            :class:`IngestError` rather than truncating).
        batch_rows: Rows per emitted batch.

    Raises:
        IngestError: On a missing header, unknown columns, ragged rows,
            or unparseable fields, naming the offending row.
    """
    if batch_rows < 1:
        raise IngestError(f"batch_rows must be >= 1, got {batch_rows}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{os.fspath(path)}: empty file") from None
        dim_at, measure_at = _resolve_columns(header, dims, measure)
        width = len(header)
        coord_rows: list[list[str]] = []
        value_rows: list[str] = []
        for number, row in enumerate(reader, start=2):
            if not row:
                continue  # blank trailing lines are harmless
            if len(row) != width:
                raise IngestError(
                    f"{os.fspath(path)}:{number}: expected {width} "
                    f"fields, got {len(row)}"
                )
            coord_rows.append([row[i] for i in dim_at])
            value_rows.append(row[measure_at])
            if len(value_rows) >= batch_rows:
                yield _parse_batch(
                    coord_rows, value_rows, dtype, path, number
                )
                coord_rows = []
                value_rows = []
        if value_rows:
            yield _parse_batch(coord_rows, value_rows, dtype, path, number)


def _parse_batch(
    coord_rows: list[list[str]],
    value_rows: list[str],
    dtype: object,
    path: str | os.PathLike[str],
    last_row: int,
) -> RecordBatch:
    """Convert accumulated string rows to arrays with clear errors."""
    try:
        coords = np.array(coord_rows, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise IngestError(
            f"{os.fspath(path)} (rows ending {last_row}): "
            f"non-integer coordinate: {exc}"
        ) from None
    try:
        values = np.array(value_rows, dtype=np.dtype(dtype))
    except (ValueError, OverflowError) as exc:
        raise IngestError(
            f"{os.fspath(path)} (rows ending {last_row}): "
            f"measure does not parse as {np.dtype(dtype)}: {exc}"
        ) from None
    return RecordBatch(coords, values)


# ----------------------------------------------------------------------
# Arrow / Parquet sources (soft pyarrow dependency)
# ----------------------------------------------------------------------


def _require_pyarrow(what: str) -> object:
    if not pyarrow_available():
        raise IngestError(
            f"{what} requires pyarrow, which is not available "
            "(install it, or convert the data to CSV)"
        )
    import pyarrow  # noqa: PLC0415  (soft dependency, import on use)

    return pyarrow


def _table_batches(
    table: object,
    dims: Sequence[str] | None,
    measure: str | None,
    dtype: object,
    batch_rows: int,
) -> Iterator[RecordBatch]:
    """Common Arrow-table → RecordBatch conversion."""
    header = list(table.column_names)  # type: ignore[attr-defined]
    dim_at, measure_at = _resolve_columns(header, dims, measure)
    for chunk in table.to_batches(max_chunksize=batch_rows):  # type: ignore[attr-defined]
        columns = [chunk.column(i).to_numpy(zero_copy_only=False) for i in dim_at]
        raw_values = chunk.column(measure_at).to_numpy(zero_copy_only=False)
        try:
            coords = np.stack(columns, axis=1).astype(np.int64, casting="same_kind")
            values = np.asarray(raw_values).astype(
                np.dtype(dtype), casting="same_kind"
            )
        except TypeError as exc:
            raise IngestError(
                f"arrow column types do not cast safely: {exc}"
            ) from None
        yield RecordBatch(coords, values)


def iter_arrow_batches(
    path: str | os.PathLike[str],
    *,
    dims: Sequence[str] | None = None,
    measure: str | None = None,
    dtype: object = np.int64,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Stream an Arrow IPC file (requires the soft pyarrow dependency)."""
    pa = _require_pyarrow("reading Arrow IPC")
    with pa.memory_map(os.fspath(path)) as source:  # type: ignore[attr-defined]
        table = pa.ipc.open_file(source).read_all()  # type: ignore[attr-defined]
    yield from _table_batches(table, dims, measure, dtype, batch_rows)


def iter_parquet_batches(
    path: str | os.PathLike[str],
    *,
    dims: Sequence[str] | None = None,
    measure: str | None = None,
    dtype: object = np.int64,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Stream a Parquet file (requires the soft pyarrow dependency)."""
    _require_pyarrow("reading Parquet")
    import pyarrow.parquet as pq  # noqa: PLC0415

    table = pq.read_table(os.fspath(path))
    yield from _table_batches(table, dims, measure, dtype, batch_rows)


#: File suffixes each reader claims (the CLI's format sniffing).
_SUFFIX_READERS = {
    ".csv": iter_csv_batches,
    ".arrow": iter_arrow_batches,
    ".feather": iter_arrow_batches,
    ".ipc": iter_arrow_batches,
    ".parquet": iter_parquet_batches,
    ".pq": iter_parquet_batches,
}


def open_batches(
    path: str | os.PathLike[str],
    *,
    fmt: str | None = None,
    dims: Sequence[str] | None = None,
    measure: str | None = None,
    dtype: object = np.int64,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Open any supported data file as a batch stream.

    The format is taken from ``fmt`` (``csv`` / ``arrow`` / ``parquet``)
    or sniffed from the file suffix.  Arrow and Parquet need the soft
    pyarrow dependency; without it they raise a clear
    :class:`IngestError` instead of an import error.
    """
    if fmt is not None:
        readers = {
            "csv": iter_csv_batches,
            "arrow": iter_arrow_batches,
            "parquet": iter_parquet_batches,
        }
        if fmt not in readers:
            raise IngestError(
                f"unknown format {fmt!r}; expected one of {sorted(readers)}"
            )
        reader = readers[fmt]
    else:
        suffix = Path(path).suffix.lower()
        reader = _SUFFIX_READERS.get(suffix, iter_csv_batches)
    return reader(
        path,
        dims=dims,
        measure=measure,
        dtype=dtype,
        batch_rows=batch_rows,
    )


def infer_shape(batches: Iterator[RecordBatch]) -> tuple[int, ...]:
    """The minimal cube shape covering every coordinate in a stream.

    Consumes the iterator (sources are single-use; reopen the file for
    the actual ingest pass).
    """
    maxima: np.ndarray | None = None
    for batch in batches:
        if batch.rows == 0:
            continue
        if (batch.coords < 0).any():
            raise IngestError("negative coordinate in record stream")
        batch_max = batch.coords.max(axis=0)
        if maxima is None:
            maxima = batch_max
        elif len(batch_max) != len(maxima):
            raise IngestError(
                f"inconsistent dimensionality across batches: "
                f"{len(maxima)} then {len(batch_max)}"
            )
        else:
            maxima = np.maximum(maxima, batch_max)
    if maxima is None:
        raise IngestError("cannot infer a shape from an empty stream")
    return tuple(int(m) + 1 for m in maxima)
