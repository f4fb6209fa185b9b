"""Record batches and batch sources for streaming ingestion.

A *record* is one fact-table row: integer coordinates along every cube
dimension plus one measure value.  A :class:`RecordBatch` is a columnar
slab of such records — a ``(rows, d)`` coordinate array and a
``(rows,)`` value array — the unit the one-pass accumulators in
:mod:`repro.ingest.accumulate` consume.

Sources:

* :func:`iter_csv_batches` — always available (``np.loadtxt`` per block
  of lines, stdlib ``csv`` for quotes and errors), streams a headered
  CSV in bounded-size batches;
* :func:`iter_arrow_batches` / :func:`iter_parquet_batches` — available
  when ``pyarrow`` is importable (a *soft* dependency: absence
  degrades silently to "format unsupported", no import-time failure,
  ``REPRO_PYARROW_DISABLE`` forces the degraded path for CI parity
  legs);
* :func:`batches_from_records` / :func:`batches_from_cube` — in-memory
  sources for tests and benchmarks.

Every source raises :class:`IngestError` on malformed input (ragged
rows, non-numeric fields, wrong column counts) — for CSV, naming the
offending line; the accumulators guarantee that an error mid-stream leaves no
partial spill files behind.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import os
import warnings
from collections.abc import Iterable, Iterator, Sequence
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


@dataclass(frozen=True)
class _CsvLayout:
    """Where a CSV's cube dimensions and measure sit, for error messages
    and for both parse paths."""

    path: str
    header: list[str]
    dim_at: list[int]
    measure_at: int
    dtype: np.dtype

    def block_dtype(self) -> np.dtype | None:
        """The structured ``np.loadtxt`` dtype, one field per column.

        ``None`` — every block takes the ``csv.reader`` path — when some
        column is neither a dimension nor the measure (``loadtxt`` with
        ``usecols`` silently accepts rows with extra fields), or when the
        measure is not a number (``loadtxt`` reads ``"0"`` as a ``False``
        bool, ``np.array`` as ``True``).
        """
        if len(set(self.dim_at)) + 1 != len(self.header):
            return None
        if self.dtype.kind not in "iuf":
            return None
        return np.dtype(
            [
                (f"f{i}", self.dtype if i == self.measure_at else np.int64)
                for i in range(len(self.header))
            ]
        )


#: Lines ``csv.reader`` reads as an empty row (skipped on both paths).
_BLANK_LINES = ("\n", "\r\n", "\r")


def iter_csv_batches(
    path: str | os.PathLike[str],
    *,
    dims: Sequence[str] | None = None,
    measure: str | None = None,
    dtype: object = np.int64,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RecordBatch]:
    """Stream a headered CSV file as :class:`RecordBatch` slabs.

    Each block of up to ``batch_rows`` lines is parsed by one
    ``np.loadtxt`` call.  A block goes through ``csv.reader`` and
    per-row conversion instead when ``loadtxt`` rejects it, when the
    file has columns the cube does not use, or once a ``"`` appears
    (from that block to the end of the file, so quoted fields may span
    lines).  The fast path accepts nothing the ``csv.reader`` path
    rejects and returns the same values; the ``csv.reader`` path is the
    one that names the offending line.

    Args:
        path: CSV file with a header row (UTF-8; a leading byte-order
            mark is ignored).
        dims: Dimension column names, in cube-dimension order; default
            every column except the measure.
        measure: Measure column name; default the last column.
        dtype: Measure dtype the value column is parsed as (parse
            errors — e.g. ``"3.5"`` into an integer cube — raise
            :class:`IngestError` rather than truncating).
        batch_rows: Lines per emitted batch (blank lines are skipped,
            so a batch may hold fewer records).

    Raises:
        IngestError: On a missing header, unknown columns, ragged rows,
            or unparseable fields, naming the offending line.
    """
    if batch_rows < 1:
        raise IngestError(f"batch_rows must be >= 1, got {batch_rows}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{os.fspath(path)}: empty file") from None
        dim_at, measure_at = _resolve_columns(header, dims, measure)
        layout = _CsvLayout(
            os.fspath(path), header, dim_at, measure_at, np.dtype(dtype)
        )
        line = reader.line_num + 1
        block_dtype = layout.block_dtype()
        if block_dtype is None:
            yield from _reader_batches(handle, line, layout, batch_rows)
            return
        while lines := list(itertools.islice(handle, batch_rows)):
            if '"' in "".join(lines):
                yield from _reader_batches(
                    itertools.chain(lines, handle), line, layout, batch_rows
                )
                return
            table = _load_block(lines, block_dtype)
            if table is None:
                yield from _reader_batches(lines, line, layout, batch_rows)
            elif len(table):
                coords = np.stack([table[f"f{i}"] for i in dim_at], axis=1)
                values = np.ascontiguousarray(table[f"f{measure_at}"])
                yield RecordBatch(coords, values)
            line += len(lines)


def _load_block(lines: list[str], block_dtype: np.dtype) -> np.ndarray | None:
    """One ``np.loadtxt`` call over a block of lines, or ``None`` when
    the block must take the ``csv.reader`` path."""
    if all(text in _BLANK_LINES for text in lines):
        return np.empty(0, dtype=block_dtype)  # loadtxt warns on no data
    try:
        with warnings.catch_warnings():
            # numpy 1.x parses "3.5" or "1e19" into an integer field via
            # float, warning only; as an error the block goes to the
            # csv.reader path, which rejects it.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                lines,
                dtype=block_dtype,
                delimiter=",",
                comments=None,
                quotechar=None,
                ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    if len(table) == len(lines):
        return table
    # Only blank lines may go missing: loadtxt skipping a line csv.reader
    # reads as a row would accept what that path rejects.
    blank = sum(map(lines.count, _BLANK_LINES))
    return table if len(table) == len(lines) - blank else None


def _reader_batches(
    lines: Iterable[str],
    first_line: int,
    layout: _CsvLayout,
    batch_rows: int,
) -> Iterator[RecordBatch]:
    """The ``csv.reader`` path over ``lines``, the first of which is
    line ``first_line`` of the file; one batch per ``batch_rows`` lines
    (a quoted field spanning a boundary extends its batch)."""
    reader = csv.reader(lines)
    width = len(layout.header)
    coord_rows: list[list[str]] = []
    value_rows: list[str] = []
    row_lines: list[int] = []
    consumed = batch_start = 0
    for row in reader:
        number = first_line + consumed  # the record's first line
        consumed = reader.line_num
        if row:  # blank lines are harmless
            if len(row) != width:
                raise IngestError(
                    f"{layout.path}:{number}: expected {width} "
                    f"fields, got {len(row)}"
                )
            coord_rows.append([row[i] for i in layout.dim_at])
            value_rows.append(row[layout.measure_at])
            row_lines.append(number)
        if consumed - batch_start >= batch_rows:
            if value_rows:
                yield _parse_batch(coord_rows, value_rows, row_lines, layout)
            coord_rows, value_rows, row_lines = [], [], []
            batch_start = consumed
    if value_rows:
        yield _parse_batch(coord_rows, value_rows, row_lines, layout)


def _parse_batch(
    coord_rows: list[list[str]],
    value_rows: list[str],
    row_lines: list[int],
    layout: _CsvLayout,
) -> RecordBatch:
    """Convert accumulated string rows to arrays with clear errors."""
    try:
        coords = np.array(coord_rows, dtype=np.int64)
        values = np.array(value_rows, dtype=layout.dtype)
    except (ValueError, OverflowError) as exc:
        raise _bad_field_error(
            coord_rows, value_rows, row_lines, layout, exc
        ) from None
    return RecordBatch(coords, values)


def _bad_field_error(
    coord_rows: list[list[str]],
    value_rows: list[str],
    row_lines: list[int],
    layout: _CsvLayout,
    exc: Exception,
) -> IngestError:
    """Convert row by row to name the first bad field and its line."""
    for coords, value, number in zip(coord_rows, value_rows, row_lines):
        for at, field in zip(layout.dim_at, coords):
            if not _converts(field, np.dtype(np.int64)):
                return IngestError(
                    f"{layout.path}:{number}: non-integer coordinate "
                    f"{field!r} in column {layout.header[at]!r}"
                )
        if not _converts(value, layout.dtype):
            return IngestError(
                f"{layout.path}:{number}: measure {value!r} in column "
                f"{layout.header[layout.measure_at]!r} does not parse as "
                f"{layout.dtype}"
            )
    return IngestError(f"{layout.path}:{row_lines[0]}-{row_lines[-1]}: {exc}")


def _converts(field: str, dtype: np.dtype) -> bool:
    try:
        np.array([field], dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


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
