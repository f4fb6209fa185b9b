"""CSV block parsing (``np.loadtxt``) ≡ the ``csv.reader`` path.

``iter_csv_batches`` parses each block of lines with one ``np.loadtxt``
call and falls back to ``csv.reader`` plus per-row conversion for
quotes, unused columns and anything ``loadtxt`` rejects.  The oracle
here is a reference reader with the ``csv.reader`` semantics: every
batch must match it value for value and dtype for dtype, and every
malformed row must raise with the same line number in every block
position, whichever path its block took.
"""

from __future__ import annotations

import csv
import re
from collections import Counter

import numpy as np
import pytest

import repro.ingest.batches as batches_module
from repro.ingest import IngestError, iter_csv_batches

BATCH_ROWS = 4


def reference_batches(path, dims, measure, dtype, batch_rows):
    """``csv.reader``, the width check, then ``np.array`` per block of
    ``batch_rows`` lines after the header."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        at = header.index(measure) if measure else len(header) - 1
        dim_at = (
            [header.index(name) for name in dims]
            if dims
            else [i for i in range(len(header)) if i != at]
        )
        blocks: dict[int, list[list[str]]] = {}
        for row in reader:
            if row:
                assert len(row) == len(header), reader.line_num
                block = (reader.line_num - 2) // batch_rows
                blocks.setdefault(block, []).append(row)
    for _, rows in sorted(blocks.items()):
        coords = np.array([[r[i] for i in dim_at] for r in rows], np.int64)
        yield coords, np.array([r[at] for r in rows], dtype=np.dtype(dtype))


@pytest.fixture
def paths_taken(monkeypatch):
    """Count blocks ``loadtxt`` parsed and entries into the
    ``csv.reader`` path."""
    taken: Counter[str] = Counter()
    load_block = batches_module._load_block
    reader_batches = batches_module._reader_batches

    def counting_load_block(lines, block_dtype):
        table = load_block(lines, block_dtype)
        taken["fast" if table is not None else "rejected"] += 1
        return table

    def counting_reader_batches(*args):
        taken["slow"] += 1
        return reader_batches(*args)

    monkeypatch.setattr(batches_module, "_load_block", counting_load_block)
    monkeypatch.setattr(
        batches_module, "_reader_batches", counting_reader_batches
    )
    return taken


def _field(rng, value: int) -> str:
    """An integer field in one of the spellings both paths accept."""
    style = rng.integers(6)
    if style == 0:
        return f" {value} "
    if value < 0:
        return str(value)
    if style == 1:
        return f"+{value}"
    if style == 2:
        return f"-{value}" if value == 0 else f"\t{value}"
    if style == 3:
        return f"0{value}"
    return str(value)


def _measure(rng, dtype: np.dtype) -> str:
    if dtype.kind == "f":
        whole, fraction = rng.integers(-99999, 99999), rng.integers(1000)
        return f"{whole}.{fraction:03d}e{rng.integers(-8, 8)}"
    if dtype.kind == "u":
        # "-0" is accepted by np.array but not by loadtxt: that block
        # must fall back and still yield 0.
        if rng.random() < 0.05:
            return "-0"
        return str(rng.integers(0, 2**64, dtype=np.uint64))
    return _field(rng, int(rng.integers(-(2**31), 2**31)))


def write_case(path, rng, width, dtype, *, crlf, unused, quoted_at):
    """A seeded CSV: ``width`` integer columns + measure ``v`` (+ an
    unused ``note`` column), blank lines, and optionally one quoted row."""
    header = [f"d{i}" for i in range(width - 1)] + ["v"]
    if unused:
        header.insert(1, "note")
    newline = "\r\n" if crlf else "\n"
    lines = [",".join(header)]
    for number in range(23):
        if rng.random() < 0.1:
            lines.append("")
        fields = [_field(rng, int(rng.integers(0, 50))) for _ in header]
        fields[header.index("v")] = _measure(rng, dtype)
        if unused:
            fields[1] = "a#b" if rng.random() < 0.5 else "free text"
        if number == quoted_at:
            fields = [f'"{field}"' for field in fields]
        lines.append(",".join(fields))
    path.write_text(newline.join(lines) + newline, newline="")
    return header


DTYPES = ["int64", "int32", "uint64", "float32", "float64"]
VARIANTS = ["plain", "crlf", "reordered", "unused", "quoted"]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batches_match_reference(tmp_path, paths_taken, dtype, width, variant):
    rng = np.random.default_rng(
        [width, DTYPES.index(dtype), VARIANTS.index(variant)]
    )
    path = tmp_path / "facts.csv"
    header = write_case(
        path,
        rng,
        width,
        np.dtype(dtype),
        crlf=variant == "crlf",
        unused=variant == "unused",
        quoted_at=11 if variant == "quoted" else None,
    )
    dims = measure = None
    if variant == "reordered" or variant == "unused":
        dims = [name for name in header if name.startswith("d")][::-1]
        measure = "v"
    got = list(
        iter_csv_batches(
            path, dims=dims, measure=measure, dtype=dtype, batch_rows=BATCH_ROWS
        )
    )
    want = list(reference_batches(path, dims, measure, dtype, BATCH_ROWS))
    assert len(got) == len(want)
    for batch, (coords, values) in zip(got, want):
        assert batch.coords.dtype == coords.dtype
        assert batch.values.dtype == values.dtype
        assert np.array_equal(batch.coords, coords)
        assert batch.values.tobytes() == values.tobytes()
    if variant == "unused":
        assert paths_taken["fast"] == 0
    else:
        assert paths_taken["fast"] > 0
    if variant == "quoted":
        assert paths_taken["slow"] >= 1


def test_duplicate_dimension_leaves_a_column_unused(tmp_path, paths_taken):
    """``dims=["a", "a"]`` uses as many columns as the header minus one,
    but not column ``b``: the fast path must not run (it cannot check
    what ``usecols`` skips)."""
    path = tmp_path / "dup.csv"
    path.write_text("a,b,v\n1,5,3\n2,6,4\n")
    (batch,) = iter_csv_batches(path, dims=["a", "a"])
    assert batch.coords.tolist() == [[1, 1], [2, 2]]
    assert paths_taken["fast"] == 0


#: Malformed rows for a three-column file, and the error each raises
#: (``{width}``: the header's field count).
BAD_ROWS = {
    "ragged": ("1,2", "expected {width} fields"),
    "extra": ("1,2,3,4", "expected {width} fields"),
    "whitespace": ("   ", "expected {width} fields, got 1"),
    "comment": ("# a note", "expected {width} fields, got 1"),
    "hash-in-field": ("1#,2,3", "non-integer coordinate '1#' in column 'a'"),
    "coordinate": ("1,x,3", "non-integer coordinate 'x' in column 'b'"),
    "overflow": ("1,99999999999999999999,3", "non-integer coordinate"),
    "measure": ("1,2,3.5", "measure '3.5' in column 'v' does not parse"),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("mode", ["blocks", "after-quote", "unused-column"])
def test_bad_row_names_its_line_in_every_block_position(tmp_path, kind, mode):
    bad, message = BAD_ROWS[kind]
    header = "a,b,v"
    good = ["1,2,3"] * 10
    if mode == "after-quote":
        good[0] = '"1",2,3'
    if mode == "unused-column":
        header, good, bad = _with_note_column(header, good, bad)
    path = tmp_path / "bad.csv"
    first = 1 if mode == "after-quote" else 0  # the bad row follows the quote
    for position in range(first, len(good) + 1):
        lines = [header, *good[:position], bad, *good[position:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError) as caught:
            list(iter_csv_batches(path, dims=["a", "b"], batch_rows=3))
        assert f"bad.csv:{position + 2}: " in str(caught.value)
        assert message.format(width=header.count(",") + 1) in str(
            caught.value
        )


def _with_note_column(header, good, bad):
    """Insert an unused text column after the first one in every line
    (a malformed row keeps its own defect)."""

    def add(line):
        first, _, rest = line.partition(",")
        return f"{first},note,{rest}" if rest else line

    return add(header), [add(line) for line in good], add(bad)


@pytest.mark.parametrize(
    "header, quoted, dims",
    [("a,b,v", '"5\n"', ["a", "b"]), ("a,note,v", '"two\nlines"', ["a"])],
)
def test_quoted_field_may_span_lines(tmp_path, header, quoted, dims):
    """After a quote the rest of the file goes through csv.reader, so a
    quoted newline works, and later errors still name physical lines."""
    path = tmp_path / "multi.csv"
    lines = [header, "1,2,3", f"4,{quoted},6", "7,8,9"]
    path.write_text("\n".join(lines) + "\n")
    got = list(iter_csv_batches(path, dims=dims, measure="v", batch_rows=1))
    coords = np.concatenate([b.coords for b in got])
    assert coords[:, 0].tolist() == [1, 4, 7]
    assert np.concatenate([b.values for b in got]).tolist() == [3, 6, 9]
    path.write_text("\n".join([*lines, "1,2"]) + "\n")
    with pytest.raises(IngestError, match=re.escape("multi.csv:6: expected")):
        list(iter_csv_batches(path, dims=dims, measure="v", batch_rows=1))


def test_non_numeric_measure_takes_reader_path(tmp_path, paths_taken):
    """loadtxt reads "0" as a False bool where np.array reads True."""
    path = tmp_path / "flags.csv"
    path.write_text("a,v\n1,0\n2,1\n")
    (batch,) = iter_csv_batches(path, dtype=bool)
    assert batch.values.tolist() == np.array(["0", "1"], dtype=bool).tolist()
    assert paths_taken["fast"] == 0


def test_block_of_blank_lines_yields_no_batch(tmp_path, recwarn):
    path = tmp_path / "gaps.csv"
    path.write_text("a,v\n1,2\n\n\n\n\n3,4\n")
    got = list(iter_csv_batches(path, batch_rows=2))
    assert [b.values.tolist() for b in got] == [[2], [4]]
    assert not recwarn.list  # loadtxt's "input contained no data"
