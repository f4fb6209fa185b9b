"""Batch-source behaviour: CSV parsing, column mapping, soft pyarrow."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.ingest import (
    ENV_DISABLE_PYARROW,
    IngestError,
    RecordBatch,
    batches_from_cube,
    batches_from_records,
    infer_shape,
    iter_arrow_batches,
    iter_csv_batches,
    iter_parquet_batches,
    open_batches,
    pyarrow_available,
)


@pytest.fixture
def facts_csv(tmp_path):
    path = tmp_path / "facts.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["store", "day", "sales"])
        writer.writerows([[0, 0, 5], [1, 2, 7], [0, 0, 3], [2, 1, 1]])
    return path


class TestRecordBatch:
    def test_validates_shapes(self):
        with pytest.raises(IngestError, match="2-D"):
            RecordBatch(np.zeros(3, dtype=np.int64), np.zeros(3))
        with pytest.raises(IngestError, match="1-D"):
            RecordBatch(
                np.zeros((3, 2), dtype=np.int64), np.zeros((3, 1))
            )
        with pytest.raises(IngestError, match="3 coordinate rows"):
            RecordBatch(np.zeros((3, 2), dtype=np.int64), np.zeros(2))

    def test_rows(self):
        batch = RecordBatch(np.zeros((4, 2), dtype=np.int64), np.ones(4))
        assert batch.rows == 4


class TestInMemorySources:
    def test_batches_from_records_slices(self):
        coords = np.arange(10, dtype=np.int64).reshape(5, 2)
        values = np.arange(5)
        batches = list(batches_from_records(coords, values, batch_rows=2))
        assert [b.rows for b in batches] == [2, 2, 1]
        assert np.array_equal(
            np.concatenate([b.values for b in batches]), values
        )

    def test_batches_from_cube_roundtrip(self):
        cube = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        rebuilt = np.zeros_like(cube)
        for batch in batches_from_cube(cube, batch_rows=7):
            np.add.at(rebuilt, tuple(batch.coords.T), batch.values)
        assert np.array_equal(rebuilt, cube)

    def test_bad_batch_rows(self):
        with pytest.raises(IngestError, match="batch_rows"):
            list(batches_from_records(np.zeros((1, 1)), np.zeros(1), 0))


class TestCsvSource:
    def test_reads_headered_csv(self, facts_csv):
        batches = list(iter_csv_batches(facts_csv))
        assert sum(b.rows for b in batches) == 4
        coords = np.concatenate([b.coords for b in batches])
        values = np.concatenate([b.values for b in batches])
        assert np.array_equal(coords[1], [1, 2])
        assert values.tolist() == [5, 7, 3, 1]

    def test_column_selection(self, facts_csv):
        (batch,) = iter_csv_batches(
            facts_csv, dims=["day", "store"], measure="sales"
        )
        # dims order defines cube-dimension order
        assert np.array_equal(batch.coords[1], [2, 1])

    def test_unknown_measure_column(self, facts_csv):
        with pytest.raises(IngestError, match="measure column"):
            list(iter_csv_batches(facts_csv, measure="revenue"))

    def test_unknown_dimension_column(self, facts_csv):
        with pytest.raises(IngestError, match="dimension column"):
            list(iter_csv_batches(facts_csv, dims=["warehouse"]))

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,v\n1,2,3\n4,5\n")
        with pytest.raises(IngestError, match=r":3: expected 3 fields"):
            list(iter_csv_batches(path))

    def test_non_integer_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,v\nx,2,3\n")
        with pytest.raises(IngestError, match="non-integer coordinate"):
            list(iter_csv_batches(path))

    def test_unparseable_measure(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,v\n1,2,3.5\n")
        with pytest.raises(IngestError, match="does not parse as int64"):
            list(iter_csv_batches(path, dtype=np.int64))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty file"):
            list(iter_csv_batches(path))

    def test_batching_respects_batch_rows(self, facts_csv):
        batches = list(iter_csv_batches(facts_csv, batch_rows=3))
        assert [b.rows for b in batches] == [3, 1]

    def test_utf8_bom_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfd0,d1,v\r\n1,2,3\r\n")
        (batch,) = iter_csv_batches(path, dims=["d0", "d1"], measure="v")
        assert batch.coords.tolist() == [[1, 2]]
        assert batch.values.tolist() == [3]

    def test_bad_field_names_its_line_in_a_later_block(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d0,d1,v\n1,2,3\n4,5,6\n7,8,9\n1,x,3\n")
        with pytest.raises(
            IngestError,
            match=r"bad\.csv:5: non-integer coordinate 'x' in column 'd1'",
        ):
            list(iter_csv_batches(path, batch_rows=2))
        path.write_text("d0,d1,v\n1,2,3\n4,5,6\n7,8,9.5\n1,2,3\n")
        with pytest.raises(
            IngestError,
            match=r"bad\.csv:4: measure '9\.5' in column 'v' does not "
            r"parse as int64",
        ):
            list(iter_csv_batches(path, batch_rows=2))


class TestOpenBatches:
    def test_suffix_dispatch_csv(self, facts_csv):
        batches = list(open_batches(facts_csv))
        assert sum(b.rows for b in batches) == 4

    def test_unknown_format(self, facts_csv):
        with pytest.raises(IngestError, match="unknown format"):
            open_batches(facts_csv, fmt="xml")

    def test_infer_shape(self, facts_csv):
        assert infer_shape(open_batches(facts_csv)) == (3, 3)

    def test_infer_shape_empty_stream(self):
        with pytest.raises(IngestError, match="empty stream"):
            infer_shape(iter(()))

    def test_infer_shape_negative_coordinate(self):
        batch = RecordBatch(
            np.array([[-1, 0]], dtype=np.int64), np.ones(1)
        )
        with pytest.raises(IngestError, match="negative"):
            infer_shape(iter([batch]))


class TestPyarrowGate:
    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE_PYARROW, "1")
        assert not pyarrow_available()

    def test_arrow_without_pyarrow_is_clean_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(ENV_DISABLE_PYARROW, "1")
        path = tmp_path / "t.arrow"
        path.write_bytes(b"")
        with pytest.raises(IngestError, match="requires pyarrow"):
            list(iter_arrow_batches(path))
        with pytest.raises(IngestError, match="requires pyarrow"):
            list(iter_parquet_batches(tmp_path / "t.parquet"))

    @pytest.mark.skipif(
        not pyarrow_available(), reason="pyarrow not installed"
    )
    def test_parquet_roundtrip(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        table = pa.table(
            {
                "a": pa.array([0, 1, 2], type=pa.int64()),
                "b": pa.array([1, 0, 1], type=pa.int64()),
                "v": pa.array([10, 20, 30], type=pa.int64()),
            }
        )
        path = tmp_path / "t.parquet"
        pq.write_table(table, path)
        (batch,) = open_batches(path)
        assert np.array_equal(batch.coords[:, 0], [0, 1, 2])
        assert batch.values.tolist() == [10, 20, 30]

    @pytest.mark.skipif(
        not pyarrow_available(), reason="pyarrow not installed"
    )
    def test_arrow_ipc_roundtrip(self, tmp_path):
        import pyarrow as pa

        table = pa.table(
            {
                "a": pa.array([3, 1], type=pa.int64()),
                "v": pa.array([7, 9], type=pa.int64()),
            }
        )
        path = tmp_path / "t.arrow"
        with pa.OSFile(str(path), "wb") as sink:
            with pa.ipc.new_file(sink, table.schema) as writer:
                writer.write_table(table)
        (batch,) = open_batches(path)
        assert batch.coords[:, 0].tolist() == [3, 1]
        assert batch.values.tolist() == [7, 9]
