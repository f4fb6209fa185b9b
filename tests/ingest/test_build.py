"""Streamed builds ≡ in-memory builds, plus failure atomicity.

The tentpole invariant: one streaming pass over a record stream must
produce *bit-identical* structures to densifying first and building in
memory — for every registered dense structure, on both array backends.
Integer measures make bit-identity exact (scatter order cannot change
integer sums).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.backend import MemmapBackend, MemoryBackend
from repro.index.registry import available_indexes, create_index
from repro.ingest import (
    IngestError,
    IngestPlan,
    batches_from_cube,
    batches_from_records,
    in_memory_reference,
    ingest,
    open_batches,
    plan_cuboids,
)
from repro.optimizer.materialize import MaterializedCuboidSet
from repro.query.ranges import RangeQuery, RangeSpec

SHAPE = (13, 9, 5)
#: Every registered *dense* structure (sparse ones take coordinate
#: lists, not cubes, and have their own ingestion story).
DENSE = tuple(
    name for name in available_indexes() if not name.startswith("sparse")
)


def params_for(name: str, ndim: int) -> dict:
    return {
        "prefix_sum": {},
        "blocked_prefix_sum": {"block_size": 4},
        "partial_prefix_sum": {"prefix_dims": tuple(range(0, ndim, 2))},
        "blocked_partial_prefix_sum": {
            "prefix_dims": (0,),
            "block_size": 4,
        },
        "range_max_tree": {"fanout": 3},
    }[name]


@pytest.fixture
def rng():
    return np.random.default_rng(0xF00D)


@pytest.fixture
def cube(rng):
    return rng.integers(0, 100, size=SHAPE).astype(np.int64)


def make_backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    return MemmapBackend(tmp_path / "spill")


def streamed_base(cube, backend) -> np.ndarray:
    plan = IngestPlan(shape=cube.shape, measure_dtype=str(cube.dtype))
    result = ingest(batches_from_cube(cube, batch_rows=97), plan, backend)
    return result.cuboid_set.base


class TestStreamedEqualsInMemory:
    @pytest.mark.parametrize("name", DENSE)
    @pytest.mark.parametrize("backend_kind", ["memory", "memmap"])
    def test_every_dense_structure_bit_identical(
        self, name, backend_kind, cube, tmp_path
    ):
        """Registry-parametrized: structure built over the streamed base
        equals the one built over the dense cube, array for array."""
        backend = make_backend(backend_kind, tmp_path)
        base = streamed_base(cube, backend)
        assert np.array_equal(np.asarray(base), cube)
        params = params_for(name, cube.ndim)
        reference = create_index(name, cube, **params)
        streamed = create_index(name, np.asarray(base), **params)
        for key, value in reference.state_dict().items():
            if isinstance(value, np.ndarray):
                got = streamed.state_dict()[key]
                assert value.dtype == got.dtype, key
                assert np.array_equal(value, np.asarray(got)), key

    @pytest.mark.parametrize("backend_kind", ["memory", "memmap"])
    def test_cuboid_set_bit_identical(self, backend_kind, cube, tmp_path):
        """One-pass multi-cuboid accumulation vs base.sum(axis=...)."""
        keys = [(0,), (0, 1), (1, 2), (0, 1, 2)]
        plan = IngestPlan(
            shape=cube.shape, cuboids=plan_cuboids(cube.shape, keys, 4)
        )
        backend = make_backend(backend_kind, tmp_path)
        result = ingest(
            batches_from_cube(cube, batch_rows=101), plan, backend
        )
        reference = MaterializedCuboidSet(cube, plan.cuboids)
        assert result.rows == cube.size
        for got, want in zip(result.cuboid_set.cuboids, reference.cuboids):
            assert got.key == want.key
            for key, value in want.structure.state_dict().items():
                if isinstance(value, np.ndarray):
                    mine = got.structure.state_dict()[key]
                    assert value.dtype == mine.dtype, (got.key, key)
                    assert np.array_equal(value, np.asarray(mine)), (
                        got.key,
                        key,
                    )

    def test_query_answers_match(self, cube, tmp_path):
        keys = [(0, 1), (2,)]
        plan = IngestPlan(
            shape=cube.shape,
            cuboids=plan_cuboids(cube.shape, keys, 4),
            budget_bytes=1,  # force a spill
            spill_directory=tmp_path / "spill",
        )
        result = ingest(batches_from_cube(cube, batch_rows=64), plan)
        assert result.spilled
        reference = in_memory_reference(batches_from_cube(cube), plan)
        query = RangeQuery(
            (
                RangeSpec.between(2, 11),
                RangeSpec.all(),
                RangeSpec.between(1, 3),
            )
        )
        assert result.cuboid_set.range_sum(query) == reference.range_sum(
            query
        )

    @pytest.mark.parametrize("backend_kind", ["memory", "memmap"])
    def test_csv_mixing_parse_paths_bit_identical(
        self, backend_kind, cube, tmp_path
    ):
        """A CSV whose early blocks parse with np.loadtxt, one block
        falls back (``1_0`` is valid for np.array, not for loadtxt) and a
        quoted row sends the rest through csv.reader builds exactly the
        in-memory reference."""
        rows = [[*cell, str(cube[cell])] for cell in np.ndindex(cube.shape)]
        rows[200][3] += "_0"
        rows[-100][0] = f'"{rows[-100][0]}"'
        csv_cube = cube.copy()
        csv_cube.flat[200] *= 10
        path = tmp_path / "facts.csv"
        path.write_text(
            "d0,d1,d2,v\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
        )
        keys = [(0,), (0, 1), (1, 2), (0, 1, 2)]
        plan = IngestPlan(
            shape=cube.shape, cuboids=plan_cuboids(cube.shape, keys, 4)
        )
        backend = make_backend(backend_kind, tmp_path)
        result = ingest(open_batches(path, batch_rows=64), plan, backend)
        reference = in_memory_reference(batches_from_cube(csv_cube), plan)
        assert result.rows == cube.size
        assert np.array_equal(np.asarray(result.cuboid_set.base), csv_cube)
        for got, want in zip(result.cuboid_set.cuboids, reference.cuboids):
            assert got.key == want.key
            for key, value in want.structure.state_dict().items():
                if isinstance(value, np.ndarray):
                    mine = np.asarray(got.structure.state_dict()[key])
                    assert value.dtype == mine.dtype, (got.key, key)
                    assert np.array_equal(value, mine), (got.key, key)

    def test_duplicate_records_accumulate(self):
        coords = np.array([[1, 1], [1, 1], [0, 2]], dtype=np.int64)
        values = np.array([5, 7, 2], dtype=np.int64)
        plan = IngestPlan(shape=(3, 3))
        result = ingest(batches_from_records(coords, values), plan)
        base = np.asarray(result.cuboid_set.base)
        assert base[1, 1] == 12
        assert base[0, 2] == 2


class TestBudgetAndSpill:
    def test_over_budget_spills(self, cube, tmp_path):
        plan = IngestPlan(
            shape=cube.shape,
            budget_bytes=8,
            spill_directory=tmp_path / "spill",
        )
        assert plan.spills
        result = ingest(batches_from_cube(cube), plan)
        assert result.spilled
        assert isinstance(result.backend, MemmapBackend)
        assert isinstance(result.base_backend, MemmapBackend)
        assert result.base_backend.live_arrays == 1  # the base accumulator
        assert result.backend.live_arrays == 0  # scopes hold everything

    def test_under_budget_stays_in_memory(self, cube):
        plan = IngestPlan(
            shape=cube.shape, budget_bytes=cube.nbytes + 1
        )
        assert not plan.spills
        result = ingest(batches_from_cube(cube), plan)
        assert not result.spilled

    def test_spill_without_directory_is_an_error(self, cube):
        plan = IngestPlan(shape=cube.shape, budget_bytes=1)
        with pytest.raises(ValueError, match="no spill_directory"):
            plan.make_backend()

    def test_release_reclaims_everything(self, cube, tmp_path):
        plan = IngestPlan(
            shape=cube.shape,
            cuboids=plan_cuboids(cube.shape, [(0, 1), (2,)], 4),
            budget_bytes=1,
            spill_directory=tmp_path / "spill",
        )
        result = ingest(batches_from_cube(cube), plan)
        assert result.release() > 0
        assert not list((tmp_path / "spill").rglob("*.npy"))


class TestFailureAtomicity:
    def bad_stream(self, cube):
        """A stream whose second batch is out of the cube's bounds."""
        yield next(batches_from_cube(cube, batch_rows=50))
        yield next(
            batches_from_records(
                np.array([[99, 99, 99]], dtype=np.int64),
                np.ones(1, dtype=np.int64),
            )
        )

    def test_malformed_batch_leaves_no_partial_spill_files(
        self, cube, tmp_path
    ):
        spill = tmp_path / "spill"
        plan = IngestPlan(
            shape=cube.shape,
            cuboids=plan_cuboids(cube.shape, [(0, 1)], 4),
            budget_bytes=1,
            spill_directory=spill,
        )
        with pytest.raises(IngestError, match="outside cube shape"):
            ingest(self.bad_stream(cube), plan)
        assert not list(spill.rglob("*.npy"))

    def test_source_error_mid_stream_cleans_up(self, cube, tmp_path):
        def dying_stream():
            yield next(batches_from_cube(cube, batch_rows=50))
            raise OSError("disk went away")

        spill = tmp_path / "spill"
        plan = IngestPlan(
            shape=cube.shape, budget_bytes=1, spill_directory=spill
        )
        with pytest.raises(OSError, match="disk went away"):
            ingest(dying_stream(), plan)
        assert not list(spill.rglob("*.npy"))

    def test_abort_spares_sibling_arrays_on_shared_backend(
        self, cube, tmp_path
    ):
        """An aborted ingest on a caller-provided backend releases only
        its own scopes — never sibling builds' live spill files."""
        backend = MemmapBackend(tmp_path / "spill")
        sibling = backend.empty("sibling", (4,), np.int64)
        sibling[...] = 7
        plan = IngestPlan(
            shape=cube.shape,
            cuboids=plan_cuboids(cube.shape, [(0, 1)], 4),
        )
        with pytest.raises(IngestError, match="outside cube shape"):
            ingest(self.bad_stream(cube), plan, backend)
        assert backend.live_arrays == 1
        survivor = backend.spill_files[0]
        assert survivor.exists()
        assert np.array_equal(np.load(survivor), sibling)
        leftovers = [
            p
            for p in (tmp_path / "spill").rglob("*.npy")
            if p != survivor
        ]
        assert not leftovers

    def test_dimension_mismatch(self):
        plan = IngestPlan(shape=(4, 4))
        stream = batches_from_records(
            np.zeros((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64)
        )
        with pytest.raises(IngestError, match="3-d coordinates"):
            ingest(stream, plan)


class TestPlanValidation:
    def test_rejects_empty_cuboid(self):
        from repro.optimizer.cuboid_selection import Materialization

        with pytest.raises(ValueError, match="empty cuboid"):
            IngestPlan(shape=(4, 4), cuboids=(Materialization((), 2, 1.0),))

    def test_rejects_out_of_range_cuboid(self):
        with pytest.raises(ValueError, match="exceeds"):
            IngestPlan(
                shape=(4, 4), cuboids=plan_cuboids((4, 4, 4), [(0, 2)])
            )

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError, match="integer or float"):
            IngestPlan(shape=(4,), measure_dtype="complex128")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="positive extents"):
            IngestPlan(shape=(4, 0))

    def test_accumulator_bytes_counts_every_accumulator(self):
        plan = IngestPlan(
            shape=(8, 8),
            cuboids=plan_cuboids((8, 8), [(0,)], 4),
            measure_dtype="int32",
        )
        # base: 64 cells * 4B; cuboid (0,): 8 cells * 8B (sum-promoted)
        assert plan.accumulator_bytes() == 64 * 4 + 8 * 8

    def test_full_key_cuboid_keeps_measure_dtype(self, rng):
        """The (0, 1)-cuboid of a 2-d int32 cube IS the base cube, so it
        must accumulate in int32 — MaterializedCuboidSet uses the base
        itself when nothing is dropped, and dtypes must agree."""
        cube = rng.integers(0, 50, size=(6, 4)).astype(np.int32)
        plan = IngestPlan(
            shape=cube.shape,
            cuboids=plan_cuboids(cube.shape, [(0, 1)], 2),
            measure_dtype="int32",
        )
        result = ingest(batches_from_cube(cube), plan)
        reference = MaterializedCuboidSet(cube, plan.cuboids)
        got = result.cuboid_set.cuboids[0].structure.source
        want = reference.cuboids[0].structure.source
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(np.asarray(got), np.asarray(want))
