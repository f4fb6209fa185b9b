"""Protocol conformance for every registered structure.

Each registered index must satisfy its kind's runtime-checkable protocol
and answer ``query`` / ``query_many`` consistently with the naive
evaluator — including structures that never defined a batch path of
their own (the mixin's scalar-loop default supplies one).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import Box
from repro.index.protocol import (
    InstrumentedIndex,
    RangeMaxIndex,
    RangeSumIndex,
)
from repro.index.registry import create_index, get_index_info
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_max_value, naive_range_sum
from repro.query.workload import (
    make_cube,
    random_box,
    random_query_arrays,
)
from repro.sparse.sparse_cube import SparseCube

DENSE_SUM = (
    "prefix_sum",
    "blocked_prefix_sum",
    "partial_prefix_sum",
    "blocked_partial_prefix_sum",
)


def dense_sum_params(name: str, ndim: int) -> dict:
    """Representative construction params per structure and rank."""
    return {
        "prefix_sum": {},
        "blocked_prefix_sum": {"block_size": 3},
        "partial_prefix_sum": {"prefix_dims": tuple(range(0, ndim, 2))},
        "blocked_partial_prefix_sum": {
            "prefix_dims": (0,),
            "block_size": 3,
        },
    }[name]


@pytest.fixture
def rng():
    return np.random.default_rng(9021)


class TestDenseSumProtocol:
    @pytest.mark.parametrize("name", DENSE_SUM)
    def test_satisfies_protocol(self, name, rng):
        cube = make_cube((8, 7), rng)
        index = create_index(name, cube, **dense_sum_params(name, 2))
        assert isinstance(index, RangeSumIndex)

    @pytest.mark.parametrize("name", DENSE_SUM)
    def test_query_matches_naive(self, name, rng):
        cube = make_cube((11, 9), rng)
        index = create_index(name, cube, **dense_sum_params(name, 2))
        for _ in range(25):
            box = random_box(cube.shape, rng)
            assert index.query(box) == naive_range_sum(cube, box)

    @pytest.mark.parametrize("name", DENSE_SUM)
    def test_query_many_matches_scalar(self, name, rng):
        cube = make_cube((10, 8, 5), rng)
        index = create_index(name, cube, **dense_sum_params(name, 3))
        lows, highs = random_query_arrays(cube.shape, 40, rng)
        batch = index.query_many(lows, highs)
        assert batch.shape == (40,)
        for k in range(40):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert batch[k] == index.query(box)

    @pytest.mark.parametrize("name", DENSE_SUM)
    def test_describe_reports_identity(self, name, rng):
        cube = make_cube((6, 6), rng)
        index = create_index(name, cube, **dense_sum_params(name, 2))
        info = index.describe()
        assert info["index"] == name
        assert info["kind"] == "sum"
        assert info["shape"] == (6, 6)
        assert info["memory_cells"] == index.memory_cells()
        assert isinstance(index.memory_cells(), int)

    @pytest.mark.parametrize("name", DENSE_SUM)
    def test_build_classmethod(self, name, rng):
        cube = make_cube((7, 7), rng)
        cls = get_index_info(name).cls
        index = cls.build(cube, **dense_sum_params(name, 2))
        box = random_box(cube.shape, rng)
        assert index.query(box) == naive_range_sum(cube, box)


class TestBlockedPartialBatchPath:
    """BlockedPartialPrefixSumCube's ``sum_many`` picks its path by row
    count: small batches delegate to the protocol mixin's scalar loop,
    larger ones are answered in one vectorized boundary pass."""

    def test_oracle_kernel_delegates_to_the_mixin(self, rng):
        from repro.index.protocol import RangeSumIndexMixin

        cube = make_cube((12, 9), rng)
        index = create_index(
            "blocked_partial_prefix_sum",
            cube,
            prefix_dims=(0,),
            block_size=3,
        )
        lows, highs = random_query_arrays(cube.shape, 8, rng)
        expected = RangeSumIndexMixin.sum_many(index, lows, highs)
        assert np.array_equal(index.sum_many(lows, highs), expected)

    def test_vectorized_kernel_matches_oracle(self, rng):
        from repro.index.protocol import RangeSumIndexMixin

        cube = make_cube((12, 9, 5), rng)
        index = create_index(
            "blocked_partial_prefix_sum",
            cube,
            prefix_dims=(0, 2),
            block_size=3,
        )
        lows, highs = random_query_arrays(cube.shape, 25, rng)
        oracle = RangeSumIndexMixin.sum_many(index, lows, highs)
        assert np.array_equal(index.sum_many(lows, highs), oracle)

    def test_sum_many_matches_naive(self, rng):
        cube = make_cube((24, 18, 6), rng)
        index = create_index(
            "blocked_partial_prefix_sum",
            cube,
            prefix_dims=(0, 1),
            block_size=4,
        )
        lows, highs = random_query_arrays(cube.shape, 30, rng)
        batch = index.sum_many(lows, highs)
        for k in range(30):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert batch[k] == naive_range_sum(cube, box)

    def test_run_query_log_routes_blocked_partial(self, rng):
        """The workload runner's batch path serves an engine whose sum
        structure only has the mixin-default batch implementation."""
        from repro.index.registry import IndexSpec
        from repro.query.engine import RangeQueryEngine
        from repro.query.workload import run_query_log

        cube = make_cube((20, 15), rng)
        engine = RangeQueryEngine(
            cube,
            sum_index=IndexSpec.of(
                "blocked_partial_prefix_sum",
                prefix_dims=(0,),
                block_size=5,
            ),
        )
        boxes = [random_box(cube.shape, rng) for _ in range(20)]
        results = run_query_log(engine, boxes, aggregate="sum")
        for k, box in enumerate(boxes):
            assert results[k] == naive_range_sum(cube, box)


class TestMaxTreeProtocol:
    def test_satisfies_protocol(self, rng):
        cube = make_cube((9, 9), rng)
        tree = create_index("range_max_tree", cube, fanout=3)
        assert isinstance(tree, RangeMaxIndex)

    def test_query_returns_witness(self, rng):
        cube = make_cube((13, 11), rng, high=10**6)
        tree = create_index("range_max_tree", cube, fanout=4)
        for _ in range(25):
            box = random_box(cube.shape, rng)
            index, value = tree.query(box)
            assert cube[index] == value == naive_max_value(cube, box)

    def test_query_many_matches_scalar(self, rng):
        cube = make_cube((16, 12), rng, high=10**6)
        tree = create_index("range_max_tree", cube, fanout=3)
        lows, highs = random_query_arrays(cube.shape, 30, rng)
        indices, values = tree.query_many(lows, highs)
        for k in range(30):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert values[k] == naive_max_value(cube, box)
            assert cube[tuple(indices[k])] == values[k]

    def test_apply_updates_protocol(self, rng):
        cube = make_cube((12,), rng, high=100)
        tree = create_index("range_max_tree", cube, fanout=2)
        from repro.core.batch_update import PointUpdate

        tree.apply_updates([PointUpdate((3,), 1000)])
        index, value = tree.query(Box((0,), (11,)))
        assert index == (3,) and value == cube[3] + 1000


class TestSparseProtocol:
    def test_sparse_sum_1d(self, rng):
        cells = {
            (int(k),): int(v)
            for k, v in zip(
                rng.choice(200, size=40, replace=False),
                rng.integers(1, 50, size=40),
            )
        }
        sparse = SparseCube((200,), cells)
        index = create_index("sparse_sum_1d", sparse, block_size=4)
        assert isinstance(index, RangeSumIndex)
        for _ in range(20):
            box = random_box((200,), rng)
            assert index.query(box) == sparse.naive_range_sum(box)
        lows, highs = random_query_arrays((200,), 10, rng)
        batch = index.query_many(lows, highs)
        for k in range(10):
            box = Box(tuple(lows[k]), tuple(highs[k]))
            assert batch[k] == sparse.naive_range_sum(box)

    def test_sparse_region_sum(self, rng):
        cells = {
            (int(i), int(j)): int(v)
            for i, j, v in zip(
                rng.integers(0, 30, size=60),
                rng.integers(0, 30, size=60),
                rng.integers(1, 20, size=60),
            )
        }
        sparse = SparseCube((30, 30), cells)
        index = create_index("sparse_region_sum", sparse)
        assert isinstance(index, RangeSumIndex)
        assert index.memory_cells() >= 0
        for _ in range(15):
            box = random_box((30, 30), rng)
            assert index.query(box) == sparse.naive_range_sum(box)

    def test_sparse_max_protocol(self, rng):
        cells = {
            (int(i), int(j)): int(v)
            for i, j, v in zip(
                rng.integers(0, 25, size=50),
                rng.integers(0, 25, size=50),
                rng.integers(1, 10**6, size=50),
            )
        }
        sparse = SparseCube((25, 25), cells)
        index = create_index("sparse_max_rtree", sparse)
        assert isinstance(index, RangeMaxIndex)
        hit = index.query(Box((0, 0), (24, 24)))
        assert hit is not None
        point, value = hit
        assert cells[point] == value == max(cells.values())

    def test_sparse_max_empty_region_is_none(self):
        sparse = SparseCube((10, 10), {(0, 0): 5})
        index = create_index("sparse_max_rtree", sparse)
        assert index.query(Box((5, 5), (9, 9))) is None


class TestInstrumentedIndex:
    def test_bound_counter_observes_queries(self, rng):
        cube = make_cube((10, 10), rng)
        counter = AccessCounter()
        wrapped = InstrumentedIndex(
            create_index("prefix_sum", cube), counter
        )
        before = counter.total
        wrapped.query(Box((0, 0), (5, 5)))
        assert counter.total > before

    def test_explicit_counter_wins(self, rng):
        cube = make_cube((10, 10), rng)
        bound = AccessCounter()
        explicit = AccessCounter()
        wrapped = InstrumentedIndex(
            create_index("prefix_sum", cube), bound
        )
        wrapped.query(Box((0, 0), (5, 5)), explicit)
        assert explicit.total > 0
        assert bound.total == 0

    def test_attribute_passthrough(self, rng):
        cube = make_cube((6, 6), rng)
        wrapped = InstrumentedIndex(
            create_index("blocked_prefix_sum", cube, block_size=2)
        )
        assert wrapped.block_size == 2
        assert wrapped.describe()["index"] == "blocked_prefix_sum"
