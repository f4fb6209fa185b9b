"""Randomized cross-check harness for the batch query execution layer.

Every ``*_many`` method must be element-wise identical to the scalar
method it shadows and to the naive full-scan baseline — with **no
tolerance** for SUM / COUNT / MAX / MIN on integer cubes.  The harness
sweeps dimensionalities 1–4 and block sizes {1, 3, 4}, ~200 random boxes
per case, always including the degenerate single-cell and full-cube
queries.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._util import Box, full_box
from repro.core.blocked import VECTORIZED_MIN_ROWS, BlockedPrefixSumCube
from repro.core.blocked import BlockedPartialPrefixSumCube
from repro.core.operators import SUM, XOR
from repro.core.prefix_sum import PrefixSumCube
from repro.index.registry import IndexSpec
from repro.instrumentation import AccessCounter
from repro.query.batch import (
    boxes_to_arrays,
    combine_corner_values,
    corner_table,
    normalize_query_arrays,
    rolling_window_bounds,
)
from repro.query.engine import RangeQueryEngine
from repro.query.naive import naive_range_sum
from repro.query.ranges import RangeQuery, RangeSpec
from repro.query.workload import (
    make_cube,
    random_box,
    random_query_arrays,
    run_query_log,
)

SHAPES = {1: (41,), 2: (13, 11), 3: (8, 7, 6), 4: (6, 5, 4, 3)}
N_BOXES = 200


#: Row counts either side of ``blocked_sum_dispatch``'s choice.
DISPATCH_ROWS = (
    1,
    VECTORIZED_MIN_ROWS - 1,
    VECTORIZED_MIN_ROWS,
    4 * VECTORIZED_MIN_ROWS,
)


def _sum_spec(block_size):
    if block_size == 1:
        return IndexSpec.of("prefix_sum")
    return IndexSpec.of("blocked_prefix_sum", block_size=block_size)


def _max_tree(fanout):
    return IndexSpec.of("range_max_tree", fanout=fanout)


def _case_boxes(shape, rng):
    """~200 random boxes plus the degenerate single-cell and full-cube."""
    boxes = [random_box(shape, rng) for _ in range(N_BOXES)]
    cell = tuple(int(rng.integers(0, n)) for n in shape)
    boxes.append(Box(cell, cell))
    boxes.append(full_box(shape))
    return boxes


@pytest.fixture
def rng():
    return np.random.default_rng(20250806)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize("block_size", [1, 3, 4])
class TestBatchEqualsScalarEqualsNaive:
    """The tentpole invariant, per structure family and dimensionality."""

    def test_sum_count_average(self, ndim, block_size, rng):
        shape = SHAPES[ndim]
        cube = make_cube(shape, rng)
        counts = rng.integers(1, 5, size=shape).astype(np.int64)
        engine = RangeQueryEngine(
            cube,
            sum_index=_sum_spec(block_size),
            max_index=None,
            counts=counts,
        )
        every = _case_boxes(shape, rng)
        for rows in (*DISPATCH_ROWS, len(every)):
            # The degenerate boxes sit at the end of the case list.
            boxes = every[-rows:]
            lows, highs = boxes_to_arrays(boxes, shape)
            sums = engine.sum_many(lows, highs)
            cnts = engine.count_many(lows, highs)
            avgs = engine.average_many(lows, highs)
            for k, box in enumerate(boxes):
                assert sums[k] == engine.sum(box)
                assert sums[k] == naive_range_sum(cube, box)
                assert cnts[k] == engine.count(box)
                assert cnts[k] == naive_range_sum(counts, box)
                assert avgs[k] == engine.average(box)

    def test_max_min(self, ndim, block_size, rng):
        shape = SHAPES[ndim]
        cube = make_cube(shape, rng, low=-100, high=100)
        engine = RangeQueryEngine(
            cube, sum_index=_sum_spec(block_size), max_index=_max_tree(3)
        )
        boxes = _case_boxes(shape, rng)
        max_idx, max_vals = engine.max_many(boxes)
        min_idx, min_vals = engine.min_many(boxes)
        for k, box in enumerate(boxes):
            window = cube[box.slices()]
            _, scalar_max = engine.max(box)
            _, scalar_min = engine.min(box)
            assert max_vals[k] == scalar_max == window.max()
            assert min_vals[k] == scalar_min == window.min()
            # The witness index must lie in the box and attain the value.
            assert box.contains_point(tuple(max_idx[k]))
            assert cube[tuple(max_idx[k])] == max_vals[k]
            assert box.contains_point(tuple(min_idx[k]))
            assert cube[tuple(min_idx[k])] == min_vals[k]


@pytest.mark.parametrize(
    "ndim,prefix_dims",
    [(2, [0]), (3, [0, 2]), (3, []), (4, [1, 3])],
)
def test_partial_prefix_batch(ndim, prefix_dims, rng):
    """§9.1 subset structures answer batches through the same kernel."""
    shape = SHAPES[ndim]
    cube = make_cube(shape, rng)
    engine = RangeQueryEngine(
        cube,
        sum_index=IndexSpec.of(
            "partial_prefix_sum", prefix_dims=tuple(prefix_dims)
        ),
        max_index=None,
    )
    boxes = _case_boxes(shape, rng)
    sums = engine.sum_many(boxes)
    for k, box in enumerate(boxes):
        assert sums[k] == engine.sum(box)
        assert sums[k] == naive_range_sum(cube, box)


def _blocked_structures(cube, block_size=3):
    """Both blocked classes; the partial one over the empty set, one
    leading, one trailing and every dimension."""
    ndim = cube.ndim
    yield BlockedPrefixSumCube(cube, block_size)
    for dims in {(), (0,), (ndim - 1,), tuple(range(ndim))}:
        yield BlockedPartialPrefixSumCube(cube, dims, block_size)


def _dispatch_batches(shape, rows, rng):
    """Random boxes with one empty row, then roll-up-shaped thin boxes
    (one rank on the first axis, the full extent elsewhere)."""
    lows, highs = random_query_arrays(shape, rows, rng)
    highs[rows // 2, 0] = lows[rows // 2, 0] - 1
    yield lows, highs
    ranks = rng.integers(0, shape[0], size=rows)
    lows = np.zeros((rows, len(shape)), dtype=np.int64)
    highs = np.tile(np.asarray(shape, dtype=np.int64) - 1, (rows, 1))
    lows[:, 0] = highs[:, 0] = ranks
    yield lows, highs


@pytest.mark.parametrize("rows", DISPATCH_ROWS)
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "dtype", [np.int64, np.uint8, np.bool_, np.float64]
)
def test_blocked_batch_equals_scalar_loop_and_naive(dtype, ndim, rows, rng):
    """Whichever path ``blocked_sum_dispatch`` picks, values and §8
    charges are those of the scalar ``range_sum`` loop, and the values
    those of the naive scan (float cells are integral, so exactly)."""
    shape = SHAPES[ndim]
    cube = rng.integers(0, 2 if dtype is np.bool_ else 50, size=shape)
    cube = cube.astype(dtype)
    for structure in _blocked_structures(cube):
        for lows, highs in _dispatch_batches(shape, rows, rng):
            batch_counter, scalar_counter = AccessCounter(), AccessCounter()
            got = structure.sum_many(lows, highs, batch_counter)
            assert got.dtype == SUM.accumulation_dtype(dtype)
            for k in range(rows):
                box = Box(tuple(map(int, lows[k])), tuple(map(int, highs[k])))
                assert got[k] == structure.range_sum(box, scalar_counter)
                assert got[k] == naive_range_sum(cube, box)
            assert batch_counter.snapshot() == scalar_counter.snapshot()


def test_partial_prefix_cache_invalidated_on_update(rng):
    from repro.core.batch_update import PointUpdate
    from repro.core.prefix_sum import PartialPrefixSumCube

    cube = make_cube((9, 7), rng)
    structure = PartialPrefixSumCube(cube, [0])
    lows, highs = random_query_arrays((9, 7), 20, rng)
    structure.sum_many(lows, highs)  # builds the cache
    structure.apply_updates([PointUpdate((4, 3), 17)])
    mirror = cube.copy()
    mirror[4, 3] += 17
    got = structure.sum_many(lows, highs)
    for k in range(20):
        box = Box(tuple(lows[k]), tuple(highs[k]))
        assert got[k] == naive_range_sum(mirror, box)


def test_batch_kernel_generic_operator(rng):
    """The gather kernel honours any invertible ufunc pair (here XOR)."""
    cube = rng.integers(0, 1 << 30, size=(9, 8), dtype=np.int64)
    structure = PrefixSumCube(cube, operator=XOR)
    boxes = _case_boxes((9, 8), rng)
    lows, highs = boxes_to_arrays(boxes, (9, 8))
    got = structure.sum_many(lows, highs)
    for k, box in enumerate(boxes):
        assert got[k] == structure.range_sum(box)


def test_float_cube_batch_close(rng):
    """Float batches agree with scalar up to summation-order rounding."""
    cube = rng.standard_normal((10, 9, 8))
    engine = RangeQueryEngine(cube, max_index=None)
    boxes = _case_boxes((10, 9, 8), rng)
    sums = engine.sum_many(boxes)
    want = np.array([engine.sum(box) for box in boxes])
    np.testing.assert_allclose(sums, want, rtol=1e-9, atol=1e-9)


class TestBatchInputValidation:
    def test_shape_mismatch(self, rng):
        engine = RangeQueryEngine(make_cube((6, 6), rng), max_index=None)
        with pytest.raises(ValueError, match=r"\(K, 2\)"):
            engine.sum_many(np.zeros((3, 3), int), np.ones((3, 3), int))

    def test_lo_above_hi_yields_identity(self, rng):
        cube = make_cube((6, 6), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        sums = engine.sum_many(
            np.array([[0, 0], [3, 3]]), np.array([[5, 5], [2, 5]])
        )
        assert sums[0] == cube.sum()
        assert sums[1] == 0  # empty row: the SUM identity

    def test_lo_above_hi_rejected_for_max(self, rng):
        engine = RangeQueryEngine(
            make_cube((6, 6), rng), max_index=_max_tree(3)
        )
        with pytest.raises(ValueError, match="empty query region at row 1"):
            engine.max_many(
                np.array([[0, 0], [3, 3]]), np.array([[5, 5], [2, 5]])
            )

    def test_out_of_bounds(self, rng):
        engine = RangeQueryEngine(make_cube((6, 6), rng), max_index=None)
        with pytest.raises(ValueError, match="outside cube"):
            engine.sum_many(
                np.array([[0, 0]]), np.array([[6, 5]])
            )

    def test_non_integer_bounds(self, rng):
        engine = RangeQueryEngine(make_cube((6, 6), rng), max_index=None)
        with pytest.raises(ValueError, match="must be integers"):
            engine.sum_many(
                np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]])
            )

    def test_empty_batch(self, rng):
        engine = RangeQueryEngine(
            make_cube((6, 6), rng), max_index=_max_tree(3)
        )
        empty = np.empty((0, 2), dtype=np.int64)
        assert engine.sum_many(empty, empty).shape == (0,)
        assert engine.count_many(empty, empty).shape == (0,)
        indices, values = engine.max_many(empty, empty)
        assert indices.shape == (0, 2) and values.shape == (0,)

    def test_average_many_zero_count_is_none(self, rng):
        cube = make_cube((4, 4), rng)
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[2, 2] = 3
        engine = RangeQueryEngine(cube, counts=counts, max_index=None)
        averages = engine.average_many(
            np.array([[0, 0], [2, 2]]), np.array([[1, 1], [2, 2]])
        )
        assert averages.dtype == object
        assert averages[0] is None  # zero records under the region
        assert averages[1] == float(cube[2, 2]) / 3.0

    def test_range_query_objects_accepted(self, rng):
        cube = make_cube((10, 10), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        queries = [
            RangeQuery((RangeSpec.between(2, 5), RangeSpec.all())),
            Box((0, 0), (9, 9)),
        ]
        sums = engine.sum_many(queries)
        assert sums[0] == cube[2:6].sum()
        assert sums[1] == cube.sum()


class TestCornerTable:
    def test_shape_and_signs(self):
        take_hi, signs = corner_table(3)
        assert take_hi.shape == (8, 3)
        assert signs.shape == (8,)
        # The all-high corner is +1; flipping one choice flips the sign.
        assert signs[np.flatnonzero(take_hi.all(axis=1))[0]] == 1
        assert int(signs.sum()) == 0

    def test_cached_and_readonly(self):
        a1, s1 = corner_table(2)
        a2, s2 = corner_table(2)
        assert a1 is a2 and s1 is s2
        with pytest.raises(ValueError):
            a1[0, 0] = True


class TestNormalization:
    def test_single_query_promoted(self):
        lo, hi = normalize_query_arrays([1, 2], [3, 4], (6, 6))
        assert lo.shape == hi.shape == (1, 2)

    def test_boxes_to_arrays_roundtrip(self, rng):
        boxes = [random_box((7, 7), rng) for _ in range(10)]
        lows, highs = boxes_to_arrays(boxes, (7, 7))
        for k, box in enumerate(boxes):
            assert tuple(lows[k]) == box.lo
            assert tuple(highs[k]) == box.hi


class TestRollingSumBatch:
    def test_matches_per_window_queries(self, rng):
        cube = make_cube((40, 6), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        results = list(engine.rolling_sum(axis=0, window=7))
        assert len(results) == 34
        for start, value in results:
            assert isinstance(value, int)
            assert value == cube[start : start + 7].sum()

    def test_window_bounds_shape(self):
        lows, highs = rolling_window_bounds(
            (10, 4), axis=0, window=3, fixed=[(0, 9), (1, 2)]
        )
        assert lows.shape == highs.shape == (8, 2)
        assert (highs[:, 0] - lows[:, 0] == 2).all()
        assert (lows[:, 1] == 1).all() and (highs[:, 1] == 2).all()

    def test_blocked_engine_rolling(self, rng):
        cube = make_cube((30, 8), rng)
        engine = RangeQueryEngine(
            cube, sum_index=_sum_spec(4), max_index=None
        )
        for start, value in engine.rolling_sum(axis=1, window=3):
            assert value == cube[:, start : start + 3].sum()


class TestWorkloadRouting:
    def test_run_query_log_matches_scalar(self, rng):
        shape = (12, 10)
        cube = make_cube(shape, rng)
        engine = RangeQueryEngine(cube, max_index=_max_tree(3))
        queries = [random_box(shape, rng) for _ in range(50)]
        assert (
            run_query_log(engine, queries, "sum")
            == [engine.sum(q) for q in queries]
        ).all()
        assert (
            run_query_log(engine, queries, "max")
            == [engine.max(q)[1] for q in queries]
        ).all()
        assert (
            run_query_log(engine, queries, "min")
            == [engine.min(q)[1] for q in queries]
        ).all()

    def test_unknown_aggregate(self, rng):
        engine = RangeQueryEngine(make_cube((4, 4), rng), max_index=None)
        with pytest.raises(ValueError, match="unknown aggregate"):
            run_query_log(engine, [], "median")

    def test_random_query_arrays_valid(self, rng):
        lows, highs = random_query_arrays((9, 5, 7), 300, rng)
        assert (lows >= 0).all()
        assert (lows <= highs).all()
        assert (highs < np.array([9, 5, 7])).all()


class TestCounterParity:
    def test_prefix_corner_charges_match_scalar(self, rng):
        """Batch charges exactly the valid-corner reads, like scalar."""
        cube = make_cube((9, 9), rng)
        engine = RangeQueryEngine(cube, max_index=None)
        boxes = [random_box((9, 9), rng) for _ in range(40)]
        scalar_counter = AccessCounter()
        for box in boxes:
            engine.sum(box, scalar_counter)
        batch_counter = AccessCounter()
        engine.sum_many(boxes, counter=batch_counter)
        assert batch_counter.prefix_cells == scalar_counter.prefix_cells
        assert batch_counter.cube_cells == 0


class TestMinUnsignedRegression:
    """MIN on unsigned/bool cubes must not wrap through negation."""

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.uint64]
    )
    def test_unsigned_min_exact_no_warning(self, dtype):
        cube = np.arange(12, dtype=dtype)
        engine = RangeQueryEngine(cube, max_index=_max_tree(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index, value = engine.min(Box((0,), (11,)))
        assert value == 0
        assert index == (0,)
        _, top = engine.max(Box((3,), (11,)))
        assert top == 11

    def test_unsigned_min_random(self, rng):
        cube = rng.integers(0, 200, size=(9, 8)).astype(np.uint32)
        engine = RangeQueryEngine(cube, max_index=_max_tree(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(50):
                box = random_box((9, 8), rng)
                _, value = engine.min(box)
                assert value == int(cube[box.slices()].min())
            _, values = engine.min_many(
                *random_query_arrays((9, 8), 50, rng)
            )
        assert values.min() >= 0

    def test_bool_cube_min_max(self):
        cube = np.zeros((4, 4), dtype=bool)
        cube[2, 3] = True
        engine = RangeQueryEngine(cube, max_index=_max_tree(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lowest = engine.min(Box((0, 0), (3, 3)))
            _, highest = engine.max(Box((0, 0), (3, 3)))
        assert lowest == 0
        assert highest == 1


class TestPythonScalarReturns:
    """Engine aggregates return plain Python scalars on every path."""

    @pytest.mark.parametrize("block_size", [1, 4])
    def test_sum_count_are_ints(self, block_size, rng):
        cube = make_cube((10, 10), rng)
        counts = rng.integers(1, 3, (10, 10)).astype(np.int64)
        engine = RangeQueryEngine(
            cube,
            sum_index=_sum_spec(block_size),
            max_index=_max_tree(2),
            counts=counts,
        )
        box = Box((1, 2), (7, 8))
        assert type(engine.sum(box)) is int
        assert type(engine.count(box)) is int
        assert type(engine.average(box)) is float
        _, top = engine.max(box)
        _, bottom = engine.min(box)
        assert type(top) is int
        assert type(bottom) is int

    def test_rolling_sum_yields_ints(self, rng):
        engine = RangeQueryEngine(make_cube((12,), rng), max_index=None)
        for start, value in engine.rolling_sum(axis=0, window=5):
            assert type(start) is int
            assert type(value) is int

    def test_float_cube_sum_is_float(self, rng):
        engine = RangeQueryEngine(
            rng.standard_normal((6, 6)), max_index=None
        )
        assert type(engine.sum(Box((0, 0), (3, 3)))) is float


class TestCombineCornerDtype:
    """Regression companion to cubelint ``dtype-safety``: the corner
    reduction states its dtype explicitly, so narrow corner values can
    never wrap even if a caller skips the prefix-layer promotion."""

    def test_narrow_corner_values_promote(self):
        from repro.core.operators import SUM

        values = np.array([[120, -120]], dtype=np.int8)
        valid = np.ones((1, 2), dtype=bool)
        signs = np.array([1, -1], dtype=np.int64)
        result = combine_corner_values(values, valid, signs, SUM)
        assert result.dtype == np.int64
        assert result[0] == 240

    def test_xor_stays_in_source_dtype(self):
        values = np.array([[0x5A, 0x0F]], dtype=np.int8)
        valid = np.ones((1, 2), dtype=bool)
        signs = np.array([1, -1], dtype=np.int64)
        result = combine_corner_values(values, valid, signs, XOR)
        assert result.dtype == np.int8
        assert result[0] == (0x5A ^ 0x0F)
