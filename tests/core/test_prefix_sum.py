"""Tests for the basic prefix-sum method (paper §3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro._util import Box, full_box
from repro.core.operators import SUM
from repro.core.prefix_sum import PrefixSumCube, compute_prefix_array
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box

#: Figure 1's example array A (3 rows × 6 columns).
FIGURE1_A = np.array(
    [
        [3, 5, 1, 2, 2, 3],
        [7, 3, 2, 6, 8, 2],
        [2, 4, 2, 3, 3, 5],
    ]
)

#: Figure 1's prefix-sum array P for the same A.
FIGURE1_P = np.array(
    [
        [3, 8, 9, 11, 13, 16],
        [10, 18, 21, 29, 39, 44],
        [12, 24, 29, 40, 53, 63],
    ]
)


class TestPaperExamples:
    def test_paper_figure1(self):
        """The construction reproduces Figure 1 exactly."""
        assert np.array_equal(compute_prefix_array(FIGURE1_A), FIGURE1_P)

    def test_paper_worked_example(self):
        """§3.2: Sum(2:3, 1:2) = P[3,2] − P[3,0] − P[1,2] + P[1,0] = 13.

        The paper indexes dimension 1 (size 6) first; our row-major array
        has it second, so the query transposes to rows 1:2, columns 2:3.
        """
        structure = PrefixSumCube(FIGURE1_A)
        assert structure.range_sum(Box((1, 2), (2, 3))) == 13

    def test_paper_worked_example_terms(self):
        """The four inclusion-exclusion terms are the paper's 40−11−24+8."""
        prefix = compute_prefix_array(FIGURE1_A)
        assert prefix[2, 3] == 40
        assert prefix[0, 3] == 11
        assert prefix[2, 1] == 24
        assert prefix[0, 1] == 8

    def test_three_dimensional_expansion(self, rng):
        """§3.2's seven-step 3-d expansion, checked term by term."""
        cube = make_cube((4, 5, 6), rng)
        prefix = compute_prefix_array(cube)
        l1, h1, l2, h2, l3, h3 = 1, 2, 2, 4, 0, 3
        expected = (
            prefix[h1, h2, h3]
            - prefix[h1, h2, l3 - 1] * 0  # l3 == 0: term is the implicit 0
            - prefix[h1, l2 - 1, h3]
            + prefix[h1, l2 - 1, l3 - 1] * 0
            - prefix[l1 - 1, h2, h3]
            + prefix[l1 - 1, h2, l3 - 1] * 0
            + prefix[l1 - 1, l2 - 1, h3]
            - prefix[l1 - 1, l2 - 1, l3 - 1] * 0
        )
        structure = PrefixSumCube(cube)
        assert structure.range_sum(Box((1, 2, 0), (2, 4, 3))) == expected


class TestConstruction:
    def test_matches_cumsum_composition(self, rng):
        cube = make_cube((5, 6, 7), rng)
        by_hand = np.cumsum(np.cumsum(np.cumsum(cube, 0), 1), 2)
        assert np.array_equal(compute_prefix_array(cube), by_hand)

    def test_does_not_mutate_input(self, rng):
        cube = make_cube((4, 4), rng)
        original = cube.copy()
        compute_prefix_array(cube)
        assert np.array_equal(cube, original)

    def test_one_dimensional(self):
        assert np.array_equal(
            compute_prefix_array(np.array([1, 2, 3])), [1, 3, 6]
        )

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            compute_prefix_array(np.array(5))

    def test_size_one_dimensions(self):
        cube = np.arange(6).reshape(1, 6, 1)
        structure = PrefixSumCube(cube)
        assert structure.range_sum(Box((0, 2, 0), (0, 4, 0))) == 2 + 3 + 4

    def test_float_cube(self, rng):
        cube = rng.standard_normal((6, 7))
        structure = PrefixSumCube(cube)
        box = Box((1, 2), (4, 5))
        assert structure.range_sum(box) == pytest.approx(
            float(cube[1:5, 2:6].sum())
        )


class TestQueries:
    @given(cube_and_box())
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, data):
        cube, box = data
        structure = PrefixSumCube(cube)
        assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_full_cube_total(self, rng):
        cube = make_cube((5, 5, 5), rng)
        structure = PrefixSumCube(cube)
        assert structure.total() == cube.sum()

    def test_singleton_query(self, rng):
        cube = make_cube((6, 6), rng)
        structure = PrefixSumCube(cube)
        assert structure.cell((3, 4)) == cube[3, 4]

    def test_random_sweep_4d(self, rng):
        cube = make_cube((4, 5, 3, 6), rng)
        structure = PrefixSumCube(cube)
        for _ in range(50):
            box = random_box(cube.shape, rng)
            assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_negative_values(self):
        cube = np.array([[-5, 3], [2, -7]])
        structure = PrefixSumCube(cube)
        assert structure.range_sum(Box((0, 0), (1, 1))) == -7
        assert structure.range_sum(Box((1, 1), (1, 1))) == -7


class TestAccessCounting:
    def test_interior_query_reads_2d_corners(self, rng):
        """A query away from all origin faces reads exactly 2^d cells."""
        cube = make_cube((8, 8, 8), rng)
        structure = PrefixSumCube(cube)
        counter = AccessCounter()
        structure.range_sum(Box((2, 3, 1), (5, 6, 4)), counter)
        assert counter.prefix_cells == 8
        assert counter.cube_cells == 0

    def test_origin_anchored_query_reads_one(self, rng):
        """Sum(0:x, 0:y, 0:z) is a single P read (all other corners −1)."""
        cube = make_cube((8, 8, 8), rng)
        structure = PrefixSumCube(cube)
        counter = AccessCounter()
        structure.range_sum(Box((0, 0, 0), (5, 6, 4)), counter)
        assert counter.prefix_cells == 1

    def test_cost_independent_of_volume(self, rng):
        """The §3 headline: constant time irrespective of query volume."""
        cube = make_cube((64, 64), rng)
        structure = PrefixSumCube(cube)
        small = AccessCounter()
        structure.range_sum(Box((30, 30), (31, 31)), small)
        large = AccessCounter()
        structure.range_sum(Box((1, 1), (62, 62)), large)
        assert small.total == large.total == 4


class TestStorageConsideration:
    """§3.4: A may be discarded; cells come back from P."""

    def test_discarded_source(self, rng):
        cube = make_cube((5, 7), rng)
        structure = PrefixSumCube(cube, keep_source=False)
        assert structure.source is None
        for index in ((0, 0), (4, 6), (2, 3)):
            assert structure.cell(index) == cube[index]

    def test_reconstruct_cube(self, rng):
        cube = make_cube((4, 5, 6), rng)
        structure = PrefixSumCube(cube, keep_source=False)
        assert np.array_equal(structure.reconstruct_cube(), cube)

    def test_storage_cells_equals_n(self, rng):
        cube = make_cube((6, 7), rng)
        structure = PrefixSumCube(cube)
        assert structure.storage_cells == 42


class TestValidation:
    def test_wrong_dimensionality(self, rng):
        structure = PrefixSumCube(make_cube((4, 4), rng))
        with pytest.raises(ValueError, match="dims"):
            structure.range_sum(Box((0,), (1,)))

    def test_out_of_bounds(self, rng):
        structure = PrefixSumCube(make_cube((4, 4), rng))
        with pytest.raises(ValueError, match="outside"):
            structure.range_sum(Box((0, 0), (4, 3)))

    def test_empty_region_returns_identity(self, rng):
        structure = PrefixSumCube(make_cube((4, 4), rng))
        assert structure.range_sum(Box((2, 0), (1, 3))) == 0

    def test_negative_low(self, rng):
        structure = PrefixSumCube(make_cube((4, 4), rng))
        with pytest.raises(ValueError):
            structure.range_sum(Box((-1, 0), (2, 3)))


class TestBatchUpdateIntegration:
    def test_updates_keep_queries_exact(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((6, 6), rng).astype(np.int64)
        structure = PrefixSumCube(cube)
        updates = [
            PointUpdate((1, 2), 10),
            PointUpdate((4, 4), -3),
            PointUpdate((0, 0), 7),
        ]
        structure.apply_updates(updates)
        mirror = cube.copy()
        mirror[1, 2] += 10
        mirror[4, 4] -= 3
        mirror[0, 0] += 7
        for _ in range(25):
            box = random_box((6, 6), rng)
            assert structure.range_sum(box) == naive_range_sum(mirror, box)

    def test_updates_affect_source_too(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((4, 4), rng).astype(np.int64)
        structure = PrefixSumCube(cube)
        structure.apply_updates([PointUpdate((2, 2), 5)])
        assert structure.source[2, 2] == cube[2, 2] + 5


def test_full_box_helper():
    box = full_box((3, 4))
    assert box == Box((0, 0), (2, 3))
    assert box.volume == 12


def test_operator_identity_on_empty_reduction():
    assert SUM.reduce_box(np.empty((0,))) == 0
