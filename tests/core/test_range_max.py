"""Tests for the range-max tree with branch and bound (paper §6)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro._util import Box
from repro.core.range_max import RangeMaxTree, _contract_argmax
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_max_value
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestConstruction:
    def test_level_shapes_contract_by_b(self, rng):
        tree = RangeMaxTree(make_cube((14,), rng), fanout=3)
        # Figure 9's shape: n=14, b=3 → levels of size 5, 2, 1.
        assert tree.level_shape(1) == (5,)
        assert tree.level_shape(2) == (2,)
        assert tree.level_shape(3) == (1,)
        assert tree.height == 3

    def test_positions_point_at_level_values(self, rng):
        cube = make_cube((20, 13), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=4)
        for level in range(1, tree.height + 1):
            values = tree.values[level]
            positions = tree.positions[level]
            recovered = cube.ravel()[positions]
            assert np.array_equal(recovered, values)

    def test_root_stores_global_max(self, rng):
        cube = make_cube((9, 9, 9), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=2)
        root_value = tree.values[tree.height].ravel()[0]
        assert root_value == cube.max()

    def test_node_region_clamps_to_edge(self, rng):
        tree = RangeMaxTree(make_cube((10,), rng), fanout=3)
        assert tree.node_region(1, (3,)) == Box((9,), (9,))

    def test_fanout_validation(self, rng):
        with pytest.raises(ValueError):
            RangeMaxTree(make_cube((4,), rng), fanout=1)

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            RangeMaxTree(np.array(["a", "b"]), fanout=2)

    def test_float_cube(self, rng):
        cube = rng.standard_normal((15, 15))
        tree = RangeMaxTree(cube, fanout=3)
        box = Box((2, 3), (11, 13))
        assert cube[tree.max_index(box)] == cube[2:12, 3:14].max()

    def test_contract_argmax_padding(self):
        values = np.array([5, 1, 9, 2, 8])
        positions = np.arange(5, dtype=np.int64)
        out_vals, out_pos = _contract_argmax(values, positions, 2)
        assert list(out_vals) == [5, 9, 8]
        assert list(out_pos) == [0, 2, 4]


class TestQueries:
    @given(cube_and_box(max_ndim=3, max_side=12))
    @settings(max_examples=120, deadline=None)
    def test_value_matches_naive(self, data):
        cube, box = data
        tree = RangeMaxTree(cube, fanout=3)
        index = tree.max_index(box)
        assert box.contains_point(index)
        assert cube[index] == naive_max_value(cube, box)

    def test_returned_index_attains_max(self, rng):
        cube = make_cube((30, 30), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=4)
        for _ in range(40):
            box = random_box(cube.shape, rng)
            index = tree.max_index(box)
            assert box.contains_point(index)
            assert cube[index] == naive_max_value(cube, box)

    def test_single_cell_query(self, rng):
        cube = make_cube((10, 10), rng)
        tree = RangeMaxTree(cube, fanout=3)
        assert tree.max_index(Box((4, 7), (4, 7))) == (4, 7)

    def test_global_max(self, rng):
        cube = make_cube((25, 25), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=5)
        index = tree.global_max_index()
        assert cube[index] == cube.max()

    def test_ties_return_some_argmax(self):
        cube = np.zeros((6, 6), dtype=np.int64)
        cube[1, 2] = cube[4, 4] = 7
        tree = RangeMaxTree(cube, fanout=2)
        index = tree.max_index(Box((0, 0), (5, 5)))
        assert index in {(1, 2), (4, 4)}

    def test_max_value_and_max_index(self, rng):
        cube = make_cube((20,), rng, high=1000)
        tree = RangeMaxTree(cube, fanout=4)
        assert tree.max_value(Box((3,), (17,))) == cube[3:18].max()
        index = tree.max_index(Box((3,), (17,)))
        assert cube[index] == cube[3:18].max()

    def test_without_branch_and_bound_same_answers(self, rng):
        cube = make_cube((40, 40), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=3)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            with_bnb = cube[tree.max_index(box, use_branch_and_bound=True)]
            without = cube[tree.max_index(box, use_branch_and_bound=False)]
            assert with_bnb == without

    def test_high_dimensional(self, rng):
        cube = make_cube((5, 6, 4, 7), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=2)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            assert cube[tree.max_index(box)] == naive_max_value(cube, box)


class TestLowestCoveringNode:
    """§6.1.2: start at the lowest node covering R, not the root."""

    def test_shared_prefix_selects_low_level(self, rng):
        cube = make_cube((81,), rng)
        tree = RangeMaxTree(cube, fanout=3)
        level, node = tree._lowest_covering_node(Box((27,), (53,)))
        assert level == 3 and node == (1,)
        level, node = tree._lowest_covering_node(Box((30,), (32,)))
        assert level == 1 and node == (10,)

    def test_cover_contains_region(self, rng):
        cube = make_cube((50, 50), rng)
        tree = RangeMaxTree(cube, fanout=3)
        for _ in range(50):
            box = random_box(cube.shape, rng)
            level, node = tree._lowest_covering_node(box)
            assert tree.node_region(level, node).contains_box(box)

    def test_small_range_cheaper_than_root_descent(self, rng):
        """The O(b log_b r) bound needs the lowest covering node: a small
        range far from the origin must not pay for the tree height."""
        cube = make_cube((3**6,), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=3)
        counter = AccessCounter()
        tree.max_index(Box((700,), (705,)), counter)
        assert counter.total <= 3 * 3 * (2 + math.ceil(math.log(6, 3)))


class TestBranchAndBoundPruning:
    def test_pruning_reduces_accesses(self, rng):
        """Disabling the §6 bound test must cost at least as much."""
        cube = make_cube((81, 81), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=3)
        pruned_total = 0
        unpruned_total = 0
        for _ in range(40):
            box = random_box(cube.shape, rng, min_length=10)
            pruned = AccessCounter()
            tree.max_index(box, pruned, use_branch_and_bound=True)
            unpruned = AccessCounter()
            tree.max_index(box, unpruned, use_branch_and_bound=False)
            assert pruned.total <= unpruned.total
            pruned_total += pruned.total
            unpruned_total += unpruned.total
        assert pruned_total < unpruned_total

    def test_worst_case_bound_one_dimensional(self, rng):
        """§6.1.3: node accesses are O(b·log_b r) in one dimension."""
        b = 4
        cube = make_cube((4**6,), rng, high=10**6)
        tree = RangeMaxTree(cube, fanout=b)
        for _ in range(60):
            box = random_box(cube.shape, rng, min_length=2)
            r = box.volume
            counter = AccessCounter()
            tree.max_index(box, counter, use_branch_and_bound=False)
            bound = 2 * b * (math.log(r, b) + 2)
            assert counter.total <= bound, (box, counter.total, bound)

    def test_average_case_below_theorem3_bound(self, rng):
        """Theorem 3: average accesses ≤ b + 7 + 1/b on random data."""
        b = 5
        cube = rng.permutation(5**5).astype(np.int64)  # distinct values
        tree = RangeMaxTree(cube, fanout=b)
        totals = []
        for _ in range(400):
            box = random_box(cube.shape, rng, min_length=2)
            counter = AccessCounter()
            tree.max_index(box, counter)
            totals.append(counter.total)
        average = sum(totals) / len(totals)
        assert average <= b + 7 + 1 / b, average


class TestValidation:
    def test_out_of_bounds(self, rng):
        tree = RangeMaxTree(make_cube((5, 5), rng), fanout=2)
        with pytest.raises(ValueError):
            tree.max_index(Box((0, 0), (5, 4)))

    def test_dimension_mismatch(self, rng):
        tree = RangeMaxTree(make_cube((5, 5), rng), fanout=2)
        with pytest.raises(ValueError):
            tree.max_index(Box((0,), (4,)))

    def test_empty_region(self, rng):
        tree = RangeMaxTree(make_cube((5, 5), rng), fanout=2)
        with pytest.raises(ValueError):
            tree.max_index(Box((3, 0), (2, 4)))


class TestFloatUpdates:
    def test_float_tree_batch_updates(self, rng):
        from repro.core.max_update import MaxAssignment, apply_max_updates

        cube = rng.standard_normal((20, 20))
        tree = RangeMaxTree(cube, 3)
        batch = [
            MaxAssignment(
                (int(rng.integers(0, 20)), int(rng.integers(0, 20))),
                float(rng.standard_normal()),
            )
            for _ in range(25)
        ]
        apply_max_updates(tree, batch)
        rebuilt = RangeMaxTree(tree.source, 3)
        for level in range(1, tree.height + 1):
            assert np.array_equal(tree.values[level], rebuilt.values[level])

    def test_negative_only_cube(self, rng):
        cube = -np.abs(rng.standard_normal((15, 15))) - 1.0
        tree = RangeMaxTree(cube, 4)
        box = Box((2, 3), (12, 13))
        assert cube[tree.max_index(box)] == cube[2:13, 3:14].max()


class TestMinOrder:
    """``order="min"``: the same tree keeping each node's minimum."""

    def test_min_tree_matches_naive_through_updates_and_persistence(
        self, rng, tmp_path
    ):
        from repro.core.batch_update import PointUpdate
        from repro.io import open_index, save_index_manifest

        cube = make_cube((17, 11), rng, low=-500, high=500)
        tree = RangeMaxTree(cube, fanout=3, order="min")
        mirror = cube.copy()
        for _ in range(4):
            updates = [
                PointUpdate(
                    (int(rng.integers(0, 17)), int(rng.integers(0, 11))),
                    int(rng.integers(-300, 300)),
                )
                for _ in range(12)
            ]
            tree.apply_updates(updates)
            for update in updates:
                mirror[update.index] += update.delta
            clone = open_index(
                save_index_manifest(tree, tmp_path / "tree.json"), mode="c"
            )
            assert clone.order.name == "min"
            rebuilt = RangeMaxTree(mirror, fanout=3, order="min")
            for level in range(1, tree.height + 1):
                assert np.array_equal(tree.values[level], rebuilt.values[level])
            for _ in range(25):
                box = random_box(mirror.shape, rng)
                want = mirror[box.slices()].min()
                for index_of in (tree, clone):
                    index, value = index_of.query(box)
                    assert value == want and mirror[index] == want
                _, batch = tree.query_many(
                    np.array([box.lo]), np.array([box.hi])
                )
                assert batch[0] == want

    def test_unknown_order_rejected(self, rng):
        with pytest.raises(ValueError, match="order"):
            RangeMaxTree(make_cube((4, 4), rng), fanout=2, order="median")
