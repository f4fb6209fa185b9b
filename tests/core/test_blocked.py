"""Tests for the blocked prefix-sum method (paper §4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import Box
from repro.core.blocked import BlockedPrefixSumCube, block_contract
from repro.instrumentation import AccessCounter
from repro.query.naive import naive_range_sum
from repro.query.workload import make_cube, random_box
from tests.conftest import cube_and_box
from tests.core.test_prefix_sum import FIGURE1_A


@pytest.fixture
def rng():
    return np.random.default_rng(41)


class TestPaperExamples:
    def test_paper_figure3(self):
        """Figure 3: the blocked P with b = 2 over Figure 1's array.

        The paper stores P[1,1]=18, P[1,3]=29, P[1,5]=44, P[2,1]=24,
        P[2,3]=40, P[2,5]=63 (row dimension of size 3, so the last row is
        a partial block).  Packed densely that is a 2 × 3 array.
        """
        structure = BlockedPrefixSumCube(FIGURE1_A, 2)
        expected = np.array([[18, 29, 44], [24, 40, 63]])
        assert np.array_equal(structure.blocked_prefix, expected)

    def test_figure5_decomposition(self, rng):
        """Figure 5: Sum(50:349, 50:349) with b=100 → 9 regions, A1..A9."""
        cube = make_cube((400, 400), rng, high=10)
        structure = BlockedPrefixSumCube(cube, 100)
        regions = structure.decompose(Box((50, 50), (349, 349)))
        assert len(regions) == 9
        internal = [r for r in regions if r[2]]
        assert len(internal) == 1
        assert internal[0][0] == Box((100, 100), (299, 299))
        # Figure 5(c): superblocks of the corner regions span whole blocks.
        corner = next(
            r for r in regions if r[0] == Box((50, 50), (99, 99))
        )
        assert corner[1] == Box((0, 0), (99, 99))
        top_right = next(
            r for r in regions if r[0] == Box((50, 300), (99, 349))
        )
        assert top_right[1] == Box((0, 300), (99, 399))

    def test_figure6_method_choice(self, rng):
        """Figure 6: Sum(75:374, 100:354) mixes both boundary methods.

        The region (300:374, 100:299) covers 3/4 of its superblock, so
        the complement method must win there; the thin (75:99, ...) strips
        scan directly.
        """
        cube = make_cube((400, 400), rng, high=10)
        structure = BlockedPrefixSumCube(cube, 100)
        box = Box((75, 100), (374, 354))
        regions = structure.decompose(box)
        assert len(regions) == 6  # the aligned low edge of dim 2 is empty
        wide = Box((300, 100), (374, 299))
        superblock = next(r[1] for r in regions if r[0] == wide)
        complement_cost = superblock.volume - wide.volume + (1 << 2) - 1
        assert complement_cost < wide.volume  # method 2 is chosen
        counter = AccessCounter()
        got = structure.range_sum(box, counter)
        assert got == naive_range_sum(cube, box)
        # Direct scan of everything would touch the full query volume.
        assert counter.cube_cells < box.volume

    def test_decomposition_is_disjoint_partition(self, rng):
        cube = make_cube((60, 60), rng)
        structure = BlockedPrefixSumCube(cube, 7)
        box = Box((3, 10), (52, 41))
        regions = structure.decompose(box)
        total = sum(r[0].volume for r in regions)
        assert total == box.volume
        for i, (a, _, _) in enumerate(regions):
            assert box.contains_box(a)
            for b, _, _ in regions[i + 1 :]:
                assert not a.intersects(b)


class TestBlockContract:
    def test_exact_division(self):
        cube = np.arange(16).reshape(4, 4)
        contracted = block_contract(cube, 2)
        assert contracted.shape == (2, 2)
        assert contracted[0, 0] == 0 + 1 + 4 + 5

    def test_partial_blocks(self):
        cube = np.ones((5, 7), dtype=np.int64)
        contracted = block_contract(cube, 3)
        assert contracted.shape == (2, 3)
        assert contracted[1, 2] == 2 * 1  # 2 rows × 1 column remain

    def test_block_size_one_is_identity(self, rng):
        cube = make_cube((4, 5), rng)
        assert np.array_equal(block_contract(cube, 1), cube)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            block_contract(np.ones((4,)), 0)


class TestCorrectness:
    @given(
        cube_and_box(max_ndim=3, max_side=12),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, data, block_size):
        cube, box = data
        structure = BlockedPrefixSumCube(cube, block_size)
        assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_block_one_equals_basic(self, rng):
        from repro.core.prefix_sum import PrefixSumCube

        cube = make_cube((9, 11), rng)
        basic = PrefixSumCube(cube)
        blocked = BlockedPrefixSumCube(cube, 1)
        for _ in range(30):
            box = random_box(cube.shape, rng)
            assert blocked.range_sum(box) == basic.range_sum(box)

    def test_block_larger_than_cube(self, rng):
        cube = make_cube((5, 5), rng)
        structure = BlockedPrefixSumCube(cube, 64)
        for _ in range(20):
            box = random_box(cube.shape, rng)
            assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_aligned_query_uses_prefix_only(self, rng):
        """A block-aligned internal region costs P reads, not A scans."""
        cube = make_cube((40, 40), rng)
        structure = BlockedPrefixSumCube(cube, 10)
        counter = AccessCounter()
        got = structure.range_sum(Box((10, 20), (29, 39)), counter)
        assert got == int(cube[10:30, 20:40].sum())
        assert counter.cube_cells == 0

    def test_case2_thin_query(self, rng):
        """A query thinner than one block in some dimension (case 2)."""
        cube = make_cube((50, 50), rng)
        structure = BlockedPrefixSumCube(cube, 10)
        box = Box((13, 5), (16, 44))  # dim 0 never spans a full block
        assert structure.range_sum(box) == naive_range_sum(cube, box)

    def test_single_cell(self, rng):
        cube = make_cube((30, 30), rng)
        structure = BlockedPrefixSumCube(cube, 8)
        assert structure.range_sum(Box((17, 23), (17, 23))) == cube[17, 23]

    def test_full_cube(self, rng):
        cube = make_cube((33, 27), rng)
        structure = BlockedPrefixSumCube(cube, 8)
        assert structure.total() == cube.sum()

    def test_three_dimensional_sweep(self, rng):
        cube = make_cube((17, 23, 11), rng)
        structure = BlockedPrefixSumCube(cube, 4)
        for _ in range(60):
            box = random_box(cube.shape, rng)
            assert structure.range_sum(box) == naive_range_sum(cube, box)


class TestSpaceTimeTradeoff:
    def test_storage_shrinks_by_b_to_the_d(self, rng):
        cube = make_cube((100, 100), rng)
        structure = BlockedPrefixSumCube(cube, 10)
        assert structure.storage_cells == 100  # N/b^d = 10000/100

    def test_cost_grows_with_block_size(self, rng):
        """Bigger blocks → more boundary scanning on unaligned queries."""
        cube = make_cube((120, 120), rng)
        box = Box((7, 7), (106, 106))
        totals = []
        for block in (2, 6, 24):
            counter = AccessCounter()
            BlockedPrefixSumCube(cube, block).range_sum(box, counter)
            totals.append(counter.total)
        assert totals[0] < totals[1] < totals[2]

    def test_cost_tracks_equation3(self, rng):
        """Measured accesses stay within ~2× of 2^d + S·F(b) (Eq. 3)."""
        from repro.optimizer.cost_model import prefix_sum_cost
        from repro.query.stats import QueryStatistics

        cube = make_cube((200, 200), rng)
        structure = BlockedPrefixSumCube(cube, 10)
        measured = []
        predicted = []
        for _ in range(40):
            box = random_box(cube.shape, rng, min_length=40)
            counter = AccessCounter()
            structure.range_sum(box, counter)
            measured.append(counter.total)
            stats = QueryStatistics.from_lengths(box.lengths)
            predicted.append(prefix_sum_cost(stats, 10))
        ratio = sum(measured) / sum(predicted)
        assert 0.4 < ratio < 2.5, ratio


class TestValidation:
    def test_invalid_block_size(self, rng):
        with pytest.raises(ValueError):
            BlockedPrefixSumCube(make_cube((4, 4), rng), 0)

    def test_out_of_bounds_query(self, rng):
        structure = BlockedPrefixSumCube(make_cube((4, 4), rng), 2)
        with pytest.raises(ValueError):
            structure.range_sum(Box((0, 0), (5, 3)))

    def test_dimension_mismatch(self, rng):
        structure = BlockedPrefixSumCube(make_cube((4, 4), rng), 2)
        with pytest.raises(ValueError):
            structure.range_sum(Box((0,), (3,)))


class TestBatchUpdateIntegration:
    def test_blocked_updates_keep_queries_exact(self, rng):
        from repro.core.batch_update import PointUpdate

        cube = make_cube((20, 20), rng).astype(np.int64)
        structure = BlockedPrefixSumCube(cube, 4)
        updates = [
            PointUpdate(
                (int(rng.integers(0, 20)), int(rng.integers(0, 20))),
                int(rng.integers(-5, 10)),
            )
            for _ in range(15)
        ]
        structure.apply_updates(updates)
        mirror = cube.copy()
        for update in updates:
            mirror[update.index] += update.delta
        assert np.array_equal(structure.source, mirror)
        for _ in range(30):
            box = random_box((20, 20), rng)
            assert structure.range_sum(box) == naive_range_sum(mirror, box)


class TestExplain:
    def test_explain_lists_every_region(self, rng):
        cube = make_cube((400, 400), rng, high=10)
        structure = BlockedPrefixSumCube(cube, 100)
        plan = structure.explain(Box((50, 50), (349, 349)))
        assert plan.count("boundary") == 8
        assert plan.count("internal") == 1
        assert "estimated total" in plan
        assert "naive scan: 90000" in plan

    def test_explain_mentions_both_methods(self, rng):
        cube = make_cube((400, 400), rng, high=10)
        structure = BlockedPrefixSumCube(cube, 100)
        plan = structure.explain(Box((75, 100), (374, 354)))
        assert "scan A" in plan
        assert "superblock" in plan

    def test_estimate_tracks_measurement(self, rng):
        import re

        cube = make_cube((120, 120), rng)
        structure = BlockedPrefixSumCube(cube, 10)
        for _ in range(15):
            box = random_box((120, 120), rng, min_length=20)
            plan = structure.explain(box)
            estimate = int(
                re.search(r"estimated total: ~(\d+)", plan).group(1)
            )
            counter = AccessCounter()
            structure.range_sum(box, counter)
            assert counter.total <= estimate * 1.5 + 8
            assert estimate <= counter.total * 1.5 + 8
