"""Tests for the access-count instrumentation."""

from __future__ import annotations

import sys
import threading

from repro.instrumentation import NULL_COUNTER, AccessCounter


class TestAccessCounter:
    def test_counts_accumulate(self):
        counter = AccessCounter()
        counter.count_cube(3)
        counter.count_prefix()
        counter.count_tree(2)
        counter.count_index(4)
        assert counter.cube_cells == 3
        assert counter.prefix_cells == 1
        assert counter.tree_nodes == 2
        assert counter.index_nodes == 4
        assert counter.total == 10

    def test_reset(self):
        counter = AccessCounter()
        counter.count_cube(5)
        counter.reset()
        assert counter.total == 0

    def test_snapshot(self):
        counter = AccessCounter()
        counter.count_prefix(2)
        snap = counter.snapshot()
        assert snap == {
            "cube_cells": 0,
            "prefix_cells": 2,
            "tree_nodes": 0,
            "index_nodes": 0,
            "total": 2,
        }
        counter.count_prefix()
        assert snap["prefix_cells"] == 2  # snapshots are detached

    def test_disabled_counter(self):
        counter = AccessCounter(enabled=False)
        counter.count_cube(100)
        assert counter.total == 0


class TestNullCounter:
    def test_ignores_everything(self):
        NULL_COUNTER.count_cube(10)
        NULL_COUNTER.count_prefix(10)
        NULL_COUNTER.count_tree(10)
        NULL_COUNTER.count_index(10)
        assert NULL_COUNTER.total == 0


# AccessCounter increments are thread-safe: the serving layer charges
# one cube's counter from several pool threads at once.  Without the
# lock, the plain ``int`` read-modify-write of ``+=`` drops charges
# under interleaving — a bug that only shows up as *undercounted*
# access-cost numbers, never as a crash, which is why these tests
# hammer the counter deliberately.

THREADS = 8
INCREMENTS = 2_000


def test_concurrent_increments_never_drop(monkeypatch):
    """N threads x M increments must tally exactly N*M per category."""
    counter = AccessCounter()
    old_interval = sys.getswitchinterval()
    # An aggressively tiny switch interval maximizes interleavings right
    # inside the read-modify-write the lock now protects.
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(THREADS)

        def hammer():
            barrier.wait()
            for _ in range(INCREMENTS):
                counter.count_cube(1)
                counter.count_prefix(2)
                counter.count_tree(1)
                counter.count_index(1)

        workers = [
            threading.Thread(target=hammer) for _ in range(THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert counter.cube_cells == THREADS * INCREMENTS
    assert counter.prefix_cells == 2 * THREADS * INCREMENTS
    assert counter.tree_nodes == THREADS * INCREMENTS
    assert counter.index_nodes == THREADS * INCREMENTS
    assert counter.total == 5 * THREADS * INCREMENTS


def test_reset_and_snapshot_under_contention():
    counter = AccessCounter()
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            counter.count_prefix(1)

    worker = threading.Thread(target=churn)
    worker.start()
    try:
        for _ in range(200):
            snap = counter.snapshot()
            assert snap["total"] == (
                snap["cube_cells"]
                + snap["prefix_cells"]
                + snap["tree_nodes"]
                + snap["index_nodes"]
            )
        counter.reset()
    finally:
        stop.set()
        worker.join()
    # After the churn thread stops the tallies are consistent again.
    final = counter.snapshot()
    assert final["total"] == final["prefix_cells"]
