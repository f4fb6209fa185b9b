"""LRU result cache keyed on canonical boxes, invalidated by generation.

A repeated dashboard panel asks the same range aggregate thousands of
times; with an exact cache the second and every later ask is a
dictionary hit.  Keys are built from
:func:`repro.query.ranges.canonical_box`, so every spelling of the same
region — ``Box``, ``RangeQuery``, raw pairs, numpy ints — lands on one
entry.

Correctness under updates is generation-based: every
:class:`~repro.serving.service.ServedCube` carries a monotonically
increasing ``generation`` that every ``/update`` bumps.  Entries record
the generation they were computed at; a lookup that finds an entry from
an older generation *evicts it and misses* (counted separately from
capacity evictions), and an update additionally drops the cube's entries
eagerly so a write-heavy cube does not pin dead results in LRU order.
"""

from __future__ import annotations

from collections import OrderedDict

from repro._util import Box

#: A cache key: ``(cube name, operator, lo bounds, hi bounds)``.
CacheKey = tuple[str, str, tuple[int, ...], tuple[int, ...]]


def cache_key(cube: str, op: str, box: Box) -> CacheKey:
    """The canonical cache key for one scalar aggregate request.

    ``box`` must already be canonical (plain-int bounds) — the service
    resolves requests through ``canonical_box`` before touching the
    cache, so equal regions always produce equal keys.
    """
    return (cube, op, box.lo, box.hi)


class ResultCache:
    """A bounded LRU of scalar aggregate answers.

    Args:
        capacity: Maximum entries held; ``0`` disables the cache
            entirely (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[CacheKey, tuple[int, object]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey, generation: int) -> tuple[bool, object]:
        """Look up ``key`` for a cube currently at ``generation``.

        Returns:
            ``(hit, value)``.  A stored entry from an older generation
            is removed, counted as a stale eviction, and reported as a
            miss — the caller recomputes and re-stores at the current
            generation.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        stored_generation, value = entry
        if stored_generation != generation:
            del self._entries[key]
            self.stale_evictions += 1
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: CacheKey, generation: int, value: object) -> None:
        """Store an answer computed at ``generation`` (LRU-evicting)."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (generation, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate_cube(self, cube: str) -> int:
        """Eagerly drop every entry belonging to ``cube``.

        Generation checking alone already guarantees staleness is never
        served; this keeps a write-heavy cube's dead entries from
        occupying LRU slots until they age out.  Returns the number of
        entries dropped.
        """
        stale = [key for key in self._entries if key[0] == cube]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop everything (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> dict:
        """A plain-dict snapshot for the ``/stats`` endpoint."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_evictions": self.stale_evictions,
            "invalidations": self.invalidations,
        }
