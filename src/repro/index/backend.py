"""Array allocation backends: in-memory numpy vs out-of-core memmap.

Every aggregate structure in this library is, at bottom, a handful of
dense numpy arrays — a prefix array ``P``, a retained cube ``A``, the
per-level arrays of a max tree.  The paper sizes those arrays at ``O(N)``
cells, and the ROADMAP's production target includes cubes larger than
RAM.  :class:`ArrayBackend` abstracts *where those arrays live*:

* :class:`MemoryBackend` — plain ``np.empty`` / copies; the default, and
  exactly the behaviour the structures had before this layer existed.
* :class:`MemmapBackend` — every array is an ``.npy`` file in a spill
  directory opened through ``np.lib.format.open_memmap``, so construction
  and queries stream through the OS page cache instead of requiring the
  whole array resident.

The two backends are *bit-identical* in results: construction writes the
same values through the same in-place kernels, only the allocation call
differs.  ``tests/index/test_backend.py`` asserts this for every
registered dense structure.

Allocation lifecycle
--------------------

A backend hands out arrays and tracks the *live* ones — those whose
spill files it still owns.  :meth:`ArrayBackend.release` retires every
live allocation at once: spill files are deleted and tracking is
dropped, so a superseded build (an adaptive hot-swap's old plan, an
aborted ingest) stops holding disk and handles.  Releasing never closes
a mapping that user code may still reference — closing the ``mmap``
under a live ``ndarray`` is a segfault, not an error — so the mapped
memory itself is reclaimed by ordinary refcounting the moment the last
array reference dies.  Callers that want a bounded lifetime they can
release as a unit take a :meth:`ArrayBackend.subscope`.

Zero-size allocations cannot be memory-mapped (``mmap`` of zero bytes is
an OS error), so :class:`MemmapBackend` hands out ordinary heap arrays
for them.  These *degenerate* arrays are part of the backend's contract:
they appear in ``describe()['degenerate']`` but never in
:attr:`~MemmapBackend.spill_files`, so any consumer that persists or
reopens a structure from its spill files alone (rather than from
``state_dict()``) must account for them explicitly.

A :class:`MemmapBackend`'s spill directory is owned by the caller (use a
``tempfile.TemporaryDirectory`` for scratch builds, a durable path for
servable ones — the files double as the persisted form); ``release()``
only ever deletes the files the backend itself created.
"""

from __future__ import annotations

import itertools
import os
import re
from pathlib import Path
from collections.abc import Sequence
from typing import Any

import numpy as np


class ArrayBackend:
    """Where a structure's defining arrays are allocated.

    Subclasses implement :meth:`empty`; :meth:`materialize` has a default
    in terms of it.  ``name`` is a human-readable tag ("prefix",
    "source", "values_2") used by file-backed backends to label spill
    files; backends may ignore it.
    """

    def empty(
        self, name: str, shape: Sequence[int], dtype: object
    ) -> np.ndarray:
        """Allocate an uninitialized array of the given shape and dtype."""
        raise NotImplementedError

    def materialize(self, name: str, array: np.ndarray) -> np.ndarray:
        """A backend-owned copy of ``array`` (same shape, same dtype)."""
        array = np.asarray(array)
        out = self.empty(name, array.shape, array.dtype)
        out[...] = array
        return out

    def flush(self) -> None:
        """Push pending writes to stable storage (no-op in memory)."""

    def release(self) -> int:
        """Retire every live allocation; returns how many were released.

        File-backed backends delete their spill files and drop handle
        tracking; the mapped memory itself is freed when the last array
        reference dies (the mapping is never force-closed — see the
        module docstring).  In-memory backends have nothing to retire.
        The backend stays usable: later :meth:`empty` calls allocate
        fresh arrays.
        """
        return 0

    def subscope(self, tag: str) -> ArrayBackend:
        """A backend for one bounded allocation lifetime.

        Arrays a build allocates through a subscope can be retired as a
        unit with :meth:`release` without touching sibling builds that
        share the parent.  The default (in-memory) implementation has no
        tracked resources, so the backend itself is its own subscope.
        """
        return self

    def describe(self) -> dict[str, Any]:
        """A plain-dict summary (used by ``Index.describe()``)."""
        return {"backend": type(self).__name__}


class MemoryBackend(ArrayBackend):
    """Arrays live on the process heap — the historical default."""

    def empty(
        self, name: str, shape: Sequence[int], dtype: object
    ) -> np.ndarray:
        return np.empty(tuple(int(n) for n in shape), dtype=np.dtype(dtype))

    def materialize(self, name: str, array: np.ndarray) -> np.ndarray:
        return np.array(array, copy=True)


class MemmapBackend(ArrayBackend):
    """Arrays live as ``.npy`` files under a spill directory.

    Args:
        directory: Spill directory (created if missing).  The caller owns
            its lifetime; the files inside are standard ``.npy`` archives
            readable with ``np.load``.
        tag: Filename prefix, useful when several structures share one
            directory.

    Each allocation gets a fresh, sequence-numbered file, so rebuilding a
    structure never aliases a live array from the previous build; the
    rebuild's predecessor is reclaimed with :meth:`release` (on its own
    :meth:`subscope`) rather than by accumulating forever.
    """

    def __init__(self, directory: str | os.PathLike[str], tag: str = "repro") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.tag = str(tag)
        self._sequence = itertools.count()
        #: Live allocations only: ``release()`` empties this, so flushes
        #: and spill accounting never touch superseded builds.
        self._live: dict[Path, np.memmap] = {}
        #: Names of zero-size allocations that fell back to the heap —
        #: invisible to ``spill_files`` by necessity, reported by
        #: ``describe()`` by contract.
        self._degenerate: list[str] = []
        #: Subscope directories this instance has handed out, so two
        #: children with the same tag never share (and overwrite) one
        #: spill directory.
        self._children: set[Path] = set()

    def _path_for(self, name: str) -> Path:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "array"
        return self.directory / (
            f"{self.tag}-{next(self._sequence):05d}-{safe}.npy"
        )

    def empty(
        self, name: str, shape: Sequence[int], dtype: object
    ) -> np.ndarray:
        shape = tuple(int(n) for n in shape)
        if int(np.prod(shape)) == 0:
            # mmap cannot map zero bytes; a heap array is equivalent here
            # but has no spill file — tracked so describe() reports it.
            self._degenerate.append(str(name))
            return np.empty(shape, dtype=np.dtype(dtype))
        path = self._path_for(name)
        array = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=shape
        )
        self._live[path] = array
        return array

    def flush(self) -> None:
        """Sync every *live* memmap's dirty pages to its spill file.

        Structures call this at the end of ``apply_updates``: in-place
        deltas otherwise sit in the page cache only, so reading a spill
        file by path (another process, a copy of the file) can observe
        the pre-update bytes.  Released arrays are not flushed — their files
        are gone, and re-flushing every array ever allocated made each
        update batch O(total builds) instead of O(live arrays).
        """
        for array in self._live.values():
            array.flush()

    def release(self) -> int:
        """Delete every live spill file and drop its handle tracking.

        Safe while the arrays are still mapped (POSIX unlink); the
        mapping's memory is returned when the last array reference dies.
        Degenerate (zero-size, heap-backed) allocations are retired from
        the ``describe()`` accounting at the same time.  Returns the
        number of spill files released.
        """
        released = len(self._live)
        for path in self._live:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._live.clear()
        self._degenerate.clear()
        return released

    def subscope(self, tag: str) -> MemmapBackend:
        """A child backend spilling into ``directory/tag``.

        Releasing the child deletes only the child's files; the parent's
        live arrays are untouched.  Used by the serving layer to give
        each adaptive plan build its own reclaimable spill scope.  Asking
        the same parent for the same tag twice yields *distinct*
        directories (a numeric suffix disambiguates) — each child has its
        own filename sequence, so sharing a directory would let a second
        build overwrite the first's live files.  Disambiguation consults
        the *disk* as well as this instance's bookkeeping: a second
        backend over the same durable directory (or a process restart)
        must not hand out a child whose directory already holds spill
        files — its fresh filename sequence would silently overwrite
        them, possibly the persisted form a manifest is serving.
        """
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", str(tag)) or "scope"
        child = self.directory / safe
        suffix = 0
        while child in self._children or child.exists():
            suffix += 1
            child = self.directory / f"{safe}-{suffix}"
        self._children.add(child)
        return MemmapBackend(child, tag=self.tag)

    @property
    def spill_files(self) -> tuple[Path, ...]:
        """Paths of every *live* array file (released files are gone)."""
        return tuple(self._live)

    @property
    def live_arrays(self) -> int:
        """How many handed-out arrays this backend still tracks."""
        return len(self._live)

    @property
    def spilled_bytes(self) -> int:
        """Total bytes currently on disk across live spill files."""
        return sum(p.stat().st_size for p in self._live if p.exists())

    def describe(self) -> dict[str, Any]:
        return {
            "backend": type(self).__name__,
            "directory": str(self.directory),
            "files": len(self._live),
            "degenerate": len(self._degenerate),
        }


class AdoptingBackend(ArrayBackend):
    """Wrap a backend so :meth:`materialize` adopts instead of copying.

    Structure constructors call ``backend.materialize("source", cube)``
    to take a defensive copy of their input.  When the caller *already
    owns* the array — a streaming-ingest accumulator that just finished
    its one-pass build, a spill file being reopened by
    :func:`repro.io.open_index` — that copy would double the footprint
    (and, out of core, the disk) for nothing.  An adopting backend hands
    the array straight through, records it for :meth:`flush` when it is
    file-backed, and delegates every fresh allocation to the wrapped
    backend.

    Only use it when handing a structure arrays nobody else will mutate:
    adoption deliberately removes the copy that normally isolates the
    structure from its caller.
    """

    def __init__(self, inner: ArrayBackend) -> None:
        self.inner = inner
        self._adopted: list[np.ndarray] = []

    def empty(
        self, name: str, shape: Sequence[int], dtype: object
    ) -> np.ndarray:
        return self.inner.empty(name, shape, dtype)

    def materialize(self, name: str, array: np.ndarray) -> np.ndarray:
        adopted = np.asanyarray(array)
        if _backing_memmap(adopted) is not None:
            self._adopted.append(adopted)
        return adopted

    def flush(self) -> None:
        for array in self._adopted:
            backing = _backing_memmap(array)
            if backing is not None:
                backing.flush()
        self.inner.flush()

    def release(self) -> int:
        self._adopted.clear()
        return self.inner.release()

    def subscope(self, tag: str) -> ArrayBackend:
        return self.inner.subscope(tag)

    def describe(self) -> dict[str, Any]:
        description = dict(self.inner.describe())
        description["adopted"] = len(self._adopted)
        return description


def _backing_memmap(array: np.ndarray | None) -> np.memmap | None:
    """The file-backed memmap an array views, if any.

    Walks the ``.base`` chain: ``np.asarray(memmap)`` and slicing both
    return plain ``ndarray`` views whose buffer is still the mapped
    file.  Returns the underlying :class:`np.memmap` (the object that
    knows its ``filename`` and can ``flush()``), or ``None`` for heap
    arrays.
    """
    seen: object = array
    while isinstance(seen, np.ndarray):
        if isinstance(seen, np.memmap) and getattr(seen, "filename", None):
            return seen
        seen = seen.base
    return None


#: Shared default backend — heap allocation, the pre-registry behaviour.
MEMORY_BACKEND = MemoryBackend()


def resolve_backend(backend: ArrayBackend | None) -> ArrayBackend:
    """``None`` means the shared in-memory default."""
    return MEMORY_BACKEND if backend is None else backend
