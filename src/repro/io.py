"""Saving and loading precomputed structures.

Prefix-sum arrays and max trees are *precomputations*: in production they
are built once (or repaired by the §5/§7 batch updaters) and served for
days.  This module persists them as numpy ``.npz`` archives so a server
restart does not force an ``O(dN)`` rebuild.

Persistence is *generic* over the index registry: :func:`save_index`
works for any registered structure whose class implements
``state_dict()`` (every dense built-in does), and :func:`load_index`
looks the archive's registry name up and calls the class's
``from_state`` — no per-class save/load code.  Arrays round-trip with
their exact dtype (they are stored as-is in the ``.npz``); scalar
parameters travel in a JSON side-channel, so ``block_size``, operators,
and fanouts are preserved exactly.

Two persistence shapes coexist:

* ``.npz`` archives (:func:`save_index` / :func:`load_index`) — one
  self-contained compressed file, read back *by copy*.  Right for
  structures that fit in memory.
* spill-file **manifests** (:func:`save_index_manifest` /
  :func:`open_index`) — for memmap-built structures whose arrays
  *already live on disk* as ``.npy`` spill files.  The manifest is a
  small JSON record of the registry name, scalar parameters, and the
  relative path of each defining array; :func:`open_index` re-maps
  those files in place and adopts them (no copy), so a cube built out
  of core by :mod:`repro.ingest` is served after restart without ever
  holding a second resident copy.  Zero-size (*degenerate*) arrays have
  no spill file by the backend contract — the manifest inlines their
  shape/dtype instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

import numpy as np

from repro.index.backend import (
    AdoptingBackend,
    MemoryBackend,
    _backing_memmap,
)
from repro.index.registry import get_index_info, index_info_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.index.backend import ArrayBackend

#: Archive format identifier and version, checked on load.
_FORMAT_KEY = "repro_format"
_INDEX_FORMAT_VERSION = 1


def save_index(
    index: object, path: str | os.PathLike | BinaryIO
) -> None:
    """Persist any registered, persistable index to a ``.npz`` archive.

    The archive holds the structure's registry name, its defining arrays
    (exact dtypes), and a JSON record of its scalar parameters — exactly
    the ``state_dict()`` the structure reports.

    Args:
        index: A structure built from a registered class (possibly
            wrapped in :class:`~repro.index.InstrumentedIndex` — the
            wrapper is looked through).

    Raises:
        KeyError: The structure's class was never registered.
        ValueError: The structure registered with ``persistable=False``.
    """
    from repro.index.protocol import InstrumentedIndex

    if isinstance(index, InstrumentedIndex):
        index = index.index  # look through the counter wrapper
    info = index_info_for(index)
    if not info.persistable:
        raise ValueError(
            f"index {info.name!r} is registered as not persistable"
        )
    state = index.state_dict()
    meta: dict[str, object] = {}
    payload: dict[str, object] = {
        _FORMAT_KEY: f"index:{_INDEX_FORMAT_VERSION}",
        "index_name": info.name,
    }
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            payload[f"arr_{key}"] = value
        elif isinstance(value, np.generic):
            meta[key] = value.item()
        else:
            meta[key] = value
    payload["meta"] = json.dumps(meta)
    np.savez_compressed(path, **payload)


def load_index(
    path: str | os.PathLike | BinaryIO,
    backend: ArrayBackend | None = None,
) -> object:
    """Load any index archive without recomputation.

    Args:
        path: Archive written by :func:`save_index`.
        backend: Array backend the restored arrays are materialized
            into; pass a :class:`~repro.index.MemmapBackend` to serve a
            structure larger than RAM straight from its spill files.

    Returns:
        The restored structure (same registry name as saved).
    """
    with np.load(path, allow_pickle=False) as archive:
        if _FORMAT_KEY not in archive:
            raise ValueError("not a repro structure archive")
        kind, version = str(archive[_FORMAT_KEY]).split(":")
        if kind != "index":
            raise ValueError(f"unknown archive kind {kind!r}")
        if int(version) > _INDEX_FORMAT_VERSION:
            raise ValueError(
                f"unsupported index archive version {version}"
            )
        name = str(archive["index_name"])
        state: dict[str, object] = dict(json.loads(str(archive["meta"])))
        for key in archive.files:
            if key.startswith("arr_"):
                state[key[len("arr_"):]] = archive[key]
    info = get_index_info(name)
    return info.cls.from_state(state, backend=backend)


#: Manifest format identifier, checked on open.
_MANIFEST_FORMAT = "index-manifest"
_MANIFEST_VERSION = 1
#: Heap arrays at or under this size are inlined into the manifest
#: (metadata arrays and degenerate zero-size allocations); bigger ones
#: without a spill file are an error.
_INLINE_ARRAY_BYTES = 4096


def _unwrap(index: object) -> object:
    from repro.index.protocol import InstrumentedIndex

    if isinstance(index, InstrumentedIndex):
        return index.index
    return index


def save_index_manifest(
    index: object, path: str | os.PathLike[str]
) -> Path:
    """Persist a memmap-built structure *in place* via a JSON manifest.

    Every defining array must already be file-backed (built through a
    :class:`~repro.index.MemmapBackend`) — the spill files themselves
    are the persisted form; this function only flushes them and writes a
    manifest naming them.  Arrays are referenced by path *relative to
    the manifest*, so the manifest and the spill directory move together
    as one bundle.  Zero-size arrays (heap-backed by the backend's
    degenerate-allocation contract) are inlined as shape/dtype.

    Args:
        index: A registered, persistable structure whose arrays are
            memmap-backed.
        path: Where the manifest JSON is written.

    Returns:
        The manifest path.

    Raises:
        ValueError: An array with cells is not file-backed (use
            :func:`save_index` for in-memory structures), or a spill
            file lies on a different filesystem anchor than the
            manifest.
    """
    index = _unwrap(index)
    info = index_info_for(index)
    if not info.persistable:
        raise ValueError(
            f"index {info.name!r} is registered as not persistable"
        )
    manifest_path = Path(path).resolve()
    manifest_dir = manifest_path.parent
    meta: dict[str, object] = {}
    arrays: dict[str, dict[str, object]] = {}
    for key, value in index.state_dict().items():
        if isinstance(value, np.ndarray):
            backing = _backing_memmap(value)
            if backing is None:
                # Tiny heap arrays are legitimate even in a spilled
                # build: scalar-ish metadata (``prefix_dims``) and the
                # backend's zero-size degenerate allocations have no
                # spill file by contract — inline them in the manifest.
                if value.nbytes <= _INLINE_ARRAY_BYTES:
                    arrays[key] = {
                        "inline_shape": [int(n) for n in value.shape],
                        "dtype": value.dtype.str,
                        "inline_data": value.reshape(-1).tolist(),
                    }
                    continue
                raise ValueError(
                    f"array {key!r} of {info.name!r} is not file-backed; "
                    "a manifest persists spill files in place — use "
                    "save_index() for in-memory structures"
                )
            if value.shape != backing.shape or value.dtype != backing.dtype:
                raise ValueError(
                    f"array {key!r} is a partial view of its spill file; "
                    "manifests can only reference whole arrays"
                )
            backing.flush()
            file = Path(os.fspath(backing.filename)).resolve()
            arrays[key] = {
                "file": os.path.relpath(file, manifest_dir),
                "dtype": value.dtype.str,
                "shape": [int(n) for n in value.shape],
            }
        elif isinstance(value, np.generic):
            meta[key] = value.item()
        else:
            meta[key] = value
    manifest = {
        _FORMAT_KEY: f"{_MANIFEST_FORMAT}:{_MANIFEST_VERSION}",
        "index_name": info.name,
        "meta": meta,
        "arrays": arrays,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def open_index(
    path: str | os.PathLike[str], *, mode: str = "r+"
) -> object:
    """Reopen a manifest-persisted structure from its spill files.

    The defining arrays are memory-mapped straight from the ``.npy``
    files the build left behind and *adopted* (no copy) — reopening a
    larger-than-RAM structure costs a few pages, not ``O(N)`` resident
    bytes.

    Args:
        path: Manifest written by :func:`save_index_manifest`.
        mode: Mapping mode — ``"r+"`` (default) serves and allows
            in-place batch updates; ``"r"`` maps read-only.

    Returns:
        The restored structure, same registry name as saved.
    """
    manifest_path = Path(path).resolve()
    manifest = json.loads(manifest_path.read_text())
    kind, _, version = str(manifest.get(_FORMAT_KEY, "")).partition(":")
    if kind != _MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path} is not an index manifest")
    if int(version) > _MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {version}")
    state: dict[str, Any] = dict(manifest["meta"])
    for key, entry in manifest["arrays"].items():
        if "inline_shape" in entry:
            state[key] = np.asarray(
                entry.get("inline_data", []),
                dtype=np.dtype(entry["dtype"]),
            ).reshape(tuple(entry["inline_shape"]))
            continue
        file = (manifest_path.parent / entry["file"]).resolve()
        array = np.load(file, mmap_mode=mode)
        if list(array.shape) != list(entry["shape"]) or (
            array.dtype != np.dtype(entry["dtype"])
        ):
            raise ValueError(
                f"spill file {file} does not match its manifest entry "
                f"(expected {entry['shape']} {entry['dtype']}, found "
                f"{list(array.shape)} {array.dtype.str})"
            )
        state[key] = array
    info = get_index_info(str(manifest["index_name"]))
    return info.cls.from_state(
        state, backend=AdoptingBackend(MemoryBackend())
    )
