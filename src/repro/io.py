"""Saving and reopening precomputed structures.

Prefix-sum arrays and max trees are *precomputations*: in production they
are built once (or repaired by the §5/§7 batch updaters) and served for
days.  This module persists them so a server restart reopens them instead
of paying an ``O(dN)`` rebuild.

Persistence is *generic* over the index registry: any registered
structure whose class implements ``state_dict()`` (every dense built-in
does) is saved, and reopening looks the registry name up and calls the
class's ``from_state`` — no per-class save/load code.

There is one persisted shape: a small JSON **manifest**
(:func:`save_index_manifest`) holding the registry name, the scalar
parameters, and one entry per defining array:

* a file-backed array (built through a
  :class:`~repro.index.MemmapBackend`, or reopened by :func:`open_index`
  in ``"r"``/``"r+"``) is flushed and referenced where it lies — a cube
  built out of core by :mod:`repro.ingest` is persisted without writing
  a second copy;
* heap arrays are inlined as shape/dtype/data when each holds at most
  4 KB (a spilled build's metadata such as ``prefix_dims``, a tiny
  structure) or has no cells;
* otherwise every heap array is written once with ``np.save`` beside
  the manifest, as ``<manifest stem>.<key>.npy``, so no cell array is
  left inline next to files an ``"r+"`` reopen updates in place.

Array files are referenced by path *relative to the manifest*, so the
manifest and its files move together as one bundle.  Every file the
writer creates goes to a temporary name in the same directory, is
fsynced and then renamed over its target (the manifest last): a reader
still mapping an earlier file keeps its bytes, and a failed save leaves
the previous manifest in place.  A save that fails between two renames
can still pair the old manifest with a new array file of the same
shape; atomicity across files is not provided.

:func:`open_index` maps each file with ``np.load(mmap_mode=mode)`` and
adopts the maps (no copy), so reopening a larger-than-RAM structure costs
a few pages, not ``O(N)`` resident bytes.
"""

from __future__ import annotations

import json
import os
import secrets
from collections.abc import Callable
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from repro.index.backend import (
    AdoptingBackend,
    MemoryBackend,
    _backing_memmap,
)
from repro.index.registry import get_index_info, index_info_for

#: Format identifier key, checked on open.
_FORMAT_KEY = "repro_format"
_MANIFEST_FORMAT = "index-manifest"
_MANIFEST_VERSION = 1
#: A structure whose heap arrays each hold at most this many bytes has
#: them inlined into the manifest; otherwise they are written beside it.
_INLINE_ARRAY_BYTES = 4096


def _unwrap(index: object) -> object:
    from repro.index.protocol import InstrumentedIndex

    if isinstance(index, InstrumentedIndex):
        return index.index
    return index


def _replace_atomically(
    target: Path, write: Callable[[BinaryIO], object]
) -> None:
    """Write ``target`` via a fsynced temporary file and a rename.

    ``write`` is called with the open binary temporary file.  On any
    failure the temporary file is removed and ``target`` is untouched.
    """
    temporary = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temporary, "xb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _file_backing(value: np.ndarray) -> np.memmap | None:
    """The memmap whose file holds exactly ``value``'s cells, if any.

    Copy-on-write maps (``mode="c"``) do not count: their cells may
    differ from the file, so they are written like heap arrays.
    """
    backing = _backing_memmap(value)
    if (
        backing is None
        or backing.mode == "c"
        or value.shape != backing.shape
        or value.dtype != backing.dtype
    ):
        return None
    return backing


def save_index_manifest(
    index: object, path: str | os.PathLike[str]
) -> Path:
    """Persist a registered structure as a JSON manifest.

    File-backed arrays are flushed and referenced in place; heap arrays
    are inlined when all of them are small, and written beside the
    manifest otherwise (see the module docstring).  Each written file
    replaces its target atomically; the manifest is written last.

    Args:
        index: A structure built from a registered class (possibly
            wrapped in :class:`~repro.index.InstrumentedIndex` — the
            wrapper is looked through).
        path: Where the manifest JSON is written.

    Returns:
        The manifest path.

    Raises:
        KeyError: The structure's class was never registered.
        ValueError: The structure registered with ``persistable=False``.
    """
    index = _unwrap(index)
    info = index_info_for(index)
    if not info.persistable:
        raise ValueError(
            f"index {info.name!r} is registered as not persistable"
        )
    manifest_path = Path(path).resolve()
    manifest_dir = manifest_path.parent
    state = index.state_dict()
    backings = {
        key: _file_backing(value)
        for key, value in state.items()
        if isinstance(value, np.ndarray)
    }
    # Inline heap arrays only when none of them needs a file: an
    # inlined cell array beside written ones would miss the in-place
    # updates an ``"r+"`` reopen makes to the files.
    inline = all(
        state[key].nbytes <= _INLINE_ARRAY_BYTES
        for key, backing in backings.items()
        if backing is None
    )
    meta: dict[str, object] = {}
    arrays: dict[str, dict[str, object]] = {}
    for key, value in state.items():
        if key not in backings:
            meta[key] = value.item() if isinstance(value, np.generic) else value
            continue
        backing = backings[key]
        if backing is None and (inline or value.size == 0):
            arrays[key] = {
                "inline_shape": [int(n) for n in value.shape],
                "dtype": value.dtype.str,
                "inline_data": value.reshape(-1).tolist(),
            }
            continue
        if backing is None:
            file = manifest_dir / f"{manifest_path.stem}.{key}.npy"
            _replace_atomically(
                file,
                lambda handle, value=value: np.save(
                    handle, value, allow_pickle=False
                ),
            )
        else:
            backing.flush()
            file = Path(os.fspath(backing.filename)).resolve()
        arrays[key] = {
            "file": os.path.relpath(file, manifest_dir),
            "dtype": value.dtype.str,
            "shape": [int(n) for n in value.shape],
        }
    manifest = {
        _FORMAT_KEY: f"{_MANIFEST_FORMAT}:{_MANIFEST_VERSION}",
        "index_name": info.name,
        "meta": meta,
        "arrays": arrays,
    }
    text = (json.dumps(manifest, indent=2) + "\n").encode()
    _replace_atomically(manifest_path, lambda handle: handle.write(text))
    return manifest_path


def open_index(
    path: str | os.PathLike[str], *, mode: str = "r+"
) -> object:
    """Reopen a manifest-persisted structure from its array files.

    The defining arrays are memory-mapped straight from the ``.npy``
    files the manifest names and *adopted* (no copy).

    Args:
        path: Manifest written by :func:`save_index_manifest`.
        mode: Mapping mode — ``"r+"`` (default) serves and applies
            batch updates to the files in place; ``"r"`` maps
            read-only; ``"c"`` (copy-on-write) serves and applies
            updates in memory and leaves the files untouched.  Inlined
            arrays are always in memory: their updates persist when the
            structure is saved again.

    Returns:
        The restored structure, same registry name as saved.

    Raises:
        ValueError: ``mode`` is not one of those three (numpy's
            ``"w+"`` would truncate the files), or ``path`` is not a
            manifest this version reads.
    """
    if mode not in ("r", "r+", "c"):
        raise ValueError(f"mode must be 'r', 'r+' or 'c', got {mode!r}")
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
                f"array file {file} does not match its manifest entry "
                f"(expected {entry['shape']} {entry['dtype']}, found "
                f"{list(array.shape)} {array.dtype.str})"
            )
        state[key] = array
    info = get_index_info(str(manifest["index_name"]))
    return info.cls.from_state(
        state, backend=AdoptingBackend(MemoryBackend())
    )
