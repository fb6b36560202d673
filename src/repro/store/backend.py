"""On-disk layout and atomic I/O for the run store.

Layout under a store root::

    <root>/
        store.json                  # {"format": 1} marker
        runs/<key[:2]>/<key>/
            result.json             # the stored value (written first)
            manifest.json           # metadata (written last = commit)
        locks/<key>.lock            # per-entry writer lock

An entry *exists* iff its ``manifest.json`` does: every file is written
via temp-file + ``os.replace`` and the manifest lands last, so a writer
killed at any instant leaves either a complete entry or an invisible
partial one that the next writer simply overwrites.  Readers therefore
never need locks; writers serialize per key through
:class:`~repro.store.locking.FileLock`.
"""

from __future__ import annotations

import json
import os
import shutil
import string
import tempfile
from typing import Any, Dict, Iterator, Optional

from repro.store.locking import FileLock

#: On-disk format version, recorded in ``store.json``.
STORE_FORMAT = 1

MARKER_NAME = "store.json"
MANIFEST_NAME = "manifest.json"
RESULT_NAME = "result.json"

#: Seconds a writer waits for a per-entry lock: one put holds it for a
#: single result write, so 30 s only has to ride out a slow shared disk.
_LOCK_TIMEOUT = 30.0

_HEX = set(string.hexdigits.lower())


class StoreError(RuntimeError):
    """A store invariant was violated (bad key, format mismatch, ...)."""


def fsync_directory(directory: str) -> None:
    """Make a create or rename inside ``directory`` survive power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write ``data`` so readers see the old file or the new, durably.

    The temp file lives in the destination directory, so ``os.replace``
    is a same-filesystem atomic rename; file ``fsync``ed before, directory after.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def write_json_atomic(path: str, payload: Any) -> None:
    """:func:`write_bytes_atomic` of ``payload`` as readable JSON."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    write_bytes_atomic(path, text.encode("utf-8"))


def check_format_marker(path: str, expected: int, error: type) -> None:
    """Write the ``{"format": N}`` marker of a fresh on-disk layout, or
    refuse (``error``) one left by a build with another format."""
    if os.path.isfile(path):
        with open(path) as handle:
            found = json.load(handle).get("format")
        if found != expected:
            raise error(
                f"{path} has format {found!r}; this build reads format {expected}"
            )
    else:
        # Concurrent initializers both write the same marker; the
        # atomic replace makes the race harmless.
        write_json_atomic(path, {"format": expected})


class DirectoryBackend:
    """Filesystem backend: one directory per entry, fanned out by prefix."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.runs_dir, exist_ok=True)
        os.makedirs(self.locks_dir, exist_ok=True)
        check_format_marker(
            os.path.join(self.root, MARKER_NAME), STORE_FORMAT, StoreError
        )

    # -- layout -------------------------------------------------------- #

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, "runs")

    @property
    def locks_dir(self) -> str:
        return os.path.join(self.root, "locks")

    def entry_dir(self, key: str) -> str:
        self._validate_key(key)
        return os.path.join(self.runs_dir, key[:2], key)

    def lock(self, key: str) -> FileLock:
        """The writer lock for ``key``'s entry."""
        self._validate_key(key)
        return FileLock(os.path.join(self.locks_dir, f"{key}.lock"),
                        timeout=_LOCK_TIMEOUT)

    @staticmethod
    def _validate_key(key: str) -> None:
        if len(key) != 64 or not set(key) <= _HEX:
            raise StoreError(
                f"malformed store key {key!r} (expected 64 hex chars)"
            )

    # -- entry I/O ----------------------------------------------------- #

    def exists(self, key: str) -> bool:
        return os.path.isfile(os.path.join(self.entry_dir(key),
                                           MANIFEST_NAME))

    def read_manifest(self, key: str) -> Optional[Dict[str, Any]]:
        return self._read_json(key, MANIFEST_NAME)

    def read_result(self, key: str) -> Optional[Dict[str, Any]]:
        return self._read_json(key, RESULT_NAME)

    def _read_json(self, key: str, name: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.entry_dir(key), name)
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            # Atomic writes mean a crash can't leave half a file; decode
            # failures indicate external damage worth surfacing.
            raise StoreError(f"corrupt store file {path}: {exc}") from exc

    def write_entry(self, key: str, manifest: Dict[str, Any],
                    result: Dict[str, Any], overwrite: bool = False) -> bool:
        """Persist an entry; returns False if it exists and not ``overwrite``."""
        with self.lock(key):
            if not overwrite and self.exists(key):
                return False
            entry = self.entry_dir(key)
            os.makedirs(entry, exist_ok=True)
            write_json_atomic(os.path.join(entry, RESULT_NAME), result)
            write_json_atomic(os.path.join(entry, MANIFEST_NAME), manifest)
            return True

    def remove(self, key: str) -> bool:
        """Delete an entry (and any partial files); True if it existed.

        The lock file deliberately stays behind: unlinking it would let
        a later writer flock a fresh inode at the same path while an
        earlier writer still blocks on the old one, putting two
        processes inside the key's critical section at once.  Lock
        files are empty — pruning an entry reclaims its data either way.
        """
        with self.lock(key):
            existed = self.exists(key)
            shutil.rmtree(self.entry_dir(key), ignore_errors=True)
        return existed

    def iter_keys(self) -> Iterator[str]:
        """All committed entry keys (sorted for deterministic listings)."""
        try:
            prefixes = sorted(os.listdir(self.runs_dir))
        except FileNotFoundError:
            return
        for prefix in prefixes:
            prefix_dir = os.path.join(self.runs_dir, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for key in sorted(os.listdir(prefix_dir)):
                if os.path.isfile(os.path.join(prefix_dir, key,
                                               MANIFEST_NAME)):
                    yield key
