""":class:`RunStore` — the persistent, content-addressed result store.

Values are addressed by the keys of :mod:`repro.store.keys` and can be
an :class:`~repro.evaluation.curves.ErrorCurve` (one task's trajectory),
a ``float`` (a ``central_batch`` reference scalar), or a whole
:class:`~repro.experiments.results.FigureResult`.  Storage is
first-writer-wins: concurrent workers computing the same key race
safely, and a loser simply keeps the winner's (bit-identical) entry.

Every entry carries a manifest — key, creation time, value type, a small
summary (final/tail error), and caller-supplied context such as the
experiment name and arm label — which is what ``query``/``prune`` and the
``repro-store`` CLI operate on without touching result payloads.
"""

from __future__ import annotations

import numbers
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.evaluation.curves import ErrorCurve
from repro.experiments.results import FigureResult
from repro.store.backend import DirectoryBackend, StoreError

#: Environment variable naming the default store directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"


# --------------------------------------------------------------------- #
# Value (de)serialization                                               #
# --------------------------------------------------------------------- #


def encode_result(value: Any) -> Dict[str, Any]:
    """The JSON form written to an entry's ``result.json``."""
    if isinstance(value, ErrorCurve):
        return {"type": "error_curve", "curve": value.to_dict()}
    if isinstance(value, FigureResult):
        return {"type": "figure_result", "figure": value.to_dict()}
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return {"type": "scalar", "value": float(value)}
    raise StoreError(
        f"cannot store a {type(value).__name__}; expected ErrorCurve, "
        "FigureResult, or float"
    )


def decode_result(payload: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result` (bit-exact for floats)."""
    kind = payload.get("type")
    if kind == "error_curve":
        return ErrorCurve.from_dict(payload["curve"])
    if kind == "figure_result":
        return FigureResult.from_dict(payload["figure"])
    if kind == "scalar":
        return float(payload["value"])
    raise StoreError(f"unknown stored result type {kind!r}")


def _summarize(value: Any) -> Dict[str, Any]:
    """The manifest's at-a-glance numbers (CLI listings, diffs)."""
    if isinstance(value, ErrorCurve):
        return {"final_error": value.final_error,
                "tail_error": value.tail_error(),
                "num_snapshots": len(value)}
    if isinstance(value, FigureResult):
        return {"tail_errors": value.tail_errors(),
                "final_errors": {name: curve.final_error
                                 for name, curve in value.curves.items()},
                "reference_lines": dict(value.reference_lines)}
    return {"value": float(value)}


# --------------------------------------------------------------------- #
# The store                                                             #
# --------------------------------------------------------------------- #


class RunStore:
    """Get/put/query/prune over a shared on-disk result store.

    Parameters
    ----------
    root:
        Store directory (created on demand).

    Examples
    --------
    >>> import tempfile
    >>> from repro.evaluation.curves import ErrorCurve
    >>> import numpy as np
    >>> store = RunStore(tempfile.mkdtemp())
    >>> key = "ab" * 32
    >>> store.put(key, ErrorCurve(np.array([1]), np.array([0.5])))
    True
    >>> store.get(key).final_error
    0.5
    """

    def __init__(self, root: str):
        self._backend = DirectoryBackend(root)

    @classmethod
    def from_env(cls, default: Optional[str] = None) -> Optional["RunStore"]:
        """A store at ``$REPRO_STORE_DIR`` (or ``default``); None if unset."""
        root = os.environ.get(STORE_DIR_ENV) or default
        return cls(root) if root else None

    @property
    def root(self) -> str:
        return self._backend.root

    @property
    def backend(self) -> DirectoryBackend:
        return self._backend

    # -- core API ------------------------------------------------------ #

    def get(self, key: str) -> Any:
        """The decoded value for ``key``, or None when absent."""
        if not self._backend.exists(key):
            return None
        payload = self._backend.read_result(key)
        if payload is None:  # entry pruned between exists() and read
            return None
        return decode_result(payload)

    def put(self, key: str, value: Any,
            extra: Optional[Dict[str, Any]] = None,
            overwrite: bool = False) -> bool:
        """Persist ``value`` under ``key``; returns True if written.

        ``extra`` merges caller context (experiment, label, trial, ...)
        into the manifest; it cannot shadow the core manifest fields.
        With ``overwrite=False`` an existing entry wins the race and the
        call returns False.
        """
        encoded = encode_result(value)
        manifest = dict(extra or {})
        manifest.update(
            key=key,
            type=encoded["type"],
            created_at=time.time(),
            summary=_summarize(value),
        )
        return self._backend.write_entry(key, manifest, encoded,
                                         overwrite=overwrite)

    def __contains__(self, key: str) -> bool:
        return self._backend.exists(key)

    def __len__(self) -> int:
        return sum(1 for _ in self._backend.iter_keys())

    def keys(self) -> Iterator[str]:
        return self._backend.iter_keys()

    def manifest(self, key: str) -> Optional[Dict[str, Any]]:
        return self._backend.read_manifest(key)

    # -- query / prune ------------------------------------------------- #

    def query(
        self,
        result_type: Optional[str] = None,
        experiment: Optional[str] = None,
        label: Optional[str] = None,
        predicate: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        """Manifests matching every given filter, oldest first.

        ``result_type`` is ``"error_curve"``/``"scalar"``/
        ``"figure_result"``; ``experiment``/``label`` match the context
        recorded at put time; ``predicate`` sees the full manifest.
        """
        matches = []
        for key in self._backend.iter_keys():
            manifest = self._backend.read_manifest(key)
            if manifest is None:
                continue
            if result_type is not None and manifest.get("type") != result_type:
                continue
            if experiment is not None and \
                    manifest.get("experiment") != experiment:
                continue
            if label is not None and manifest.get("label") != label:
                continue
            if predicate is not None and not predicate(manifest):
                continue
            matches.append(manifest)
        matches.sort(key=lambda m: (m.get("created_at", 0.0), m["key"]))
        return matches

    def prune(
        self,
        older_than: Optional[float] = None,
        result_type: Optional[str] = None,
        experiment: Optional[str] = None,
        everything: bool = False,
    ) -> int:
        """Delete matching entries; returns how many were removed.

        ``older_than`` is an age in seconds.  Calling with no filters is
        refused unless ``everything=True`` — an empty filter list is far
        more often a bug than a request to empty the store.
        """
        if (older_than is None and result_type is None
                and experiment is None and not everything):
            raise StoreError(
                "refusing to prune the whole store; pass a filter or "
                "everything=True"
            )
        cutoff = None if older_than is None else time.time() - older_than
        removed = 0
        for manifest in self.query(result_type=result_type,
                                   experiment=experiment):
            if cutoff is not None and \
                    manifest.get("created_at", 0.0) > cutoff:
                continue
            if self._backend.remove(manifest["key"]):
                removed += 1
        return removed

    def resolve(self, prefix: str) -> str:
        """Expand a unique key prefix (as git does for commit hashes)."""
        prefix = prefix.lower()
        if not prefix:
            raise StoreError("empty key prefix")
        matches = [k for k in self._backend.iter_keys()
                   if k.startswith(prefix)]
        if not matches:
            raise StoreError(f"no store entry matches {prefix!r}")
        if len(matches) > 1:
            raise StoreError(
                f"ambiguous key prefix {prefix!r} "
                f"({len(matches)} matches)"
            )
        return matches[0]
