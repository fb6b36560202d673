"""Persistent run store: content-addressed, spec-keyed experiment results.

The store gives sweeps a memory.  Every task an
:class:`~repro.experiments.session.ExperimentSession` executes — one
crowd trial, one baseline curve, one reference scalar — is keyed by a
SHA-256 over everything that determines it (:mod:`repro.store.keys`) and
written to a shared on-disk layout with atomic renames and per-key file
locks (:mod:`repro.store.backend`, :mod:`repro.store.locking`), so:

* a re-run of an already-computed figure is served from disk,
  bit-identical, executing zero tasks;
* an interrupted sweep resumes from its completed tasks;
* parallel workers — including separate processes — share one store and
  race safely (first writer wins).

:class:`RunStore` is the public get/put/query/prune API, and the
``repro-store`` console script (:mod:`repro.store.cli`) lists, shows,
diffs, exports, and prunes entries.  Point the session at a store
explicitly or via the ``REPRO_STORE_DIR`` environment variable.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "DirectoryBackend": "backend",
    "FileLock": "locking",
    "KEY_FORMAT": "keys",
    "LockTimeout": "locking",
    "RunStore": "store",
    "STORE_DIR_ENV": "store",
    "STORE_FORMAT": "backend",
    "StoreError": "backend",
    "canonical_json": "keys",
    "canonicalize": "keys",
    "decode_result": "store",
    "digest": "keys",
    "encode_result": "store",
    "figure_key": "keys",
    "task_key": "keys",
})
