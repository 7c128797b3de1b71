"""Atomic snapshot versions — zero-downtime swaps for the serving tier.

A live server cannot rebuild its index in place: a request that is half
way through a scan must never observe rows from two different embedding
versions (a *torn* read). The classic fix is copy-on-write publication,
and :class:`SnapshotManager` implements it for the serving stack:

* a :class:`Snapshot` is one immutable ``(store, index, cache)`` version
  wrapped in a :class:`~repro.serving.service.QueryService`; nothing
  mutates a snapshot after it is published;
* readers take a :meth:`~SnapshotManager.lease` around each batch — a
  refcounted borrow of whichever version is current at that instant;
* writers build the *next* version off to the side
  (:meth:`~SnapshotManager.publish`, or the copy-on-write
  :meth:`~SnapshotManager.upsert`) and then flip one reference under the
  manager's lock. In-flight leases keep draining against the version
  they started on; new leases see the new version; a superseded version
  is retired the moment its last lease drains.

The flip is a single reference assignment, so readers never block on an
index build, and a reader that raced the flip still holds a complete,
consistent version. Because :meth:`upsert` copies before it writes, even
a *read-only* memory-mapped store (the multi-worker deployment shape)
can absorb updates — the mmap file itself is never touched.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.errors import ServingError
from repro.serving.config import ServingSpec
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore


class Snapshot:
    """One immutable published version of the serving state.

    Holds the :class:`QueryService` (store + index + cache) for exactly
    one embedding version, plus the bookkeeping the manager needs:
    a monotonically increasing ``version`` number and a lease refcount.
    Snapshots are created by :class:`SnapshotManager` and must not be
    mutated — updates go through the manager, which publishes a new one.
    """

    __slots__ = ("version", "service", "published_at", "refs", "retired")

    def __init__(self, version: int, service: QueryService):
        self.version = int(version)
        self.service = service
        self.published_at = time.time()
        #: live lease count; guarded by the owning manager's lock.
        self.refs = 0
        #: True once a newer version superseded this one.
        self.retired = False

    @property
    def store(self) -> EmbeddingStore:
        return self.service.store

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, refs={self.refs}, "
            f"retired={self.retired}, store={self.store!r})"
        )


class SnapshotManager:
    """Publishes immutable serving versions and hands out leases.

    Parameters mirror :class:`QueryService`: ``store`` (an
    :class:`EmbeddingStore` or ``KeyedVectors``), a registered ``index``
    *name* (instances are rejected — every published version needs a
    fresh index built against its own store), ``cache_size`` and
    ``index_params``. Construction publishes version 0.

    Thread-safety: all state transitions run under one internal lock,
    and the expensive part of a publish (index build) runs *outside* it,
    so readers are never blocked by writers. Works identically from
    asyncio tasks and plain threads.
    """

    def __init__(
        self, store, *, index: str = ServingSpec.index, cache_size: int = ServingSpec.cache_size,
        **index_params,
    ):
        if not isinstance(index, str):
            raise ServingError(
                "SnapshotManager needs a registered index *name*: every "
                "published version builds a fresh index over its own store, "
                "which a pre-built index instance cannot provide"
            )
        self._index = index
        self._cache_size = int(cache_size)
        self._index_params = dict(index_params)
        self._lock = threading.Lock()
        # serialises read-modify-write updates (upsert); full publishes
        # are last-writer-wins by design and do not take it
        self._write_lock = threading.Lock()
        self._retired: dict[int, Snapshot] = {}
        self._published = 0
        self._drained = 0
        self._current = Snapshot(0, self._build_service(store))

    # ------------------------------------------------------------------
    def _build_service(self, store) -> QueryService:
        return QueryService(
            store, index=self._index, cache_size=self._cache_size, **self._index_params
        )

    @property
    def current(self) -> Snapshot:
        """The currently published snapshot (un-leased peek)."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    @contextmanager
    def lease(self):
        """Borrow the current snapshot for one batch of work.

        The snapshot's refcount pins its arrays for the duration, so a
        concurrent :meth:`publish` cannot retire it out from under the
        reader; release happens in the ``finally`` even if the batch
        raises.
        """
        with self._lock:
            snap = self._current
            snap.refs += 1
        try:
            yield snap
        finally:
            self._release(snap)

    def _release(self, snap: Snapshot) -> None:
        with self._lock:
            snap.refs -= 1
            if snap.refs == 0 and snap.retired:
                self._retired.pop(snap.version, None)
                self._drained += 1

    # ------------------------------------------------------------------
    def publish(self, store) -> Snapshot:
        """Build and atomically publish a new version serving ``store``.

        The store/index/cache of the new version are built before the
        lock is taken; the flip itself is one reference swap. The
        superseded version is retired immediately when idle, or parked
        until its in-flight leases drain. Returns the new snapshot.
        """
        service = self._build_service(store)
        with self._lock:
            old = self._current
            snap = Snapshot(old.version + 1, service)
            self._current = snap
            self._published += 1
            old.retired = True
            if old.refs > 0:
                self._retired[old.version] = old
            else:
                self._drained += 1
        return snap

    def upsert(self, keys, vectors) -> dict:
        """Copy-on-write upsert: clone the current store, write, publish.

        The current version's arrays are copied under a lease (so a
        concurrent publish cannot tear the copy), the upsert lands in
        the copy, and the result is published as a new version — the
        current snapshot is never written to, which is what lets a
        read-only memory-mapped store absorb updates. Returns the
        :meth:`EmbeddingStore.upsert` report plus the new ``version``.
        Concurrent upserts serialise (an internal write lock), so no
        read-modify-write update can be lost to a racing clone.
        """
        with self._write_lock:
            with self.lease() as snap:
                src = snap.store
                clone = EmbeddingStore(
                    np.array(src.keys, dtype=np.int64),
                    codes=np.array(src.codes),
                    norms=np.array(src.norms, dtype=np.float32),
                    codec=src.codec,
                )
            report = clone.upsert(keys, vectors)
            report["version"] = self.publish(clone).version
        return report

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Version/lease counters for observability."""
        with self._lock:
            return {
                "version": self._current.version,
                "active_leases": self._current.refs,
                "published": self._published,
                "retired_pending": len(self._retired),
                "retired_drained": self._drained,
            }

    def __repr__(self) -> str:
        return (
            f"SnapshotManager(version={self._current.version}, "
            f"index={self._index!r}, pending={len(self._retired)})"
        )


__all__ = ["Snapshot", "SnapshotManager"]
