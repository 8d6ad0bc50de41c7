"""The bounded, refcount-pinned ring of published snapshot versions.

``latest()`` is the hot read: a single attribute load (atomic under the GIL),
so reader threads never contend with publication.  Everything else —
publication, historical lookup, pinning, eviction — goes through one small
lock; all of it is O(ring size), and the ring is bounded.

Eviction keeps at most ``retain`` versions, oldest first, but never evicts
the latest version or one a reader has pinned.  A pin can therefore hold the
ring above ``retain`` temporarily; the excess is reclaimed when the pin is
released.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReadPathError
from repro.obs import get_registry, get_tracer
from repro.readpath.snapshot import AggregateSnapshot

_OBS = get_registry()
_TRACER = get_tracer()
_VERSIONS_RETAINED = _OBS.gauge(
    "repro.readpath.snapshot.versions", "snapshot versions currently retained"
)
_SNAPSHOT_PINS = _OBS.counter(
    "repro.readpath.snapshot.pins", "reader pins taken on retained snapshot versions"
)
_SNAPSHOT_EVICTIONS = _OBS.counter(
    "repro.readpath.snapshot.evictions", "snapshot versions evicted from the ring"
)


class SnapshotManager:
    """Publishes, retains and pins immutable snapshot versions."""

    def __init__(self, retain: int = 8) -> None:
        if retain < 1:
            raise ReadPathError("retain must be >= 1")
        self.retain = retain
        self._lock = threading.Lock()
        #: version -> snapshot, in publication (and therefore version) order.
        self._snapshots: "OrderedDict[int, AggregateSnapshot]" = OrderedDict()
        #: version -> reader refcount; pinned versions survive eviction.
        self._pins: dict[int, int] = {}
        self._latest: AggregateSnapshot | None = None

    # ------------------------------------------------------------------
    # The lock-free hot read
    # ------------------------------------------------------------------
    def latest(self) -> AggregateSnapshot | None:
        """The newest published snapshot — one attribute load, no lock."""
        return self._latest

    @property
    def latest_version(self) -> int | None:
        snapshot = self._latest
        return None if snapshot is None else snapshot.version

    # ------------------------------------------------------------------
    # Publication and retention
    # ------------------------------------------------------------------
    def publish(self, snapshot: AggregateSnapshot) -> None:
        """Install a new version; it becomes ``latest()`` atomically."""
        with self._lock:
            latest = self._latest
            if latest is not None and snapshot.version <= latest.version:
                raise ReadPathError(
                    f"snapshot versions must increase: got {snapshot.version} "
                    f"after {latest.version}"
                )
            self._snapshots[snapshot.version] = snapshot
            self._latest = snapshot
            self._evict_locked()
            _VERSIONS_RETAINED.set(len(self._snapshots))

    def _evict_locked(self) -> None:
        while len(self._snapshots) > self.retain:
            for version in self._snapshots:
                if version in self._pins:
                    continue
                latest = self._latest
                if latest is not None and version == latest.version:
                    continue
                del self._snapshots[version]
                _SNAPSHOT_EVICTIONS.inc()
                break
            else:
                # Everything old is pinned; the ring stays oversized until
                # the pins are released.
                break

    # ------------------------------------------------------------------
    # Historical access
    # ------------------------------------------------------------------
    def get(self, version: int) -> AggregateSnapshot:
        """The snapshot at ``version``; raises when unknown or evicted."""
        with self._lock:
            snapshot = self._snapshots.get(version)
        if snapshot is None:
            raise ReadPathError(
                f"snapshot version {version} is not retained "
                f"(have {self.versions()})"
            )
        return snapshot

    def versions(self) -> tuple[int, ...]:
        """Every retained version, oldest first."""
        with self._lock:
            return tuple(self._snapshots)

    @contextmanager
    def pin(self, version: int) -> Iterator[AggregateSnapshot]:
        """Hold ``version`` in the ring for the duration of the block."""
        with self._lock:
            snapshot = self._snapshots.get(version)
            if snapshot is None:
                raise ReadPathError(f"cannot pin unknown snapshot version {version}")
            self._pins[version] = self._pins.get(version, 0) + 1
        _SNAPSHOT_PINS.inc()
        try:
            # The span covers the reader's whole pinned section (how long
            # the pin is held).  Safe despite this being a generator:
            # ``contextmanager`` enters and exits it synchronously on the
            # with-block's own thread.
            with _TRACER.span("readpath.pin"):
                yield snapshot
        finally:
            with self._lock:
                remaining = self._pins.get(version, 1) - 1
                if remaining <= 0:
                    self._pins.pop(version, None)
                else:
                    self._pins[version] = remaining
                self._evict_locked()
                _VERSIONS_RETAINED.set(len(self._snapshots))

    def pin_count(self, version: int) -> int:
        """Active reader pins on one version (0 when unpinned)."""
        with self._lock:
            return self._pins.get(version, 0)
