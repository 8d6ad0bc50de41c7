"""``ReadPath`` — one engine's snapshot manager + result cache, wired together.

A live-family session backend owns exactly one :class:`ReadPath`.  The
engine's commit hook calls :meth:`on_commit` (on whatever thread commits —
the caller for live, the worker for async), which delta-builds the
next :class:`~repro.readpath.snapshot.AggregateSnapshot`, publishes it and
advances the cache.  Readers call :meth:`read` against any retained version,
lock-free with respect to commits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import get_registry, get_tracer
from repro.readpath.cache import ResultCache
from repro.readpath.manager import SnapshotManager
from repro.readpath.snapshot import AggregateSnapshot, SnapshotReader
from repro.session.query import execute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aggregation.parameters import AggregationParameters
    from repro.live.engine import CommitResult
    from repro.session.spec import QuerySpec, ResultSet
    from repro.timeseries.grid import TimeGrid

_TRACER = get_tracer()
_SNAPSHOT_VERSION = get_registry().gauge(
    "repro.readpath.snapshot.version", "latest published snapshot version"
)


class ReadPath:
    """Versioned snapshots + result cache for one session backend."""

    def __init__(
        self,
        grid: "TimeGrid",
        name: str,
        parameters: "AggregationParameters",
        retain: int = 8,
        cache_entries: int = 256,
    ) -> None:
        self.grid = grid
        self.name = name
        self.parameters = parameters
        self.manager = SnapshotManager(retain=retain)
        self.cache = ResultCache(max_entries=cache_entries)

    # ------------------------------------------------------------------
    # The write side (runs on the committing thread)
    # ------------------------------------------------------------------
    def seed(self, engine, version: int | None = None) -> AggregateSnapshot:
        """Publish a full baseline snapshot of the engine's committed state.

        Used at backend construction (version 0 over an empty engine) and
        after a checkpoint restore, where ``engine.commit_count`` carries the
        checkpoint's commit sequence so later commits continue it.
        """
        snapshot = AggregateSnapshot.capture(engine, self.grid, self.name, version)
        self.manager.publish(snapshot)
        self.cache.rebase(snapshot.version)
        _SNAPSHOT_VERSION.set(snapshot.version)
        return snapshot

    def on_commit(self, engine, result: "CommitResult") -> AggregateSnapshot:
        """Publish the post-commit version (delta over the previous snapshot)."""
        with _TRACER.span("readpath.snapshot.build"):
            previous = self.manager.latest()
            if previous is None:
                snapshot = AggregateSnapshot.capture(
                    engine, self.grid, self.name, result.sequence
                )
                self.manager.publish(snapshot)
                self.cache.rebase(snapshot.version)
            else:
                snapshot = AggregateSnapshot.advance(previous, engine, result)
                self.manager.publish(snapshot)
                self.cache.advance(snapshot, result)
        _SNAPSHOT_VERSION.set(snapshot.version)
        return snapshot

    # ------------------------------------------------------------------
    # The read side (any thread)
    # ------------------------------------------------------------------
    def read(self, snapshot: AggregateSnapshot, spec: "QuerySpec") -> "ResultSet":
        """Serve one spec from one snapshot version, through the cache."""
        with _TRACER.span("readpath.cache.lookup"):
            cached = self.cache.get(spec, snapshot.version)
        if cached is not None:
            return cached
        reader = SnapshotReader(snapshot, self.name)
        result = execute(reader, self.grid, spec)
        result.version = snapshot.version
        self.cache.put(spec, snapshot.version, result, reader.selected_ids)
        return result
