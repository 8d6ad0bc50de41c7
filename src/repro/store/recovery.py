"""Crash recovery: rebuild a session from the latest snapshot + log tail.

:class:`RecoveryManager` owns one durability directory::

    <directory>/
      manifest.json, snapshot-{a,b}/{offers,aggregates}.jsonl   # snapshot
      events/events-*.jsonl                                     # segment log

and implements the recovery contract the subsystem is named for: *restoring
from a checkpoint taken at any point of the stream and replaying the log tail
must be observably equivalent to a full replay*.  :meth:`checkpoint` writes
the snapshot consistent with the backend's event offset, :meth:`restore`
rebuilds a fresh :class:`~repro.session.FlexSession` (any live-family engine —
the backend's ``_build_engine`` hook constructs it, then the captured state is
installed) and replays the tail, and :meth:`verify` proves the restored state
equivalent to the batch pipeline over the surviving offers via
:meth:`~repro.session.FlexSession.snapshot`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import StoreError
from repro.live.events import OfferEvent
from repro.live.replay import replay
from repro.obs import get_registry, get_tracer
from repro.session.engines import LiveEngine
from repro.session.facade import FlexSession
from repro.session.query import execute
from repro.session.spec import QuerySpec
from repro.store.segments import SegmentStore
from repro.store.snapshot import Checkpoint, SnapshotStore
from repro.store.state import capture_engine_state, restore_engine_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.scenarios import Scenario

#: Subdirectory of the durability directory holding the segmented event log.
EVENTS_SUBDIR = "events"

# ----------------------------------------------------------------------
# Observability: the durability path is cold compared to commits, but its
# latencies bound recovery time — each operation is a span (timing itself
# into its repro.<stage>.seconds histogram), and the segment count rides a
# gauge (refreshed unconditionally; these operations are rare enough that
# truthfulness beats the guard).
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_COMPACT_DROPPED = _OBS.counter(
    "repro.store.compact.dropped", "dead events dropped by compaction"
)
_SEGMENTS_GAUGE = _OBS.gauge(
    "repro.store.segments", "segments currently in the event log"
)


@dataclass
class RestoreReport:
    """What one :meth:`RecoveryManager.restore` did."""

    engine: str
    log_offset: int
    tail_events: int
    offers: int
    aggregates: int
    seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"restored {self.offers} offers + {self.aggregates} aggregates "
            f"({self.engine} engine) from snapshot@{self.log_offset}, "
            f"replayed {self.tail_events} tail events in {self.seconds * 1000:.1f} ms"
        )


def _live_backend(session: FlexSession) -> LiveEngine:
    backend = session.engine
    if not isinstance(backend, LiveEngine):
        raise StoreError(
            "durability needs a live-family engine; the batch snapshot has no "
            "event stream to checkpoint (use_engine('live') first)"
        )
    return backend


class RecoveryManager:
    """Checkpoint, compaction and restore over one durability directory."""

    def __init__(self, directory: str | Path, segment_size: int = 512) -> None:
        self.directory = Path(directory)
        self.snapshots = SnapshotStore(self.directory)
        self.log = SegmentStore(self.directory / EVENTS_SUBDIR, segment_size=segment_size)
        self.last_restore: RestoreReport | None = None

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record(self, events: Iterable[OfferEvent]) -> int:
        """Persist events into the segment log, in engine-consumption order."""
        return self.log.extend(events)

    def checkpoint(self, session: FlexSession, offset: int | None = None) -> Checkpoint:
        """Snapshot the session's active live-family engine.

        ``offset`` is the event-log position the snapshot is consistent with;
        it defaults to the backend's own ingested-event counter, which is
        correct whenever the backend consumed exactly the recorded log.
        """
        with _TRACER.span("store.checkpoint"):
            backend = _live_backend(session)
            backend.refresh()
            state = capture_engine_state(backend.engine)
            if offset is None:
                offset = backend.events_ingested
            self.snapshots.save(
                state,
                log_offset=offset,
                scenario_config=session.scenario.config,
            )
            checkpoint = self.snapshots.load()
        _SEGMENTS_GAUGE.set(len(self.log.segments()))
        return checkpoint

    def compact(self) -> int:
        """Drop dead events from closed segments; returns the dropped count.

        Events before the latest checkpoint's offset whose offers neither
        survive the log nor reappear later are rewritten away, so both a cold
        replay and a snapshot+tail restore keep working (see
        :meth:`~repro.store.segments.SegmentStore.compact`).
        """
        with _TRACER.span("store.compact"):
            before = None
            if self.snapshots.exists():
                before = self.snapshots.load().log_offset
            dropped = self.log.compact(self.log.surviving_subjects(), before=before)
        _COMPACT_DROPPED.inc(dropped)
        _SEGMENTS_GAUGE.set(len(self.log.segments()))
        return dropped

    # ------------------------------------------------------------------
    # Restore side
    # ------------------------------------------------------------------
    def restore(
        self,
        engine: str | None = None,
        scenario: "Scenario | None" = None,
        **session_options,
    ) -> FlexSession:
        """Rebuild a session from the snapshot, then replay the log tail.

        ``engine`` picks the live-family backend to rebuild (default: the
        family that wrote the snapshot); the session's ``_build_engine`` hook
        constructs it empty, the captured state is installed, and every stored
        event past the snapshot's offset is replayed through the normal
        ingest path.
        ``scenario`` defaults to regenerating the checkpoint's recorded
        scenario configuration.
        """
        started = time.perf_counter()
        with _TRACER.span("store.restore"):
            checkpoint = self.snapshots.load()
            engine = engine or checkpoint.engine
            if scenario is None:
                config = checkpoint.scenario_config()
                if config is None:
                    raise StoreError(
                        "checkpoint records no scenario configuration; pass scenario="
                    )
                from repro.datagen.scenarios import generate_scenario

                scenario = generate_scenario(config)
            session = FlexSession(
                scenario,
                engine=engine,
                parameters=checkpoint.state.parameters,
                live_preload=False,
                **session_options,
            )
            backend = _live_backend(session)
            restore_engine_state(backend.engine, checkpoint.state)
            backend._events_ingested = checkpoint.log_offset
            # The read path seeded at construction saw an *empty* engine;
            # re-seed so the baseline snapshot is the checkpointed state (at
            # its restored commit sequence) and tail commits advance from it.
            backend.reseed_readpath()
            # The restore rebuilt the committed state under the hub's feet;
            # re-attach any standing subscriptions and materialized views so
            # they are rebased on the checkpointed state *before* the tail
            # replay delivers its commits through them.
            session._attach_standing(backend)
            tail_events = 0
            if self.log.segments():
                report = replay(self.log.tail(checkpoint.log_offset), backend)
                tail_events = report.events
                backend.note_ingested(tail_events)
        elapsed = time.perf_counter() - started
        _SEGMENTS_GAUGE.set(len(self.log.segments()))
        self.last_restore = RestoreReport(
            engine=engine,
            log_offset=checkpoint.log_offset,
            tail_events=tail_events,
            offers=len(backend.offers()),
            aggregates=len(backend.engine.aggregated_offers()),
            seconds=elapsed,
        )
        return session

    # ------------------------------------------------------------------
    # The recovery contract
    # ------------------------------------------------------------------
    def verify(self, session: FlexSession) -> None:
        """Prove the session's live state equivalent to the batch pipeline.

        Rebuilds the batch engine from the live engine's surviving offers
        (:meth:`FlexSession.snapshot`) and compares both a raw read and a
        full aggregation, read from a snapshot captured fresh from the
        engine — ids must agree exactly on the read, profiles bit-for-bit
        (ids modulo canonical form) on the aggregation.  Raises
        :class:`StoreError` on any divergence.
        """
        backend = _live_backend(session)
        live = backend.capture_snapshot()
        batch = session.snapshot()
        raw_spec = QuerySpec()
        live_raw = execute(live, session.grid, raw_spec)
        batch_raw = execute(batch, session.grid, raw_spec)
        if sorted(o.id for o in live_raw) != sorted(o.id for o in batch_raw):
            raise StoreError(
                f"recovered population diverged: {len(live_raw)} live vs "
                f"{len(batch_raw)} batch offers"
            )
        agg_spec = QuerySpec.build(parameters=backend.parameters)
        live_agg = execute(live, session.grid, agg_spec)
        batch_agg = execute(batch, session.grid, agg_spec)
        if not batch_agg.matches(live_agg):
            raise StoreError(
                "recovered aggregation state diverged from the batch pipeline "
                f"({len(live_agg)} live vs {len(batch_agg)} batch outputs)"
            )
