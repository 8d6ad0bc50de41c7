"""The pluggable aggregation backends behind the session facade.

All engines answer the same two questions — *which offers match a spec* and
*what is their aggregation* — behind :meth:`FlexSession.query
<repro.session.facade.FlexSession.query>`, so the query builder, the views
and the CLI never care which one is active:

* :class:`BatchEngine` is the seed's pipeline: a star schema loaded once from
  the scenario, read through the index-backed
  :class:`~repro.warehouse.query.FlexOfferRepository`, aggregated on demand
  with the batch :func:`~repro.aggregation.aggregate.aggregate`.
* :class:`LiveEngine` wraps the event-driven subsystem: a
  :class:`~repro.live.engine.LiveAggregationEngine` with its persistent
  grouping grid, a :class:`~repro.live.subscriptions.SubscriptionHub` for
  commit fan-out, and the versioned read path
  (:class:`~repro.readpath.ReadPath`) its commits publish into.  Every read
  goes through an :class:`~repro.readpath.snapshot.AggregateSnapshot`; the
  star schema is derived on demand from the latest one.

The interchangeability contract: one :class:`~repro.session.spec.QuerySpec`
executed against either engine over the same offer population yields
equivalent :class:`~repro.session.spec.ResultSet` envelopes — bit-identical
aggregate profiles, ids modulo :func:`~repro.live.engine.canonical_form`
(property-tested in ``tests/test_session_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.aggregation.aggregate import AggregationResult, aggregate
from repro.aggregation.parameters import AggregationParameters
from repro.errors import SessionError
from repro.flexoffer.model import FlexOffer
from repro.live.engine import CommitResult, LiveAggregationEngine
from repro.live.events import OfferAdded, OfferEvent
from repro.live.subscriptions import SubscriptionHub
from repro.warehouse.loader import load_scenario
from repro.warehouse.query import FlexOfferRepository
from repro.warehouse.schema import StarSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.scenarios import Scenario
    from repro.readpath import ReadPath
    from repro.readpath.snapshot import AggregateSnapshot
    from repro.session.spec import QuerySpec


@runtime_checkable
class AggregationBackend(Protocol):
    """What a session engine must provide.

    Spec reads do not go through this protocol: the batch engine answers
    them with its own ``select``/``aggregate``, the live engine through its
    read path's snapshots (see :meth:`FlexSession.query`).  ``schema``
    and ``repository`` are the engine's offers as a star schema.  Engines
    that cannot ingest events raise :class:`~repro.errors.SessionError` from
    :meth:`ingest`.
    """

    name: str
    parameters: AggregationParameters

    @property
    def schema(self) -> StarSchema: ...  # pragma: no cover - protocol

    @property
    def repository(self) -> FlexOfferRepository: ...  # pragma: no cover - protocol

    def offers(self) -> list[FlexOffer]: ...  # pragma: no cover - protocol

    def ingest(self, event: OfferEvent) -> CommitResult | None: ...  # pragma: no cover


class BatchEngine:
    """The read-only snapshot backend over the classic batch pipeline."""

    name = "batch"

    def __init__(self, scenario: "Scenario", parameters: AggregationParameters | None = None) -> None:
        self.scenario = scenario
        self.grid = scenario.grid
        self.parameters = parameters or AggregationParameters()
        self._schema = load_scenario(scenario)
        self._repository = FlexOfferRepository(self._schema, self.grid)

    @property
    def schema(self) -> StarSchema:
        return self._schema

    @property
    def repository(self) -> FlexOfferRepository:
        return self._repository

    def offers(self) -> list[FlexOffer]:
        """The whole stored population, in id order."""
        return sorted(self._repository.load().offers, key=lambda offer: offer.id)

    def select(self, spec: "QuerySpec") -> tuple[list[FlexOffer], int]:
        """Index-backed read of the offers matching the spec's filter."""
        result = self._repository.load(spec.to_filter())
        return result.offers, result.scanned_rows

    def aggregate(
        self, offers: list[FlexOffer], parameters: AggregationParameters
    ) -> AggregationResult:
        """The batch grouping/aggregation pipeline, unchanged."""
        return aggregate(offers, parameters)

    def ingest(self, event: OfferEvent) -> CommitResult | None:
        raise SessionError(
            "the batch engine is a read-only snapshot; switch the session to the "
            "live engine (use_engine('live')) to ingest events"
        )


class LiveEngine:
    """The event-driven backend: incremental engine + hub + versioned read path.

    The inner :class:`LiveAggregationEngine` is the ground truth for the
    surviving population.  Its commits publish immutable snapshots, and every
    read is served from one: spec reads through the read path, the star
    schema derived from the latest snapshot on first use.  Reads commit
    pending events first, so they always see the latest ingested state.
    """

    name = "live"

    def __init__(
        self,
        scenario: "Scenario",
        parameters: AggregationParameters | None = None,
        micro_batch_size: int = 0,
        preload: bool = True,
    ) -> None:
        self.scenario = scenario
        self.grid = scenario.grid
        self.parameters = parameters or AggregationParameters()
        self.micro_batch_size = micro_batch_size
        self.hub = SubscriptionHub()
        #: Events this backend consumed since construction/reset — the
        #: event-log offset checkpoints record (see :mod:`repro.store`).
        self._events_ingested = 0
        #: Cumulative chunk-granularity counters over every commit this
        #: backend observed.
        self._chunks_reaggregated = 0
        self._chunks_skipped = 0
        #: (snapshot, batch engine over its offers): the derived star schema,
        #: keyed on the snapshot *object* — versions restart after a reset.
        self._derived: "tuple[AggregateSnapshot, BatchEngine] | None" = None
        self.engine = self._build_engine()
        #: The versioned read path (snapshot ring + result cache) fed by the
        #: inner engine's commit listener; rebuilt by :meth:`reseed_readpath`.
        self.readpath: "ReadPath | None" = None
        self.reseed_readpath()
        if preload:
            self.ingest_many(
                OfferAdded(offer.creation_time, offer)
                for offer in scenario.offers_in_arrival_order()
            )
            self.commit()

    def _build_engine(self) -> LiveAggregationEngine:
        """A fresh, empty inner incremental engine publishing to :attr:`hub`."""
        return LiveAggregationEngine(
            self.parameters, micro_batch_size=self.micro_batch_size, hub=self.hub
        )

    def _derived_batch(self) -> BatchEngine:
        """The batch engine over the latest snapshot's offers, built once per snapshot."""
        self.refresh()
        snapshot = self.readpath.manager.latest()
        derived = self._derived
        if derived is None or derived[0] is not snapshot:
            batch = BatchEngine(self.scenario.replace_offers(snapshot.offers()), self.parameters)
            self._derived = derived = (snapshot, batch)
        return derived[1]

    @property
    def schema(self) -> StarSchema:
        """The star schema of the latest snapshot, loaded on first access."""
        return self._derived_batch().schema

    @property
    def repository(self) -> FlexOfferRepository:
        """The repository over :attr:`schema`."""
        return self._derived_batch().repository

    def offers(self) -> list[FlexOffer]:
        """The surviving raw offers (passthrough aggregates included), id order."""
        return self.engine.offers()

    # ------------------------------------------------------------------
    # Event write path
    # ------------------------------------------------------------------
    @property
    def events_ingested(self) -> int:
        """Events consumed since construction (or the last :meth:`reset`)."""
        return self._events_ingested

    def note_ingested(self, count: int) -> None:
        """Advance the ingested-event counter for events applied out of band.

        :func:`repro.live.replay.replay` feeds the inner engine directly for
        its commit-cadence bookkeeping; callers that route streams through it
        (the session facade, the recovery manager) report the consumed count
        here so checkpoints record the right log offset.
        """
        self._events_ingested += count

    @property
    def chunk_stats(self) -> dict[str, int]:
        """Cumulative ``chunks_reaggregated`` / ``chunks_skipped`` totals."""
        return {
            "chunks_reaggregated": self._chunks_reaggregated,
            "chunks_skipped": self._chunks_skipped,
        }

    def depth_stats(self) -> dict[str, int]:
        """Backlog figures of this backend (pending events, dirty cells/chunks)."""
        return {
            "pending_events": self.engine.pending_events,
            "dirty_cells": self.engine.dirty_cell_count,
            "dirty_chunks": self.engine.dirty_chunk_count,
        }

    def reseed_readpath(self) -> None:
        """(Re)build the versioned read path from the engine's current state.

        Attaches the commit listener on the inner engine — the one whose
        ``commit()`` every path (session writes, replay-driven commits)
        reaches — then publishes a baseline snapshot at the engine's current
        commit sequence.  Called at construction, after :meth:`reset`, and by
        the recovery manager once a checkpoint's state has been restored.
        """
        # Imported here: repro.readpath reads specs through the session layer,
        # so a module-level import would be circular.
        from repro.readpath import ReadPath

        self.readpath = ReadPath(self.grid, self.name, self.parameters)
        self.engine.commit_listener = self._on_engine_commit
        self.readpath.seed(self.engine)

    def capture_snapshot(self) -> "AggregateSnapshot":
        """A snapshot of the committed state, captured fresh outside the read path.

        Flushes pending writes first.  It shares nothing with the published
        snapshots or the result cache: ``consistency="live"`` queries read it
        as the reference the read path is checked against, and
        :meth:`RecoveryManager.verify` compares it with the batch pipeline.
        """
        from repro.readpath.snapshot import AggregateSnapshot

        self.refresh()
        return AggregateSnapshot.capture(self.engine, self.grid, self.name)

    def _on_engine_commit(self, result: CommitResult) -> None:
        """Commit listener: cumulative chunk totals + snapshot publication.

        Runs on the thread that committed, the session's one writing thread.
        """
        self._chunks_reaggregated += result.chunks_reaggregated
        self._chunks_skipped += result.chunks_skipped
        if self.readpath is not None:
            self.readpath.on_commit(self.engine, result)

    def ingest(self, event: OfferEvent) -> CommitResult | None:
        """Apply one event to the engine."""
        result = self.engine.apply(event)
        self._events_ingested += 1
        return result

    def ingest_many(self, events: Iterable[OfferEvent]) -> list[CommitResult]:
        """Apply many events; returns any micro-batch commit results."""
        results = []
        for event in events:
            result = self.ingest(event)
            if result is not None:
                results.append(result)
        return results

    def commit(self) -> CommitResult:
        """Commit pending events."""
        return self.engine.commit()

    def refresh(self) -> None:
        """Commit if anything is pending, so reads see the latest state."""
        if self.engine.pending_events or self.engine.has_pending_changes:
            self.commit()

    def reset(self) -> None:
        """Drop the live state for a from-scratch replay.

        The hub — and with it every registered subscription — survives, so
        standing queries keep firing on the commits of the new stream.
        """
        self.engine = self._build_engine()
        self._events_ingested = 0
        self._chunks_reaggregated = 0
        self._chunks_skipped = 0
        self.reseed_readpath()

