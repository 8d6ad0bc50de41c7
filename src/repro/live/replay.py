"""Replaying synthetic scenarios as timestamped event streams.

Any :class:`~repro.datagen.scenarios.Scenario` can be viewed as the *final
state* of a stream of lifecycle events: every offer was added when it was
created, then accepted/assigned/rejected by the enterprise before its
deadlines.  :func:`scenario_event_stream` reconstructs that stream (optionally
salting in prosumer revisions and withdrawals), and :func:`replay` drives a
live engine — and optionally a standalone
:class:`~repro.live.warehouse.LiveWarehouse` — through it while measuring
commit latencies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

try:  # Optional dependency: the stream salter falls back to stdlib random.
    import numpy as np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    np = None

from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer, FlexOfferState, ProfileSlice
from repro.live.engine import CommitResult, LiveAggregationEngine
from repro.live.events import (
    EventLog,
    OfferAdded,
    OfferEvent,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
)
from repro.live.warehouse import LiveWarehouse

if TYPE_CHECKING:  # pragma: no cover - typing only (datagen is numpy-native;
    # replay itself only needs the scenario's offers and grid)
    from repro.datagen.scenarios import Scenario


def _pristine(offer: FlexOffer) -> FlexOffer:
    """The offer as the prosumer first submitted it: offered, unscheduled."""
    return replace(offer, state=FlexOfferState.OFFERED, schedule=None)


def _revised(offer: FlexOffer) -> FlexOffer:
    """A plausible prosumer revision: wider energy band, one more slot of slack.

    Widening (rather than shifting) keeps any schedule the enterprise later
    assigns feasible, while still dirtying — and possibly migrating — the
    offer's grouping-grid cell (the time flexibility grows by one slot).
    """
    widened = tuple(
        ProfileSlice(
            min_energy=piece.min_energy * 0.9,
            max_energy=piece.max_energy * 1.1,
            duration_slots=piece.duration_slots,
        )
        for piece in offer.profile
    )
    return replace(
        offer,
        profile=widened,
        latest_start_slot=offer.latest_start_slot + 1,
        price_per_kwh=offer.price_per_kwh * 1.05,
    )


def scenario_event_stream(
    scenario: Scenario,
    update_fraction: float = 0.0,
    withdraw_fraction: float = 0.0,
    seed: int = 0,
) -> EventLog:
    """Reconstruct a scenario as a timestamped offer-event stream.

    Every offer yields an ``OfferAdded`` at its creation time and, when the
    scenario left it accepted/assigned/rejected, an ``OfferStateChanged`` at
    the corresponding deadline.  ``update_fraction`` of the offers receive a
    prosumer revision between creation and acceptance; ``withdraw_fraction``
    are withdrawn after their assignment deadline.  Replaying the stream
    therefore ends in exactly the scenario's offer population (minus
    withdrawals, plus revisions).
    """
    # numpy's generator when available (keeps streams identical to the ones
    # committed baselines were built from), stdlib random otherwise — the
    # two draw different update/withdraw choices, but every consumer of this
    # stream asserts replay invariants, not specific salted offers.
    rng = np.random.default_rng(seed) if np is not None else random.Random(seed)
    log = EventLog()
    for offer in scenario.offers_in_arrival_order():
        pristine = _pristine(offer)
        log.append(OfferAdded(offer.creation_time, pristine))
        current = pristine
        if rng.random() < update_fraction:
            midpoint = offer.creation_time + (offer.acceptance_deadline - offer.creation_time) / 2
            current = _revised(pristine)
            log.append(OfferUpdated(midpoint, current))
        if offer.state is FlexOfferState.ACCEPTED:
            log.append(OfferStateChanged(offer.acceptance_deadline, offer.id, FlexOfferState.ACCEPTED))
        elif offer.state is FlexOfferState.REJECTED:
            log.append(OfferStateChanged(offer.acceptance_deadline, offer.id, FlexOfferState.REJECTED))
        elif offer.state in (FlexOfferState.ASSIGNED, FlexOfferState.EXECUTED):
            log.append(
                OfferStateChanged(
                    offer.assignment_deadline, offer.id, offer.state, offer.schedule
                )
            )
        if rng.random() < withdraw_fraction:
            log.append(
                OfferWithdrawn(offer.assignment_deadline + scenario.grid.resolution, offer.id)
            )
    return log


@dataclass
class ReplayReport:
    """Latency and throughput numbers of one replay run."""

    events: int
    commits: list[CommitResult] = field(default_factory=list)
    total_seconds: float = 0.0
    final_offers: int = 0
    final_outputs: int = 0
    #: Events skipped at the head of the stream (resume-from-checkpoint).
    resumed_from: int = 0

    @property
    def commit_count(self) -> int:
        return len(self.commits)

    @property
    def commit_latencies_ms(self) -> list[float]:
        return [commit.elapsed_seconds * 1000 for commit in self.commits]

    @property
    def mean_commit_ms(self) -> float:
        latencies = self.commit_latencies_ms
        return sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def max_commit_ms(self) -> float:
        return max(self.commit_latencies_ms, default=0.0)

    @property
    def p95_commit_ms(self) -> float:
        latencies = sorted(self.commit_latencies_ms)
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(round(0.95 * (len(latencies) - 1))))]

    @property
    def events_per_second(self) -> float:
        return self.events / self.total_seconds if self.total_seconds > 0 else 0.0

    def describe(self) -> str:
        """A multi-line summary (what the ``live`` CLI sub-command prints)."""
        lines = [
            f"events replayed       : {self.events}",
            f"commits               : {self.commit_count}",
            f"events per second     : {self.events_per_second:12.0f}",
            f"mean commit latency   : {self.mean_commit_ms:9.3f} ms",
            f"p95 commit latency    : {self.p95_commit_ms:9.3f} ms",
            f"max commit latency    : {self.max_commit_ms:9.3f} ms",
            f"final live offers     : {self.final_offers}",
            f"final aggregated view : {self.final_outputs}",
        ]
        return "\n".join(lines)


def replay(
    events: EventLog | Iterable[OfferEvent],
    engine,
    warehouse: LiveWarehouse | None = None,
    resume_from: int = 0,
) -> ReplayReport:
    """Drive ``engine`` (and optionally ``warehouse``) through an event stream.

    ``engine`` may be a bare incremental engine (``LiveAggregationEngine``,
    ``AsyncCommitEngine``), a session-layer ``LiveEngine``-family backend, or
    a whole ``FlexSession``.  Events are consumed in replay order (timestamp,
    then arrival).  A ``warehouse`` passed in receives every event plus every
    commit's aggregate changes directly — do not *also* subscribe it to the
    engine's hub, or commits would be mirrored twice.  With an async engine
    the warehouse is mirrored on the calling thread (events during the
    loop, aggregate changes after the flush barrier), and the commits are
    gathered from the worker's log once the barrier returns.

    ``resume_from`` skips that many events at the head of the (ordered)
    stream — the resume-from-checkpoint entry point: an engine restored from
    a snapshot taken after ``n`` consumed events continues with
    ``replay(stream, engine, resume_from=n)`` instead of re-consuming the
    whole stream from sequence 0.
    """
    if hasattr(engine, "use_engine"):
        # A FlexSession: replay through its active live-family engine (or the
        # plain live engine when a non-committing backend is active).
        active = engine.engine
        backend = active if hasattr(active, "commit") else engine.use_engine("live")
    else:
        backend = engine
    if not isinstance(backend, LiveAggregationEngine) and hasattr(backend, "engine"):
        # A session backend (duck-typed so this module never imports the
        # session layer at import time).
        backend = backend.engine
    engine = backend
    ordered = events.replay_order() if isinstance(events, EventLog) else list(events)
    if resume_from:
        if resume_from < 0:
            raise LiveEngineError("resume_from must be >= 0")
        ordered = ordered[resume_from:]
    report = ReplayReport(events=len(ordered), resumed_from=resume_from)
    started = time.perf_counter()
    if hasattr(engine, "flush"):
        # Async-commit engine: the worker applies and commits; the flush
        # barrier makes the final state (and the commit log) complete.  The
        # warehouse is mirrored on this thread: events during the loop,
        # aggregate changes from the drained commits after the barrier —
        # same end state.
        for event in ordered:
            engine.apply(event)
            if warehouse is not None:
                warehouse.apply(event)
        engine.flush()
        report.commits.extend(engine.drain_commits())
        if warehouse is not None:
            for commit in report.commits:
                warehouse.apply_commit(commit)
    else:
        for event in ordered:
            # The engine is the stricter validator: apply there first, so an
            # event it rejects never reaches (and diverges) the warehouse mirror.
            result = engine.apply(event)
            if warehouse is not None:
                warehouse.apply(event)
            if result is not None:
                report.commits.append(result)
                if warehouse is not None:
                    warehouse.apply_commit(result)
        if engine.pending_events or engine.has_pending_changes:
            result = engine.commit()
            report.commits.append(result)
            if warehouse is not None:
                warehouse.apply_commit(result)
    report.total_seconds = time.perf_counter() - started
    report.final_offers = len(engine)
    report.final_outputs = len(engine.aggregated_offers())
    return report
