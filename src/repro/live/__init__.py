"""Event-driven incremental flex-offer processing (the ``repro.live`` subsystem).

Layers, bottom up:

* :mod:`repro.live.events` — typed offer lifecycle events and the ``EventLog``.
* :mod:`repro.live.engine` — ``LiveAggregationEngine``: persistent grouping
  grid, dirty-cell tracking, incremental ``commit()``.
* :mod:`repro.live.warehouse` — ``LiveWarehouse``: the same events applied to
  the star schema via upsert/delete, keeping repository queries fresh.
* :mod:`repro.live.subscriptions` — ``SubscriptionHub``: commit fan-out to
  views and monitoring alert rules.
* :mod:`repro.live.asynccommit` — ``AsyncCommitEngine``: a bounded-queue
  background worker that drains events and commits off the caller's thread,
  with ``flush()``/``close()`` barriers.
* :mod:`repro.live.replay` — scenarios replayed as timestamped event streams,
  with commit-latency reporting.
"""

from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import (
    ChunkStats,
    CommitResult,
    LiveAggregationEngine,
    assert_batch_equivalent,
    canonical_form,
    cell_key_string,
)
from repro.live.events import (
    EventLog,
    OfferAdded,
    OfferEvent,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
    event_from_dict,
    event_to_dict,
    read_jsonl,
    write_jsonl,
)
from repro.live.replay import ReplayReport, replay, scenario_event_stream
from repro.live.subscriptions import (
    ChangeCollector,
    CommitNotification,
    LiveAlertFeed,
    Subscription,
    SubscriptionHub,
)
from repro.live.warehouse import LiveWarehouse

__all__ = [
    "AsyncCommitEngine",
    "ChunkStats",
    "CommitResult",
    "LiveAggregationEngine",
    "assert_batch_equivalent",
    "canonical_form",
    "cell_key_string",
    "EventLog",
    "OfferAdded",
    "OfferEvent",
    "OfferStateChanged",
    "OfferUpdated",
    "OfferWithdrawn",
    "apply_transition",
    "event_from_dict",
    "event_to_dict",
    "read_jsonl",
    "write_jsonl",
    "ReplayReport",
    "replay",
    "scenario_event_stream",
    "ChangeCollector",
    "CommitNotification",
    "LiveAlertFeed",
    "Subscription",
    "SubscriptionHub",
    "LiveWarehouse",
]
