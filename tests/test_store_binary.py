"""Datagen-free checkpoint tests: engine state and segment sidecars.

The contract: a checkpoint restores exactly the committed engine state it
captured — at any commit point, for every live-family engine — and the
segment log's binary ``.idx`` sidecars survive a checkpoint cycle.

Every test in this module is datagen-free: offers are built by hand through
``tests.conftest.make_offer`` and streamed through the real engines, so the
whole module also runs in the no-numpy CI leg (where the generated-scenario
suites skip).
"""

from __future__ import annotations

import datetime
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import FlexOfferState, Schedule
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import EventLog, OfferAdded, OfferStateChanged, OfferUpdated, OfferWithdrawn
from repro.live.replay import replay
from repro.store import SnapshotStore, capture_engine_state, restore_engine_state

from tests.conftest import make_offer

ENGINE_FACTORIES = {
    "live": lambda: LiveAggregationEngine(AggregationParameters()),
    "async": lambda: AsyncCommitEngine(
        LiveAggregationEngine(AggregationParameters()), drain_batch=5
    ),
}


def _event_stream(offer_count: int) -> list:
    """A hand-built lifecycle stream: adds, revisions, decisions, withdrawals."""
    log = EventLog()
    regions = ["Capital", "Zealand", "North Jutland"]
    for index in range(offer_count):
        offer = make_offer(
            offer_id=index + 1,
            earliest_start=30 + 3 * index,
            time_flexibility=4 + index % 5,
            region=regions[index % 3],
            prosumer_id=index % 5 + 1,
            appliance_type=["electric_vehicle", "heat_pump", "dishwasher"][index % 3],
        )
        log.append(OfferAdded(offer.creation_time, offer))
        if index % 4 == 1:
            widened = make_offer(
                offer_id=offer.id,
                earliest_start=offer.earliest_start_slot,
                time_flexibility=offer.time_flexibility_slots + 1,
                region=regions[index % 3],
                prosumer_id=index % 5 + 1,
            )
            log.append(OfferUpdated(offer.creation_time + datetime.timedelta(minutes=30), widened))
        if index % 3 == 0:
            log.append(
                OfferStateChanged(offer.acceptance_deadline, offer.id, FlexOfferState.ACCEPTED)
            )
            log.append(
                OfferStateChanged(
                    offer.assignment_deadline,
                    offer.id,
                    FlexOfferState.ASSIGNED,
                    Schedule(
                        start_slot=offer.earliest_start_slot + 1,
                        energy_per_slice=tuple(p.min_energy for p in offer.profile),
                    ),
                )
            )
        elif index % 7 == 2:
            log.append(OfferWithdrawn(offer.assignment_deadline, offer.id))
    return log.replay_order()


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
@given(cut_fraction=st.floats(min_value=0.1, max_value=1.0))
@settings(deadline=None, max_examples=8)
def test_checkpoint_round_trips_engine_state(tmp_path_factory, engine_name, cut_fraction):
    """A checkpoint restores the committed state it captured, at any commit point."""
    events = _event_stream(14)
    cut = max(1, int(len(events) * cut_fraction))
    engine = ENGINE_FACTORIES[engine_name]()
    replay(events[:cut], engine)
    state = capture_engine_state(engine)
    store = SnapshotStore(tmp_path_factory.mktemp("ckpt"))
    store.save(state, log_offset=cut)

    checkpoint = store.load()
    assert checkpoint.log_offset == cut
    assert checkpoint.state == state
    restored = ENGINE_FACTORIES[engine_name]()
    restore_engine_state(restored, checkpoint.state)
    assert Counter(canonical_form(o) for o in restored.aggregated_offers()) == Counter(
        canonical_form(o) for o in engine.aggregated_offers()
    )
    for built in (engine, restored):
        getattr(built, "close", lambda: None)()


def test_segment_sidecar_survives_checkpoint_cycle(tmp_path):
    """End-to-end: record → checkpoint → tail read uses the seek index."""
    from repro.store.segments import SegmentStore

    events = _event_stream(12)
    log = SegmentStore(tmp_path / "events", segment_size=8)
    log.extend(events)
    for segment in log.segments():
        assert segment.with_name(segment.name + ".idx").exists()
    tail = list(log.tail(len(events) // 2))
    assert len(tail) == len(events) - len(events) // 2
