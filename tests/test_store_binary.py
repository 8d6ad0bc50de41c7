"""Datagen-free store tests: engine state and the segment log's tail.

The contract: a checkpoint restores exactly the committed engine state it
captured — at any commit point, for every live-family engine — and the
segment log's ``tail(n)`` returns exactly the stored events with sequence
>= n, however the log was compacted, repaired or corrupted.

Every test in this module is datagen-free: offers are built by hand through
``tests.conftest.make_offer`` and streamed through the real engines, so the
whole module also runs in the no-numpy CI leg (where the generated-scenario
suites skip).
"""

from __future__ import annotations

import datetime
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.errors import StoreError
from repro.flexoffer.model import FlexOfferState, Schedule
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import EventLog, OfferAdded, OfferStateChanged, OfferUpdated, OfferWithdrawn
from repro.live.replay import replay
from repro.store import SegmentStore, SnapshotStore, capture_engine_state, restore_engine_state

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


def _stored_sequences(store: SegmentStore) -> list[int]:
    """Every record's sequence, read straight from the segment files."""
    return [
        json.loads(line)["seq"]
        for path in store.segments()
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def _assert_every_tail(store: SegmentStore, events: list) -> None:
    sequences = _stored_sequences(store)
    for cut in range(store.next_sequence + 2):
        assert list(store.tail(cut)) == [events[s] for s in sequences if s >= cut], cut


def test_tail_returns_exactly_the_events_at_or_past_every_cut(tmp_path):
    """Fresh, reopened, torn-tail-repaired and compacted logs, beside stale
    ``.idx`` files, with an event whose text mimics a record's ``"seq": 1}``."""
    events = _event_stream(12)
    middle = len(events) // 2
    mimic = replace(events[middle].offer, id=99, appliance_type='heater "seq": 1}')
    events.insert(middle, OfferAdded(events[middle].timestamp, mimic))
    directory = tmp_path / "events"
    store = SegmentStore(directory, segment_size=4)
    store.extend(events)
    assert len(store.segments()) > 3
    _assert_every_tail(store, events)

    # A directory written before the sidecar was dropped keeps an .idx beside
    # each segment; it is never read, so garbage there changes nothing.
    stale = {}
    for segment in store.segments():
        stale[segment] = segment.with_name(segment.name + ".idx")
        stale[segment].write_bytes(b"\x07" * 16 * 3)
    _assert_every_tail(SegmentStore(directory, segment_size=4), events)

    # A crash mid-append tears the active segment's last line; reopening
    # drops it, and the torn record's sequence is reissued.
    active = store.segments()[-1]
    active.write_bytes(active.read_bytes() + b'{"event": {"type": "ad')
    store = SegmentStore(directory, segment_size=4)
    assert store.next_sequence == len(events)
    _assert_every_tail(store, events)

    # Compaction leaves sparse sequences in the closed segments.
    assert store.compact(store.surviving_subjects()) > 0
    assert _stored_sequences(store) != list(range(len(events)))
    _assert_every_tail(store, events)
    _assert_every_tail(SegmentStore(directory, segment_size=4), events)
    for index in stale.values():
        assert index.read_bytes() == b"\x07" * 16 * 3

    # A malformed line raises once the cut reaches it; a cut past it skips it
    # by its trailing sequence, undecoded.
    segment = next(path for path in store.segments() if len(path.read_bytes().splitlines()) > 1)
    sequences = _stored_sequences(store)
    original = segment.read_bytes()
    lines = original.decode("utf-8").splitlines()
    sequence = json.loads(lines[0])["seq"]
    lines[0] = '{"event": {"type": "ad, "seq": %d}' % sequence
    segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for cut in (0, sequence):
        with pytest.raises(StoreError):
            list(store.tail(cut))
    with pytest.raises(StoreError):
        list(store.records())
    assert list(store.tail(sequence + 1)) == [events[s] for s in sequences if s > sequence]
    # Bytes that are not UTF-8 are malformed too (records are ASCII).
    segment.write_bytes(original.replace(b"}\n", b"\xff}\n", 1))
    with pytest.raises(StoreError):
        list(store.tail(0))


@pytest.mark.parametrize("segment_size", [2, 100])
def test_failed_extend_writes_what_it_numbered(tmp_path, segment_size):
    """An event that cannot be logged raises StoreError after the events
    before it are written: the store, the disk and a reopened store agree on
    the records and on ``next_sequence``."""
    events = _event_stream(4)[:4]
    store = SegmentStore(tmp_path, segment_size=segment_size)
    with pytest.raises(StoreError):
        store.extend([*events[:3], object()])
    assert store.next_sequence == 3
    assert store.append(events[3]) == 3
    reopened = SegmentStore(tmp_path, segment_size=segment_size)
    for log in (store, reopened):
        assert log.next_sequence == 4
        assert [sequence for sequence, _ in log.records()] == [0, 1, 2, 3]
    assert list(reopened.tail(0)) == events
