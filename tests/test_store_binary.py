"""Datagen-free store tests: engine state, checkpoint formats and the log's tail.

The contract: a checkpoint restores exactly the committed engine state it
captured — at any commit point, from either checkpoint format version — a malformed checkpoint line raises
``StoreError``, and the segment log's ``tail(n)`` returns exactly the stored
events with sequence >= n, however the log was compacted, repaired or
corrupted.

Every test in this module is datagen-free: offers are built by hand through
``tests.conftest.make_offer`` and streamed through the real engines, so the
whole module also runs in the no-numpy CI leg (where the generated-scenario
suites skip).
"""

from __future__ import annotations

import datetime
import json
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.errors import StoreError
from repro.flexoffer.model import FlexOfferState, Schedule
from repro.flexoffer.serialization import (
    flex_offer_from_dict,
    flex_offer_from_row,
    flex_offer_to_dict,
)
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import (
    EventLog,
    OfferAdded,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    write_jsonl,
)
from repro.live.replay import replay
from repro.store import SegmentStore, SnapshotStore, capture_engine_state, restore_engine_state

from tests.conftest import make_offer

ENGINE_FACTORIES = {
    "live": lambda: LiveAggregationEngine(AggregationParameters()),
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


def _committed_state():
    """A committed live engine's state: scheduled offers and an aggregate."""
    engine = LiveAggregationEngine(AggregationParameters())
    replay(_event_stream(14), engine)
    state = capture_engine_state(engine)
    assert state.aggregates and any(offer.schedule for offer in state.offers)
    return state


def test_restore_refuses_an_offer_listed_twice():
    """A cell holds each member id once; a duplicated offer fails the restore."""
    state = _committed_state()
    # Singleton chunks need no recorded aggregate, so only the id check sees it.
    singletons = AggregationParameters(max_group_size=1)
    duplicated = replace(
        state, parameters=singletons, aggregates=[], offers=state.offers + state.offers[:1]
    )
    with pytest.raises(StoreError, match="more than once"):
        restore_engine_state(LiveAggregationEngine(singletons), duplicated)


def _save_version_1(state, directory, log_offset: int) -> None:
    """Write ``state`` in checkpoint format version 1: one dictionary per line."""
    data = directory / "snapshot-a"
    data.mkdir(parents=True)
    write_jsonl(data / "offers.jsonl", (flex_offer_to_dict(offer) for offer in state.offers))
    write_jsonl(
        data / "aggregates.jsonl",
        (
            {
                "cell": list(record.cell),
                "chunk": record.chunk,
                "offer": flex_offer_to_dict(record.offer),
            }
            for record in state.aggregates
        ),
    )
    manifest = {
        "version": 1,
        "data": "snapshot-a",
        "engine": state.engine,
        "parameters": asdict(state.parameters),
        "id_offset": state.id_offset,
        "next_id": state.next_id,
        "reserved_ids": list(state.reserved_ids),
        "commit_count": state.commit_count,
        "log_offset": log_offset,
        "offer_count": len(state.offers),
        "aggregate_count": len(state.aggregates),
        "scenario": None,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _save(version: int, directory):
    state = _committed_state()
    if version == 1:
        _save_version_1(state, directory, log_offset=3)
    else:
        SnapshotStore(directory).save(state, log_offset=3)
    return state


def test_version_1_checkpoint_loads_to_the_same_state(tmp_path):
    """The previous format still loads, and saves back as version 2 unchanged."""
    state = _save(1, tmp_path / "v1")
    checkpoint = SnapshotStore(tmp_path / "v1").load()
    assert checkpoint.manifest["version"] == 1
    assert checkpoint.log_offset == 3
    assert checkpoint.state == state
    store = SnapshotStore(tmp_path / "v2")
    store.save(checkpoint.state, log_offset=3)
    assert store.load().manifest["version"] == 2
    assert store.load().state == state


def test_checkpoint_load_shares_equal_dimension_texts(tmp_path):
    """A version-2 load keeps one string object per distinct dimension text,
    across offers, aggregates and the seven dimension attributes."""
    state = _save(2, tmp_path)
    loaded = SnapshotStore(tmp_path).load().state
    assert loaded == state
    offers = loaded.offers + [record.offer for record in loaded.aggregates]
    texts = [
        getattr(offer, name)
        for offer in offers
        for name in (
            "region",
            "city",
            "district",
            "grid_node",
            "energy_type",
            "prosumer_type",
            "appliance_type",
        )
    ]
    assert len({id(text) for text in texts}) == len(set(texts))


def _edit(change):
    """A line mutation that decodes the line, changes it and encodes it again."""

    def mutate(line: bytes) -> bytes:
        return json.dumps(change(json.loads(line))).encode("utf-8") + b"\n"

    return mutate


def _truncate(line: bytes) -> bytes:
    return line[: len(line) // 2] + b"\n"


def _not_utf8(line: bytes) -> bytes:
    return b"\xff" + line


def _v1_min_above_max(payload):
    first = payload["profile"][0]
    first["min_energy"] = first["max_energy"] + 1.0
    return payload


def _v2_min_above_max(row):
    row[2][0][0] = row[2][0][1] + 1.0
    return row


def _v1_profile_not_a_list(payload):
    return {**payload, "profile": 5}


def _v2_profile_not_a_list(row):
    row[2] = 5
    return row


#: (format version, file, line number, mutation) for each malformed line.
_MALFORMED = {
    "v1-truncated": (1, "offers.jsonl", 2, _truncate),
    "v1-not-utf8": (1, "offers.jsonl", 2, _not_utf8),
    "v1-min-above-max": (1, "offers.jsonl", 2, _edit(_v1_min_above_max)),
    "v1-profile-not-a-list": (1, "offers.jsonl", 2, _edit(_v1_profile_not_a_list)),
    "v1-array-line": (1, "offers.jsonl", 2, _edit(lambda payload: list(payload.values()))),
    "v1-aggregate-truncated": (1, "aggregates.jsonl", 1, _truncate),
    "v2-truncated": (2, "offers.jsonl", 2, _truncate),
    "v2-not-utf8": (2, "offers.jsonl", 2, _not_utf8),
    "v2-min-above-max": (2, "offers.jsonl", 2, _edit(_v2_min_above_max)),
    "v2-profile-not-a-list": (2, "offers.jsonl", 2, _edit(_v2_profile_not_a_list)),
    "v2-dict-line": (
        2,
        "offers.jsonl",
        2,
        _edit(lambda row: flex_offer_to_dict(flex_offer_from_row(row))),
    ),
    "v2-wrong-length": (2, "offers.jsonl", 2, _edit(lambda row: row[:-1])),
    "v2-aggregate-truncated": (2, "aggregates.jsonl", 1, _truncate),
    "v2-aggregate-short-cell": (
        2,
        "aggregates.jsonl",
        1,
        _edit(lambda record: [record[0][:2], *record[1:]]),
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_checkpoint_line_raises_store_error(tmp_path, case):
    """Any malformed line of either data file, in either format version,
    raises StoreError chained from its cause and naming the file and line."""
    version, name, number, mutate = _MALFORMED[case]
    _save(version, tmp_path)
    path = tmp_path / "snapshot-a" / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[number - 1] = mutate(lines[number - 1])
    path.write_bytes(b"".join(lines))
    with pytest.raises(StoreError) as raised:
        SnapshotStore(tmp_path).load()
    assert f"{name}:{number}:" in str(raised.value)
    assert raised.value.__cause__ is not None


@pytest.mark.parametrize("text", ["[1, 2]", '"manifest"', '{"version": 2'])
def test_malformed_manifest_raises_store_error(tmp_path, text):
    _save(2, tmp_path)
    (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(StoreError):
        SnapshotStore(tmp_path).load()


def test_sub_second_times_survive_every_store(tmp_path):
    """Microseconds in all three datetimes survive the dictionary codec, an
    ``OfferAdded`` in the segment log and a checkpoint."""
    base = make_offer(offer_id=1)
    offer = replace(
        base,
        creation_time=base.creation_time.replace(microsecond=500001),
        acceptance_deadline=base.acceptance_deadline.replace(microsecond=1),
        assignment_deadline=base.assignment_deadline.replace(microsecond=999999),
    )
    assert flex_offer_from_dict(flex_offer_to_dict(offer)) == offer

    event = OfferAdded(offer.creation_time, offer)
    SegmentStore(tmp_path / "events").append(event)
    assert list(SegmentStore(tmp_path / "events").tail(0)) == [event]

    engine = LiveAggregationEngine(AggregationParameters())
    replay([event], engine)
    state = capture_engine_state(engine)
    store = SnapshotStore(tmp_path / "checkpoint")
    store.save(state, log_offset=1)
    assert store.load().state.offers == [offer]


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
