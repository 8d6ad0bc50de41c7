"""Property tests for the recovery contract of :mod:`repro.store`.

The contract: *restoring from a checkpoint taken at any point of the stream
and replaying the log tail is observably equivalent to a full replay* — on
the live engine, with the batch pipeline as the second reference (via
:meth:`FlexSession.snapshot`, checked by ``RecoveryManager.verify``).
Equivalence is the same normal form ``tests/test_session_equivalence.py``
uses: identical surviving offer ids, aggregate profiles bit-for-bit, ids
modulo :func:`~repro.live.engine.canonical_form`.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip(
    "numpy",
    reason="scenario-driven recovery tests need numpy (test_store_binary.py is the numpy-free leg)",
    exc_type=ImportError,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import ReproError, StoreError
from repro.live.engine import canonical_form
from repro.live.events import OfferWithdrawn
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession
from repro.store import (
    RecoveryManager,
    SegmentStore,
    SnapshotStore,
    capture_engine_state,
    restore_engine_state,
)
from repro.warehouse.persistence import save_schema

STREAM_ENGINES = ("live",)

_SCENARIO = generate_scenario(ScenarioConfig(prosumer_count=30, seed=13))

#: (update_fraction, withdraw_fraction) -> the replay-ordered event stream.
_STREAMS = {
    (0.0, 0.0): scenario_event_stream(_SCENARIO).replay_order(),
    (0.25, 0.15): scenario_event_stream(
        _SCENARIO, update_fraction=0.25, withdraw_fraction=0.15, seed=3
    ).replay_order(),
}


def _canonical_state(session: FlexSession) -> Counter:
    session.engine.refresh()
    return Counter(
        canonical_form(offer) for offer in session.engine.engine.aggregated_offers()
    )


def _profiles(session: FlexSession) -> list:
    session.engine.refresh()
    return sorted(
        tuple((p.min_energy, p.max_energy, p.duration_slots) for p in offer.profile)
        for offer in session.engine.engine.aggregated_offers()
        if offer.is_aggregate
    )


def _full_replay(engine: str, mutation) -> tuple[Counter, list, list[int]]:
    session = FlexSession(_SCENARIO, engine=engine, live_preload=False)
    session.replay(list(_STREAMS[mutation]))
    state = _canonical_state(session)
    profiles = _profiles(session)
    ids = sorted(offer.id for offer in session.engine.offers())
    session.close()
    return state, profiles, ids


#: Full-replay references, computed once per (engine, mutation) pair.
_REFERENCES = {
    (engine, mutation): _full_replay(engine, mutation)
    for engine in STREAM_ENGINES
    for mutation in _STREAMS
}


@pytest.mark.parametrize("engine", STREAM_ENGINES)
@given(
    cut_fraction=st.floats(min_value=0.05, max_value=0.95),
    mutation=st.sampled_from(sorted(_STREAMS)),
)
@settings(deadline=None, max_examples=10)
def test_checkpoint_at_random_point_plus_tail_equals_full_replay(
    engine, cut_fraction, mutation
):
    """The headline contract, for clean and mutated/withdrawn streams."""
    ordered = _STREAMS[mutation]
    cut = max(1, int(len(ordered) * cut_fraction))
    directory = tempfile.mkdtemp(prefix="repro-store-")
    try:
        writer = FlexSession(_SCENARIO, engine=engine, live_preload=False)
        manager = RecoveryManager(directory, segment_size=64)
        manager.record(ordered)
        writer.replay(ordered[:cut])
        checkpoint = manager.checkpoint(writer)
        assert checkpoint.log_offset == cut
        writer.close()

        restored = FlexSession.restore(directory)
        assert restored.engine_name == engine
        ref_state, ref_profiles, ref_ids = _REFERENCES[(engine, mutation)]
        assert sorted(o.id for o in restored.engine.offers()) == ref_ids
        assert _canonical_state(restored) == ref_state
        # Bit-identical aggregate profiles, exactly like the session suite.
        assert _profiles(restored) == ref_profiles
        # The batch pipeline is the second reference.
        RecoveryManager(directory).verify(restored)
        restored.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.parametrize(
    "manifest_fields",
    (
        pytest.param({"engine": "sharded", "shard_count": 8}, id="sharded"),
        pytest.param({"engine": "async"}, id="async"),
    ),
)
def test_checkpoint_naming_a_retired_engine_restores_on_live(tmp_path, capsys, manifest_fields):
    """Checkpoints written while the ``sharded`` or ``async`` engine existed
    still restore, through the library and through ``flexviz restore``.

    The manifest is rewritten to that era's shape (the engine name, plus the
    informational ``shard_count`` for ``sharded``); the captured state carries
    no engine topology, so the restore rebuilds it on the ``live`` engine.
    """
    from repro.app.cli import main

    ordered = _STREAMS[(0.25, 0.15)]
    cut = int(len(ordered) * 0.6)
    RecoveryManager(tmp_path, segment_size=64).record(ordered[:cut])
    writer = FlexSession(_SCENARIO, engine="live", live_preload=False)
    writer.replay(ordered[:cut])
    writer.checkpoint(str(tmp_path))
    population = sorted(o.id for o in writer.engine.offers())
    state = _canonical_state(writer)
    writer.close()
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert "shard_count" not in manifest
    manifest.update(manifest_fields)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    restored = FlexSession.restore(str(tmp_path))
    assert restored.engine_name == "live"
    RecoveryManager(tmp_path).verify(restored)
    assert sorted(o.id for o in restored.engine.offers()) == population
    assert _canonical_state(restored) == state
    restored.close()
    assert main(["restore", "--from", str(tmp_path), "--smoke"]) == 0
    assert "restore smoke OK" in capsys.readouterr().out


def test_restore_after_tombstone_compacted_warehouse(tmp_path):
    """Mass withdrawals, then a checkpoint: the restored session's derived
    star schema holds exactly the surviving offers."""
    scenario = generate_scenario(ScenarioConfig(prosumer_count=100, seed=17))
    session = FlexSession(scenario, engine="live")
    fact = session.engine.schema.table("fact_flexoffer")
    population = [o for o in session.engine.offers() if not o.is_aggregate]
    victims = population[: int(len(population) * 0.7)]
    for victim in victims:
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
    session.commit()
    # A derived schema is never written to: the withdrawals reach the
    # snapshots, not the schema derived before them.
    assert fact.tombstone_count == 0
    session.checkpoint(str(tmp_path))
    restored = FlexSession.restore(str(tmp_path))
    assert sorted(o.id for o in restored.engine.offers()) == sorted(
        o.id for o in session.engine.offers()
    )
    assert _canonical_state(restored) == _canonical_state(session)
    # The restored warehouse answers repository queries identically.
    assert restored.engine.repository.summary()["offer_count"] == len(
        [o for o in restored.engine.offers() if not o.is_aggregate]
    )
    RecoveryManager(tmp_path).verify(restored)
    session.close()
    restored.close()


@pytest.mark.parametrize(
    "warehouse_format", (None, "csv", "columnar"), ids=("unrecorded", "csv", "columnar")
)
def test_checkpoint_with_retired_warehouse_section_restores(tmp_path, warehouse_format):
    """Checkpoints from when the live engines mirrored a warehouse still restore.

    The manifest is rewritten to that era's shape: ``has_warehouse`` plus,
    once the format was recorded, ``warehouse_format``.  The ``csv`` section
    is a real star schema; the ``columnar`` one is bytes no reader could
    parse, which proves the section is never read.
    """
    ordered = _STREAMS[(0.25, 0.15)]
    cut = int(len(ordered) * 0.6)
    RecoveryManager(tmp_path, segment_size=64).record(ordered)
    writer = FlexSession(_SCENARIO, engine="live", live_preload=False)
    writer.replay(ordered[:cut])
    checkpoint = writer.checkpoint(str(tmp_path))
    section = tmp_path / checkpoint.manifest["data"] / "warehouse"
    if warehouse_format == "columnar":
        section.mkdir()
        (section / "fact_flexoffer.fcb").write_bytes(b"\x00not a columnar table\xff")
    else:
        save_schema(writer.schema, section)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["has_warehouse"] = True
    if warehouse_format is not None:
        manifest["warehouse_format"] = warehouse_format
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    writer.replay(ordered[cut:])
    population = sorted(o.id for o in writer.engine.offers())
    state = _canonical_state(writer)
    writer.close()

    restored = FlexSession.restore(str(tmp_path))
    RecoveryManager(tmp_path).verify(restored)
    assert sorted(o.id for o in restored.engine.offers()) == population
    assert _canonical_state(restored) == state
    restored.close()


class TestSegmentStore:
    def _events(self, count):
        return _STREAMS[(0.0, 0.0)][:count]

    def test_rollover_and_tail(self, tmp_path):
        store = SegmentStore(tmp_path, segment_size=10)
        assert store.extend(self._events(25)) == 25
        assert len(store.segments()) == 3
        assert store.next_sequence == 25
        tail = list(store.tail(18))
        assert len(tail) == 7
        assert list(store.tail(0))[18:] == tail

    def test_reopen_resumes_sequence(self, tmp_path):
        store = SegmentStore(tmp_path, segment_size=10)
        store.extend(self._events(12))
        reopened = SegmentStore(tmp_path, segment_size=10)
        assert reopened.next_sequence == 12
        events = self._events(15)
        assert reopened.append(events[12]) == 12
        assert reopened.stored_events == 13
        # The partially filled active segment was resumed, not restarted.
        assert len(reopened.segments()) == 2

    def test_compaction_drops_only_dead_prefix_events(self, tmp_path):
        ordered = _STREAMS[(0.25, 0.15)]
        store = SegmentStore(tmp_path, segment_size=32)
        store.extend(ordered)
        survivors = store.surviving_subjects()
        before = store.stored_events
        dropped = store.compact(survivors)
        assert dropped > 0
        assert store.stored_events == before - dropped
        assert store.next_sequence == len(ordered)
        # Every remaining prefix event concerns an offer that still matters.
        for event in store.events():
            pass  # decodes cleanly
        # A cold replay of the compacted log ends in the reference state.
        session = FlexSession(_SCENARIO, engine="live", live_preload=False)
        session.replay(list(store.events()))
        ref_state, _, ref_ids = _REFERENCES[("live", (0.25, 0.15))]
        assert sorted(o.id for o in session.engine.offers()) == ref_ids
        assert _canonical_state(session) == ref_state
        session.close()

    @pytest.mark.parametrize(
        "tear, survivors",
        [
            # The crash cut a record short: the final line is not JSON.
            pytest.param(
                lambda raw: raw + b'{"seq": 10, "event": {"type": "ad', 10, id="partial_line"
            ),
            # The crash fell between a complete record and its newline.
            pytest.param(lambda raw: raw[:-1], 9, id="newline_lost"),
        ],
    )
    def test_torn_final_line_repaired_on_reopen(self, tmp_path, tear, survivors):
        """A crash mid-append leaves bytes after the last newline; reopening
        truncates them and reissues their sequence number instead of refusing
        the log or appending onto the torn line."""
        store = SegmentStore(tmp_path, segment_size=100)
        events = self._events(12)
        store.extend(events[:10])
        active = store.segments()[-1]
        active.write_bytes(tear(active.read_bytes()))
        reopened = SegmentStore(tmp_path, segment_size=100)
        assert reopened.next_sequence == survivors
        assert len(list(reopened.events())) == survivors
        # The reissued sequence lands where the torn record would have.
        assert reopened.append(events[survivors]) == survivors
        reopened.append(events[survivors + 1])
        again = SegmentStore(tmp_path, segment_size=100)
        assert [sequence for sequence, _ in again.records()] == list(range(survivors + 2))
        assert len(list(again.events())) == survivors + 2

    def test_mid_file_corruption_still_raises(self, tmp_path):
        store = SegmentStore(tmp_path, segment_size=100)
        store.extend(self._events(5))
        active = store.segments()[-1]
        lines = active.read_text().splitlines()
        lines[1] = '{"seq": 1, "event"'  # corruption that is not a torn tail
        active.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError):
            SegmentStore(tmp_path, segment_size=100)

    def test_corrupt_body_behind_intact_suffix_raises_at_first_read(self, tmp_path):
        store = SegmentStore(tmp_path, segment_size=100)
        store.extend(self._events(5))
        active = store.segments()[-1]
        lines = active.read_text().splitlines()
        lines[1] = '{"event": {"kind": , "seq": 1}'  # the body is corrupt, the suffix intact
        active.write_text("\n".join(lines) + "\n")
        # Opening reads each line's suffix only, so it resumes after the last.
        reopened = SegmentStore(tmp_path, segment_size=100)
        assert reopened.next_sequence == 5
        with pytest.raises(StoreError, match=re.escape(str(active))):
            list(reopened.records())

    def test_segment_order_is_numeric_not_lexical(self, tmp_path):
        store = SegmentStore(tmp_path, segment_size=4)
        # Force names whose lexical and numeric orders disagree.
        store._next_sequence = 99999998
        store._active = None
        store.extend(self._events(8))
        names = [path.name for path in store.segments()]
        assert names == sorted(names, key=lambda n: int(n[7:-6]))
        assert store.segments()[-1].name.startswith("events-100000002")
        reopened = SegmentStore(tmp_path, segment_size=4)
        assert reopened.next_sequence == store.next_sequence

    def test_read_paths_create_no_directories(self, tmp_path):
        missing = tmp_path / "nothing"
        with pytest.raises(StoreError):
            RecoveryManager(missing).restore()
        assert not missing.exists()

    def test_compaction_protects_checkpoint_tail(self, tmp_path):
        ordered = _STREAMS[(0.25, 0.15)]
        cut = int(len(ordered) * 0.5)
        writer = FlexSession(_SCENARIO, engine="live", live_preload=False)
        manager = RecoveryManager(tmp_path, segment_size=16)
        manager.record(ordered)
        writer.replay(ordered[:cut])
        manager.checkpoint(writer)
        writer.close()
        manager.compact()
        # The tail [cut, ...) survived compaction in full.
        assert len(list(manager.log.tail(cut))) == len(ordered) - cut
        restored = manager.restore()
        ref_state, _, ref_ids = _REFERENCES[("live", (0.25, 0.15))]
        assert sorted(o.id for o in restored.engine.offers()) == ref_ids
        assert _canonical_state(restored) == ref_state
        restored.close()


class TestSnapshotStore:
    def test_saves_double_buffer_and_preserve_previous_checkpoint(self, tmp_path):
        """Re-saves land in the other buffer; a crash before the manifest swap
        leaves the previous checkpoint fully loadable."""
        session = FlexSession(_SCENARIO, engine="live")
        store = SnapshotStore(tmp_path)
        first = capture_engine_state(session.engine.engine)
        store.save(first, log_offset=5)
        live_buffer = store.load().manifest["data"]
        session.ingest(OfferWithdrawn(_SCENARIO.flex_offers[0].creation_time,
                                      _SCENARIO.flex_offers[0].id))
        session.commit()
        second = capture_engine_state(session.engine.engine)
        store.save(second, log_offset=6)
        reloaded = store.load()
        assert reloaded.manifest["data"] != live_buffer
        assert reloaded.log_offset == 6
        # Simulate the crash window: new data written, manifest swap not yet
        # done — the old manifest still pairs with its own untouched buffer.
        (tmp_path / "manifest.json").unlink()
        store.save(first, log_offset=5)
        assert store.load().log_offset == 5
        session.close()

    def test_missing_manifest_refused(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert not store.exists()
        with pytest.raises(StoreError):
            store.load()

    def test_unknown_version_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(StoreError):
            SnapshotStore(tmp_path).load()

    def test_capture_refuses_dirty_engine(self):
        session = FlexSession(_SCENARIO, engine="live", live_preload=False)
        events = _STREAMS[(0.0, 0.0)]
        session.ingest(events[0])
        with pytest.raises(StoreError):
            capture_engine_state(session.engine.engine)
        session.commit()
        state = capture_engine_state(session.engine.engine)
        assert state.engine == "live"
        session.close()

    def test_restore_refuses_parameter_mismatch(self):
        from repro.aggregation.parameters import AggregationParameters
        from repro.live.engine import LiveAggregationEngine

        session = FlexSession(_SCENARIO, engine="live")
        state = capture_engine_state(session.engine.engine)
        other = LiveAggregationEngine(AggregationParameters(est_tolerance_slots=16))
        with pytest.raises(StoreError):
            restore_engine_state(other, state)
        session.close()


def test_replay_resume_from_skips_consumed_prefix():
    ordered = _STREAMS[(0.0, 0.0)]
    session = FlexSession(_SCENARIO, engine="live", live_preload=False)
    cut = len(ordered) // 2
    first = session.replay(ordered[:cut])
    assert session.engine.events_ingested == cut
    second = session.replay(ordered, resume_from=cut)
    assert second.resumed_from == cut
    assert second.events == len(ordered) - cut
    assert session.engine.events_ingested == len(ordered)
    ref_state, _, ref_ids = _REFERENCES[("live", (0.0, 0.0))]
    assert sorted(o.id for o in session.engine.offers()) == ref_ids
    assert _canonical_state(session) == ref_state
    session.close()
    assert first.events == cut


def test_recheckpoint_same_directory_advances_offset(tmp_path):
    """The API flow a service uses: keep recording, checkpoint periodically.

    The second checkpoint overwrites the first atomically (manifest removed
    during the rewrite, re-written last) and restores from the newer offset.
    """
    ordered = _STREAMS[(0.25, 0.15)]
    first, second = int(len(ordered) * 0.4), int(len(ordered) * 0.8)
    session = FlexSession(_SCENARIO, engine="live", live_preload=False)
    manager = RecoveryManager(tmp_path, segment_size=64)
    manager.record(ordered)
    session.replay(ordered[:first])
    assert manager.checkpoint(session).log_offset == first
    session.replay(ordered[:second], resume_from=first)
    assert manager.checkpoint(session).log_offset == second
    session.close()
    restored = manager.restore()
    assert manager.last_restore.log_offset == second
    assert manager.last_restore.tail_events == len(ordered) - second
    ref_state, _, ref_ids = _REFERENCES[("live", (0.25, 0.15))]
    assert sorted(o.id for o in restored.engine.offers()) == ref_ids
    assert _canonical_state(restored) == ref_state
    restored.close()


#: A checkpoint directory in format version 1 (one dictionary per offer),
#: written by ``flexviz --prosumers 10 --seed 5 checkpoint --tail 0.2
#: --segment-size 64`` before version 2 existed.
_VERSION_1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint-v1"


def test_committed_version_1_checkpoint_restores(tmp_path):
    """A checkpoint written in the previous format restores and verifies, and
    its state and the restored one both survive a version-2 save unchanged."""
    directory = tmp_path / "v1"
    shutil.copytree(_VERSION_1_CHECKPOINT, directory)
    checkpoint = SnapshotStore(directory).load()
    assert checkpoint.manifest["version"] == 1
    restored = FlexSession.restore(str(directory))
    RecoveryManager(directory).verify(restored)
    restored_state = capture_engine_state(restored.engine.engine)
    restored.close()
    for name, state in (("snapshot", checkpoint.state), ("restored", restored_state)):
        store = SnapshotStore(tmp_path / name)
        store.save(state, log_offset=checkpoint.log_offset)
        reloaded = store.load()
        assert reloaded.manifest["version"] == 2
        assert reloaded.state == state


def test_session_checkpoint_records_backend_offset(tmp_path):
    ordered = _STREAMS[(0.0, 0.0)]
    session = FlexSession(_SCENARIO, engine="live", live_preload=False)
    session.ingest_many(ordered[:30])
    checkpoint = session.checkpoint(str(tmp_path))
    assert checkpoint.log_offset == 30
    assert checkpoint.manifest["version"] == 2
    session.close()


@pytest.mark.parametrize("target_engine", STREAM_ENGINES)
def test_restore_rebuilds_chunk_ledger_clean(target_engine):
    """Restore must not cause spurious first-commit re-aggregation.

    Regression test for the chunk-granular dirty ledger: a restored engine
    is a *committed* state, so an immediate commit re-aggregates nothing,
    and the first real mutation re-aggregates exactly the one chunk it
    perturbs — the clean chunks of the restored cell are reused, proving
    the per-(cell, chunk) outputs were rebuilt chunk-index aligned.
    """
    from dataclasses import replace

    from repro.aggregation.parameters import AggregationParameters
    from repro.live.engine import LiveAggregationEngine
    from repro.live.events import OfferAdded, OfferUpdated
    from tests.conftest import make_offer

    parameters = AggregationParameters(max_group_size=4)
    source = LiveAggregationEngine(parameters)
    for index in range(1, 65):  # one cell, 16 chunks of 4
        offer = make_offer(offer_id=index, earliest_start=40, time_flexibility=8)
        source.apply(OfferAdded(offer.creation_time, offer))
    source.commit()
    state = capture_engine_state(source)

    restored = LiveAggregationEngine(parameters)
    restore_engine_state(restored, state)
    assert restored.dirty_chunk_count == 0
    clean = restored.commit()
    assert clean.chunks_reaggregated == 0
    assert clean.chunks_skipped == 0
    assert clean.dirty_cells == ()

    current = restored.offer(42)
    restored.apply(
        OfferUpdated(current.creation_time, replace(current, price_per_kwh=55.5))
    )
    result = restored.commit()
    assert result.chunks_reaggregated == 1
    assert result.chunks_skipped == 15
    state_live = Counter(canonical_form(o) for o in restored.aggregated_offers())
    state_batch = Counter(canonical_form(o) for o in restored.batch_equivalent().offers)
    assert state_live == state_batch
