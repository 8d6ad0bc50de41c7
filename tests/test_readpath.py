"""The versioned read path: snapshots, the result cache and historical reads.

Three contracts from ISSUE 7:

* **Versioned reads rebuild exactly** — ``query(at_version=v)`` is equivalent
  to the batch pipeline rebuilt over the population that was committed at
  version ``v``, for every live-family engine.
* **Cache invalidation is offer-exact** — a commit whose events named none
  of a cached entry's offers, and brought in no offer matching its spec,
  carries the entry (same object, a hit); a commit touching one of them
  drops it.
* **The ring is bounded but pin-safe** — eviction keeps ``retain`` versions,
  never the latest or a pinned one; pins release their excess on exit.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import ReadPathError, SessionError
from repro.live.events import OfferWithdrawn
from repro.live.replay import scenario_event_stream
from repro.readpath import AggregateSnapshot, SnapshotManager
from repro.session import FlexSession
from repro.session.engines import BatchEngine
from repro.session.query import execute
from repro.session.spec import QuerySpec
from repro.store.recovery import RecoveryManager

LIVE_ENGINES = ("live", "async")


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(ScenarioConfig(prosumer_count=30, seed=13))


def _mutated_events(scenario, seed=5):
    log = scenario_event_stream(
        scenario, update_fraction=0.3, withdraw_fraction=0.2, seed=seed
    )
    return log.replay_order()


# ----------------------------------------------------------------------
# Historical reads rebuild exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_at_version_matches_batch_rebuild_at_that_commit(engine, small_scenario):
    """Every retained version answers like a batch engine over that commit's
    population — raw ids exactly, aggregation profiles modulo canonical form."""
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        backend = session.engine
        backend.readpath.manager.retain = 512  # keep every version for the test
        events = _mutated_events(small_scenario)
        populations = {}
        chunk = max(1, len(events) // 6)
        for start in range(0, len(events), chunk):
            session.ingest_many(events[start : start + chunk])
            session.commit()
            backend.refresh()
            version = backend.readpath.manager.latest_version
            populations[version] = list(backend.offers())
        assert len(populations) >= 4
        raw_spec = QuerySpec()
        filtered_spec = QuerySpec.build(state="assigned")
        agg_spec = QuerySpec.build(parameters=session.parameters)
        for version, offers in populations.items():
            batch = BatchEngine(
                small_scenario.replace_offers(offers), session.parameters
            )
            for spec in (raw_spec, filtered_spec, agg_spec):
                expected = execute(batch, session.grid, spec)
                observed = session.query(spec, at_version=version)
                assert observed.version == version
                assert observed.matches(expected), (
                    f"version {version} diverges from its batch rebuild for "
                    f"{spec.describe() or 'all offers'}"
                )
                if spec.parameters is None:
                    assert sorted(o.id for o in observed) == sorted(
                        o.id for o in expected
                    )


def test_at_version_is_immune_to_later_commits(small_scenario):
    """A pinned-version read keeps answering the old state after new commits."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        version = backend.readpath.manager.latest_version
        before = session.query(QuerySpec(), at_version=version)
        victim = backend.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        after = session.query(QuerySpec(), at_version=version)
        assert sorted(o.id for o in after) == sorted(o.id for o in before)
        assert victim.id in {o.id for o in after}
        latest = session.query(QuerySpec())
        assert victim.id not in {o.id for o in latest}
        assert latest.version > version


# ----------------------------------------------------------------------
# The query front door
# ----------------------------------------------------------------------
def test_query_modes_and_errors(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        live_result = session.query(QuerySpec(), consistency="live")
        assert live_result.version is None  # direct path bypasses versioning
        snapshot_result = session.query(QuerySpec())
        assert snapshot_result.version is not None
        with pytest.raises(SessionError):
            session.query(QuerySpec(), consistency="eventually")
        with pytest.raises(ReadPathError):
            session.query(QuerySpec(), at_version=10_000)
        session.use_engine("batch")
        with pytest.raises(SessionError):
            session.query(QuerySpec(), at_version=0)


@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_live_consistency_reads_a_fresh_capture_never_the_cache(
    engine, small_scenario, monkeypatch
):
    """``consistency="live"`` flushes, captures a snapshot of the committed
    engine state and reads it uncached — the reference the read path's
    cache and delta-built snapshots are compared against."""
    captures = []
    original = AggregateSnapshot.capture.__func__

    def capture(cls, *args, **kwargs):
        captures.append(args)
        return original(cls, *args, **kwargs)

    with FlexSession(small_scenario, engine=engine) as session:
        backend = session.engine
        spec = QuerySpec.build(parameters=session.parameters)
        cached = session.query(spec)
        stats = backend.readpath.cache.stats()
        monkeypatch.setattr(AggregateSnapshot, "capture", classmethod(capture))
        first = session.query(spec, consistency="live")
        second = session.query(spec, consistency="live")
        assert len(captures) == 2
        assert backend.readpath.cache.stats() == stats  # never probed or filled
        assert first is not second and first is not cached
        assert first.matches(cached) and second.matches(cached)
        victim = backend.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        fresh = session.query(QuerySpec(), consistency="live")
        assert victim.id not in {o.id for o in fresh}


def test_latest_consistency_does_not_flush_pending_writes(small_scenario):
    """``consistency="latest"`` reads the published snapshot lock-free; the
    default ``"snapshot"`` mode flushes first (read-your-writes)."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        version = backend.readpath.manager.latest_version
        victim = backend.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        stale = session.query(QuerySpec(), consistency="latest")
        assert stale.version == version
        assert victim.id in {o.id for o in stale}
        assert backend.engine.pending_events > 0  # genuinely did not flush
        fresh = session.query(QuerySpec())  # the default flushes
        assert fresh.version > version
        assert victim.id not in {o.id for o in fresh}


# ----------------------------------------------------------------------
# Cache invalidation exactness
# ----------------------------------------------------------------------
def _disjoint_cell_pair(engine):
    """Two populated grid cells whose prosumer sets do not intersect."""
    cells = [cell for cell in engine.cells() if engine.cell_members(cell)]
    for i, first in enumerate(cells):
        first_prosumers = {o.prosumer_id for o in engine.cell_members(first)}
        for second in cells[i + 1 :]:
            second_prosumers = {o.prosumer_id for o in engine.cell_members(second)}
            if first_prosumers.isdisjoint(second_prosumers):
                return first, second
    pytest.skip("scenario produced no prosumer-disjoint cell pair")


def test_untouched_cells_survive_commits_as_hits(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        engine = backend.engine
        cache = backend.readpath.cache
        ours, theirs = _disjoint_cell_pair(engine)
        our_prosumers = sorted({o.prosumer_id for o in engine.cell_members(ours)})
        spec = QuerySpec.build(
            prosumer_id=our_prosumers, parameters=session.parameters
        )
        first = session.query(spec)
        assert session.query(spec) is first  # same version: a plain hit
        # A commit dirtying only the *other* cell carries the entry.
        victim = engine.cell_members(theirs)[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        carried = session.query(spec)
        assert carried is first
        # The carry re-stamped the result at the new version.
        assert carried.version == backend.readpath.manager.latest_version
        assert cache.carried >= 1
        # A commit dirtying *our* cell invalidates: the next read recomputes.
        ours_victim = engine.cell_members(ours)[0]
        session.ingest(OfferWithdrawn(ours_victim.creation_time, ours_victim.id))
        session.commit()
        recomputed = session.query(spec)
        assert recomputed is not first
        assert ours_victim.id not in {
            o.id for group in recomputed.constituents.values() for o in group
        } | {o.id for o in recomputed}
        assert cache.invalidations >= 1
        stats = cache.stats()
        assert stats["hits"] >= 2 and stats["misses"] >= 2


def test_withdraw_from_fully_skipped_chunk_invalidates_entry(small_scenario):
    """A withdrawal whose cell re-aggregated *zero* chunks must still drop
    the cached entry — never carry/re-stamp it to the new version.

    Deterministic setup: five identical-cell offers under
    ``max_group_size=2`` chunk as [1,2], [3,4], [5].  Withdrawing id 5
    retires its singleton chunk alone — the surviving chunks are untouched,
    so the commit reports ``chunks_reaggregated == 0`` — yet the entry's
    matched set contained id 5, so carrying it would serve a withdrawn offer
    at the new version.  The commit's ``touched`` map names id 5 (mapped to
    ``None``) however few chunks re-aggregated, and the entry held id 5 —
    exactly what makes this sound; this test pins that behaviour.
    """
    from repro.aggregation.parameters import AggregationParameters
    from repro.live.events import OfferAdded
    from tests.conftest import make_offer

    scenario = small_scenario.replace_offers([])
    parameters = AggregationParameters(max_group_size=2)
    with FlexSession(
        scenario, engine="live", parameters=parameters, live_preload=False
    ) as session:
        offers = [
            make_offer(offer_id=i, earliest_start=40, time_flexibility=8)
            for i in range(1, 6)
        ]
        for offer in offers:
            session.ingest(OfferAdded(offer.creation_time, offer))
        session.commit()
        cache = session.engine.readpath.cache
        spec = QuerySpec()
        first = session.query(spec)  # miss + fill
        assert session.query(spec) is first  # cached
        assert 5 in {o.id for o in first.offers}
        invalidations_before = cache.invalidations
        result = session.ingest(
            OfferWithdrawn(offers[-1].assignment_deadline, 5)
        ) or session.commit()
        # The precondition that makes this the dangerous case: the withdrawal
        # retired the [5] chunk alone, nothing was re-aggregated.
        assert result.chunks_reaggregated == 0
        assert result.chunks_skipped > 0
        assert [o.id for o in result.removed] == [5]
        # The entry must have been invalidated, not carried/re-stamped.
        assert cache.invalidations == invalidations_before + 1
        recomputed = session.query(spec)
        assert recomputed is not first
        assert recomputed.version == session.engine.readpath.manager.latest_version
        assert sorted(o.id for o in recomputed.offers) == [1, 2, 3, 4]


def test_cache_entry_version_follows_carries(small_scenario):
    """A carried entry serves the *new* version — stats agree with the facade."""
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        spec = QuerySpec.build(state="assigned")
        session.query(spec)
        summary = session.summary()
        assert summary["snapshot_version"] == backend.readpath.manager.latest_version
        assert summary["result_cache"]["entries"] >= 1
        assert summary["result_cache"]["version"] == summary["snapshot_version"]


# ----------------------------------------------------------------------
# Ring retention and pinning
# ----------------------------------------------------------------------
def test_ring_eviction_respects_pins_and_latest():
    manager = SnapshotManager(retain=3)
    for version in range(1, 5):
        manager.publish(SimpleNamespace(version=version))
    assert manager.versions() == (2, 3, 4)
    with pytest.raises(ReadPathError):
        manager.publish(SimpleNamespace(version=4))  # versions must increase
    with manager.pin(2) as pinned:
        assert pinned.version == 2
        assert manager.pin_count(2) == 1
        for version in (5, 6, 7):
            manager.publish(SimpleNamespace(version=version))
        # Eviction went around the pinned version: it survives, the ring
        # stays at budget by dropping the unpinned middle versions instead.
        assert manager.versions() == (2, 6, 7)
        assert manager.get(2).version == 2
    # Pin released: version 2 is ordinary again — the next publication
    # evicts it as the oldest unpinned entry.
    manager.publish(SimpleNamespace(version=8))
    assert 2 not in manager.versions()
    assert len(manager.versions()) <= 3
    assert manager.latest_version == 8
    with pytest.raises(ReadPathError):
        manager.get(2)
    with pytest.raises(ReadPathError):
        manager.pin(2).__enter__()


def test_ring_overfills_under_pins_and_reclaims_on_release():
    manager = SnapshotManager(retain=2)
    manager.publish(SimpleNamespace(version=1))
    manager.publish(SimpleNamespace(version=2))
    with manager.pin(1):
        with manager.pin(2):
            manager.publish(SimpleNamespace(version=3))
            # Everything old is pinned: the ring holds above retain.
            assert manager.versions() == (1, 2, 3)
        # Releasing one pin reclaims the excess immediately (3 is latest).
        assert manager.versions() == (1, 3)
    manager.publish(SimpleNamespace(version=4))
    assert manager.versions() == (3, 4)


def test_session_ring_is_bounded_and_old_versions_evict(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        backend = session.engine
        first_version = backend.readpath.manager.latest_version
        offers = backend.offers()
        for victim in offers[:12]:
            session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
            session.commit()
        retained = backend.readpath.manager.versions()
        assert len(retained) <= backend.readpath.manager.retain
        assert first_version not in retained
        with pytest.raises(ReadPathError):
            session.query(QuerySpec(), at_version=first_version)


# ----------------------------------------------------------------------
# Satellite 2: cumulative session totals across engine swaps
# ----------------------------------------------------------------------
def test_engine_swap_keeps_cumulative_session_totals(small_scenario):
    """``use_engine``/``replay(engine=...)`` must never silently reset the
    session's events-ingested and chunk totals (regression for the swap bug)."""
    with FlexSession(small_scenario, engine="live") as session:
        live_totals = session.summary()
        assert live_totals["events_ingested"] == session.engine.events_ingested
        assert live_totals["chunks_reaggregated"] > 0
        session.use_engine("async")
        swapped = session.summary()
        # Both preloaded backends contribute: the totals grew, never reset.
        assert swapped["events_ingested"] >= 2 * live_totals["events_ingested"]
        assert swapped["chunks_reaggregated"] >= live_totals["chunks_reaggregated"]
        events = _mutated_events(small_scenario, seed=9)
        half = len(events) // 2
        session.replay(events[:half], engine="async", reset=True)
        replayed = session.summary()
        # The reset dropped only the async backend's own figures: the live
        # backend's totals still count toward the session's.
        assert replayed["events_ingested"] == live_totals["events_ingested"] + half
        assert replayed["chunks_reaggregated"] > live_totals["chunks_reaggregated"]
        session.use_engine("batch")
        assert "events_ingested" not in session.summary()


# ----------------------------------------------------------------------
# Store integration: restore re-seeds the snapshot sequence
# ----------------------------------------------------------------------
def test_restore_seeds_snapshot_version_from_checkpoint(tmp_path, small_scenario):
    events = _mutated_events(small_scenario, seed=3)
    cut = len(events) // 2
    with FlexSession(small_scenario, engine="live", live_preload=False) as session:
        session.replay(events[:cut])
        manager = RecoveryManager(tmp_path / "store")
        manager.record(events)
        manager.checkpoint(session)
        checkpoint_commits = session.engine._state_engine.commit_count
    restored = RecoveryManager(tmp_path / "store").restore(scenario=small_scenario)
    try:
        backend = restored.engine
        # The baseline snapshot continued the checkpoint's commit sequence and
        # the tail replay advanced it — never a restart from zero.
        assert backend.readpath.manager.latest_version == (
            backend._state_engine.commit_count
        )
        assert backend.readpath.manager.latest_version >= checkpoint_commits
        result = restored.query(QuerySpec())
        assert result.version == backend.readpath.manager.latest_version
        assert sorted(o.id for o in result) == sorted(
            o.id for o in backend.offers()
        )
    finally:
        restored.close()
