"""Tests for the event-driven live subsystem (events, engine, warehouse, hub, replay)."""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta

import pytest

from repro.datagen.scenarios import small_scenario
from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOfferState, Schedule
from repro.live import (
    ChangeCollector,
    EventLog,
    LiveAggregationEngine,
    LiveWarehouse,
    OfferAdded,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    SubscriptionHub,
    assert_batch_equivalent,
    event_from_dict,
    event_to_dict,
    replay,
    scenario_event_stream,
)
from repro.monitoring.platform import MonitoringPlatform
from repro.timeseries.grid import TimeGrid
from repro.warehouse.loader import load_scenario
from repro.warehouse.query import FlexOfferFilter
from tests.conftest import make_offer

_GRID = TimeGrid()
_T0 = _GRID.to_datetime(0)


def _added(offer):
    return OfferAdded(_T0, offer)


class TestEventLog:
    def test_append_returns_sequence(self):
        log = EventLog()
        assert log.append(_added(make_offer())) == 0
        assert log.append(OfferWithdrawn(_T0, 1)) == 1
        assert len(log) == 2

    def test_subject_ids(self):
        offer = make_offer(offer_id=9)
        assert _added(offer).subject_id == 9
        assert OfferUpdated(_T0, offer).subject_id == 9
        assert OfferWithdrawn(_T0, 4).subject_id == 4
        assert OfferStateChanged(_T0, 5, FlexOfferState.ACCEPTED).subject_id == 5

    def test_replay_order_sorts_by_timestamp_then_sequence(self):
        late = OfferWithdrawn(_T0 + timedelta(hours=2), 1)
        early = _added(make_offer(offer_id=1))
        also_early = OfferStateChanged(_T0, 1, FlexOfferState.ACCEPTED)
        log = EventLog([late, early, also_early])
        assert log.replay_order() == [early, also_early, late]

    def test_since(self):
        log = EventLog([_added(make_offer(offer_id=i)) for i in (1, 2, 3)])
        assert [event.subject_id for event in log.since(1)] == [2, 3]

    def test_dict_roundtrip_all_event_types(self):
        offer = make_offer(offer_id=3)
        events = [
            _added(offer),
            OfferUpdated(_T0, replace(offer, price_per_kwh=2.0)),
            OfferStateChanged(_T0, 3, FlexOfferState.ASSIGNED, Schedule(41, (1.0, 2.0, 0.5))),
            OfferWithdrawn(_T0, 3),
        ]
        assert [event_from_dict(event_to_dict(event)) for event in events] == events

    def test_malformed_payload_raises(self):
        with pytest.raises(LiveEngineError):
            event_from_dict({"type": "added"})
        with pytest.raises(LiveEngineError):
            event_from_dict({"type": "unicorn", "timestamp": "2012-02-01T00:00:00"})

    def test_subjects(self):
        log = EventLog([_added(make_offer(offer_id=1)), OfferWithdrawn(_T0, 7)])
        assert log.subjects() == {1, 7}

    def test_sub_second_timestamps_roundtrip_losslessly(self):
        instant = _T0 + timedelta(seconds=1, microseconds=500_001)
        event = OfferWithdrawn(instant, 3)
        rebuilt = event_from_dict(event_to_dict(event))
        assert rebuilt == event
        assert rebuilt.timestamp.microsecond == 500_001


class TestEngineEvents:
    def test_add_then_commit_aggregates_cellmates(self):
        engine = LiveAggregationEngine()
        a = make_offer(offer_id=1, earliest_start=40)
        b = make_offer(offer_id=2, earliest_start=41)
        engine.apply(_added(a))
        engine.apply(_added(b))
        result = engine.commit()
        assert len(result.changed) == 1
        combined = result.changed[0]
        assert combined.is_aggregate and set(combined.constituent_ids) == {1, 2}
        assert engine.aggregated_offers() == [combined]

    def test_duplicate_add_rejected(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1)))
        with pytest.raises(LiveEngineError):
            engine.apply(_added(make_offer(offer_id=1)))

    def test_withdraw_unknown_rejected(self):
        with pytest.raises(LiveEngineError):
            LiveAggregationEngine().apply(OfferWithdrawn(_T0, 99))

    def test_update_migrates_cells(self):
        engine = LiveAggregationEngine()
        offer = make_offer(offer_id=1, earliest_start=40)
        engine.apply(_added(offer))
        before = engine.cell_of(1)
        engine.apply(OfferUpdated(_T0, replace(offer, earliest_start_slot=60, latest_start_slot=68)))
        after = engine.cell_of(1)
        assert before != after

    def test_state_change_keeps_cell_and_updates_offer(self):
        engine = LiveAggregationEngine()
        offer = make_offer(offer_id=1)
        engine.apply(_added(offer))
        cell = engine.cell_of(1)
        engine.apply(OfferStateChanged(_T0, 1, FlexOfferState.ACCEPTED))
        assert engine.cell_of(1) == cell
        assert engine.offer(1).state is FlexOfferState.ACCEPTED

    def test_assign_without_schedule_rejected(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1)))
        with pytest.raises(LiveEngineError):
            engine.apply(OfferStateChanged(_T0, 1, FlexOfferState.ASSIGNED))

    def test_assign_with_schedule(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1)))
        engine.apply(
            OfferStateChanged(_T0, 1, FlexOfferState.ASSIGNED, Schedule(41, (1.0, 2.0, 0.5)))
        )
        assert engine.offer(1).state is FlexOfferState.ASSIGNED
        assert engine.offer(1).schedule is not None

    def test_micro_batch_auto_commits(self):
        engine = LiveAggregationEngine(micro_batch_size=2)
        assert engine.apply(_added(make_offer(offer_id=1))) is None
        result = engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        assert result is not None and result.events_applied == 2
        assert engine.pending_events == 0


class TestEngineCommit:
    def test_folding_removes_raw_singleton_output(self):
        engine = LiveAggregationEngine()
        a = make_offer(offer_id=1, earliest_start=40)
        engine.apply(_added(a))
        first = engine.commit()
        assert first.changed == [a] and first.removed == []
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        second = engine.commit()
        assert [offer.id for offer in second.removed] == [1]
        assert len(second.changed) == 1 and second.changed[0].is_aggregate

    def test_clean_commit_is_empty(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1)))
        engine.commit()
        result = engine.commit()
        assert len(result) == 0 and result.dirty_cells == ()

    def test_aggregate_ids_are_stable_across_commits(self):
        engine = LiveAggregationEngine()
        offer = make_offer(offer_id=1, earliest_start=40)
        engine.apply(_added(offer))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        first_id = engine.commit().changed[0].id
        engine.apply(OfferUpdated(_T0, replace(offer, price_per_kwh=5.0)))
        result = engine.commit()
        assert result.changed[0].id == first_id

    def test_noop_state_change_reports_no_aggregate_change(self):
        # A constituent's lifecycle state does not enter the aggregate, so the
        # committed output is unchanged and subscribers are not woken.
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40)))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        engine.commit()
        engine.apply(OfferStateChanged(_T0, 1, FlexOfferState.ACCEPTED))
        result = engine.commit()
        assert result.changed == [] and result.removed == []
        assert result.dirty_cells != ()

    def test_withdrawing_cell_empties_output(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1)))
        engine.commit()
        engine.apply(OfferWithdrawn(_T0, 1))
        result = engine.commit()
        assert [offer.id for offer in result.removed] == [1]
        assert engine.aggregated_offers() == []

    def test_passthrough_aggregate_inputs_survive_unchanged(self):
        engine = LiveAggregationEngine()
        existing = replace(make_offer(offer_id=50), is_aggregate=True, constituent_ids=(7, 8))
        engine.apply(_added(existing))
        result = engine.commit()
        assert result.changed == [existing]
        assert engine.aggregated_offers() == [existing]
        engine.apply(OfferWithdrawn(_T0, 50))
        assert engine.commit().removed == [existing]

    def test_noop_passthrough_state_change_stays_silent(self):
        engine = LiveAggregationEngine()
        existing = replace(
            make_offer(offer_id=50), is_aggregate=True, constituent_ids=(7, 8)
        ).accept()
        engine.apply(_added(existing))
        engine.commit()
        # Accepting an already-accepted passthrough changes nothing.
        engine.apply(OfferStateChanged(_T0, 50, FlexOfferState.ACCEPTED))
        result = engine.commit()
        assert result.changed == [] and result.removed == []

    def test_cell_migration_is_not_reported_as_removal(self):
        # An offer moving between cells leaves one and enters another within a
        # single commit; it is still live and must only appear as changed.
        engine = LiveAggregationEngine()
        offer = make_offer(offer_id=1, earliest_start=40)
        engine.apply(_added(offer))
        engine.commit()
        moved = replace(offer, earliest_start_slot=60, latest_start_slot=68)
        engine.apply(OfferUpdated(_T0, moved))
        result = engine.commit()
        assert result.changed == [moved] and result.removed == []

    def test_collector_keeps_migrating_offer(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector)
        engine = LiveAggregationEngine(hub=hub)
        offer = make_offer(offer_id=1, earliest_start=40)
        engine.apply(_added(offer))
        engine.commit()
        engine.apply(OfferUpdated(_T0, replace(offer, earliest_start_slot=60, latest_start_slot=68)))
        engine.commit()
        assert 1 in collector.offers

    def test_allocated_ids_never_collide_with_passthrough_inputs(self):
        # Feed a batch aggregate (id 1_000_000) back in as a passthrough, then
        # form a fresh engine aggregate: the engine must skip the taken id.
        from repro.aggregation.aggregate import aggregate

        members = [
            make_offer(offer_id=1, earliest_start=40),
            make_offer(offer_id=2, earliest_start=41),
        ]
        batch_aggregate = aggregate(members).offers[0]
        engine = LiveAggregationEngine()
        engine.apply(_added(batch_aggregate))
        engine.apply(_added(make_offer(offer_id=3, earliest_start=80)))
        engine.apply(_added(make_offer(offer_id=4, earliest_start=81)))
        engine.commit()
        output_ids = [offer.id for offer in engine.aggregated_offers()]
        assert len(output_ids) == len(set(output_ids))
        assert batch_aggregate.id in output_ids

    def test_input_colliding_with_reserved_id_rejected(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40)))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        allocated = engine.commit().changed[0].id
        colliding = replace(make_offer(offer_id=allocated), is_aggregate=True, constituent_ids=(9,))
        with pytest.raises(LiveEngineError):
            engine.apply(_added(colliding))

    def test_constituents_and_result_provenance(self):
        engine = LiveAggregationEngine()
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40)))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41)))
        combined = engine.commit().changed[0]
        assert {o.id for o in engine.constituents_of(combined.id)} == {1, 2}
        result = engine.result()
        assert result.constituents_of(combined.id) == engine.constituents_of(combined.id)

    def test_max_group_size_chunks_in_commit(self):
        from repro.aggregation.parameters import AggregationParameters

        engine = LiveAggregationEngine(AggregationParameters(max_group_size=2))
        for index in range(5):
            engine.apply(_added(make_offer(offer_id=index + 1, earliest_start=40)))
        engine.commit()
        outputs = engine.aggregated_offers()
        assert len(outputs) == 3  # chunks of 2, 2, 1
        assert_batch_equivalent(engine)


class TestSubscriptions:
    def _commit_with_two_regions(self, hub):
        engine = LiveAggregationEngine(hub=hub)
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40, region="Capital")))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=80, region="Zealand")))
        return engine.commit()

    @staticmethod
    def _in_capital(offer) -> bool:
        return offer.region == "Capital"

    def test_region_filter(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector, predicate=self._in_capital)
        self._commit_with_two_regions(hub)
        assert {offer.region for offer in collector.offers.values()} == {"Capital"}

    def test_only_aggregates_filter(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector, predicate=lambda offer: offer.is_aggregate)
        self._commit_with_two_regions(hub)  # two singleton (raw) outputs only
        assert collector.offers == {} and collector.notifications == []

    def test_foreign_region_changes_do_not_wake_subscriber(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        subscription = hub.subscribe(collector, predicate=self._in_capital)
        engine = LiveAggregationEngine(hub=hub)
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40, region="Zealand")))
        engine.commit()
        assert subscription.notified == 0 and collector.notifications == []

    def test_region_exit_delivered_as_removal(self):
        # Two Capital offers aggregate; a Zealand offer then joins the same
        # grid cell, turning the aggregate's region "mixed" — the Capital
        # subscriber must drop it, not keep mirroring the stale variant.
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector, predicate=self._in_capital)
        engine = LiveAggregationEngine(hub=hub)
        engine.apply(_added(make_offer(offer_id=1, earliest_start=40, region="Capital")))
        engine.apply(_added(make_offer(offer_id=2, earliest_start=41, region="Capital")))
        engine.commit()
        assert len(collector.offers) == 1  # the Capital aggregate is mirrored
        engine.apply(_added(make_offer(offer_id=3, earliest_start=40, region="Zealand")))
        engine.commit()
        assert collector.offers == {}  # mixed-region aggregate was dropped

    def test_raising_listener_does_not_silence_later_ones(self):
        # The read path (the engine's commit listener) sees the commit before
        # any subscriber runs, and a subscriber that raises neither hides the
        # commit from it nor from the subscribers registered after it.
        hub = SubscriptionHub()

        def explode(notification):
            raise RuntimeError("listener failed")

        hub.subscribe(explode)
        collector = ChangeCollector()
        hub.subscribe(collector)
        engine = LiveAggregationEngine(hub=hub)
        published = []
        engine.commit_listener = published.append
        engine.apply(_added(make_offer(offer_id=1)))
        with pytest.raises(RuntimeError, match="listener failed"):
            engine.commit()
        assert [result.sequence for result in published] == [1]
        assert len(collector.notifications) == 1 and 1 in collector.offers
        engine.apply(_added(make_offer(offer_id=2, earliest_start=80)))
        with pytest.raises(RuntimeError, match="listener failed"):
            engine.commit()
        assert [result.sequence for result in published] == [1, 2]
        assert set(collector.offers) == {1, 2}

    def test_unsubscribe(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        token = hub.subscribe(collector)
        assert hub.unsubscribe(token) is True
        assert hub.unsubscribe(token) is False
        self._commit_with_two_regions(hub)
        assert collector.notifications == []

    def test_deliver_empty_heartbeat(self):
        hub = SubscriptionHub()
        beats = []
        hub.subscribe(lambda notification: beats.append(notification), deliver_empty=True)
        engine = LiveAggregationEngine(hub=hub)
        engine.commit()  # nothing changed
        assert len(beats) == 1 and len(beats[0]) == 0

    def test_collector_tracks_removals(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector)
        engine = LiveAggregationEngine(hub=hub)
        engine.apply(_added(make_offer(offer_id=1)))
        engine.commit()
        engine.apply(OfferWithdrawn(_T0, 1))
        engine.commit()
        assert collector.offers == {}

    def test_non_callable_listener_rejected(self):
        with pytest.raises(LiveEngineError):
            SubscriptionHub().subscribe("not-a-listener")


class TestMonitoringIntegration:
    def test_live_alert_feed_sees_low_flexibility(self):
        scenario = small_scenario()
        platform = MonitoringPlatform(scenario)
        hub = SubscriptionHub()
        engine = LiveAggregationEngine(hub=hub)
        feed = platform.attach_live(hub, engine)
        # One rigid offer: no time or energy flexibility at all.
        rigid = make_offer(offer_id=1, time_flexibility=0, profile=((2.0, 2.0), (1.0, 1.0)))
        engine.apply(_added(rigid))
        engine.commit()
        assert feed.current_alerts, "a low-flexibility alert should be raised"
        assert feed.alerts_for(1) == feed.current_alerts

    def test_standing_alert_recorded_once(self):
        scenario = small_scenario()
        platform = MonitoringPlatform(scenario)
        hub = SubscriptionHub()
        engine = LiveAggregationEngine(hub=hub)
        feed = platform.attach_live(hub, engine)
        engine.apply(_added(make_offer(offer_id=1, time_flexibility=0, profile=((2.0, 2.0),))))
        engine.commit()
        raised = len(feed.history)
        # An unrelated commit elsewhere must not re-log the standing alert.
        engine.apply(_added(make_offer(offer_id=2, earliest_start=80, time_flexibility=0, profile=((3.0, 3.0),))))
        engine.commit()
        assert feed.current_alerts
        standing = [alert for _, alert in feed.history]
        assert len(standing) == len(set(standing))
        assert raised >= 1

    def test_attach_live_adopts_hubless_engine(self):
        scenario = small_scenario()
        platform = MonitoringPlatform(scenario)
        hub = SubscriptionHub()
        engine = LiveAggregationEngine()  # no hub yet
        feed = platform.attach_live(hub, engine)
        assert engine.hub is hub
        engine.apply(_added(make_offer(offer_id=1, time_flexibility=0, profile=((2.0, 2.0),))))
        engine.commit()
        assert feed.current_alerts

    def test_attach_live_rejects_foreign_hub(self):
        scenario = small_scenario()
        platform = MonitoringPlatform(scenario)
        engine = LiveAggregationEngine(hub=SubscriptionHub())
        with pytest.raises(LiveEngineError):
            platform.attach_live(SubscriptionHub(), engine)


class TestLiveWarehouse:
    @pytest.fixture
    def live_setup(self):
        scenario = small_scenario()
        schema = load_scenario(scenario)
        warehouse = LiveWarehouse(schema, scenario.grid)
        return scenario, schema, warehouse

    def test_group_cells_backfilled(self, live_setup):
        _, schema, _ = live_setup
        fact = schema.table("fact_flexoffer")
        for row in fact.rows():
            if not row["is_aggregate"]:
                assert row["group_cell"]

    def test_add_and_withdraw_keep_repository_fresh(self, live_setup):
        scenario, _, warehouse = live_setup
        fresh = make_offer(offer_id=999_000, prosumer_id=scenario.prosumers[0].id)
        warehouse.apply(_added(fresh))
        assert warehouse.repository.load_by_offer_ids([999_000])[0] == fresh
        warehouse.apply(OfferWithdrawn(_T0, 999_000))
        assert warehouse.repository.load_by_offer_ids([999_000]) == []

    def test_update_replaces_rather_than_duplicates(self, live_setup):
        scenario, schema, warehouse = live_setup
        target = scenario.flex_offers[0]
        before = len(schema.table("fact_flexoffer"))
        warehouse.apply(OfferUpdated(_T0, replace(target, price_per_kwh=9.99)))
        assert len(schema.table("fact_flexoffer")) == before
        assert warehouse.repository.load_by_offer_ids([target.id])[0].price_per_kwh == 9.99

    def test_state_change_event(self, live_setup):
        scenario, _, warehouse = live_setup
        target = next(o for o in scenario.flex_offers if o.state is FlexOfferState.ACCEPTED)
        warehouse.apply(OfferStateChanged(_T0, target.id, FlexOfferState.ACCEPTED))
        assert (
            warehouse.repository.load_by_offer_ids([target.id])[0].state
            is FlexOfferState.ACCEPTED
        )

    def test_unknown_offer_events_rejected(self, live_setup):
        _, _, warehouse = live_setup
        with pytest.raises(LiveEngineError):
            warehouse.apply(OfferWithdrawn(_T0, 123_456_789))
        with pytest.raises(LiveEngineError):
            warehouse.apply(OfferStateChanged(_T0, 123_456_789, FlexOfferState.ACCEPTED))

    def test_commit_mirror_upserts_and_retires_aggregates(self, live_setup):
        scenario, _, warehouse = live_setup
        engine = LiveAggregationEngine()
        a = make_offer(offer_id=999_001, earliest_start=40)
        b = make_offer(offer_id=999_002, earliest_start=41)
        warehouse.apply(_added(a)), engine.apply(_added(a))
        warehouse.apply(_added(b)), engine.apply(_added(b))
        commit = engine.commit()
        warehouse.apply_commit(commit)
        aggregates = warehouse.repository.load_aggregates()
        assert [o.id for o in aggregates] == [commit.changed[0].id]
        # Raw-offer queries must NOT see the derived aggregate (no double count).
        assert all(not o.is_aggregate for o in warehouse.repository.load().offers)
        # Withdrawing one constituent dissolves the aggregate.
        warehouse.apply(OfferWithdrawn(_T0, 999_002)), engine.apply(OfferWithdrawn(_T0, 999_002))
        warehouse.apply_commit(engine.commit())
        assert warehouse.repository.load_aggregates() == []

    def test_streamed_offers_maintain_type_dimensions(self):
        # Seed the schema with no offers at all: type dimensions start empty
        # and must be filled by the event write path.
        scenario = small_scenario()
        schema = load_scenario(scenario.replace_offers([]))
        warehouse = LiveWarehouse(schema, scenario.grid)
        assert len(schema.table("dim_energy_type")) == 0
        for offer in scenario.flex_offers:
            warehouse.apply(_added(offer))
        expected_energy = {o.energy_type for o in scenario.flex_offers if o.energy_type}
        expected_appliances = {o.appliance_type for o in scenario.flex_offers if o.appliance_type}
        assert set(schema.table("dim_energy_type").column("energy_type")) == expected_energy
        assert set(schema.table("dim_appliance").column("appliance_type")) == expected_appliances

    def test_streamed_offer_from_unseen_district_stays_queryable(self, live_setup):
        scenario, schema, warehouse = live_setup
        stranger = make_offer(
            offer_id=999_100,
            district="Terra Incognita",
            city="Atlantis",
            region="Lost Region",
        )
        warehouse.apply(_added(stranger))
        result = warehouse.repository.load(FlexOfferFilter(districts=("Terra Incognita",)))
        assert [o.id for o in result.offers] == [999_100]
        assert "Terra Incognita" in {
            row["district"] for row in schema.table("dim_geography").rows()
        }

    def test_offers_in_cell_drilldown(self, live_setup):
        scenario, _, warehouse = live_setup
        engine = LiveAggregationEngine()
        for offer in scenario.flex_offers:
            engine.apply(_added(offer))
        commit = engine.commit()
        cell = commit.dirty_cells[0]
        from_warehouse = {o.id for o in warehouse.offers_in_cell(cell)}
        from_engine = {i for i in (o.id for o in scenario.flex_offers) if engine.cell_of(i) == cell}
        assert from_warehouse == from_engine and from_warehouse

    def test_prosumer_query_uses_index(self, live_setup):
        scenario, _, warehouse = live_setup
        prosumer = scenario.prosumers[0]
        result = warehouse.repository.load(FlexOfferFilter(prosumer_ids=(prosumer.id,)))
        assert result.scanned_rows < len(scenario.flex_offers)
        assert len(result) == len(scenario.offers_of_prosumer(prosumer.id))


class TestReplay:
    def test_stream_replays_to_exact_scenario_state(self):
        scenario = small_scenario()
        engine = LiveAggregationEngine(micro_batch_size=32)
        report = replay(scenario_event_stream(scenario), engine)
        assert report.final_offers == len(scenario.flex_offers)
        expected = sorted(scenario.flex_offers, key=lambda offer: offer.id)
        assert engine.offers() == expected
        assert_batch_equivalent(engine)

    def test_withdrawals_shrink_population(self):
        scenario = small_scenario()
        log = scenario_event_stream(scenario, withdraw_fraction=1.0)
        engine = LiveAggregationEngine()
        report = replay(log, engine)
        assert report.final_offers == 0
        assert engine.aggregated_offers() == []

    def test_updates_keep_equivalence_and_feasibility(self):
        scenario = small_scenario()
        log = scenario_event_stream(scenario, update_fraction=1.0, seed=11)
        engine = LiveAggregationEngine(micro_batch_size=16)
        replay(log, engine)
        assert_batch_equivalent(engine)

    def test_replay_with_warehouse_matches_engine(self):
        scenario = small_scenario()
        schema = load_scenario(scenario.replace_offers([]))
        warehouse = LiveWarehouse(schema, scenario.grid)
        engine = LiveAggregationEngine(micro_batch_size=16)
        log = scenario_event_stream(scenario, update_fraction=0.2, withdraw_fraction=0.1, seed=3)
        replay(log, engine, warehouse=warehouse)
        # fact_flexoffer holds exactly the raw offers; aggregates live apart.
        stored = sorted(warehouse.repository.load().offers, key=lambda offer: offer.id)
        assert stored == [o for o in engine.offers() if not o.is_aggregate]
        assert warehouse.aggregate_count() == sum(
            1 for o in engine.aggregated_offers() if o.is_aggregate
        )
        # The repository's raw energy total matches the live population — the
        # derived aggregates do not inflate it.
        assert sum(o.max_total_energy for o in stored) == pytest.approx(
            sum(o.max_total_energy for o in engine.offers() if not o.is_aggregate)
        )

    def test_rejected_event_does_not_diverge_warehouse(self):
        scenario = small_scenario()
        schema = load_scenario(scenario.replace_offers([]))
        warehouse = LiveWarehouse(schema, scenario.grid)
        engine = LiveAggregationEngine()
        offer = make_offer(offer_id=1)
        with pytest.raises(LiveEngineError):
            # Duplicate add: the engine (applied first) rejects it before the
            # warehouse sees either event.
            replay([_added(offer), _added(offer)], engine, warehouse=warehouse)
        assert warehouse.offer_count() == len([o for o in engine.offers()])

    def test_report_describe_mentions_latency(self):
        scenario = small_scenario()
        report = replay(scenario_event_stream(scenario), LiveAggregationEngine(micro_batch_size=8))
        text = report.describe()
        assert "commit latency" in text and str(report.events) in text
