"""The async-commit engine: background commits, barriers and delivery.

The contract under test: moving the commit off the caller's thread is
*invisible* to consumers — subscribers see exactly one notification per
logical commit, the flush/close barriers restore the synchronous engine's
state, and the aggregated state always equals the batch pipeline over the
surviving offers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.aggregation.parameters import AggregationParameters
from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import LiveEngineError
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, assert_batch_equivalent
from repro.live.events import OfferAdded, OfferUpdated, OfferWithdrawn
from repro.live.subscriptions import ChangeCollector, SubscriptionHub
from repro.session import FlexSession, QuerySpec
from tests.conftest import make_offer


def _offers_in_distinct_cells(count=3, start=10):
    """One offer per grid cell, in ``count`` consecutive cells."""
    step = AggregationParameters().est_tolerance_slots
    return [
        make_offer(offer_id=index + 1, earliest_start=start + index * step)
        for index in range(count)
    ]


class TestAsyncCommitEngine:
    def test_worker_commits_and_flush_is_a_barrier(self):
        engine = AsyncCommitEngine(LiveAggregationEngine(), drain_batch=4)
        offers = [make_offer(offer_id=i, earliest_start=8 * i) for i in range(1, 9)]
        for offer in offers:
            assert engine.apply(OfferAdded(offer.creation_time, offer)) is None
        engine.flush()
        assert len(engine) == len(offers)
        assert not engine.has_pending_changes
        assert engine.commit_count >= 1
        assert_batch_equivalent(engine)
        engine.close()

    def test_callbacks_fire_once_per_logical_commit(self):
        hub = SubscriptionHub()
        collector = ChangeCollector()
        hub.subscribe(collector, name="all")
        engine = AsyncCommitEngine(LiveAggregationEngine(hub=hub), drain_batch=1024)
        offers = _offers_in_distinct_cells(count=3)
        for offer in offers:
            engine.apply(OfferAdded(offer.creation_time, offer))
        engine.flush()
        # The worker drains eagerly, so the burst may split into a few logical
        # commits — but notifications match logical commits one-to-one.
        assert hub.published_commits == len(engine.drain_commits()) >= 1
        assert len(collector.notifications) <= hub.published_commits
        assert set(collector.offers) == {offer.id for offer in offers}
        engine.close()

    def test_close_drains_the_queue(self):
        engine = AsyncCommitEngine(LiveAggregationEngine(), queue_size=2)
        offers = [make_offer(offer_id=i, earliest_start=8 * i) for i in range(1, 6)]
        for offer in offers:
            engine.apply(OfferAdded(offer.creation_time, offer))  # backpressures
        engine.close()
        assert len(engine) == len(offers)
        with pytest.raises(LiveEngineError):
            engine.apply(OfferWithdrawn(offers[0].creation_time, offers[0].id))

    def test_worker_error_poisons_the_engine(self):
        engine = AsyncCommitEngine(LiveAggregationEngine())
        offer = make_offer(offer_id=1)
        engine.apply(OfferAdded(offer.creation_time, offer))
        engine.apply(OfferAdded(offer.creation_time, offer))  # duplicate: worker fails
        with pytest.raises(LiveEngineError):
            engine.flush()
        with pytest.raises(LiveEngineError):
            engine.flush()  # stays poisoned

    def test_micro_batching_inner_rejected(self):
        with pytest.raises(LiveEngineError):
            AsyncCommitEngine(LiveAggregationEngine(micro_batch_size=8))

    def test_replay_mirrors_an_explicit_warehouse(self):
        """A warehouse passed alongside a bare async engine is kept in sync."""
        from repro.live.replay import replay, scenario_event_stream
        from repro.live.warehouse import LiveWarehouse
        from repro.warehouse.loader import load_scenario

        scenario = generate_scenario(ScenarioConfig(prosumer_count=15, seed=9))
        engine = AsyncCommitEngine(LiveAggregationEngine(), drain_batch=16)
        warehouse = LiveWarehouse(
            load_scenario(scenario.replace_offers([])),
            scenario.grid,
            AggregationParameters(),
        )
        log = scenario_event_stream(scenario, withdraw_fraction=0.2, seed=2)
        report = replay(log, engine, warehouse=warehouse)
        assert report.commit_count >= 1
        assert warehouse.offer_count() == len(engine.offers())
        aggregates = [o for o in engine.aggregated_offers() if o.is_aggregate]
        assert warehouse.aggregate_count() == len(aggregates)
        engine.close()


def test_session_close_releases_engine_workers():
    """Closing the session stops the async worker; the context form does too."""
    scenario = generate_scenario(ScenarioConfig(prosumer_count=10, seed=3))
    with FlexSession(scenario, engine="async") as session:
        assert session.offers().count() > 0
        inner = session.engine.engine
    assert inner.closed
    with pytest.raises(LiveEngineError):
        inner.apply(OfferWithdrawn(scenario.flex_offers[0].creation_time, 1))


def _capital_pairs(parameters, cells=3):
    """Pairs of Capital offers in ``cells`` distinct grid cells.

    Two cellmates per cell keep every cell's aggregate pure Capital, so a
    ``region="Capital"`` spec stays interested in all of them.
    """
    offers = []
    for index in range(cells):
        earliest = 8 + index * parameters.est_tolerance_slots
        offer_id = 101 + 2 * index
        offers.append(make_offer(offer_id=offer_id, earliest_start=earliest))
        offers.append(make_offer(offer_id=offer_id + 1, earliest_start=earliest + 1))
    return offers


class TestSessionDelivery:
    """Spec-filtered subscriptions through the live and async session backends."""

    def _session(self, engine):
        scenario = generate_scenario(ScenarioConfig(prosumer_count=5, seed=3))
        offers = _capital_pairs(AggregationParameters())
        return FlexSession(scenario.replace_offers(offers), engine=engine), offers

    @pytest.mark.parametrize("engine", ("live", "async"))
    def test_withdrawals_emptying_cells_deliver_removals(self, engine):
        session, offers = self._session(engine)
        backend = session.engine
        collector = ChangeCollector()
        session.subscribe(session.offers().where(region="Capital").spec, collector)
        # Prime the mirror: a price revision hands the subscriber every aggregate.
        for offer in offers[::2]:
            session.ingest(OfferUpdated(offer.creation_time, replace(offer, price_per_kwh=9.0)))
        session.commit()
        assert len(collector.offers) == 3
        published_before = backend.hub.published_commits
        # Withdraw everything: every cell empties.
        for offer in offers:
            session.ingest(OfferWithdrawn(offer.creation_time, offer.id))
        session.commit()
        backend.refresh()
        published = backend.hub.published_commits - published_before
        # The synchronous live backend publishes exactly one commit; the async
        # worker may split the burst, but callbacks still match logical
        # commits one-to-one.
        if engine == "live":
            assert published == 1
            assert len(collector.notifications) == 2
        assert 1 <= published <= len(offers)
        # Every mirrored aggregate was delivered back as a removal.
        assert collector.offers == {}
        assert backend.engine.aggregated_offers() == []
        assert session.query(QuerySpec.build(region="Capital")).offers == []
