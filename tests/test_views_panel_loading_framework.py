"""Tests for the aggregation panel, the loading workflow and the framework facade."""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta

import pytest

from repro.aggregation.parameters import AggregationParameters
from repro.errors import ViewError
from repro.live.events import OfferUpdated, OfferWithdrawn
from repro.session import FlexSession
from repro.views.aggregation_panel import AggregationPanel, AggregationPanelView
from repro.views.framework import ViewKind, VisualAnalysisFramework
from repro.views.loading import LoadingWorkflow
from repro.views.selection import SelectionRectangle
from repro.warehouse.query import FlexOfferFilter


class TestAggregationPanel:
    @pytest.fixture
    def panel(self, scenario):
        return AggregationPanel(scenario.flex_offers, scenario.grid)

    def test_aggregation_reduces_displayed_offers(self, panel, scenario):
        assert len(panel.aggregated_offers()) <= len(scenario.flex_offers)

    def test_metrics_reduction_at_least_one(self, panel):
        assert panel.metrics().reduction_ratio >= 1.0

    def test_tune_invalidates_cache(self, panel):
        first = panel.metrics()
        panel.tune(est_tolerance_slots=32, time_flexibility_tolerance_slots=32)
        second = panel.metrics()
        assert second.aggregated_count <= first.aggregated_count

    def test_sweep_is_monotone_in_est_tolerance(self, panel):
        points = panel.sweep(est_tolerances=[1, 4, 16], time_flexibility_tolerances=[4])
        counts = [point.metrics.aggregated_count for point in points]
        assert counts == sorted(counts, reverse=True)

    def test_sweep_requires_values(self, panel):
        with pytest.raises(ViewError):
            panel.sweep(est_tolerances=[], time_flexibility_tolerances=[4])

    def test_disaggregate_all_restores_individuals(self, scenario):
        scheduled = [offer.with_default_schedule() if offer.schedule is None and offer.state.value != "rejected" else offer for offer in scenario.flex_offers]
        panel = AggregationPanel(scheduled, scenario.grid, AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8))
        aggregated = panel.aggregated_offers()
        # Give aggregates a schedule so they can be disaggregated.
        with_schedules = [
            offer.with_default_schedule() if offer.is_aggregate else offer for offer in aggregated
        ]
        panel._result.offers = with_schedules  # simulate the scheduler writing back
        individuals = panel.disaggregate_all()
        assert len(individuals) >= len(aggregated)
        assert not any(offer.is_aggregate for offer in individuals if offer.constituent_ids == ())

    def test_before_after_views(self, panel, scenario):
        before = panel.before_view()
        after = panel.after_view()
        assert len(before.offers) == len(scenario.flex_offers)
        assert len(after.offers) == len(panel.aggregated_offers())

    def test_panel_view_renders_caption(self, panel):
        svg = AggregationPanelView(panel).to_svg()
        assert "aggregation:" in svg
        assert "EST tol=" in svg


class TestLoadingWorkflow:
    @pytest.fixture(scope="class")
    def workflow(self, scenario):
        return LoadingWorkflow(FlexSession(scenario))

    def test_entities_listed(self, workflow, scenario):
        assert len(workflow.available_entities()) == len(scenario.prosumers)

    def test_states_listed(self, workflow):
        assert set(workflow.available_states()) <= {"offered", "accepted", "assigned", "rejected", "executed"}

    def test_load_entity(self, workflow, scenario):
        prosumer = scenario.prosumers[0]
        dataset = workflow.load_entity(prosumer.id)
        assert len(dataset) == len(scenario.offers_of_prosumer(prosumer.id))
        assert dataset.title.startswith("entity")

    def test_load_entity_with_interval(self, workflow, scenario):
        prosumer = scenario.prosumers[0]
        start = scenario.grid.origin
        end = start + timedelta(hours=6)
        dataset = workflow.load_entity(prosumer.id, start, end)
        for offer in dataset.offers:
            assert scenario.grid.to_datetime(offer.earliest_start_slot) < end

    def test_unknown_entity_raises(self, workflow):
        with pytest.raises(ViewError):
            workflow.load_entity(999_999)

    def test_load_filtered(self, workflow, scenario):
        dataset = workflow.load_filtered(FlexOfferFilter(regions=("Capital",)))
        assert all(offer.region == "Capital" for offer in dataset.offers)

    def test_load_all_and_history(self, workflow, scenario):
        before = len(workflow.history)
        dataset = workflow.load_all()
        assert len(dataset) == len(scenario.flex_offers)
        assert len(workflow.history) == before + 1

    def test_warehouse_summary(self, workflow, scenario):
        assert workflow.warehouse_summary()["offer_count"] == len(scenario.flex_offers)


class TestLoadingFollowsTheSession:
    """The loading tab reads the session's active engine, never a stale copy."""

    @staticmethod
    def _entity_offers(scenario):
        entity = max(scenario.prosumers, key=lambda p: len(scenario.offers_of_prosumer(p.id)))
        return entity.id, scenario.offers_of_prosumer(entity.id)

    @staticmethod
    def _withdraw(session, offers):
        for offer in offers:
            session.ingest(OfferWithdrawn(offer.creation_time, offer.id))
        session.commit()

    def test_engine_swap_then_withdrawals(self, scenario):
        session = FlexSession(scenario)
        framework = session.framework()
        entity, offers = self._entity_offers(scenario)
        assert len(framework.loading.load_entity(entity)) == len(offers) > 0
        session.use_engine("live")
        self._withdraw(session, offers)
        assert len(session.offers().where(prosumer_ids=(entity,)).fetch()) == 0
        assert len(framework.loading.load_entity(entity)) == 0
        session.close()

    def test_replay_reset(self, scenario):
        session = FlexSession(scenario, engine="live")
        framework = session.framework()
        entity, offers = self._entity_offers(scenario)
        self._withdraw(session, offers)
        assert len(framework.loading.load_entity(entity)) == 0
        session.replay()  # the scenario stream again, from an emptied engine
        assert len(framework.loading.load_entity(entity)) == len(offers)
        session.close()


class TestMaterializedTabSelection:
    """A materialized tab keeps the analyst's selection across commits."""

    @pytest.fixture
    def session(self, scenario):
        with FlexSession(scenario, engine="live") as session:
            yield session

    @staticmethod
    def _open(session):
        tab = session.framework().open_materialized_tab(
            session.offers().aggregate(session.parameters)
        )
        chosen, other, *_ = [offer for offer in tab.offers if offer.is_aggregate]
        return tab, chosen, other

    def test_unrelated_commit_keeps_the_selection(self, session):
        tab, chosen, other = self._open(session)
        tab.selection.select([chosen.id])
        member = tab.source.result.constituents_of(other.id)[0]
        revised = replace(member, price_per_kwh=member.price_per_kwh + 0.5)
        session.ingest(OfferUpdated(member.creation_time, revised))
        session.commit()
        changed, removed = tab.sync()
        assert other.id in {offer.id for offer in changed}
        assert chosen.id not in {offer.id for offer in changed} | set(removed)
        assert tab.selection.selected_ids == {chosen.id}

    def test_withdrawal_drops_the_retired_aggregate(self, session):
        tab, chosen, other = self._open(session)
        tab.selection.select([chosen.id, other.id])
        for member in tab.source.result.constituents_of(chosen.id):
            session.ingest(OfferWithdrawn(member.assignment_deadline, member.id))
        session.commit()
        _, removed = tab.sync()
        assert chosen.id in removed
        assert tab.selection.selected_ids == {other.id}


class TestFramework:
    @pytest.fixture
    def framework(self, scenario):
        return VisualAnalysisFramework(scenario)

    def test_open_tab_for_all(self, framework, scenario):
        tab = framework.open_tab_for_all()
        assert len(tab.offers) == len(scenario.flex_offers)
        assert framework.tab_titles == ["all flex-offers"]

    def test_open_tab_for_entity(self, framework, scenario):
        prosumer = scenario.prosumers[0]
        tab = framework.open_tab_for_entity(prosumer.id)
        assert all(offer.prosumer_id == prosumer.id for offer in tab.offers)

    def test_switch_all_view_kinds(self, framework):
        tab = framework.open_tab_for_all()
        for kind in ViewKind:
            tab.switch_view(kind)
            assert "<svg" in tab.view().to_svg()

    def test_details_lookup(self, framework):
        tab = framework.open_tab_for_all()
        details = tab.details_of(tab.offers[0].id)
        assert details.offer_id == tab.offers[0].id
        with pytest.raises(ViewError):
            tab.details_of(123_456_789)

    def test_apply_aggregation_shrinks_tab(self, framework):
        tab = framework.open_tab_for_all()
        original = len(tab.offers)
        tab.apply_aggregation(AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8))
        assert len(tab.offers) <= original

    def test_selection_extract_and_remove(self, framework):
        tab = framework.open_tab_for_all()
        view = tab.view()
        area = view.options.plot_area
        tab.selection.select_rectangle(view, SelectionRectangle(area.left, area.top, area.left + 200, area.bottom))
        selected = len(tab.selection)
        assert selected > 0
        new_tab = tab.extract_selection()
        assert len(new_tab.offers) == selected
        tab.remove_selection()
        assert len(tab.offers) + selected == len(framework.scenario.flex_offers)

    def test_close_tab(self, framework):
        tab = framework.open_tab_for_all()
        framework.close_tab(tab)
        assert framework.tab_titles == []

    def test_open_tab_for_offers(self, framework, scenario):
        tab = framework.open_tab_for_offers(scenario.flex_offers[:5], title="subset", kind=ViewKind.PROFILE)
        assert tab.title == "subset"
        assert len(tab.offers) == 5
        assert "<svg" in tab.view().to_svg()
