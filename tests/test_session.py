"""Tests for the unified session facade (spec, builder, engines, views, CLI)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import FlexSession, QuerySpec, register_view
from repro.app.cli import main as cli_main
from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import SessionError
from repro.flexoffer.model import FlexOfferState
from repro.live.events import OfferAdded, OfferUpdated, OfferWithdrawn
from repro.session import VIEW_REGISTRY, OfferQuery, ResultSet
from repro.session.spec import FRAME_COLUMNS
from repro.views.framework import ViewKind, VisualAnalysisFramework
from tests.conftest import make_offer


@pytest.fixture(scope="module")
def session() -> FlexSession:
    return FlexSession(
        generate_scenario(ScenarioConfig(prosumer_count=40, seed=5)), engine="batch"
    )


class TestQuerySpec:
    def test_build_accepts_scalars_and_aliases(self):
        spec = QuerySpec.build(state="assigned", region=("Capital",), grid_node="F X")
        assert spec.states == ("assigned",)
        assert spec.regions == ("Capital",)
        assert spec.grid_nodes == ("F X",)

    def test_build_accepts_state_enum_members(self):
        spec = QuerySpec.build(states=[FlexOfferState.ASSIGNED, "accepted"])
        assert spec.states == ("accepted", "assigned")

    def test_build_rejects_unknown_filters(self):
        with pytest.raises(SessionError):
            QuerySpec.build(colour="red")

    def test_build_rejects_alias_and_field_together(self):
        with pytest.raises(SessionError):
            QuerySpec.build(state="assigned", states=("accepted",))

    def test_empty_filter_iterable_matches_nothing(self, session):
        # An empty multi-select must not silently mean "everything".
        assert session.offers().where(states=[]).count() == 0
        assert QuerySpec.build(states=[]).states == ()

    def test_spec_is_hashable_and_frozen(self):
        spec = QuerySpec.build(state="assigned")
        assert hash(spec) == hash(QuerySpec.build(states=("assigned",)))

    def test_to_filter_round_trips_fields(self):
        spec = QuerySpec.build(region="Capital", state="assigned", only_aggregates=False)
        filt = spec.to_filter()
        assert filt.regions == ("Capital",)
        assert filt.states == ("assigned",)
        assert filt.only_aggregates is False

    def test_matches_mirrors_repository_semantics(self, session):
        spec = QuerySpec.build(state="assigned")
        expected = {o.id for o in session.repository.load(spec.to_filter()).offers}
        via_predicate = {
            o.id
            for o in session.engine.offers()
            if spec.matches(o, session.grid)
        }
        assert via_predicate == expected


class TestFluentBuilder:
    def test_builders_are_immutable(self, session):
        base = session.offers()
        refined = base.where(state="assigned")
        assert base.spec != refined.spec
        assert base.spec == QuerySpec()

    def test_where_merges_and_replaces(self, session):
        query = session.offers().where(state="assigned").where(region="Capital")
        assert query.spec.states == ("assigned",)
        assert query.spec.regions == ("Capital",)
        narrowed = query.where(state="accepted")
        assert narrowed.spec.states == ("accepted",)

    def test_fetch_returns_resultset_envelope(self, session):
        result = session.offers().where(state="assigned").fetch()
        assert isinstance(result, ResultSet)
        assert result.engine == "batch"
        assert result.matched_rows == len(result)
        assert all(o.state.value == "assigned" for o in result)

    def test_limit_caps_in_id_order(self, session):
        result = session.offers().limit(5).fetch()
        assert [o.id for o in result] == sorted(o.id for o in result)
        assert len(result) == 5

    def test_aggregate_with_tolerances(self, session):
        result = session.offers().aggregate(est_tolerance_slots=8).fetch()
        assert result.spec.parameters.est_tolerance_slots == 8
        assert result.aggregates
        for aggregate in result.aggregates:
            assert result.constituents_of(aggregate.id)

    def test_aggregate_rejects_both_forms(self, session):
        from repro.aggregation.parameters import AggregationParameters

        with pytest.raises(SessionError):
            session.offers().aggregate(AggregationParameters(), est_tolerance_slots=8)

    def test_to_frame_has_stable_columns(self, session):
        frame = session.offers().limit(3).to_frame()
        assert len(frame) == 3
        assert tuple(frame[0]) == FRAME_COLUMNS

    def test_count(self, session):
        assert session.offers().count() == len(session.engine.offers())


class TestViews:
    def test_every_registered_view_renders(self, session):
        for name in session.view_names:
            view = session.offers().limit(20).to_view(name)
            assert "<svg" in view.to_svg()

    def test_unknown_view_raises_with_choices(self, session):
        with pytest.raises(SessionError, match="registered views"):
            session.offers().to_view("hologram")

    def test_custom_views_plug_in(self, session):
        @register_view("offer-count")
        def build(offers, owning_session, **options):
            return len(offers)

        try:
            assert session.offers().where(state="assigned").to_view("offer-count") > 0
        finally:
            VIEW_REGISTRY.pop("offer-count")


class TestEngines:
    def test_batch_engine_rejects_events(self, session):
        with pytest.raises(SessionError):
            session.ingest(OfferWithdrawn(session.grid.to_datetime(0), 1))

    def test_subscribe_requires_live_engine(self, session):
        with pytest.raises(SessionError):
            session.subscribe(QuerySpec(), lambda delta: None)

    def test_unknown_engine_rejected(self, session):
        with pytest.raises(SessionError):
            session.use_engine("clustered")

    def test_live_ingest_updates_queries_and_warehouse(self):
        session = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)), engine="live"
        )
        before = session.offers().count()
        victim = session.engine.offers()[0]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        assert session.offers().count() == before - 1
        assert not session.repository.load_by_offer_ids([victim.id])

    def test_live_reads_derive_the_star_schema_only_on_demand(self, monkeypatch):
        """Live sessions keep one copy of their state, the snapshots: no read
        but ``schema``/``repository`` loads a star schema, and that one is
        cached per snapshot object (versions restart after a reset)."""
        import repro.session.engines as engines
        import repro.warehouse.loader as loader

        loads = []

        def counted(original):
            def load(*args, **kwargs):
                loads.append(args)
                return original(*args, **kwargs)

            return load

        monkeypatch.setattr(engines, "load_scenario", counted(loader.load_scenario))
        monkeypatch.setattr(loader, "load_scenario", counted(loader.load_scenario))
        scenario = generate_scenario(ScenarioConfig(prosumer_count=20, seed=3))
        session = FlexSession(scenario, engine="live")
        assert not hasattr(session.engine, "warehouse")
        framework = session.framework()
        victim, survivor = session.engine.offers()[:2]
        session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        session.query(QuerySpec.build(state="assigned"))
        session.query(QuerySpec.build(parameters=session.parameters))
        session.query(QuerySpec(), consistency="live")
        framework.loading.load_entity(survivor.prosumer_id)
        assert loads == []

        repository = session.repository
        assert session.repository is repository and session.schema is repository.schema
        assert len(loads) == 1
        session.ingest(OfferWithdrawn(survivor.creation_time, survivor.id))
        session.commit()
        after_commit = session.repository
        assert after_commit is not repository
        assert not after_commit.load_by_offer_ids([survivor.id])
        # A reset restarts the versions: the same version number must not
        # hand back the schema derived before the reset.
        version = session.engine.readpath.manager.latest_version
        session.engine.reset()
        session.ingest(OfferAdded(survivor.creation_time, survivor))
        for _ in range(version):
            session.commit()
        assert session.engine.readpath.manager.latest_version == version
        after_reset = session.repository
        assert after_reset is not after_commit
        assert [o.id for o in after_reset.load().offers] == [survivor.id]
        session.close()

    def test_spec_subscription_sees_matching_changes_only(self):
        # Two Capital offers share a grid cell (their aggregate stays pure
        # Capital); the Zealand offer sits in a far-away cell of its own.
        capital_a = make_offer(offer_id=101, earliest_start=40)
        capital_b = make_offer(offer_id=102, earliest_start=41)
        zealand = make_offer(offer_id=201, earliest_start=80, region="Zealand")
        scenario = generate_scenario(ScenarioConfig(prosumer_count=5, seed=3))
        session = FlexSession(
            scenario.replace_offers([capital_a, capital_b, zealand]), engine="live"
        )
        query = session.offers().where(region="Capital").aggregate()
        deltas = []
        view = session.subscribe(query, deltas.append)
        (aggregate,) = view.result.offers
        # A Zealand revision commits but must not wake the Capital listener.
        session.ingest(
            OfferUpdated(zealand.creation_time, replace(zealand, price_per_kwh=9.0))
        )
        session.commit()
        assert deltas == []
        # A Capital revision changes the Capital aggregate: one delivery.
        session.ingest(
            OfferUpdated(capital_a.creation_time, replace(capital_a, price_per_kwh=9.0))
        )
        session.commit()
        assert [(d.changed_ids, d.removed_ids) for d in deltas] == [((aggregate.id,), ())]
        (revised,) = view.result.offers
        assert revised.is_aggregate and revised.region == "Capital"
        assert view.result.matches(session.query(query.spec))
        # Withdrawing one constituent dissolves the aggregate: the listener
        # drops it and gets the survivor, now an output of its own.
        session.ingest(OfferWithdrawn(capital_a.creation_time, capital_a.id))
        session.commit()
        assert (deltas[1].changed_ids, deltas[1].removed_ids) == ((102,), (aggregate.id,))
        assert view.result.offers == [capital_b] == session.query(query.spec).offers

    @pytest.mark.parametrize("engine", ("live",))
    def test_snapshot_rebuilds_batch_from_surviving_offers(self, engine):
        session = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)), engine=engine
        )
        victims = session.engine.offers()[:4]
        for victim in victims:
            session.ingest(OfferWithdrawn(victim.creation_time, victim.id))
        session.commit()
        survivors = session.offers().count()
        # Without a snapshot the batch engine stays frozen at the scenario.
        stale = session.use_engine("batch")
        assert len(stale.offers()) == survivors + len(victims)
        session.use_engine(engine)
        fresh = session.snapshot()
        # The cached batch backend was replaced; batch queries now see exactly
        # the offers that survived the stream, and the contract still holds.
        assert session.use_engine("batch") is fresh
        assert session.offers().count() == survivors
        batch_result = session.query(QuerySpec())
        session.use_engine(engine)
        assert batch_result.matches(session.query(QuerySpec()))

    def test_snapshot_on_batch_engine_rebuilds_from_scenario(self, session):
        assert session.engine_name == "batch"
        before = session.offers().count()
        fresh = session.snapshot()
        assert session.use_engine("batch") is fresh
        assert session.offers().count() == before

    def test_engine_switch_preserves_backends(self, session):
        fresh = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)), engine="batch"
        )
        live_backend = fresh.use_engine("live")
        assert fresh.engine_name == "live"
        fresh.use_engine("batch")
        assert fresh.engine_name == "batch"
        assert fresh.use_engine("live") is live_backend

    def test_replay_on_preloaded_live_session_resets_state(self):
        session = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)), engine="live"
        )
        notifications = []
        session.subscribe(QuerySpec(), notifications.append)
        report = session.replay(seed=1)
        assert report.events > 0
        assert session.offers().count() == report.final_offers
        assert notifications  # subscriptions survive the reset

    def test_replay_explicit_stream_continues_or_resets(self):
        from repro.live.replay import scenario_event_stream

        session = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)), engine="live"
        )
        # An explicit from-scratch log over the preloaded state needs reset=True.
        log = scenario_event_stream(session.scenario, seed=1)
        report = session.replay(log, reset=True)
        assert report.events == len(log)
        # Without reset, an explicit stream continues the current state.
        victim = session.engine.offers()[0]
        continuation = [OfferWithdrawn(victim.creation_time, victim.id)]
        before = session.offers().count()
        session.replay(continuation)
        assert session.offers().count() == before - 1

    def test_session_replay_routes_through_live_engine(self):
        fresh = FlexSession(
            generate_scenario(ScenarioConfig(prosumer_count=20, seed=3)),
            engine="batch",
            live_preload=False,
        )
        report = fresh.replay(update_fraction=0.1, withdraw_fraction=0.05, seed=1)
        assert fresh.engine_name == "live"
        assert report.events > 0
        assert fresh.offers().count() == report.final_offers


class TestFrameworkIntegration:
    def test_framework_accepts_session(self, session):
        framework = VisualAnalysisFramework(session)
        assert framework.session is session
        assert framework.repository is session.repository

    def test_framework_accepts_bare_scenario(self):
        scenario = generate_scenario(ScenarioConfig(prosumer_count=20, seed=3))
        framework = VisualAnalysisFramework(scenario)
        assert framework.session.scenario is scenario
        tab = framework.open_tab_for_all()
        assert len(tab.offers) == len(scenario.flex_offers)

    def test_open_tab_for_query(self, session):
        framework = session.framework()
        tab = framework.open_tab_for_query(
            session.offers().where(state="assigned"), kind=ViewKind.PROFILE
        )
        assert tab.kind is ViewKind.PROFILE
        assert all(o.state.value == "assigned" for o in tab.offers)
        assert "assigned" in tab.title


class TestPackageSurface:
    def test_headline_types_importable_from_repro(self):
        import repro

        for name in ("FlexSession", "QuerySpec", "ResultSet", "OfferQuery",
                     "BatchEngine", "LiveEngine", "AggregationBackend"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
        assert isinstance(repro.FlexSession, type)
        assert issubclass(OfferQuery, object)


class TestSessionCli:
    def test_session_smoke_command(self, capsys):
        assert cli_main(["--prosumers", "25", "--seed", "3", "session", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "session smoke OK" in out

    def test_session_query_command(self, capsys):
        code = cli_main(
            ["--prosumers", "25", "--seed", "3", "session", "--state", "assigned",
             "--engine", "live", "--limit", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[live]" in out and "assigned" in out

    def test_render_command_uses_registry(self, tmp_path, capsys):
        out_path = tmp_path / "dash.svg"
        code = cli_main(
            ["--prosumers", "25", "--seed", "3", "render", "--view", "dashboard",
             "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().startswith("<?xml") or "<svg" in out_path.read_text()


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
    """Spec-filtered subscriptions through the live session backend."""

    def test_withdrawals_emptying_cells_deliver_removals(self):
        from repro.aggregation.parameters import AggregationParameters

        scenario = generate_scenario(ScenarioConfig(prosumer_count=5, seed=3))
        offers = _capital_pairs(AggregationParameters())
        session = FlexSession(scenario.replace_offers(offers), engine="live")
        backend = session.engine
        query = session.offers().where(region="Capital").aggregate()
        deltas = []
        view = session.subscribe(query, deltas.append)
        held = sorted(offer.id for offer in view.result.offers)
        assert len(held) == 3 and all(offer.is_aggregate for offer in view.result.offers)
        published_before = backend.hub.published_commits
        # Withdraw everything: every cell empties, in one commit.
        for offer in offers:
            session.ingest(OfferWithdrawn(offer.creation_time, offer.id))
        session.commit()
        assert backend.hub.published_commits - published_before == 1
        # One delta hands back every aggregate the listener holds as removed.
        assert [(d.changed_ids, sorted(d.removed_ids)) for d in deltas] == [((), held)]
        assert view.result.offers == [] == session.query(query.spec).offers
        assert backend.engine.aggregated_offers() == []
