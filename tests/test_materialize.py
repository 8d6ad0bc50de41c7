"""Differential harness for materialized views (``repro.session.materialize``).

The contract under test: a registered :class:`MaterializedView` — maintained
purely from commit deltas through the hub — is equivalent to a from-scratch
``session.query(spec)`` at *every* commit point, on every live-family engine,
with the batch pipeline as the final oracle (the four-engine pattern of
``tests/test_differential_engines.py``).  Raw specs must agree on exact ids,
aggregation specs bit-for-bit on profiles (ids modulo canonical form), and
the view's ``version`` must track the read path's snapshot versions.  The
result cache reads the same commit deltas, so every probe also holds a
cached ``session.query(spec)`` to the uncached reference, and the streams
carry passthrough aggregates through their whole lifecycle.

Also here: the commit order — the read path publishes a commit before any
subscriber is notified of it, and a subscriber that raises desyncs neither
the read path nor the views registered after it.

Also here: the regression tests for standing state across ``use_engine()``
swaps — before this fix every engine switch silently orphaned hub
subscriptions (and ``unsubscribe`` on the stale handle returned False).

Registered in the weekly ``HYPOTHESIS_PROFILE=extended`` CI run.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.aggregate import aggregate, aggregate_group
from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.errors import SessionError
from repro.flexoffer.model import FlexOfferState
from repro.live.engine import canonical_form
from repro.live.events import (
    OfferAdded,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
)
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession, QuerySpec
from tests.conftest import make_offer

LIVE_ENGINES = ("live", "async")


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(ScenarioConfig(prosumer_count=30, seed=13))


def _mutated_events(scenario, seed: int = 5):
    stream = scenario_event_stream(
        scenario, update_fraction=0.3, withdraw_fraction=0.2, seed=seed
    )
    return list(stream.replay_order())


def _passthrough_events(scenario, count: int = 8) -> list:
    """Batch aggregates fed in as passthroughs, then state-changed, revised
    across regions and withdrawn.

    Their ids stay below the engine's ``id_offset``: an input id at or above
    it raises the engine's allocator, and a later passthrough would then
    collide with an id the engine allocated.
    """
    batch = aggregate(sorted(scenario.flex_offers, key=lambda offer: offer.id))
    # Priced apart from the engine's own aggregates of the same offers, so
    # the provenance check never confuses the two under canonical form.
    fed = [
        replace(offer, id=900_001 + index, price_per_kwh=offer.price_per_kwh + 0.5)
        for index, offer in enumerate(batch.aggregates[:count])
    ]
    events: list = [OfferAdded(offer.creation_time, offer) for offer in fed]
    for index, offer in enumerate(fed[:5]):
        state = FlexOfferState.REJECTED if index == 1 else FlexOfferState.ACCEPTED
        events.append(OfferStateChanged(offer.creation_time, offer.id, state))
    # A revision across regions moves the whole geography, to that of an
    # offer living in the other region.
    homes = {offer.region: offer for offer in scenario.flex_offers}
    for offer in fed[1:7:2]:
        home = homes["North Jutland" if offer.region == "Capital" else "Capital"]
        revised = replace(
            offer,
            region=home.region,
            city=home.city,
            district=home.district,
            grid_node=home.grid_node,
            price_per_kwh=offer.price_per_kwh + 1.0,
        )
        events.append(OfferUpdated(offer.creation_time, revised))
    for offer in fed[1::3]:
        events.append(
            OfferWithdrawn(offer.assignment_deadline + timedelta(minutes=15), offer.id)
        )
    return events


def _with_passthroughs(scenario) -> list:
    """The mutated stream with the passthrough lifecycle spread evenly through it."""
    events = _mutated_events(scenario)
    extra = _passthrough_events(scenario)
    stride = max(1, len(events) // (len(extra) + 1))
    # Highest position first, so earlier insertion points stay where they are.
    for index in range(len(extra), 0, -1):
        events.insert(min(index * stride, len(events)), extra[index - 1])
    return events


def _retuned(session: FlexSession):
    """The session's parameters with a wider start-time tolerance."""
    parameters = session.parameters
    return replace(parameters, est_tolerance_slots=parameters.est_tolerance_slots + 1)


def _group_specs(session: FlexSession) -> dict[str, QuerySpec]:
    """Aggregation specs that are not the engine's own: maintained group by group."""
    return {
        "agg-region": QuerySpec.build(region="Capital", parameters=session.parameters),
        "agg-retuned": QuerySpec.build(parameters=_retuned(session)),
    }


def _standing_specs(session: FlexSession) -> dict[str, QuerySpec]:
    return {
        "raw-region": QuerySpec.build(region="Capital"),
        "raw-prosumer": QuerySpec.build(prosumer_id=7),
        "raw-limited": QuerySpec.build(state="assigned", limit=5),
        "aggregated": QuerySpec.build(parameters=session.parameters),
        "agg-limited": QuerySpec.build(parameters=session.parameters, limit=8),
        **_group_specs(session),
    }


def _by_id(offers) -> list:
    return sorted(offers, key=lambda offer: offer.id)


def _assert_same_provenance(held, expect, name: str) -> None:
    """Each held aggregate's constituents ≡ those of its canonical twin in ``expect``."""
    expected = {
        canonical_form(offer): expect.constituents_of(offer.id)
        for offer in expect.aggregates
    }
    for offer in held.aggregates:
        assert _by_id(held.constituents_of(offer.id)) == _by_id(
            expected[canonical_form(offer)]
        ), f"view {name!r}: constituents of aggregate {offer.id} diverged"


def _check_view(session: FlexSession, view) -> None:
    """One differential probe: the maintained result vs a from-scratch query."""
    expect = session.query(view.spec, consistency="live")
    held = view.result
    assert expect.matches(held), (
        f"view {view.name!r} diverged from a from-scratch query at v{view.version}"
    )
    _assert_same_provenance(held, expect, view.name)
    if view.spec.parameters is None:
        assert [o.id for o in held.offers] == [o.id for o in expect.offers], (
            f"view {view.name!r}: raw ids diverged"
        )
    assert held.matched_rows == expect.matched_rows
    readpath = session.engine.readpath
    assert view.version == readpath.manager.latest_version, (
        f"view {view.name!r} version {view.version} is not the published "
        f"snapshot version {readpath.manager.latest_version}"
    )
    assert held.version == view.version
    assert view.staleness == 0
    # The cache and the view consume the same commit deltas: a cached read
    # must equal the uncached reference as exactly as the view does.
    cached = session.query(view.spec)
    assert expect.matches(cached), (
        f"cached read of {view.spec.describe()!r} diverged at v{cached.version}"
    )
    _assert_same_provenance(cached, expect, view.name)
    if view.spec.parameters is None:
        assert [o.id for o in cached.offers] == [o.id for o in expect.offers], (
            f"cached read of {view.name!r}: raw ids diverged"
        )
    assert cached.version == readpath.manager.latest_version


# ----------------------------------------------------------------------
# The differential harness: every commit point, every live-family engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_views_match_queries_at_every_commit_point(small_scenario, engine):
    """Mutated/withdrawn stream with passthroughs: maintained ≡ from-scratch
    after each event."""
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        views = [
            session.materialize(spec, name=name)
            for name, spec in _standing_specs(session).items()
        ]
        for event in _with_passthroughs(small_scenario):
            session.ingest(event)
            session.engine.refresh()
            for view in views:
                _check_view(session, view)
        # Final barrier: the batch pipeline over the surviving offers is the
        # fourth engine's verdict on the same standing specs.
        batch = session.snapshot()
        session_grid = session.grid
        from repro.session.query import execute

        for view in views:
            oracle = execute(batch, session_grid, view.spec)
            assert oracle.matches(view.result), (
                f"view {view.name!r} diverged from the batch oracle"
            )
            _assert_same_provenance(view.result, oracle, view.name)
        # The cached reads above were carried across commits, not just
        # refilled at every version.
        assert session.engine.readpath.cache.carried > 0


def test_maintenance_is_delta_driven_not_recompute(small_scenario):
    """Foreign-region commits are skipped; the view never refreshes itself."""
    with FlexSession(small_scenario, engine="live", live_preload=False) as session:
        view = session.materialize(QuerySpec.build(region="Capital"), name="capital")
        applied_baseline = view.deltas_applied
        for event in _mutated_events(small_scenario):
            session.ingest(event)
            session.engine.refresh()
        assert view.refreshes == 0, "delta maintenance fell back to recompute"
        assert view.commits_skipped > 0, (
            "a region view should skip commits that only touched other regions"
        )
        assert view.deltas_applied > applied_baseline
        stats = view.stats()
        assert stats["staleness"] == 0
        assert view.result.scanned_rows == 0, "a maintained view never scans"


# ----------------------------------------------------------------------
# The engine-own spec: the view serves the engine's committed outputs
# ----------------------------------------------------------------------
def _assert_follows_engine(session: FlexSession, view) -> None:
    """The view holds the state engine's own output objects and population."""
    backend = session.engine
    backend.refresh()
    state = backend._state_engine
    outputs = state.aggregated_offers()
    held = view.result
    assert len(held.offers) == len(outputs)
    assert all(mine is theirs for mine, theirs in zip(held.offers, outputs)), (
        "the engine-own view holds outputs the engine did not commit"
    )
    assert held.matched_rows == view.stats()["rows"] == len(state)
    _check_view(session, view)


@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_engine_own_view_does_no_aggregation_of_its_own(
    small_scenario, engine, monkeypatch
):
    """Stream, refresh, swap engines and replay: the view never aggregates."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine-own view aggregated a group itself")

    monkeypatch.setattr("repro.session.materialize.aggregate_group", refuse)
    other = next(name for name in LIVE_ENGINES if name != engine)
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        view = session.materialize(
            QuerySpec.build(parameters=session.parameters), name="agg"
        )
        _assert_follows_engine(session, view)
        for index, event in enumerate(_mutated_events(small_scenario), start=1):
            session.ingest(event)
            if index % 25 == 0:
                session.commit()
                _assert_follows_engine(session, view)
        session.commit()
        _assert_follows_engine(session, view)
        view.refresh()
        _assert_follows_engine(session, view)
        for step, target in enumerate((other, engine)):
            session.use_engine(target)
            _assert_follows_engine(session, view)
            fresh = make_offer(offer_id=990_001 + step, earliest_start=40)
            session.ingest(OfferAdded(fresh.creation_time, fresh))
            session.commit()
            _assert_follows_engine(session, view)
        session.replay(update_fraction=0.2, withdraw_fraction=0.1, engine=other)
        _assert_follows_engine(session, view)
        assert view.refreshes >= 2


@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_state_change_refreshes_engine_own_provenance(small_scenario, engine):
    """A member's state change moves provenance though no output changes."""
    with FlexSession(small_scenario, engine=engine) as session:
        view = session.materialize(
            QuerySpec.build(parameters=session.parameters), name="agg"
        )
        aggregate = view.result.aggregates[0]
        member = view.result.constituents_of(aggregate.id)[0]
        assert member.state is not FlexOfferState.REJECTED
        session.ingest(
            OfferStateChanged(
                member.acceptance_deadline, member.id, FlexOfferState.REJECTED
            )
        )
        session.commit()
        # The engine re-aggregated the chunk into an equal aggregate, so the
        # commit reports no changed output at all.
        assert view.last_delta is not None and len(view.last_delta) == 0
        states = {
            offer.id: offer.state for offer in view.result.constituents_of(aggregate.id)
        }
        assert states[member.id] is FlexOfferState.REJECTED
        _check_view(session, view)


# ----------------------------------------------------------------------
# Random interleavings (hypothesis op scripts, mirroring the engine harness)
# ----------------------------------------------------------------------
INSERT, MUTATE, WITHDRAW, COMMIT, PASSTHROUGH, STATE = range(6)

#: Two whole geographies a passthrough lives in, and is revised between.
_GEOGRAPHIES = (
    {
        "region": "Capital",
        "city": "Copenhagen",
        "district": "Copenhagen Centrum",
        "grid_node": "F Copenhagen Centrum",
    },
    {
        "region": "Zealand",
        "city": "Roskilde",
        "district": "Roskilde Centrum",
        "grid_node": "F Roskilde Centrum",
    },
)

_ops = st.lists(
    st.tuples(
        st.sampled_from(
            (INSERT, INSERT, MUTATE, MUTATE, WITHDRAW, COMMIT, COMMIT, PASSTHROUGH, STATE)
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=200),
    ),
    min_size=4,
    max_size=40,
)


@pytest.mark.parametrize("engine", LIVE_ENGINES)
@given(ops=_ops)
@settings(deadline=None, max_examples=20)
def test_random_interleavings_keep_views_fresh(small_scenario, engine, ops):
    """Scripted insert/mutate/withdraw/state interleavings, passthrough
    aggregates included: checked at every commit."""
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        views = [
            session.materialize(QuerySpec.build(parameters=session.parameters), name="agg"),
            session.materialize(QuerySpec.build(prosumer_id=2), name="p2"),
            *(
                session.materialize(spec, name=name)
                for name, spec in _group_specs(session).items()
            ),
        ]
        population: dict[int, object] = {}
        order: list[int] = []
        next_id = 1
        next_passthrough = 500_000  # below the engine's id_offset
        for op, selector, magnitude in ops:
            if op == COMMIT:
                session.engine.refresh()
                for view in views:
                    _check_view(session, view)
                continue
            if op == PASSTHROUGH:
                members = [
                    make_offer(
                        offer_id=index,
                        earliest_start=36 + (selector + index) % 12,
                        prosumer_id=selector % 5 + 1,
                        **_GEOGRAPHIES[selector % 2],
                    )
                    for index in (1, 2)
                ]
                offer = aggregate_group(members, next_passthrough)
                next_passthrough += 1
                population[offer.id] = offer
                order.append(offer.id)
                event = OfferAdded(offer.creation_time, offer)
            elif op == INSERT or not order:
                offer = make_offer(
                    offer_id=next_id,
                    earliest_start=36 + selector % 12,
                    time_flexibility=4 + selector % 6,
                    prosumer_id=selector % 5 + 1,
                )
                next_id += 1
                population[offer.id] = offer
                order.append(offer.id)
                event = OfferAdded(offer.creation_time, offer)
            elif op == MUTATE:
                target = order[selector % len(order)]
                current = population[target]
                if current.is_aggregate:  # a passthrough: revised across regions
                    revised = replace(
                        current,
                        price_per_kwh=current.price_per_kwh + magnitude / 100.0,
                        **_GEOGRAPHIES[current.region == "Capital"],
                    )
                else:
                    revised = replace(
                        current,
                        price_per_kwh=current.price_per_kwh + magnitude / 100.0,
                        earliest_start_slot=current.earliest_start_slot + magnitude % 3,
                        latest_start_slot=current.latest_start_slot + magnitude % 3,
                    )
                population[target] = revised
                event = OfferUpdated(current.creation_time, revised)
            elif op == STATE:
                target = order[selector % len(order)]
                current = population[target]
                state = (FlexOfferState.ACCEPTED, FlexOfferState.REJECTED)[magnitude % 2]
                population[target] = apply_transition(current, state)
                event = OfferStateChanged(current.creation_time, target, state)
            else:  # WITHDRAW
                target = order.pop(selector % len(order))
                offer = population.pop(target)
                event = OfferWithdrawn(
                    offer.assignment_deadline + timedelta(minutes=15), target
                )
            session.ingest(event)
        session.engine.refresh()
        for view in views:
            _check_view(session, view)


# ----------------------------------------------------------------------
# Commit order: a commit is readable before anyone is notified of it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_subscribers_read_the_commit_they_are_notified_of(small_scenario, engine):
    """Inside a callback, the notified commit is already the latest snapshot."""
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        spec = QuerySpec()
        seen: list[tuple[int, int]] = []

        def callback(notification):
            sequence = notification.commit.sequence
            seen.append((sequence, session.query(spec, consistency="latest").version))
            # On async this runs on the worker thread: a flushing read there
            # would join the worker's own queue, so only live reads through
            # the default (read-your-writes) consistency too.
            if engine == "live":
                seen.append((sequence, session.query(spec).version))

        session.subscribe(spec, callback)
        for index, event in enumerate(_mutated_events(small_scenario), start=1):
            session.ingest(event)
            if index % 10 == 0:
                session.commit()
        session.engine.refresh()
        assert len(seen) > 1
        assert all(sequence == version for sequence, version in seen), seen


def _commit_on_caller(session: FlexSession, events) -> None:
    """Apply ``events`` and commit them on this thread.

    On ``async`` a subscriber's error raised on the worker poisons the
    engine, and every later barrier re-raises it.  Applying to the inner
    engine under the commit lock and committing through the barrier keeps
    the commit, and the error, on the caller's thread, as on ``live``.
    """
    backend = session.engine
    inner = backend._state_engine
    with backend._quiescent():
        for event in events:
            inner.apply(event)
    backend.engine.commit()


@pytest.mark.parametrize("engine", LIVE_ENGINES)
def test_raising_subscriber_desyncs_neither_reads_nor_later_views(
    small_scenario, engine
):
    """A raising callback neither hides its commit from the read path nor
    from a view registered after it, so later reads serve no stale offer."""
    with FlexSession(small_scenario, engine=engine) as session:
        spec = QuerySpec.build(region="Capital")
        session.query(spec)  # a cached entry the failing commit must drop

        def explode(notification):
            raise RuntimeError("subscriber failed")

        failing = session.subscribe(QuerySpec(), explode, name="explode")
        view = session.materialize(spec, name="capital")
        offers = [offer for offer in session.engine.offers() if not offer.is_aggregate]
        ours = next(offer for offer in offers if offer.region == "Capital")
        theirs = next(offer for offer in offers if offer.region != "Capital")
        revised = replace(ours, price_per_kwh=ours.price_per_kwh + 5.0)
        with pytest.raises(RuntimeError, match="subscriber failed"):
            _commit_on_caller(session, [OfferUpdated(ours.creation_time, revised)])
        session.unsubscribe(failing)
        # A later commit that touches only another region.
        _commit_on_caller(
            session,
            [
                OfferUpdated(
                    theirs.creation_time,
                    replace(theirs, price_per_kwh=theirs.price_per_kwh + 1.0),
                )
            ],
        )
        served = {offer.id: offer for offer in session.query(spec).offers}
        assert served[ours.id] == revised
        assert {offer.id: offer for offer in view.result.offers}[ours.id] == revised
        _check_view(session, view)


# ----------------------------------------------------------------------
# Standing state across engine swaps (the subscription-orphaning bugfix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target", LIVE_ENGINES)
def test_subscriptions_survive_engine_swaps(small_scenario, target):
    """A session.subscribe callback keeps firing after use_engine() swaps."""
    with FlexSession(small_scenario, engine="live") as session:
        notifications = []
        subscription = session.subscribe(
            QuerySpec(), notifications.append, name="standing"
        )
        session.use_engine(target)
        before = len(notifications)
        fresh = make_offer(offer_id=990_001, earliest_start=40, time_flexibility=6)
        session.ingest(OfferAdded(fresh.creation_time, fresh))
        session.commit()
        assert len(notifications) > before, (
            f"subscription went silent after swapping to {target!r}"
        )
        # The un-registration bug: before the fix this returned False because
        # the handle lived in the abandoned engine's hub.
        assert session.unsubscribe(subscription) is True
        mark = len(notifications)
        another = make_offer(offer_id=990_002, earliest_start=41, time_flexibility=6)
        session.ingest(OfferAdded(another.creation_time, another))
        session.commit()
        assert len(notifications) == mark, "unsubscribed callback still fired"
        assert session.unsubscribe(subscription) is False


def test_views_follow_engine_swaps_and_replay(small_scenario):
    """Materialized views stay fresh across swaps and replay(engine=...)."""
    with FlexSession(small_scenario, engine="live") as session:
        spec = QuerySpec.build(parameters=session.parameters)
        view = session.materialize(spec, name="agg")
        for target in ("async", "live"):
            session.use_engine(target)
            session.engine.refresh()
            _check_view(session, view)
            victim = next(o for o in session.engine.offers() if not o.is_aggregate)
            session.ingest(OfferWithdrawn(victim.assignment_deadline, victim.id))
            session.commit()
            _check_view(session, view)
        # replay(engine=...) resets the live state: the view must re-base on
        # the emptied engine and then track the replayed stream.
        session.replay(update_fraction=0.2, withdraw_fraction=0.1, engine="async")
        session.engine.refresh()
        _check_view(session, view)
        assert view.refreshes >= 1, "a reset replay must re-base the view"


def test_live_accessor_does_not_steal_views(small_scenario):
    """session.live must not move standing views off the active engine."""
    with FlexSession(small_scenario, engine="async") as session:
        view = session.materialize(
            QuerySpec.build(parameters=session.parameters), name="agg"
        )
        backend = session.engine
        _ = session.live  # creates the live backend without switching
        assert session.engine is backend
        assert view._backend is backend


def test_materialize_registry_api(small_scenario):
    with FlexSession(small_scenario, engine="live") as session:
        spec = QuerySpec.build(region="Capital")
        view = session.materialize(spec, name="capital")
        assert session.materialized("capital") is view
        assert view in session.materialized_views
        assert "materialized_views" in session.summary()
        with pytest.raises(SessionError):
            session.materialize(spec, name="capital")  # duplicate name
        dropped = session.drop_materialized("capital")
        assert dropped is view
        assert not view.attached
        with pytest.raises(SessionError):
            session.materialized("capital")
        # Detached views keep their last result but refuse to refresh.
        assert dropped.result is not None
        with pytest.raises(SessionError):
            dropped.refresh()


def test_materialize_requires_live_family(small_scenario):
    with FlexSession(small_scenario, engine="batch") as session:
        with pytest.raises(SessionError):
            session.materialize(QuerySpec())


# ----------------------------------------------------------------------
# Checkpoint / restore mid-stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ("live", "async"))
def test_restore_mid_stream_rebases_views(tmp_path, small_scenario, engine):
    """Views materialized on a restored session track the tail, versions intact."""
    from repro.store import RecoveryManager

    events = _mutated_events(small_scenario)
    cut = len(events) // 2
    manager = RecoveryManager(tmp_path / "ckpt")
    manager.record(events)
    with FlexSession(small_scenario, engine=engine, live_preload=False) as session:
        session.replay(events[:cut], reset=False)
        manager.checkpoint(session, offset=cut)

    restored = FlexSession.restore(tmp_path / "ckpt", engine=engine)
    try:
        spec = QuerySpec.build(parameters=restored.parameters)
        view = restored.materialize(spec, name="agg")
        # The view re-based on the restored state, which already includes the
        # replayed tail; its version must be the read path's published one.
        _check_view(restored, view)
        # Keep streaming past the restore: still maintained, versions advance.
        v0 = view.version
        victim = next(o for o in restored.engine.offers() if not o.is_aggregate)
        restored.ingest(OfferWithdrawn(victim.assignment_deadline, victim.id))
        restored.commit()
        assert view.version > v0
        _check_view(restored, view)
    finally:
        restored.close()
