"""Property tests for the engine interchangeability contract — all three engines.

One :class:`~repro.session.QuerySpec` executed against the
:class:`~repro.session.BatchEngine` and any live-family engine
(:class:`~repro.session.LiveEngine`, :class:`~repro.session.AsyncEngine`)
over the same offer population must
return equivalent :class:`~repro.session.ResultSet` envelopes: the same
offers for raw reads, and — when the spec aggregates — outputs whose profiles
are bit-identical, ids modulo :func:`~repro.live.engine.canonical_form`.

The hypothesis example budget is profile-controlled (see ``tests/conftest.py``);
CI's scheduled job raises it via ``HYPOTHESIS_PROFILE=extended``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession, QuerySpec

#: Every live-family engine the contract covers (batch is the reference).
STREAM_ENGINES = ("live", "async")

#: Shared read-only sessions; module-level so hypothesis examples reuse them.
_SCENARIO = generate_scenario(ScenarioConfig(prosumer_count=50, seed=11))
_BATCH = FlexSession(_SCENARIO, engine="batch")
_STREAMS = {name: FlexSession(_SCENARIO, engine=name) for name in STREAM_ENGINES}

_REGIONS = sorted({offer.region for offer in _SCENARIO.flex_offers})
_GRID_NODES = sorted({offer.grid_node for offer in _SCENARIO.flex_offers})
_STATES = ("offered", "accepted", "assigned", "rejected")
_PROSUMERS = sorted({offer.prosumer_id for offer in _SCENARIO.flex_offers})


def _subset(values, max_size=3):
    return st.none() | st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


@st.composite
def specs(draw):
    parameters = draw(
        st.none()
        | st.builds(
            AggregationParameters,
            est_tolerance_slots=st.sampled_from([2, 4, 8]),
            time_flexibility_tolerance_slots=st.sampled_from([4, 8]),
            max_group_size=st.sampled_from([0, 3]),
        )
    )
    interval = draw(st.none() | st.tuples(st.integers(0, 48), st.integers(8, 48)))
    interval_start = interval_end = None
    if interval is not None:
        start_slot, width = interval
        interval_start = _SCENARIO.grid.to_datetime(start_slot)
        interval_end = _SCENARIO.grid.to_datetime(start_slot + width)
    return QuerySpec.build(
        prosumer_ids=draw(_subset(_PROSUMERS, max_size=5)),
        regions=draw(_subset(_REGIONS)),
        grid_nodes=draw(_subset(_GRID_NODES)),
        states=draw(_subset(_STATES)),
        interval_start=interval_start,
        interval_end=interval_end,
        parameters=parameters,
    )


@pytest.mark.parametrize("engine", STREAM_ENGINES)
@given(spec=specs())
@settings(deadline=None)
def test_same_spec_same_resultset_on_every_engine(engine, spec):
    """The headline contract: one spec, any engine, equivalent result sets."""
    batch_result = _BATCH.query(spec)
    stream_result = _STREAMS[engine].query(spec)
    assert batch_result.matches(stream_result), (
        f"engines disagree on {spec.describe()!r}: "
        f"batch={len(batch_result)} {engine}={len(stream_result)}"
    )
    # Raw reads must agree exactly (ids included), not just canonically.
    if spec.parameters is None:
        assert sorted(o.id for o in batch_result) == sorted(o.id for o in stream_result)

    # Aggregate profiles are bit-identical: canonical() keeps profiles
    # untouched, so multiset equality implies per-slice float equality.
    def profile_key(offer):
        return tuple(
            (piece.min_energy, piece.max_energy, piece.duration_slots)
            for piece in offer.profile
        )

    batch_profiles = sorted(profile_key(offer) for offer in batch_result.aggregates)
    stream_profiles = sorted(profile_key(offer) for offer in stream_result.aggregates)
    assert batch_profiles == stream_profiles


@pytest.mark.parametrize("engine", STREAM_ENGINES)
@given(spec=specs())
@settings(deadline=None)
def test_mutated_stream_stays_interchangeable(engine, spec):
    """After revisions and withdrawals the surviving populations still agree."""
    assert _mutated_pairs  # built once below
    stream, batch = _mutated_pairs[engine]
    assert batch.query(spec).matches(stream.query(spec))


def _build_mutated_pair(engine):
    scenario = generate_scenario(ScenarioConfig(prosumer_count=40, seed=7))
    stream = FlexSession(scenario, engine=engine, live_preload=False)
    log = scenario_event_stream(
        scenario, update_fraction=0.2, withdraw_fraction=0.1, seed=3
    )
    stream.replay(log)
    # A batch snapshot over exactly the offers that survived the stream.
    surviving = scenario.replace_offers(stream.engine.offers())
    batch = FlexSession(surviving, engine="batch")
    return stream, batch


_mutated_pairs = {name: _build_mutated_pair(name) for name in STREAM_ENGINES}


@pytest.mark.parametrize("engine", STREAM_ENGINES)
def test_fast_path_serves_committed_state(engine):
    """The default-parameter whole-population aggregation is the committed state."""
    session = _STREAMS[engine]
    backend = session.engine
    result = session.offers().aggregate().fetch()
    committed = backend.engine.aggregated_offers()
    assert sorted(o.id for o in result) == sorted(o.id for o in committed)


def test_async_flush_barrier_makes_reads_deterministic():
    """Events queued through the async engine are visible after the flush barrier.

    Ingest returns immediately (commits happen on the worker); the refresh /
    flush barrier inside the read path must surface every queued event, so a
    query right after a burst of ingests sees the synchronous engines' state.
    """
    from repro.live.events import OfferWithdrawn

    scenario = generate_scenario(ScenarioConfig(prosumer_count=30, seed=23))
    session = FlexSession(scenario, engine="async")
    population = session.engine.offers()
    victims = [offer for offer in population if not offer.is_aggregate][:7]
    for victim in victims:
        assert session.ingest(OfferWithdrawn(victim.creation_time, victim.id)) is None
    # The read path flushes: every withdrawal is applied, committed, mirrored.
    result = session.query(QuerySpec())
    assert len(result) == len(population) - len(victims)
    surviving = scenario.replace_offers(session.engine.offers())
    batch = FlexSession(surviving, engine="batch")
    spec = QuerySpec.build(parameters=AggregationParameters())
    assert batch.query(spec).matches(session.query(spec))
    # And the commit log shows real background commits, not caller-side ones.
    assert session.engine.engine.commit_count >= 1


def test_scanned_rows_reflect_index_planning():
    """Every engine plans state/grid-node filters through the hash indexes."""
    for session in (_BATCH, *_STREAMS.values()):
        result = session.query(QuerySpec.build(state="assigned"))
        assert result.scanned_rows <= result.matched_rows + 1  # passthroughs may add
        full = session.query(QuerySpec())
        assert result.scanned_rows < full.matched_rows
