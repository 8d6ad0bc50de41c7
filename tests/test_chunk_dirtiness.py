"""Property tests for the chunk-granular dirty ledger.

The contract under test: a commit re-aggregates *exactly* the chunks the
applied events perturbed — observable through the ``chunks_reaggregated`` /
``chunks_skipped`` counters on :class:`~repro.live.engine.CommitResult` —
while staying bit-identical to the batch pipeline.  Covered: targeted
single-offer mutations (price and state), chunk-boundary shifts on insert
and withdraw, the ``max_group_size=0`` unlimited case, and multi-mutation
commits counting the union of their chunks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.grouping import chunk_assignment, chunk_count, chunks_from
from repro.aggregation.parameters import AggregationParameters
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import OfferAdded, OfferStateChanged, OfferUpdated, OfferWithdrawn
from repro.flexoffer.model import FlexOfferState
from tests.conftest import make_offer

#: One grid cell, chunked: 64 members in chunks of 4 -> 16 chunks.
MEMBERS, CHUNK, CHUNKS = 64, 4, 16

#: Engines whose ``commit()`` drains exactly the events applied since the
#: previous one (the async worker may split a burst across several commits).
ENGINES = {"live": LiveAggregationEngine}


def build_engine(name: str, max_group_size: int = CHUNK, members: int = MEMBERS):
    """A committed engine holding one cell of ``members`` chunked offers."""
    engine = ENGINES[name](AggregationParameters(max_group_size=max_group_size))
    for index in range(1, members + 1):
        offer = make_offer(offer_id=index, earliest_start=40, time_flexibility=8)
        engine.apply(OfferAdded(offer.creation_time, offer))
    engine.commit()
    return engine


def assert_batch_identical(engine) -> None:
    live = Counter(canonical_form(offer) for offer in engine.aggregated_offers())
    batch = Counter(canonical_form(offer) for offer in engine.batch_equivalent().offers)
    assert live == batch


class TestHelpers:
    def test_chunk_count(self):
        assert chunk_count(0, 4) == 0
        assert chunk_count(7, 4) == 2
        assert chunk_count(8, 4) == 2
        assert chunk_count(9, 4) == 3
        assert chunk_count(9, 0) == 1

    def test_chunk_assignment_matches_sorted_rank(self):
        ids = [2, 5, 9, 11, 20, 31]
        assert chunk_assignment(ids, 2, 2) == 0
        assert chunk_assignment(ids, 9, 2) == 1
        assert chunk_assignment(ids, 31, 2) == 2
        assert chunk_assignment(ids, 31, 0) == 0

    def test_chunks_from_suffix_rule(self):
        ids = [2, 5, 9, 11, 20, 31]
        assert list(chunks_from(ids, 2, 2)) == [0, 1, 2]
        assert list(chunks_from(ids, 11, 2)) == [1, 2]
        assert list(chunks_from(ids, 99, 2)) == []
        # Unlimited: the single chunk is always perturbed.
        assert list(chunks_from(ids, 11, 0)) == [0]


@pytest.mark.parametrize("engine_name", ENGINES)
class TestSingleOfferMutation:
    @given(victim=st.integers(min_value=1, max_value=MEMBERS))
    @settings(deadline=None)
    def test_price_mutation_touches_exactly_one_chunk(self, engine_name, victim):
        engine = build_engine(engine_name)
        current = engine.offer(victim)
        engine.apply(
            OfferUpdated(current.creation_time, replace(current, price_per_kwh=99.9))
        )
        assert engine.dirty_chunk_count == 1
        result = engine.commit()
        assert result.chunks_reaggregated == 1
        assert result.chunks_skipped == CHUNKS - 1
        # The one recomputed chunk is the one containing the victim.
        member_ids = list(range(1, MEMBERS + 1))
        expected_chunk = chunk_assignment(member_ids, victim, CHUNK)
        changed_aggregates = [offer for offer in result.changed if offer.is_aggregate]
        assert len(changed_aggregates) == 1
        assert victim in changed_aggregates[0].constituent_ids
        assert min(changed_aggregates[0].constituent_ids) == expected_chunk * CHUNK + 1
        assert_batch_identical(engine)

    @given(victim=st.integers(min_value=1, max_value=MEMBERS))
    @settings(deadline=None)
    def test_state_change_touches_exactly_one_chunk(self, engine_name, victim):
        engine = build_engine(engine_name)
        engine.apply(
            OfferStateChanged(
                engine.offer(victim).creation_time, victim, FlexOfferState.ACCEPTED
            )
        )
        result = engine.commit()
        assert result.chunks_reaggregated == 1
        assert result.chunks_skipped == CHUNKS - 1
        assert_batch_identical(engine)

    def test_unlimited_group_size_has_single_chunk(self, engine_name):
        engine = build_engine(engine_name, max_group_size=0)
        current = engine.offer(7)
        engine.apply(
            OfferUpdated(current.creation_time, replace(current, price_per_kwh=1.23))
        )
        result = engine.commit()
        # max_group_size=0: the whole cell is one chunk; nothing to skip.
        assert result.chunks_reaggregated == 1
        assert result.chunks_skipped == 0
        assert_batch_identical(engine)


@pytest.mark.parametrize("engine_name", ENGINES)
class TestBoundaryShifts:
    @given(new_id=st.integers(min_value=1, max_value=MEMBERS + 1))
    @settings(deadline=None)
    def test_insert_reaggregates_suffix_chunks_only(self, engine_name, new_id):
        """Inserting shifts ranks from the insertion point: suffix recomputes."""
        # Spaced ids leave gaps to insert into mid-membership.
        spaced = build_engine(engine_name, members=0)
        ids = [index * 10 for index in range(1, MEMBERS + 1)]
        for offer_id in ids:
            offer = make_offer(offer_id=offer_id, earliest_start=40, time_flexibility=8)
            spaced.apply(OfferAdded(offer.creation_time, offer))
        spaced.commit()
        inserted = new_id * 10 - 5  # lands just before the new_id-th member
        offer = make_offer(offer_id=inserted, earliest_start=40, time_flexibility=8)
        spaced.apply(OfferAdded(offer.creation_time, offer))
        result = spaced.commit()
        after = sorted(ids + [inserted])
        expected = set(chunks_from(after, inserted, CHUNK))
        assert result.chunks_reaggregated == len(expected)
        assert result.chunks_skipped == chunk_count(len(after), CHUNK) - len(expected)
        assert_batch_identical(spaced)

    @given(victim=st.integers(min_value=1, max_value=MEMBERS))
    @settings(deadline=None)
    def test_withdraw_reaggregates_suffix_chunks_only(self, engine_name, victim):
        engine = build_engine(engine_name)
        offer = engine.offer(victim)
        engine.apply(
            OfferWithdrawn(offer.assignment_deadline + timedelta(minutes=15), victim)
        )
        result = engine.commit()
        after = [index for index in range(1, MEMBERS + 1) if index != victim]
        expected = set(chunks_from(after, victim, CHUNK))
        assert result.chunks_reaggregated == len(expected)
        assert result.chunks_skipped == chunk_count(len(after), CHUNK) - len(expected)
        assert_batch_identical(engine)

    def test_withdrawing_last_member_retires_trailing_chunk(self, engine_name):
        engine = build_engine(engine_name, members=CHUNK * 2 + 1)  # chunks: 4/4/1
        offer = engine.offer(CHUNK * 2 + 1)
        engine.apply(
            OfferWithdrawn(offer.assignment_deadline + timedelta(minutes=15), offer.id)
        )
        result = engine.commit()
        # The trailing singleton chunk vanishes: nothing recomputes, the two
        # full chunks are provably clean, and the raw offer is retired.
        assert result.chunks_reaggregated == 0
        assert result.chunks_skipped == 2
        assert offer.id in result.removed_ids
        assert_batch_identical(engine)


@pytest.mark.parametrize("engine_name", ENGINES)
@given(
    victims=st.sets(st.integers(min_value=1, max_value=MEMBERS), min_size=1, max_size=8)
)
@settings(deadline=None)
def test_multi_mutation_commit_counts_union_of_chunks(engine_name, victims):
    """N in-place mutations re-aggregate exactly the union of their chunks."""
    engine = build_engine(engine_name)
    member_ids = list(range(1, MEMBERS + 1))
    for victim in victims:
        current = engine.offer(victim)
        engine.apply(
            OfferUpdated(
                current.creation_time,
                replace(current, price_per_kwh=current.price_per_kwh + 1.0),
            )
        )
    expected = {chunk_assignment(member_ids, victim, CHUNK) for victim in victims}
    assert engine.dirty_chunk_count == len(expected)
    result = engine.commit()
    assert result.chunks_reaggregated == len(expected)
    assert result.chunks_skipped == CHUNKS - len(expected)
    assert_batch_identical(engine)


def test_clean_commit_touches_nothing():
    engine = build_engine("live")
    result = engine.commit()
    assert result.chunks_reaggregated == 0
    assert result.chunks_skipped == 0
    assert result.dirty_cells == ()
