"""Property tests for the chunk-granular dirty ledger.

The contract under test: a commit re-aggregates *exactly* the chunks the
applied events perturbed — observable through the ``chunks_reaggregated`` /
``chunks_skipped`` counters on :class:`~repro.live.engine.CommitResult` —
while staying bit-identical to the batch pipeline.  Covered: targeted
single-offer mutations (price and state), chunk-boundary shifts on insert
and withdraw, the ``max_group_size=0`` unlimited case, and multi-mutation
commits counting the union of their chunks.  A chunk that keeps its
members pays only for what its touched members changed: a state change
keeps the output object, a price revision refolds only the mean price, and
anything else re-runs :func:`~repro.aggregation.aggregate.aggregate_group`.

The same ledger names each commit's offers in ``CommitResult.touched``, the
one delta the result cache and the materialized views read: exactly the
subject ids of the events since the previous commit, each mapped to the
engine's current offer or to ``None`` once it is gone — also across
micro-batch commits and a checkpoint restore.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.aggregate import aggregate_group
from repro.aggregation.grouping import chunk_assignment, chunk_count, chunks_from
from repro.aggregation.parameters import AggregationParameters
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import OfferAdded, OfferStateChanged, OfferUpdated, OfferWithdrawn
from repro.flexoffer.model import FlexOfferState
from repro.store.state import capture_engine_state, restore_engine_state
from tests.conftest import make_offer

#: One grid cell, chunked: 64 members in chunks of 4 -> 16 chunks.
MEMBERS, CHUNK, CHUNKS = 64, 4, 16

#: Engines whose ``commit()`` drains exactly the events applied since the
#: previous one.
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


def _output_holding(engine, offer_id: int):
    """The committed aggregate whose chunk holds ``offer_id``."""
    (output,) = [
        offer
        for offer in engine.aggregated_offers()
        if offer.is_aggregate and offer_id in offer.constituent_ids
    ]
    return output


def _commit_counting_folds(engine):
    """Commit ``engine``; returns the result and its ``aggregate_group`` calls."""
    with mock.patch("repro.live.engine.aggregate_group", wraps=aggregate_group) as fold:
        result = engine.commit()
    return result, fold.call_count


class TestInPlaceSettling:
    """A chunk that keeps its members pays only for what its members changed."""

    @given(victim=st.integers(min_value=1, max_value=MEMBERS))
    @settings(deadline=None)
    def test_state_change_keeps_the_output_object(self, victim):
        engine = build_engine("live")
        previous = _output_holding(engine, victim)
        engine.apply(
            OfferStateChanged(engine.offer(victim).creation_time, victim, FlexOfferState.ACCEPTED)
        )
        result, folds = _commit_counting_folds(engine)
        assert folds == 0
        assert result.changed == []
        assert result.chunks_reaggregated == 1
        assert _output_holding(engine, victim) is previous
        # Provenance moves to the member's new version.
        constituents = engine.constituents_of(previous.id)
        assert [offer.id for offer in constituents] == list(previous.constituent_ids)
        assert all(offer is engine.offer(offer.id) for offer in constituents)
        assert_batch_identical(engine)

    @given(
        victims=st.sets(st.integers(min_value=1, max_value=CHUNK), min_size=1, max_size=CHUNK),
        cents=st.integers(min_value=1, max_value=10_000),
    )
    @settings(deadline=None)
    def test_price_revision_refolds_only_the_price(self, victims, cents):
        engine = build_engine("live")
        previous = _output_holding(engine, 1)
        for victim in victims:
            current = engine.offer(victim)
            revised = replace(current, price_per_kwh=current.price_per_kwh + cents / 7.0)
            engine.apply(OfferUpdated(current.creation_time, revised))
        result, folds = _commit_counting_folds(engine)
        assert folds == 0
        refolded = _output_holding(engine, 1)
        assert result.changed == [refolded]
        assert refolded.profile is previous.profile
        members = [engine.offer(offer_id) for offer_id in previous.constituent_ids]
        assert engine.constituents_of(refolded.id) == members
        expected = aggregate_group(members, refolded.id)
        assert refolded == expected
        assert struct.pack("<d", refolded.price_per_kwh) == struct.pack(
            "<d", expected.price_per_kwh
        )
        assert_batch_identical(engine)

    def test_profile_revision_reruns_the_fold(self):
        engine = build_engine("live")
        current = engine.offer(3)
        revised = replace(current, profile=tuple(piece.scale(2.0) for piece in current.profile))
        engine.apply(OfferUpdated(current.creation_time, revised))
        result, folds = _commit_counting_folds(engine)
        assert folds == 1
        assert result.changed == [_output_holding(engine, 3)]
        assert_batch_identical(engine)

    def test_unbounded_cell_refolds_whole_after_a_withdrawal(self):
        """An insert or withdrawal shifts an unbounded cell's only chunk."""
        engine = build_engine("live", max_group_size=0, members=3)
        current = engine.offer(1)
        engine.apply(OfferUpdated(current.creation_time, replace(current, price_per_kwh=5.0)))
        engine.apply(OfferWithdrawn(current.assignment_deadline + timedelta(minutes=15), 3))
        result, folds = _commit_counting_folds(engine)
        assert folds == 1
        (output,) = engine.aggregated_offers()
        assert output.constituent_ids == (1, 2)
        assert [offer.id for offer in engine.constituents_of(output.id)] == [1, 2]
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


# ----------------------------------------------------------------------
# The touched map: every commit names exactly the offers its events named
# ----------------------------------------------------------------------
ADD, REVISE, MIGRATE, STATE, WITHDRAW, ADD_WITHDRAW, PASSTHROUGH, COMMIT = range(8)

_touch_ops = st.lists(
    st.tuples(
        st.sampled_from(
            (ADD, ADD, REVISE, MIGRATE, STATE, WITHDRAW, ADD_WITHDRAW, PASSTHROUGH, COMMIT)
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


class _TouchScript:
    """Drives one engine through an op script, checking every commit's ``touched``."""

    def __init__(self, engine: LiveAggregationEngine, next_id: int = 1) -> None:
        self.engine = engine
        self.next_id = next_id
        self.next_passthrough = 500_000  # below the engine's id_offset
        self.named: set[int] = set()

    def _apply(self, event) -> None:
        self.named.add(event.subject_id)
        result = self.engine.apply(event)
        if result is not None:  # a micro-batch commit fired
            self.check(result)

    def commit(self) -> None:
        self.check(self.engine.commit())

    def check(self, result) -> None:
        assert set(result.touched) == self.named
        live = {offer.id for offer in self.engine.offers()}
        for offer_id, offer in result.touched.items():
            if offer is None:
                assert offer_id not in live
            else:
                assert offer is self.engine.offer(offer_id)
        self.named = set()

    def run(self, op: int, selector: int) -> None:
        engine = self.engine
        live = sorted(offer.id for offer in engine.offers())
        raw = [offer_id for offer_id in live if engine.cell_of(offer_id) is not None]
        if op == COMMIT:
            self.commit()
        elif op in (ADD, ADD_WITHDRAW) or not live:
            offer = make_offer(offer_id=self.next_id, earliest_start=40 + selector % 3 * 20)
            self.next_id += 1
            self._apply(OfferAdded(offer.creation_time, offer))
            if op == ADD_WITHDRAW:
                self._apply(OfferWithdrawn(offer.assignment_deadline, offer.id))
        elif op == PASSTHROUGH:
            offer = replace(
                make_offer(offer_id=self.next_passthrough, earliest_start=40),
                is_aggregate=True,
                constituent_ids=(7, 8),
            )
            self.next_passthrough += 1
            self._apply(OfferAdded(offer.creation_time, offer))
        elif op in (REVISE, MIGRATE) and raw:
            current = engine.offer(raw[selector % len(raw)])
            shift = 20 if op == MIGRATE else 0  # a new start-time cell
            revised = replace(
                current,
                price_per_kwh=current.price_per_kwh + 1.0,
                earliest_start_slot=current.earliest_start_slot + shift,
                latest_start_slot=current.latest_start_slot + shift,
            )
            self._apply(OfferUpdated(current.creation_time, revised))
        elif op == WITHDRAW:
            target = engine.offer(live[selector % len(live)])
            self._apply(OfferWithdrawn(target.assignment_deadline, target.id))
        else:  # STATE (or a revision with no raw offer left)
            target = engine.offer(live[selector % len(live)])
            state = (FlexOfferState.ACCEPTED, FlexOfferState.REJECTED)[selector % 2]
            self._apply(OfferStateChanged(target.creation_time, target.id, state))


@given(ops=_touch_ops, micro_batch_size=st.sampled_from((0, 3)))
@settings(deadline=None)
def test_touched_names_exactly_the_events_subjects(ops, micro_batch_size):
    """Adds, revisions in place and across cells, state changes, withdrawals,
    add-then-withdraw, passthroughs and micro-batch commits."""
    engine = LiveAggregationEngine(
        AggregationParameters(max_group_size=CHUNK), micro_batch_size=micro_batch_size
    )
    script = _TouchScript(engine)
    for op, selector in ops:
        script.run(op, selector)
    script.commit()
    assert_batch_identical(engine)


@given(head=_touch_ops, junk=_touch_ops, tail=_touch_ops)
@settings(deadline=None)
def test_first_commit_after_restore_names_only_the_tail(head, junk, tail):
    """Ids named before a restore never leak into the restored engine's commits."""
    parameters = AggregationParameters(max_group_size=CHUNK)
    source = _TouchScript(LiveAggregationEngine(parameters))
    for op, selector in head:
        source.run(op, selector)
    source.commit()
    state = capture_engine_state(source.engine)
    # The target holds uncommitted events of its own; the restore drops them.
    target = _TouchScript(LiveAggregationEngine(parameters), next_id=source.next_id)
    target.next_passthrough = source.next_passthrough
    for op, selector in junk:
        if op != COMMIT:
            target.run(op, selector)
    restore_engine_state(target.engine, state)
    target.named = set()
    for op, selector in tail:
        if op != COMMIT:
            target.run(op, selector)
    target.commit()
    assert_batch_identical(target.engine)
