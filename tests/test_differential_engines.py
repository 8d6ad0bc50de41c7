"""Black-box differential stress harness over the incremental engines.

In the spirit of black-box checkers that validate engine behaviour purely
through observable results, this harness never reaches into an engine's
private state: it keeps its own mirror of the live population, feeds
randomized event interleavings — inserts, in-place mutations, state
changes, cell migrations, withdrawals, mid-stream flush/commit points,
varied ``max_group_size`` — to every incremental engine (live, async) side
by side, and checks observables only:

* **bit-identical aggregate profiles** — at every commit point each engine's
  population must equal the harness's mirror, and its output the *batch
  oracle*
  (:func:`repro.aggregation.aggregate.aggregate` over the surviving offers)
  on the id-insensitive :func:`~repro.live.engine.canonical_form` multiset:
  exact float equality, no tolerance;
* **stable ids** — an aggregate whose grid cell saw no event between two
  commit points must reappear *identically* (same id, same profile, same
  constituents): neither the chunk-granular dirty ledger nor the async
  worker's commit cadence may disturb untouched output;
* **cross-kernel bit-identity** — the engines run the production
  :mod:`repro.aggregation.kernel` while the batch oracle runs the seed loops
  (``profile_bounds_scalar``, patched in around the oracle call only), so
  any drift of the kernel from the seed arithmetic fails on realistic
  workloads, not just on synthetic profiles.  The cross-kernel leg feeds
  varied profiles — unit and multi-slot slices in either order, int-valued
  and signed-zero bounds — so both kernel branches meet the oracle, and
  also runs mirrored: engines on the seed loops, oracle on the kernel.

Registered in the weekly ``HYPOTHESIS_PROFILE=extended`` CI run.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation.aggregate import aggregate
from repro.aggregation.grouping import group_key
from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import FlexOfferState, ProfileSlice, Schedule
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import (
    OfferAdded,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
)
from tests.conftest import make_offer, seed_loop_bounds

#: Interleaved op codes the random scripts are built from.
INSERT, MUTATE, MIGRATE, WITHDRAW, COMMIT, FLUSH, STATE = range(7)

#: The lifecycle states a STATE op moves an offer to (by its magnitude).
_STATES = (
    FlexOfferState.ACCEPTED,
    FlexOfferState.ASSIGNED,
    FlexOfferState.EXECUTED,
    FlexOfferState.REJECTED,
)

#: One scripted op: (op code, selector int, magnitude int).  Weighted toward
#: mutations and commits — that is where chunk reuse and id stability break.
_ops = st.lists(
    st.tuples(
        st.sampled_from(
            (
                INSERT,
                INSERT,
                MUTATE,
                MUTATE,
                MUTATE,
                MIGRATE,
                WITHDRAW,
                COMMIT,
                COMMIT,
                FLUSH,
                STATE,
            )
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=400),
    ),
    min_size=4,
    max_size=60,
)


def _fresh_engines(parameters: AggregationParameters):
    """The incremental engines under test, keyed by name."""
    return {
        "live": LiveAggregationEngine(parameters),
        "async": AsyncCommitEngine(LiveAggregationEngine(parameters), drain_batch=5),
    }


def _canonical(offers) -> Counter:
    return Counter(canonical_form(offer) for offer in offers)


#: Slice bounds the varied profiles draw from: ints, both signed zeros and
#: floats whose sums round.
_BOUNDS = (-0.0, 0, 0.0, 3, 0.1, 0.7, 1.3, 2.5)


def _varied_profile(selector: int, magnitude: int) -> tuple[ProfileSlice, ...]:
    """One to four slices, unit and multi-slot mixed, picked by an op's ints."""
    pieces = []
    for index in range(1 + selector % 4):
        low = _BOUNDS[(selector // 4 + index) % len(_BOUNDS)]
        high = low + _BOUNDS[(magnitude + index) % len(_BOUNDS)]
        duration = 1 if (magnitude >> index) & 1 else 1 + (selector + index) % 4
        pieces.append(ProfileSlice(low, high, duration))
    return tuple(pieces)


def _on_seed_loops():
    """Route ``aggregate_group``'s profile summation to the seed loops."""
    return mock.patch("repro.aggregation.aggregate.profile_bounds", seed_loop_bounds)


def run_differential(
    ops, max_group_size, varied_profiles=False, engines_on_seed_loops=False
) -> None:
    """Drive one random script through all engines; check at every commit.

    ``varied_profiles`` gives every inserted or mutated offer a
    :func:`_varied_profile` in place of the shared default profile.  The
    batch oracle runs on the seed loops and the engines on the production
    kernel; ``engines_on_seed_loops`` swaps the two.
    """
    parameters = AggregationParameters(max_group_size=max_group_size)
    engines = _fresh_engines(parameters)
    seed_loops = _on_seed_loops()
    #: The harness's own population mirror (black-box ground truth).
    population: dict[int, object] = {}
    order: list[int] = []
    #: Grid cells any event touched since the last commit point.
    affected_cells: set = set()
    #: Aggregates each engine reported at its previous commit point.
    previous_aggregates: dict[str, list] = {name: [] for name in engines}
    next_id = 1

    def commit_and_check() -> None:
        """Every engine commits and must equal the batch oracle bit for bit."""
        for engine in engines.values():
            engine.commit()
        surviving = [population[offer_id] for offer_id in sorted(population)]
        # The oracle and the engines never share a kernel.  The engines are
        # committed and idle, so moving the patch races no worker commit.
        if engines_on_seed_loops:
            seed_loops.stop()
        try:
            with nullcontext() if engines_on_seed_loops else seed_loops:
                oracle = _canonical(aggregate(surviving, parameters, id_offset=1_000_000).offers)
        finally:
            if engines_on_seed_loops:
                seed_loops.start()
        for name, engine in engines.items():
            assert engine.offers() == surviving, (
                f"{name}: surviving population diverged from the mirror"
            )
            assert _canonical(engine.aggregated_offers()) == oracle, (
                f"{name} diverged from the batch oracle"
            )

    if engines_on_seed_loops:
        seed_loops.start()
    try:
        for op, selector, magnitude in ops:
            if op == FLUSH:
                engines["async"].flush()
                continue
            if op == COMMIT:
                commit_and_check()
                for name, engine in engines.items():
                    output = engine.aggregated_offers()
                    current = {offer for offer in output if offer.is_aggregate}
                    for prior in previous_aggregates[name]:
                        member = population.get(prior.constituent_ids[0])
                        if member is None:
                            continue  # a constituent was withdrawn: touched
                        if group_key(member, parameters) in affected_cells:
                            continue
                        assert prior in current, (
                            f"{name}: untouched aggregate {prior.id} "
                            f"(constituents {sorted(prior.constituent_ids)}) was disturbed"
                        )
                    previous_aggregates[name] = [offer for offer in output if offer.is_aggregate]
                affected_cells.clear()
                continue
            if op == INSERT or not order:
                offer = make_offer(
                    offer_id=next_id,
                    earliest_start=36 + selector % 12,
                    time_flexibility=4 + selector % 6,
                    prosumer_id=selector % 5 + 1,
                )
                if varied_profiles:
                    offer = replace(offer, profile=_varied_profile(selector, magnitude))
                next_id += 1
                population[offer.id] = offer
                order.append(offer.id)
                affected_cells.add(group_key(offer, parameters))
                event = OfferAdded(offer.creation_time, offer)
            elif op in (MUTATE, MIGRATE):
                target = order[selector % len(order)]
                current = population[target]
                # A STATE op may have attached a schedule; a new profile or
                # start window would no longer fit it.
                revised = replace(
                    current,
                    price_per_kwh=current.price_per_kwh + magnitude / 100.0,
                    schedule=None,
                )
                if varied_profiles:
                    revised = replace(revised, profile=_varied_profile(magnitude, selector))
                if op == MIGRATE:
                    # Shift the start enough to change the grid cell.
                    revised = replace(
                        revised,
                        earliest_start_slot=current.earliest_start_slot + magnitude,
                        latest_start_slot=current.latest_start_slot + magnitude,
                    )
                population[target] = revised
                affected_cells.add(group_key(current, parameters))
                affected_cells.add(group_key(revised, parameters))
                event = OfferUpdated(current.creation_time, revised)
            elif op == STATE:
                # Moves no aggregate input: the chunk keeps its output.
                target = order[selector % len(order)]
                current = population[target]
                state = _STATES[magnitude % len(_STATES)]
                schedule = None
                if state in (FlexOfferState.ASSIGNED, FlexOfferState.EXECUTED):
                    schedule = Schedule(
                        current.earliest_start_slot,
                        tuple(piece.min_energy for piece in current.profile),
                    )
                population[target] = apply_transition(current, state, schedule)
                affected_cells.add(group_key(current, parameters))
                event = OfferStateChanged(current.creation_time, target, state, schedule)
            else:  # WITHDRAW
                target = order.pop(selector % len(order))
                offer = population.pop(target)
                affected_cells.add(group_key(offer, parameters))
                event = OfferWithdrawn(offer.assignment_deadline + timedelta(minutes=15), target)
            for engine in engines.values():
                engine.apply(event)
        # Final barrier: whatever the script left uncommitted.
        commit_and_check()
    finally:
        if engines_on_seed_loops:
            seed_loops.stop()
        for engine in engines.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()


@pytest.mark.parametrize("max_group_size", (0, 1, 2, 3, 5))
@given(ops=_ops)
# Three offers in one grid cell; offer 1's price is revised in place and
# offer 3, the largest id, withdrawn before the same commit.  Unbounded, the
# cell's only chunk shifted and must re-aggregate whole; at size 2 chunk 0
# keeps its members and refolds only its price while chunk 1 retires.
@example(
    ops=[(INSERT, 0, 1), (INSERT, 0, 1), (INSERT, 0, 1), (COMMIT, 0, 1),
         (MUTATE, 0, 5), (WITHDRAW, 2, 1), (COMMIT, 0, 1)]
)
@settings(deadline=None)
def test_random_interleavings_stay_equivalent(max_group_size, ops):
    """Random scripts: engines ≡ batch oracle, untouched output undisturbed."""
    run_differential(ops, max_group_size)


#: Ids read engines-oracle.  They keep the names they had when the fast path
#: was a numpy kernel, as ``TestKernel``'s bit-identity tests do: "numpy" is
#: now the production kernel and "scalar" the seed loops.
@pytest.mark.parametrize(
    "engines_on_seed_loops",
    (pytest.param(False, id="numpy-scalar"), pytest.param(True, id="scalar-numpy")),
)
@given(ops=_ops)
# Two-offer groups in one grid cell whose only wide slice spans exactly 2
# slots: offer 2's profile is (2-slot, unit) in the first script, and
# (unit, unit, 2-slot, unit) in the second (see _varied_profile).
@example(ops=[(INSERT, 0, 5), (INSERT, 1, 6)])
@example(ops=[(INSERT, 0, 5), (INSERT, 3, 9)])
@settings(deadline=None, max_examples=25)
def test_cross_kernel_bit_identity(engines_on_seed_loops, ops):
    """Varied profiles, engines and oracle on different kernels: bit-identical."""
    run_differential(ops, 3, varied_profiles=True, engines_on_seed_loops=engines_on_seed_loops)
