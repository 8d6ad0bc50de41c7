"""Seeded inputs of the three benchmark workloads.

Everything a run feeds the system is generated here, from ``--seed`` alone,
before any set-up or timed phase: the ~10k-offer scenario and the running
workload's own inputs — the ``stream`` event batches, the ``recover`` log
tail or the ``explore`` action script.
Each event stream also carries the generator's own record of what it did to
the population (``effects``), which is what the oracle checks compare the
system's answers against — the program under test never sees it.

The generator only uses the flex-offer data model (constructors and the
lifecycle methods ``accept``/``assign``/``reject``), never the engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from datetime import timedelta
from typing import Callable

from repro.aggregation.parameters import AggregationParameters
from repro.datagen.scenarios import Scenario, ScenarioConfig, generate_scenario
from repro.flexoffer.model import FlexOffer, FlexOfferState, ProfileSlice, Schedule
from repro.live.events import (
    OfferAdded,
    OfferEvent,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
)

#: ≈10k raw offers (9,994 at seed 43).
PROSUMERS = 6667
PARAMETERS = AggregationParameters(max_group_size=64)
#: A run's timed work is split into this many rounds, each on a fresh
#: set-up (see ``harness.py``): ``stream`` runs a stream of its own in every
#: round, ``explore`` runs on through its script across rounds.
ROUNDS = 4
#: Untimed warm-up prefix at the start of every round.
STREAM_WARMUP_BATCHES = 4
EXPLORE_WARMUP_ACTIONS = 30
STREAM_BATCH = 64
#: Events generated per second of a round's share of ``--seconds`` (the
#: measured rate is ~300/s).  A system fast enough to use up a round's
#: stream ends that round early; the run then measures less time.
STREAM_EVENTS_PER_SECOND = 1000
RECOVER_TAIL = 1024
EXPLORE_WRITE_EVERY = 25
EXPLORE_WRITE_BATCH = 32
#: Explore actions generated per second of ``--seconds`` (measured ~30/s).
EXPLORE_ACTIONS_PER_SECOND = 100

#: Stream event mix (the population stays ≈ constant: adds balance withdrawals).
STREAM_MIX = (("revise", 0.40), ("state", 0.30), ("withdraw", 0.15), ("add", 0.15))

#: Explore action counts per deck of 100 actions; the script deals shuffled
#: decks, so every run of a few hundred actions has these shares (drawing
#: each action independently made the slow re-tunes' share, and with it the
#: throughput, vary by +-10% between seeds).  Chosen so that neither reported
#: percentile sits on the boundary between two action kinds' latency modes:
#: the ~1-2.5 ms band (district x state filters, dashboard syncs, cache hits)
#: holds ~70% of the actions, so the median falls well inside it, and the
#: hot-region re-tunes (~80-130 ms, the slowest kind) hold 12%, so the 95th
#: percentile falls near their middle.  perfbench/provenance.json has the bands.
EXPLORE_DECK = (
    ("filter", 50),
    ("sync", 22),
    ("hot", 5),
    ("node", 4),
    ("entity", 4),
    ("cold", 3),
    ("retune", 12),
)
STATES = ("accepted", "assigned", "rejected")
#: (est_tolerance_slots, time_flexibility_tolerance_slots) of the re-tuned
#: panels: 100-200 aggregates each over the hot region, so one latency mode.
RETUNE_TOLERANCES = tuple((est, tft) for est in (3, 4, 5, 6) for tft in (3, 4, 5, 6))
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Batch:
    """Events applied together, and their effect on the population.

    ``effects`` maps each touched offer id to its expected version after the
    batch (``None`` once withdrawn), in application order.
    """

    events: tuple[OfferEvent, ...]
    effects: tuple[tuple[int, FlexOffer | None], ...]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class Action:
    """One explore step: an analyst action, or (``kind="write"``) a writer commit."""

    kind: str
    #: The query spec's arguments (``QuerySpec.build`` keywords) or, for
    #: ``entity``, ``(entity_id, start_slot, end_slot)``.
    args: tuple
    #: The writer's batch (``kind="write"`` only).
    batch: Batch | None = None


@dataclass(frozen=True)
class Inputs:
    """One run's inputs; only the running workload's own fields are filled."""

    seed: int
    scenario: Scenario
    parameters: AggregationParameters
    hot_region: str
    stream_region: str
    #: One stream per round, each starting from the scenario's population.
    stream: tuple[tuple[Batch, ...], ...] = ()
    tail: Batch | None = None
    script: tuple[Action, ...] = ()


class _Population:
    """The generator's record of the surviving offers, with O(1) random picks."""

    def __init__(self, offers: list[FlexOffer]) -> None:
        self.offers = {offer.id: offer for offer in offers}
        self.ids = [offer.id for offer in offers]
        self.slot = {offer_id: index for index, offer_id in enumerate(self.ids)}
        self.next_id = max(self.ids) + 1
        self.target = len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def pick(self, rng: random.Random) -> FlexOffer:
        return self.offers[self.ids[rng.randrange(len(self.ids))]]

    def put(self, offer: FlexOffer) -> None:
        if offer.id not in self.offers:
            self.slot[offer.id] = len(self.ids)
            self.ids.append(offer.id)
        self.offers[offer.id] = offer

    def drop(self, offer_id: int) -> None:
        index = self.slot.pop(offer_id)
        last = self.ids.pop()
        if last != offer_id:
            self.ids[index] = last
            self.slot[last] = index
        del self.offers[offer_id]


def _widened(offer: FlexOffer) -> FlexOffer:
    """A prosumer revision that widens the energy band and adds a slot of slack.

    The extra slot of time flexibility can move the offer to another grid
    cell; any schedule already assigned stays feasible.
    """
    profile = tuple(
        ProfileSlice(piece.min_energy * 0.9, piece.max_energy * 1.1, piece.duration_slots)
        for piece in offer.profile
    )
    return replace(offer, profile=profile, latest_start_slot=offer.latest_start_slot + 1)


def _repriced(offer: FlexOffer, rng: random.Random) -> FlexOffer:
    """A revision that only changes the price (the offer keeps its cell)."""
    return replace(offer, price_per_kwh=round(offer.price_per_kwh * rng.uniform(0.9, 1.1), 6))


def _schedule(offer: FlexOffer, rng: random.Random) -> Schedule:
    return Schedule(
        start_slot=rng.randint(offer.earliest_start_slot, offer.latest_start_slot),
        energy_per_slice=tuple(
            rng.uniform(piece.min_energy, piece.max_energy) for piece in offer.profile
        ),
    )


def _transition(
    offer: FlexOffer, rng: random.Random
) -> tuple[FlexOfferState, Schedule | None, FlexOffer]:
    """An enterprise decision on ``offer``: (target state, schedule, expected offer)."""
    choices = [state for state in STATES if state != offer.state.value]
    state = FlexOfferState(rng.choice(choices))
    if state is FlexOfferState.ASSIGNED:
        schedule = _schedule(offer, rng)
        return state, schedule, offer.assign(schedule)
    if state is FlexOfferState.ACCEPTED:
        return state, None, offer.accept()
    return state, None, offer.reject()


def _fresh(template: FlexOffer, offer_id: int, rng: random.Random) -> FlexOffer:
    """A newly offered flex-offer modelled on ``template`` (same prosumer and kind)."""
    shift = max(rng.randint(-4, 4), -template.earliest_start_slot)
    delta = timedelta(minutes=15 * shift)
    return replace(
        template,
        id=offer_id,
        state=FlexOfferState.OFFERED,
        schedule=None,
        earliest_start_slot=template.earliest_start_slot + shift,
        latest_start_slot=template.latest_start_slot + shift,
        creation_time=template.creation_time + delta,
        acceptance_deadline=template.acceptance_deadline + delta,
        assignment_deadline=template.assignment_deadline + delta,
        price_per_kwh=round(rng.uniform(0.04, 0.12), 6),
    )


class _EventSource:
    """Draws lifecycle events against a population record, with timestamps."""

    def __init__(self, scenario: Scenario, rng: random.Random) -> None:
        self.scenario = scenario
        self.rng = rng
        self.population = _Population(scenario.flex_offers)
        self.clock = scenario.grid.to_datetime(scenario.config.horizon_slots)

    def _tick(self):
        self.clock += timedelta(seconds=1)
        return self.clock

    def revise(self, offer: FlexOffer) -> tuple[OfferEvent, FlexOffer]:
        revised = _widened(offer) if self.rng.random() < 0.5 else _repriced(offer, self.rng)
        self.population.put(revised)
        return OfferUpdated(self._tick(), revised), revised

    def event(self, kind: str) -> tuple[OfferEvent, int, FlexOffer | None]:
        population = self.population
        rng = self.rng
        if kind in ("add", "withdraw"):
            # Balance the population: whichever of the two moves it back
            # towards its starting size wins.
            if len(population) > population.target:
                kind = "withdraw"
            elif len(population) < population.target:
                kind = "add"
        if kind == "add":
            offer = _fresh(rng.choice(self.scenario.flex_offers), population.next_id, rng)
            population.next_id += 1
            population.put(offer)
            return OfferAdded(self._tick(), offer), offer.id, offer
        target = population.pick(rng)
        if kind == "withdraw":
            population.drop(target.id)
            return OfferWithdrawn(self._tick(), target.id), target.id, None
        if kind == "state":
            state, schedule, expected = _transition(target, rng)
            population.put(expected)
            return OfferStateChanged(self._tick(), target.id, state, schedule), target.id, expected
        event, revised = self.revise(target)
        return event, target.id, revised

    def batch(self, size: int) -> Batch:
        kinds = [kind for kind, _ in STREAM_MIX]
        weights = [share for _, share in STREAM_MIX]
        events, effects = [], []
        for kind in self.rng.choices(kinds, weights, k=size):
            event, offer_id, expected = self.event(kind)
            events.append(event)
            effects.append((offer_id, expected))
        return Batch(tuple(events), tuple(effects))


def _explore_script(
    scenario: Scenario, rng: random.Random, actions: int, hot_region: str
) -> tuple[Action, ...]:
    """The analyst's script, with the hot-region writer interleaved.

    Spec universe: 180 district x state filters, 60 grid-node filters, the
    hot and 4 cold region aggregates and 16 re-tuned hot-region panels —
    261 specs, more than the result cache's 256 entries.  Filters, cold
    regions and loading-tab entities are drawn Zipf-skewed over a seeded
    ranking (see ``zipf``); re-tunes cycle through shuffled rounds of all 16 tolerances, so
    no panel repeats before every other one was shown.
    """
    offers = scenario.flex_offers
    regions = sorted({offer.region for offer in offers})
    districts = sorted({offer.district for offer in offers})
    nodes = sorted({offer.grid_node for offer in offers})
    prosumers = sorted({offer.prosumer_id for offer in offers})
    horizon = scenario.config.horizon_slots

    def zipf(items: list, size: Callable[[object], int] | None = None) -> Callable[[], object]:
        """A Zipf-skewed draw over ``items``.

        With ``size``, popularity rank follows closeness to the median result
        size (random among ties), so the seed changes which specs are popular
        but not how large the popular results are — otherwise the few specs
        at the head of the ranking would set the median latency by their size.
        """
        jitter = {id(item): rng.random() for item in items}
        if size is None:
            items.sort(key=lambda item: jitter[id(item)])
        else:
            middle = sorted(size(item) for item in items)[len(items) // 2]
            items.sort(key=lambda item: (abs(size(item) - middle), jitter[id(item)]))
        weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(items) + 1)]
        return lambda: rng.choices(items, weights)[0]

    counts: dict[tuple, int] = {}
    for offer in offers:
        for key in ((offer.district, offer.state.value), offer.grid_node):
            counts[key] = counts.get(key, 0) + 1
    district_filter = zipf(
        [(("districts", (d,)), ("states", (s,))) for d in districts for s in STATES],
        size=lambda spec: counts.get((spec[0][1][0], spec[1][1][0]), 0),
    )
    node_filter = zipf(
        [(("grid_nodes", (n,)),) for n in nodes], size=lambda spec: counts[spec[0][1][0]]
    )
    cold_region = zipf([(("regions", (r,)),) for r in regions if r != hot_region])
    entity = zipf(list(prosumers))
    retunes: list[tuple] = []

    writer = _EventSource(scenario, rng)
    hot_ids = [offer.id for offer in offers if offer.region == hot_region]
    deck = [kind for kind, count in EXPLORE_DECK for _ in range(count)]
    kinds: list[str] = []
    while len(kinds) < actions:
        kinds += rng.sample(deck, len(deck))
    script: list[Action] = []
    for index, kind in enumerate(kinds):
        if index and index % EXPLORE_WRITE_EVERY == 0:
            events, effects = [], []
            for offer_id in rng.sample(hot_ids, EXPLORE_WRITE_BATCH):
                event, revised = writer.revise(writer.population.offers[offer_id])
                events.append(event)
                effects.append((offer_id, revised))
            script.append(Action("write", (), Batch(tuple(events), tuple(effects))))
        if kind == "filter":
            args = district_filter()
        elif kind == "node":
            args = node_filter()
        elif kind == "cold":
            args = cold_region()
        elif kind == "hot":
            args = (("regions", (hot_region,)),)
        elif kind == "retune":
            if not retunes:
                retunes = rng.sample(RETUNE_TOLERANCES, len(RETUNE_TOLERANCES))
            args = (("regions", (hot_region,)), ("tolerances", retunes.pop()))
        elif kind == "entity":
            if rng.random() < 0.5:
                start, end = 0, horizon
            else:
                start = rng.randrange(0, horizon - 24)
                end = start + 24
            args = (entity(), start, end)
        else:
            args = ()
        script.append(Action(kind, args))
    return tuple(script)


def generate(
    workload: str, seed: int, seconds: float, prosumers: int = PROSUMERS
) -> Inputs:
    """``workload``'s inputs from the seed, with pools sized by the run length.

    Each workload draws from its own random stream, so its inputs do not
    depend on which other workloads' inputs are generated.
    """
    scenario = generate_scenario(ScenarioConfig(prosumer_count=prosumers, seed=seed))
    by_region: dict[str, int] = {}
    for offer in scenario.flex_offers:
        by_region[offer.region] = by_region.get(offer.region, 0) + 1
    ranked = sorted(by_region, key=lambda region: (-by_region[region], region))
    inputs = Inputs(
        seed=seed,
        scenario=scenario,
        parameters=PARAMETERS,
        hot_region=ranked[0],
        stream_region=ranked[len(ranked) // 2],
    )
    if workload == "stream":
        timed = -(-int(seconds / ROUNDS * STREAM_EVENTS_PER_SECOND) // STREAM_BATCH)
        batches = STREAM_WARMUP_BATCHES + timed + 8
        sources = [
            _EventSource(scenario, random.Random(f"{seed}/stream/{round_index}"))
            for round_index in range(ROUNDS)
        ]
        stream = tuple(
            tuple(source.batch(STREAM_BATCH) for _ in range(batches)) for source in sources
        )
        return replace(inputs, stream=stream)
    rng = random.Random(f"{seed}/{workload}")
    if workload == "recover":
        return replace(inputs, tail=_EventSource(scenario, rng).batch(RECOVER_TAIL))
    actions = EXPLORE_WARMUP_ACTIONS + int(seconds * EXPLORE_ACTIONS_PER_SECOND) + 100
    return replace(inputs, script=_explore_script(scenario, rng, actions, inputs.hot_region))
