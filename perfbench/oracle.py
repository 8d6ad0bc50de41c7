"""Expected answers, computed without the engines under test.

Every check compares what the system shows against the batch aggregation
pipeline (``repro.aggregation.aggregate.aggregate`` — the repository's
oracle) run over the input generator's own record of the surviving offers.
Selection uses the predicate below rather than ``QuerySpec.matches``, so a
filtering bug in the program cannot hide in the oracle as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Iterable

from repro.aggregation.aggregate import aggregate
from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import FlexOffer

from perfbench.inputs import Batch

#: QuerySpec field -> the offer attribute it constrains.
_FIELDS = {
    "regions": lambda offer: offer.region,
    "districts": lambda offer: offer.district,
    "grid_nodes": lambda offer: offer.grid_node,
    "states": lambda offer: offer.state.value,
    "prosumer_ids": lambda offer: offer.prosumer_id,
}


class Population:
    """The generator's record of the surviving offers, replayed batch by batch."""

    def __init__(self, offers: Iterable[FlexOffer]) -> None:
        self.offers = {offer.id: offer for offer in offers}

    def apply(self, batch: Batch) -> None:
        for offer_id, offer in batch.effects:
            if offer is None:
                del self.offers[offer_id]
            else:
                self.offers[offer_id] = offer

    def sorted(self) -> list[FlexOffer]:
        return [self.offers[offer_id] for offer_id in sorted(self.offers)]

    def select(self, constraints: dict, slots: tuple[int, int] | None = None) -> list[FlexOffer]:
        """Offers matching every ``field -> allowed values`` constraint, id order.

        ``slots`` is a half-open ``[start, end)`` window the offer's feasible
        span must overlap.
        """
        getters = [(_FIELDS[name], allowed) for name, allowed in constraints.items()]
        selected = []
        for offer in self.sorted():
            if not all(getter(offer) in allowed for getter, allowed in getters):
                continue
            if slots is not None and not (
                offer.earliest_start_slot < slots[1] and offer.latest_end_slot > slots[0]
            ):
                continue
            selected.append(offer)
        return selected


def canonical(offers: Iterable[FlexOffer]) -> Counter:
    """Aggregation outputs with allocator details (aggregate ids) erased."""
    return Counter(
        replace(offer, id=0, constituent_ids=tuple(sorted(offer.constituent_ids)))
        if offer.is_aggregate
        else offer
        for offer in offers
    )


def aggregated(offers: list[FlexOffer], parameters: AggregationParameters) -> Counter:
    """The batch pipeline's answer over ``offers``, in canonical form."""
    return canonical(aggregate(offers, parameters).offers)
