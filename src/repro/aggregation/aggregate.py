"""N-to-1 aggregation of flex-offer groups.

The aggregation follows the *start-alignment* scheme of the MIRABEL
aggregation component: every constituent keeps a fixed offset relative to the
group anchor (the smallest earliest start), per-slot energy bounds are summed,
and the aggregate's time flexibility is the minimum flexibility of the group —
so any feasible schedule of the aggregate can always be disaggregated into
feasible schedules of the constituents.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.aggregation.grouping import group_offers
from repro.aggregation.kernel import profile_bounds
from repro.aggregation.parameters import AggregationParameters
from repro.errors import AggregationError
from repro.flexoffer.model import Direction, FlexOffer, ProfileSlice


def _common_attribute(values: Iterable[str]) -> str:
    """Return the shared attribute value or ``"mixed"`` when the group disagrees."""
    iterator = iter(values)
    first = next(iterator)
    for value in iterator:
        if value != first:
            return "mixed"
    return first


#: Every member field :func:`aggregate_group` reads besides ``id``.  A member
#: revision that leaves all of them equal leaves the aggregate equal, so the
#: live engine keeps a chunk's output when its touched members changed none of
#: these (``state`` and ``schedule`` are the fields outside this tuple).
AGGREGATE_INPUTS = (
    "prosumer_id",
    "profile",
    "earliest_start_slot",
    "latest_start_slot",
    "creation_time",
    "acceptance_deadline",
    "assignment_deadline",
    "direction",
    "region",
    "city",
    "district",
    "grid_node",
    "energy_type",
    "prosumer_type",
    "appliance_type",
    "price_per_kwh",
)


def mean_price(group: Sequence[FlexOffer]) -> float:
    """The aggregate's price: the members' mean ``price_per_kwh``.

    The one formula every path that prices an aggregate uses, so a price-only
    refold and a full aggregation give identical bits on any interpreter.
    """
    return sum(offer.price_per_kwh for offer in group) / len(group)


def aggregate_group(group: Sequence[FlexOffer], aggregate_id: int) -> FlexOffer:
    """Aggregate one group of flex-offers into a single aggregate flex-offer.

    Singleton groups go through the same path as larger ones: the result
    carries ``aggregate_id``, ``is_aggregate=True`` and a one-element
    ``constituent_ids``, so callers can always tell aggregates from raw
    offers.  (Callers that want to pass 1-offer groups through untouched —
    such as :func:`aggregate` — skip the call instead.)

    Raises :class:`~repro.errors.AggregationError` for empty groups or groups
    mixing consumption with production.
    """
    if not group:
        raise AggregationError("cannot aggregate an empty group")
    directions = {offer.direction for offer in group}
    if len(directions) > 1:
        raise AggregationError("cannot aggregate consumption and production offers together")
    direction: Direction = next(iter(directions))

    anchor = min(offer.earliest_start_slot for offer in group)
    offsets = [offer.earliest_start_slot - anchor for offer in group]
    # The hot loop lives in the kernel; its lists span the whole group.
    min_energy, max_energy = profile_bounds(group, offsets)

    profile = tuple(
        ProfileSlice(min_energy=low, max_energy=high)
        for low, high in zip(min_energy, max_energy)
    )
    time_flexibility = min(offer.time_flexibility_slots for offer in group)

    return FlexOffer(
        id=aggregate_id,
        # Only singletons keep their prosumer: multi-offer aggregates must not
        # match per-entity warehouse queries, or the loading tab would count a
        # prosumer's energy twice (raw offers + the derived aggregate row).
        prosumer_id=group[0].prosumer_id if len(group) == 1 else 0,
        profile=profile,
        earliest_start_slot=anchor,
        latest_start_slot=anchor + time_flexibility,
        creation_time=min(offer.creation_time for offer in group),
        acceptance_deadline=min(offer.acceptance_deadline for offer in group),
        assignment_deadline=min(offer.assignment_deadline for offer in group),
        direction=direction,
        region=_common_attribute(offer.region for offer in group),
        city=_common_attribute(offer.city for offer in group),
        district=_common_attribute(offer.district for offer in group),
        grid_node=_common_attribute(offer.grid_node for offer in group),
        energy_type=_common_attribute(offer.energy_type for offer in group),
        prosumer_type=_common_attribute(offer.prosumer_type for offer in group),
        appliance_type=_common_attribute(offer.appliance_type for offer in group),
        price_per_kwh=mean_price(group),
        is_aggregate=True,
        constituent_ids=tuple(offer.id for offer in group),
    )


class AggregationResult:
    """Outcome of aggregating a set of flex-offers.

    Keeps both the resulting offer list (aggregates plus untouched singletons)
    and the provenance mapping needed by disaggregation and by the tooltip
    view (Figure 10's dashed links from an aggregate to its constituents).
    """

    def __init__(self) -> None:
        self.offers: list[FlexOffer] = []
        self.constituents: dict[int, list[FlexOffer]] = {}

    @property
    def aggregates(self) -> list[FlexOffer]:
        """Only the offers that are true aggregates (more than one constituent)."""
        return [offer for offer in self.offers if offer.is_aggregate]

    def constituents_of(self, aggregate_id: int) -> list[FlexOffer]:
        """The original offers folded into aggregate ``aggregate_id`` (empty if none)."""
        return self.constituents.get(aggregate_id, [])


def aggregate(
    offers: Sequence[FlexOffer],
    parameters: AggregationParameters | None = None,
    id_offset: int = 1_000_000,
) -> AggregationResult:
    """Group and aggregate ``offers``.

    Aggregate ids are allocated from ``id_offset`` upwards so they never clash
    with the ids of raw offers loaded from the warehouse.
    """
    parameters = parameters or AggregationParameters()
    result = AggregationResult()
    next_id = id_offset
    for group in group_offers(offers, parameters):
        if len(group) == 1:
            result.offers.append(group[0])
            continue
        combined = aggregate_group(group, next_id)
        result.offers.append(combined)
        result.constituents[combined.id] = list(group)
        next_id += 1
    return result
