"""Grid-based grouping of flex-offers prior to aggregation.

Offers may only be aggregated together when they are "similar enough" that the
aggregate loses little flexibility.  The grid-based grouping of the MIRABEL
aggregation component bins offers by earliest start time and time flexibility
(window widths given by :class:`~repro.aggregation.parameters.AggregationParameters`);
each non-empty bin becomes one candidate group, optionally chopped into chunks
of ``max_group_size``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import FlexOffer

#: A grouping key: (EST bin, TFT bin, direction or "").
GroupKey = tuple[int, int, str]


def cell_for(
    earliest_start_slot: int,
    time_flexibility_slots: int,
    direction_value: str,
    parameters: AggregationParameters,
) -> GroupKey:
    """The grid cell for raw offer components (the single binning formula).

    Callers that only have warehouse fact columns (the live warehouse's
    ``group_cell`` backfill) use this directly; :func:`group_key` is the
    offer-object convenience wrapper.
    """
    est_bin = earliest_start_slot // parameters.est_tolerance_slots
    tft_bin = time_flexibility_slots // parameters.time_flexibility_tolerance_slots
    direction = direction_value if parameters.separate_directions else ""
    return est_bin, tft_bin, direction


def group_key(offer: FlexOffer, parameters: AggregationParameters) -> GroupKey:
    """The grouping-grid cell an offer falls into."""
    return cell_for(
        offer.earliest_start_slot,
        offer.time_flexibility_slots,
        offer.direction.value,
        parameters,
    )


def chunk_group(members: Sequence[FlexOffer], max_group_size: int) -> list[list[FlexOffer]]:
    """Split one cell's members into aggregation chunks of ``max_group_size``.

    ``0`` means unlimited (one chunk).  Used by the batch grouping, the
    materialized views and engine-state restore; the live engine's commit
    cuts the same runs of its sorted member ids by index
    (:func:`chunk_count`), so every path chunks identically.
    """
    if max_group_size and len(members) > max_group_size:
        return [
            list(members[start : start + max_group_size])
            for start in range(0, len(members), max_group_size)
        ]
    return [list(members)]


def chunk_count(member_count: int, max_group_size: int) -> int:
    """How many chunks :func:`chunk_group` cuts ``member_count`` members into."""
    if member_count == 0:
        return 0
    if max_group_size <= 0:
        return 1
    return -(-member_count // max_group_size)


def chunk_assignment(member_ids: Sequence[int], offer_id: int, max_group_size: int) -> int:
    """The chunk index ``offer_id`` occupies within a cell's sorted membership.

    ``member_ids`` must be the cell's member ids in ascending order — the
    order the batch grouping and the live engine's commit chunk in, so this
    is *the* mapping from a member mutation to the one chunk it perturbs.
    ``max_group_size == 0`` (unlimited) always maps to chunk 0.
    """
    if max_group_size <= 0:
        return 0
    return bisect_left(member_ids, offer_id) // max_group_size


def chunks_from(member_ids: Sequence[int], offer_id: int, max_group_size: int) -> range:
    """Chunk indices perturbed when ``offer_id`` enters or leaves a cell.

    Inserting or withdrawing a member shifts the rank of every larger id, so
    chunk membership changes from the chunk containing the insertion point
    onwards; chunks before it keep their exact member list (the stability
    rule the live engine's chunk-granular dirty ledger relies on).
    ``member_ids`` is the *surviving* sorted membership — for an insert the
    id is already present, for a withdrawal ``bisect_left`` lands on the slot
    the id vacated, so one formula covers both.
    """
    total = chunk_count(len(member_ids), max_group_size)
    if max_group_size <= 0:
        return range(0, total)
    first = bisect_left(member_ids, offer_id) // max_group_size
    return range(min(first, total), total)


def group_offers(
    offers: Sequence[FlexOffer], parameters: AggregationParameters | None = None
) -> list[list[FlexOffer]]:
    """Partition ``offers`` into aggregation groups.

    Offers that are already aggregates are kept alone in their own group so
    that repeated aggregation never nests provenance more than one level deep
    (matching the tool, which distinguishes only aggregated vs non-aggregated
    offers by colour).
    """
    parameters = parameters or AggregationParameters()
    bins: dict[GroupKey, list[FlexOffer]] = {}
    singletons: list[list[FlexOffer]] = []
    for offer in offers:
        if offer.is_aggregate:
            singletons.append([offer])
            continue
        bins.setdefault(group_key(offer, parameters), []).append(offer)

    groups: list[list[FlexOffer]] = []
    for key in sorted(bins):
        groups.extend(chunk_group(bins[key], parameters.max_group_size))
    groups.extend(singletons)
    return groups


def reduction_ratio(original_count: int, aggregated_count: int) -> float:
    """How strongly aggregation reduced the number of on-screen objects.

    1.0 means no reduction; e.g. 4.0 means four times fewer objects.  Returns
    0.0 when there was nothing to aggregate.
    """
    if original_count == 0:
        return 0.0
    if aggregated_count == 0:
        return float(original_count)
    return original_count / aggregated_count
