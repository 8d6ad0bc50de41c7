"""Lane packing of temporally overlapping flex-offers.

"As flex-offers are temporal objects which may potentially overlap in time,
boxes representing flex-offers are stacked on each other thus occupying one of
several ordinate axes in the graph" (Section 4).  The default strategy is the
classic greedy first-fit interval colouring: offers are sorted by their
earliest start and each goes to the lowest-numbered lane whose last occupant
ends before the offer begins.  A naive one-offer-per-lane strategy is kept as
the ablation baseline for the FIG-8 bench.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.flexoffer.model import FlexOffer


class LaneStrategy(str, Enum):
    """How flex-offers are assigned to ordinate lanes."""

    #: Greedy first-fit interval packing (the tool's behaviour).
    FIRST_FIT = "first-fit"
    #: One lane per flex-offer (no packing; ablation baseline).
    ONE_PER_LANE = "one-per-lane"


def offer_interval(offer: FlexOffer) -> tuple[int, int]:
    """The half-open slot interval a flex-offer can occupy on screen.

    The basic view shows the whole feasible span — the grey time-flexibility
    rectangle plus the profile duration — so packing uses
    ``[earliest_start, latest_end)``.
    """
    return offer.earliest_start_slot, offer.latest_end_slot


class LaneAssignment(dict):
    """``{offer id: lane index}``, with each offer's :func:`offer_interval`.

    Packing computes every interval once, and the views draw from
    :attr:`intervals` rather than re-summing each profile.
    """

    def __init__(self, intervals: dict[int, tuple[int, int]]) -> None:
        super().__init__()
        self.intervals = intervals


def assign_lanes(
    offers: Sequence[FlexOffer], strategy: LaneStrategy = LaneStrategy.FIRST_FIT
) -> LaneAssignment:
    """Assign every offer to a lane; returns ``{offer id: lane index}``.

    Lane 0 is drawn at the top.  With :attr:`LaneStrategy.FIRST_FIT` two offers
    share a lane only when their feasible spans do not overlap.
    """
    intervals = {offer.id: offer_interval(offer) for offer in offers}
    assignment = LaneAssignment(intervals)
    if strategy is LaneStrategy.ONE_PER_LANE:
        ordered = sorted(offers, key=lambda offer: (offer.earliest_start_slot, offer.id))
        assignment.update((offer.id, index) for index, offer in enumerate(ordered))
        return assignment

    ordered = sorted(offers, key=lambda offer: (*intervals[offer.id], offer.id))
    lane_ends: list[int] = []  # per lane: the end slot of its last occupant
    for offer in ordered:
        start, end = intervals[offer.id]
        placed = False
        for lane, lane_end in enumerate(lane_ends):
            if lane_end <= start:
                lane_ends[lane] = end
                assignment[offer.id] = lane
                placed = True
                break
        if not placed:
            lane_ends.append(end)
            assignment[offer.id] = len(lane_ends) - 1
    return assignment


def lane_count(assignment: dict[int, int]) -> int:
    """Number of lanes an assignment uses (0 for an empty assignment)."""
    return max(assignment.values()) + 1 if assignment else 0


def lanes_are_valid(offers: Sequence[FlexOffer], assignment: dict[int, int]) -> bool:
    """Check the lane invariant: offers sharing a lane never overlap in time."""
    by_lane: dict[int, list[tuple[int, int]]] = {}
    for offer in offers:
        lane = assignment.get(offer.id)
        if lane is None:
            return False
        by_lane.setdefault(lane, []).append(offer_interval(offer))
    for intervals in by_lane.values():
        intervals.sort()
        for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
            if start_b < end_a:
                return False
    return True
