"""The basic view of flex-offers (Figure 8).

The basic view shows a large number of flex-offers at once by drawing only
their most essential properties:

1. the duration of the energy profile — a light blue rectangle (light red for
   aggregated offers),
2. the start-time flexibility interval — a grey rectangle spanning from the
   earliest start to the latest end, and
3. the scheduled start time of the appliance — a red solid vertical line.

The ordinate axis is unit-less: temporally overlapping offers are stacked onto
separate lanes (see :mod:`repro.views.lanes`).  The view supports the paper's
interactions headlessly: hit-testing a pixel returns the offer under the
pointer, and :meth:`BasicView.offers_in_rectangle` backs rectangle selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.flexoffer.model import FlexOffer
from repro.render.axes import PlotArea, legend, time_axis
from repro.render.color import Palette
from repro.render.scales import SlotTimeScale
from repro.render.scene import Group, Line, Rect, Scene, Style, Text
from repro.timeseries.grid import TimeGrid
from repro.views.base import FlexOfferView, ViewOptions
from repro.views.lanes import LaneStrategy, assign_lanes, lane_count
from repro.views.selection import SelectionRectangle

# Shared by every node that draws with them: ``Style`` and ``Color`` are frozen,
# and the SVG serializer formats each style object once per document.
_CAPTION = Style(fill=Palette.AXIS, font_size=11.0)
_TIME_FLEXIBILITY = Style(fill=Palette.TIME_FLEXIBILITY.with_alpha(0.6))
_PROFILE_BOX = Style(fill=Palette.FLEX_OFFER, stroke=Palette.AXIS.with_alpha(0.4), stroke_width=0.5)
_AGGREGATE_BOX = Style(fill=Palette.AGGREGATED_FLEX_OFFER, stroke=Palette.AXIS.with_alpha(0.4), stroke_width=0.5)
_SCHEDULED_START = Style(stroke=Palette.SCHEDULE, stroke_width=1.6)
_SELECTION = Style(stroke=Palette.SELECTION, stroke_width=1.2, dashed=True)


@dataclass(frozen=True)
class BasicViewOptions(ViewOptions):
    """Options specific to the basic view."""

    #: Vertical pixels per lane (the view grows lanes to fit, then clamps here).
    max_lane_height: float = 22.0
    min_lane_height: float = 4.0
    #: Fraction of the lane height the offer box occupies (the rest is spacing).
    box_fill_fraction: float = 0.7
    lane_strategy: LaneStrategy = LaneStrategy.FIRST_FIT
    show_legend: bool = True


class BasicView(FlexOfferView):
    """Figure 8: lane-stacked boxes for a large number of flex-offers."""

    view_name = "basic view"

    def __init__(
        self,
        offers: Sequence[FlexOffer],
        grid: TimeGrid,
        options: BasicViewOptions | None = None,
        selection_rectangle: SelectionRectangle | None = None,
    ) -> None:
        super().__init__(options or BasicViewOptions())
        self.offers = list(offers)
        self.grid = grid
        self.selection_rectangle = selection_rectangle
        self._lanes = assign_lanes(self.offers, self.options.lane_strategy)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def lane_assignment(self) -> dict[int, int]:
        """Mapping from offer id to lane index."""
        return dict(self._lanes)

    def _slot_bounds(self) -> tuple[int, int]:
        if not self.offers:
            return 0, 1
        first = min(offer.earliest_start_slot for offer in self.offers)
        last = max(offer.latest_end_slot for offer in self.offers)
        return first, max(last, first + 1)

    def _lane_height(self, area: PlotArea) -> float:
        lanes = max(lane_count(self._lanes), 1)
        height = area.height / lanes
        return min(max(height, self.options.min_lane_height), self.options.max_lane_height)

    def _time_scale(self, area: PlotArea) -> SlotTimeScale:
        first, last = self._slot_bounds()
        return SlotTimeScale.build(self.grid, first, last, area.left, area.right)

    def _lane_top(self, lane: int, area: PlotArea) -> float:
        return area.top + lane * self._lane_height(area)

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------
    def build_scene(self) -> Scene:
        options = self.options
        area = options.plot_area
        scene = Scene(width=options.width, height=options.height, title=self.view_name, background=Palette.PANEL)
        scale = self._time_scale(area)
        lane_height = self._lane_height(area)
        box_height = lane_height * options.box_fill_fraction

        scene.add(time_axis(area, scale))
        scene.add(
            Text(
                x=area.left,
                y=area.top - 14,
                text=f"{len(self.offers)} flex-offers, {lane_count(self._lanes)} lanes",
                style=_CAPTION,
                css_class="view-caption",
            )
        )

        marks = Group(name="marks")
        scene.add(marks)
        for offer in self.offers:
            marks.add(self._offer_group(offer, scale, area, lane_height, box_height))

        if self.selection_rectangle is not None:
            left, top, right, bottom = self.selection_rectangle.normalized()
            scene.add(
                Rect(
                    x=left,
                    y=top,
                    width=right - left,
                    height=bottom - top,
                    style=_SELECTION,
                    css_class="selection-rectangle",
                )
            )

        if options.show_legend:
            scene.add(
                legend(
                    area,
                    [
                        ("flex-offer", Palette.FLEX_OFFER),
                        ("aggregated", Palette.AGGREGATED_FLEX_OFFER),
                        ("time flexibility", Palette.TIME_FLEXIBILITY),
                        ("scheduled start", Palette.SCHEDULE),
                    ],
                )
            )
        return scene

    def _offer_group(
        self, offer: FlexOffer, scale: SlotTimeScale, area: PlotArea, lane_height: float, box_height: float
    ) -> Group:
        lane = self._lanes[offer.id]
        top = self._lane_top(lane, area) + (lane_height - box_height) / 2.0
        element_id = f"fo:{offer.id}"
        tooltip = self._tooltip(offer)
        group = Group(name=f"offer-{offer.id}", element_id=element_id)

        # Grey rectangle: the whole feasible span (time flexibility + profile).
        span_left = scale.project(offer.earliest_start_slot)
        span_right = scale.project(offer.latest_end_slot)
        group.add(
            Rect(
                x=span_left,
                y=top,
                width=max(span_right - span_left, 1.0),
                height=box_height,
                style=_TIME_FLEXIBILITY,
                element_id=element_id,
                css_class="time-flexibility",
                tooltip=tooltip,
            )
        )

        # Coloured rectangle: the profile duration, placed at the scheduled
        # start when known and at the earliest start otherwise.
        start_slot = offer.schedule.start_slot if offer.schedule is not None else offer.earliest_start_slot
        profile_left = scale.project(start_slot)
        profile_right = scale.project(start_slot + offer.profile_duration_slots)
        group.add(
            Rect(
                x=profile_left,
                y=top,
                width=max(profile_right - profile_left, 1.0),
                height=box_height,
                style=_AGGREGATE_BOX if offer.is_aggregate else _PROFILE_BOX,
                element_id=element_id,
                css_class="profile-box aggregated" if offer.is_aggregate else "profile-box",
                tooltip=tooltip,
            )
        )

        # Red solid line: the scheduled start time.
        if offer.schedule is not None:
            x = scale.project(offer.schedule.start_slot)
            group.add(
                Line(
                    x1=x,
                    y1=top,
                    x2=x,
                    y2=top + box_height,
                    style=_SCHEDULED_START,
                    element_id=element_id,
                    css_class="scheduled-start",
                )
            )
        return group

    def _tooltip(self, offer: FlexOffer) -> str:
        return (
            f"flex-offer {offer.id} ({offer.state.value}) "
            f"{offer.appliance_type or offer.prosumer_type} "
            f"energy {offer.min_total_energy:.1f}-{offer.max_total_energy:.1f} kWh, "
            f"time flexibility {offer.time_flexibility_slots} slots"
        )

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def offer_at(self, x: float, y: float) -> int | None:
        """The id of the flex-offer under the pixel (x, y), or ``None``."""
        for element in self.elements_at(x, y):
            if element.startswith("fo:"):
                return int(element.split(":", 1)[1])
        return None

    def offers_in_rectangle(self, left: float, top: float, right: float, bottom: float) -> list[int]:
        """Ids of the flex-offers whose feasible-span box intersects the pixel rectangle."""
        area = self.options.plot_area
        scale = self._time_scale(area)
        lane_height = self._lane_height(area)
        box_height = lane_height * self.options.box_fill_fraction
        found: list[int] = []
        for offer in self.offers:
            lane = self._lanes[offer.id]
            box_top = self._lane_top(lane, area) + (lane_height - box_height) / 2.0
            box_bottom = box_top + box_height
            box_left = scale.project(offer.earliest_start_slot)
            box_right = scale.project(offer.latest_end_slot)
            if box_left <= right and box_right >= left and box_top <= bottom and box_bottom >= top:
                found.append(offer.id)
        return found
