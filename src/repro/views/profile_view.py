"""The profile view of flex-offers (Figure 9).

The profile view is the paper's detailed representation and its main visual
contribution: "the variation of the histogram plot where 2-dimensional (time
and energy) subspaces are stacked onto each other" — dimensional stacking of
one small time-energy chart per flex-offer lane.  It shows, for every profile
slice, the minimum and maximum energy bounds plus the scheduled amount (red
line), and all ordinate axes share one synchronised scale so energy bars can
be compared across flex-offers.  Each offer's per-slot bands are one
:class:`~repro.render.scene.Bars` node, whose tooltip lists every slice, and
its minimum bars another.

The paper recommends it "for a smaller flex-offer set with less than few
thousands of flex-offers"; the CLAIM-2 bench measures that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.flexoffer.model import FlexOffer
from repro.render.axes import PlotArea, legend, time_axis
from repro.render.color import Palette
from repro.render.scales import LinearScale, SlotTimeScale, pretty_ticks
from repro.render.scene import Bars, Group, Line, Rect, Scene, Style, Text
from repro.timeseries.grid import TimeGrid
from repro.views.base import FlexOfferView, ViewOptions
from repro.views.lanes import LaneStrategy, assign_lanes, lane_count

# Shared by every node that draws with them: ``Style`` and ``Color`` are frozen,
# and the SVG serializer formats each style object once per document.
_CAPTION = Style(fill=Palette.AXIS, font_size=11.0)
_LANE_SEPARATOR = Style(stroke=Palette.AXIS.with_alpha(0.2), stroke_width=0.5)
_TIME_FLEXIBILITY = Style(fill=Palette.TIME_FLEXIBILITY.with_alpha(0.35))
_ENERGY_BAND = Style(fill=Palette.ENERGY_BAND.with_alpha(0.85))
_ENERGY_MIN = Style(fill=Palette.ENERGY_MIN.with_alpha(0.9))
_SCHEDULED_ENERGY = Style(stroke=Palette.SCHEDULE, stroke_width=1.6)
_LANE_LABEL = Style(fill=Palette.AXIS, font_size=8.0)


@dataclass(frozen=True)
class ProfileViewOptions(ViewOptions):
    """Options specific to the profile view."""

    max_lane_height: float = 80.0
    min_lane_height: float = 14.0
    #: Vertical padding inside each lane (fraction of the lane height).
    lane_padding_fraction: float = 0.12
    lane_strategy: LaneStrategy = LaneStrategy.FIRST_FIT
    show_legend: bool = True
    #: Whether to draw the small per-lane energy tick labels.
    show_lane_scale: bool = True


class ProfileView(FlexOfferView):
    """Figure 9: stacked time x energy subspaces with synchronised scales."""

    view_name = "profile view"

    def __init__(
        self,
        offers: Sequence[FlexOffer],
        grid: TimeGrid,
        options: ProfileViewOptions | None = None,
    ) -> None:
        super().__init__(options or ProfileViewOptions())
        self.offers = list(offers)
        self.grid = grid
        self._lanes = assign_lanes(self.offers, self.options.lane_strategy)

    # ------------------------------------------------------------------
    # Shared scales
    # ------------------------------------------------------------------
    def _slot_bounds(self) -> tuple[int, int]:
        if not self.offers:
            return 0, 1
        intervals = self._lanes.intervals.values()
        first = min(start for start, _ in intervals)
        last = max(end for _, end in intervals)
        return first, max(last, first + 1)

    def max_slice_energy(self) -> float:
        """The synchronised ordinate maximum: the largest per-slot maximum energy."""
        peak = 0.0
        for offer in self.offers:
            for piece in offer.profile:
                peak = max(peak, piece.max_energy / piece.duration_slots)
        return peak if peak > 0 else 1.0

    def _lane_height(self, area: PlotArea) -> float:
        lanes = max(lane_count(self._lanes), 1)
        height = area.height / lanes
        return min(max(height, self.options.min_lane_height), self.options.max_lane_height)

    def _time_scale(self, area: PlotArea) -> SlotTimeScale:
        first, last = self._slot_bounds()
        return SlotTimeScale.build(self.grid, first, last, area.left, area.right)

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------
    def build_scene(self) -> Scene:
        options = self.options
        area = options.plot_area
        scene = Scene(width=options.width, height=options.height, title=self.view_name, background=Palette.PANEL)
        scale = self._time_scale(area)
        lane_height = self._lane_height(area)
        padding = lane_height * options.lane_padding_fraction
        energy_peak = self.max_slice_energy()
        # One "pretty" upper bound shared by every lane (synchronised scales).
        energy_top = pretty_ticks(0.0, energy_peak, max_ticks=4)[-1]
        if energy_top < energy_peak:
            energy_top = energy_peak

        scene.add(time_axis(area, scale))
        scene.add(
            Text(
                x=area.left,
                y=area.top - 14,
                text=(
                    f"{len(self.offers)} flex-offers, {lane_count(self._lanes)} lanes, "
                    f"shared energy scale 0..{energy_top:g} kWh/slot"
                ),
                style=_CAPTION,
                css_class="view-caption",
            )
        )

        marks = Group(name="marks")
        scene.add(marks)
        # Slot -> (x, width) of its bar column, shared by every lane of the scene.
        columns: dict[int, tuple[float, float]] = {}
        for offer in self.offers:
            lane = self._lanes[offer.id]
            lane_top = area.top + lane * lane_height
            energy_scale = LinearScale(
                0.0, energy_top, lane_top + lane_height - padding, lane_top + padding
            )
            marks.add(
                self._offer_group(offer, area, scale, columns, energy_scale, lane_top, lane_height)
            )

        if options.show_legend:
            scene.add(
                legend(
                    area,
                    [
                        ("energy band (min..max)", Palette.ENERGY_BAND),
                        ("minimum energy", Palette.ENERGY_MIN),
                        ("scheduled energy", Palette.SCHEDULE),
                        ("time flexibility", Palette.TIME_FLEXIBILITY),
                    ],
                )
            )
        return scene

    def _offer_group(
        self,
        offer: FlexOffer,
        area: PlotArea,
        scale: SlotTimeScale,
        columns: dict[int, tuple[float, float]],
        energy_scale: LinearScale,
        lane_top: float,
        lane_height: float,
    ) -> Group:
        element_id = f"fo:{offer.id}"
        group = Group(name=f"offer-{offer.id}", element_id=element_id)
        baseline = energy_scale.project(0.0)

        # Lane separator and the grey time-flexibility band behind the bars.
        group.add(
            Line(
                x1=area.left,
                y1=lane_top + lane_height,
                x2=area.right,
                y2=lane_top + lane_height,
                style=_LANE_SEPARATOR,
                css_class="lane-separator",
            )
        )
        start, end = self._lanes.intervals[offer.id]
        span_left = scale.project(start)
        span_right = scale.project(end)
        group.add(
            Rect(
                x=span_left,
                y=lane_top + 1,
                width=max(span_right - span_left, 1.0),
                height=lane_height - 2,
                style=_TIME_FLEXIBILITY,
                element_id=element_id,
                css_class="time-flexibility",
            )
        )

        # Per slot, a band between min and max energy and a solid bar up to the
        # minimum; each offer draws all its bands as one node, its bars as another.
        bands: list[tuple[float, float, float, float]] = []
        minimums: list[tuple[float, float, float, float]] = []
        tooltips: list[str] = []
        schedule_lines: list[Line] = []
        start_slot = offer.schedule.start_slot if offer.schedule is not None else offer.earliest_start_slot
        position = start_slot
        for index, piece in enumerate(offer.profile):
            low = piece.min_energy / piece.duration_slots
            high = piece.max_energy / piece.duration_slots
            y_low = energy_scale.project(low)
            y_high = energy_scale.project(high)
            band_height = max(y_low - y_high, 0.5)
            minimum_height = max(baseline - y_low, 0.5)
            tooltips.append(
                f"flex-offer {offer.id} slice {index}: "
                f"{piece.min_energy:.2f}-{piece.max_energy:.2f} kWh"
            )
            for slot in range(position, position + piece.duration_slots):
                column = columns.get(slot)
                if column is None:
                    left = scale.project(slot)
                    column = columns[slot] = (left, max(scale.project(slot + 1) - left - 0.5, 0.8))
                left, width = column
                bands.append((left, y_high, width, band_height))
                minimums.append((left, y_low, width, minimum_height))
            # Scheduled amount: a red horizontal line across the slice.
            if offer.schedule is not None:
                amount = offer.schedule.energy_per_slice[index] / piece.duration_slots
                y_sched = energy_scale.project(amount)
                schedule_lines.append(
                    Line(
                        x1=scale.project(position),
                        y1=y_sched,
                        x2=scale.project(position + piece.duration_slots),
                        y2=y_sched,
                        style=_SCHEDULED_ENERGY,
                        element_id=element_id,
                        css_class="scheduled-energy",
                    )
                )
            position += piece.duration_slots
        group.add(
            Bars(
                rects=tuple(bands),
                style=_ENERGY_BAND,
                element_id=element_id,
                css_class="energy-band",
                tooltip="\n".join(tooltips),
            )
        )
        group.add(
            Bars(
                rects=tuple(minimums),
                style=_ENERGY_MIN,
                element_id=element_id,
                css_class="energy-min",
            )
        )
        group.extend(schedule_lines)

        if self.options.show_lane_scale:
            group.add(
                Text(
                    x=area.left - 6,
                    y=lane_top + lane_height / 2 + 3,
                    text=f"#{offer.id}",
                    style=_LANE_LABEL,
                    anchor="end",
                    css_class="lane-label",
                )
            )
        return group

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def offers_in_rectangle(self, left: float, top: float, right: float, bottom: float) -> list[int]:
        """Ids of offers whose lane band intersects the pixel rectangle."""
        area = self.options.plot_area
        scale = self._time_scale(area)
        lane_height = self._lane_height(area)
        found: list[int] = []
        for offer in self.offers:
            lane = self._lanes[offer.id]
            lane_top = area.top + lane * lane_height
            lane_bottom = lane_top + lane_height
            start, end = self._lanes.intervals[offer.id]
            box_left = scale.project(start)
            box_right = scale.project(end)
            if box_left <= right and box_right >= left and lane_top <= bottom and lane_bottom >= top:
                found.append(offer.id)
        return found
