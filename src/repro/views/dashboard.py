"""The dashboard view (Figure 6) and the balancing chart (Figure 1).

Figure 6 summarises the complete flex-offer data for a selected time interval:
a pie chart of the accepted / assigned / rejected shares plus a stacked
per-interval bar chart of the same counts over time.  Figure 1 contrasts RES
production, non-flexible demand and flexible demand before and after the
MIRABEL system balances the grid; :class:`BalanceView` renders exactly those
curves from a :class:`~repro.enterprise.planning.PlanningReport` or from raw
series.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Sequence

from repro.flexoffer.model import FlexOffer, FlexOfferState
from repro.olap.cube import FlexOfferCube, GroupBy
from repro.render.axes import PlotArea, legend, time_axis, value_axis
from repro.render.color import Palette
from repro.render.scales import LinearScale, SlotTimeScale
from repro.render.scene import Group, Polyline, Rect, Scene, Style, Text, Wedge
from repro.timeseries.grid import TimeGrid
from repro.views.base import FlexOfferView, ViewOptions

if TYPE_CHECKING:  # pragma: no cover - typing only; rendering imports the
    # numpy-native TimeSeries lazily at draw time.
    from repro.timeseries.series import TimeSeries

_STATE_ORDER = (FlexOfferState.ACCEPTED, FlexOfferState.ASSIGNED, FlexOfferState.REJECTED)


def _per_state(**style) -> dict[str, Style]:
    """One style per drawn state, filled with the state's colour."""
    return {state.value: Style(fill=Palette.state_color(state.value), **style) for state in _STATE_ORDER}


# Shared by every node that draws with them: ``Style`` and ``Color`` are frozen,
# and the SVG serializer formats each style object once per document.
_CAPTION = Style(fill=Palette.AXIS, font_size=12.0)
_STATE_WEDGE = _per_state(stroke=Palette.PANEL, stroke_width=1.0)
_STATE_LABEL = _per_state(font_size=11.0)
_STATE_BAR = _per_state()
_NON_FLEXIBLE_BAND = Style(fill=Palette.NON_FLEXIBLE_DEMAND.with_alpha(0.55))
_FLEXIBLE_BAND = Style(fill=Palette.FLEXIBLE_DEMAND.with_alpha(0.55))
_RES_LINE = Style(stroke=Palette.RES_PRODUCTION, stroke_width=2.2)


@dataclass(frozen=True)
class DashboardOptions(ViewOptions):
    """Options specific to the dashboard view."""

    #: Absolute interval summarised by the dashboard (None = whole offer span).
    interval_start: datetime | None = None
    interval_end: datetime | None = None
    #: Width of time buckets of the stacked bars, in slots.
    bucket_slots: int = 1
    pie_radius: float = 70.0


class DashboardView(FlexOfferView):
    """Figure 6: status pie plus stacked per-interval state counts."""

    view_name = "dashboard view"

    def __init__(
        self,
        offers: Sequence[FlexOffer],
        grid: TimeGrid,
        options: DashboardOptions | None = None,
    ) -> None:
        super().__init__(options or DashboardOptions())
        self.grid = grid
        self.offers = self._filter_interval(list(offers))
        self.cube = FlexOfferCube(self.offers, grid)

    def _filter_interval(self, offers: list[FlexOffer]) -> list[FlexOffer]:
        start = self.options.interval_start
        end = self.options.interval_end
        if start is None and end is None:
            return offers
        kept = []
        for offer in offers:
            earliest = self.grid.to_datetime(offer.earliest_start_slot)
            latest_end = self.grid.to_datetime(offer.latest_end_slot)
            if end is not None and earliest >= end:
                continue
            if start is not None and latest_end <= start:
                continue
            kept.append(offer)
        return kept

    # ------------------------------------------------------------------
    # Data preparation
    # ------------------------------------------------------------------
    def state_totals(self) -> dict[str, int]:
        """Counts of accepted / assigned / rejected offers in the interval."""
        totals = {state.value: 0 for state in _STATE_ORDER}
        for offer in self.offers:
            if offer.state.value in totals:
                totals[offer.state.value] += 1
        return totals

    def state_percentages(self) -> dict[str, float]:
        """The pie-chart percentages (0..100), zero when there are no offers."""
        totals = self.state_totals()
        grand = sum(totals.values())
        if grand == 0:
            return {state: 0.0 for state in totals}
        return {state: 100.0 * count / grand for state, count in totals.items()}

    def counts_over_time(self) -> dict[str, list[tuple[int, float]]]:
        """Per state: (bucket start slot, count) pairs across the interval."""
        bucket = max(self.options.bucket_slots, 1)
        cell_set = self.cube.aggregate(
            [GroupBy("Time", "slot"), GroupBy("State", "state")], ["flex_offer_count"]
        )
        series: dict[str, dict[int, float]] = {state.value: {} for state in _STATE_ORDER}
        for cell in cell_set.cells:
            slot, state = cell.coordinates
            if state not in series:
                continue
            bucket_slot = (int(slot) // bucket) * bucket
            series[state][bucket_slot] = series[state].get(bucket_slot, 0.0) + cell.values["flex_offer_count"]
        return {state: sorted(values.items()) for state, values in series.items()}

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------
    def build_scene(self) -> Scene:
        options = self.options
        scene = Scene(width=options.width, height=options.height, title=self.view_name, background=Palette.PANEL)
        area = options.plot_area

        start = options.interval_start
        end = options.interval_end
        caption = "complete flex-offer data"
        if start is not None or end is not None:
            caption = f"From: {start:%Y-%m-%d %H:%M}  To: {end:%Y-%m-%d %H:%M}" if start and end else caption
        scene.add(
            Text(
                x=area.left,
                y=area.top - 14,
                text=caption,
                style=_CAPTION,
                css_class="view-caption",
            )
        )

        marks = Group(name="marks")
        scene.add(marks)

        # Left panel: the status pie.
        pie_cx = area.left + options.pie_radius + 20
        pie_cy = area.top + area.height / 2
        percentages = self.state_percentages()
        totals = self.state_totals()
        angle = 0.0
        for state in _STATE_ORDER:
            share = percentages[state.value]
            if share <= 0:
                continue
            sweep = 360.0 * share / 100.0
            marks.add(
                Wedge(
                    cx=pie_cx,
                    cy=pie_cy,
                    radius=options.pie_radius,
                    start_angle=angle,
                    end_angle=angle + sweep,
                    style=_STATE_WEDGE[state.value],
                    element_id=f"pie:{state.value}",
                    css_class=f"state-wedge {state.value}",
                    tooltip=f"{state.value}: {totals[state.value]} offers ({share:.0f}%)",
                )
            )
            angle += sweep
        for index, state in enumerate(_STATE_ORDER):
            marks.add(
                Text(
                    x=pie_cx - options.pie_radius,
                    y=pie_cy + options.pie_radius + 18 + index * 14,
                    text=f"{state.value} {percentages[state.value]:.0f}%",
                    style=_STATE_LABEL[state.value],
                    css_class="pie-label",
                )
            )

        # Right panel: stacked per-interval counts.
        chart = PlotArea(
            left=pie_cx + options.pie_radius + 60,
            top=area.top + 10,
            width=area.right - (pie_cx + options.pie_radius + 60),
            height=area.height - 40,
        )
        counts = self.counts_over_time()
        all_slots = sorted({slot for values in counts.values() for slot, _ in values})
        if all_slots:
            bucket = max(self.options.bucket_slots, 1)
            time_scale = SlotTimeScale.build(self.grid, all_slots[0], all_slots[-1] + bucket, chart.left, chart.right)
            peak = 0.0
            for slot in all_slots:
                peak = max(peak, sum(dict(counts[state.value]).get(slot, 0.0) for state in _STATE_ORDER))
            value_scale = LinearScale.nice(0.0, max(peak, 1.0), chart.bottom, chart.top)
            scene.add(time_axis(chart, time_scale, max_ticks=6))
            scene.add(value_axis(chart, value_scale, label="flex-offers"))
            bar_width = max((time_scale.project(all_slots[0] + bucket) - time_scale.project(all_slots[0])) - 2, 1.0)
            for slot in all_slots:
                base = value_scale.project(0.0)
                x = time_scale.project(slot)
                for state in _STATE_ORDER:
                    value = dict(counts[state.value]).get(slot, 0.0)
                    if value <= 0:
                        continue
                    top = value_scale.project(value_scale.invert(base) + value)
                    marks.add(
                        Rect(
                            x=x,
                            y=top,
                            width=bar_width,
                            height=base - top,
                            style=_STATE_BAR[state.value],
                            element_id=f"bar:{slot}:{state.value}",
                            css_class=f"state-bar {state.value}",
                            tooltip=f"{self.grid.to_datetime(slot):%H:%M} {state.value}: {value:.0f}",
                        )
                    )
                    base = top
            scene.add(
                legend(
                    chart,
                    [(state.value, Palette.state_color(state.value)) for state in _STATE_ORDER],
                    x=chart.right - 110,
                    y=chart.top + 4,
                )
            )
        return scene


@dataclass(frozen=True)
class BalanceViewOptions(ViewOptions):
    """Options of the Figure 1 balancing chart."""

    show_legend: bool = True
    caption: str = ""


class BalanceView(FlexOfferView):
    """Figure 1: RES production vs non-flexible and flexible demand.

    Two of these views side by side — one built from the *unplanned* flexible
    load, one from the *planned* load — reproduce the before/after pair of the
    paper's Figure 1.
    """

    view_name = "balance view"

    def __init__(
        self,
        res_production: TimeSeries,
        base_demand: TimeSeries,
        flexible_load: TimeSeries,
        grid: TimeGrid,
        options: BalanceViewOptions | None = None,
    ) -> None:
        super().__init__(options or BalanceViewOptions())
        self.res_production = res_production
        self.base_demand = base_demand
        self.flexible_load = flexible_load
        self.grid = grid

    def build_scene(self) -> Scene:
        options = self.options
        area = options.plot_area
        scene = Scene(width=options.width, height=options.height, title=self.view_name, background=Palette.PANEL)

        first = min(self.res_production.start_slot, self.base_demand.start_slot)
        last = max(self.res_production.end_slot, self.base_demand.end_slot)
        time_scale = SlotTimeScale.build(self.grid, first, last, area.left, area.right)
        total_demand = self.base_demand + self.flexible_load
        peak = max(self.res_production.maximum(), total_demand.maximum(), 1.0)
        value_scale = LinearScale.nice(0.0, peak, area.bottom, area.top)

        scene.add(time_axis(area, time_scale))
        scene.add(value_axis(area, value_scale, label="energy", unit=self.res_production.unit or "kWh"))
        if options.caption:
            scene.add(
                Text(
                    x=area.left,
                    y=area.top - 14,
                    text=options.caption,
                    style=_CAPTION,
                    css_class="view-caption",
                )
            )

        marks = Group(name="marks")
        scene.add(marks)

        def stacked_band(lower: TimeSeries, upper: TimeSeries, style: Style, name: str) -> None:
            points_top = [
                (time_scale.project(slot + 0.5), value_scale.project(value))
                for slot, value in upper.to_pairs()
            ]
            points_bottom = [
                (time_scale.project(slot + 0.5), value_scale.project(value))
                for slot, value in lower.to_pairs()
            ]
            if not points_top:
                return
            polygon_points = tuple(points_bottom + points_top[::-1])
            from repro.render.scene import Polygon

            marks.add(
                Polygon(
                    points=polygon_points,
                    style=style,
                    element_id=f"band:{name}",
                    css_class=f"band {name}",
                )
            )

        from repro.timeseries.series import TimeSeries

        zero = TimeSeries.zeros(self.grid, self.base_demand.start_slot, len(self.base_demand))
        stacked_band(zero, self.base_demand, _NON_FLEXIBLE_BAND, "non-flexible demand")
        stacked_band(self.base_demand, total_demand, _FLEXIBLE_BAND, "flexible demand")

        res_points = tuple(
            (time_scale.project(slot + 0.5), value_scale.project(value))
            for slot, value in self.res_production.to_pairs()
        )
        marks.add(
            Polyline(
                points=res_points,
                style=_RES_LINE,
                element_id="series:res",
                css_class="res-production",
            )
        )

        if options.show_legend:
            scene.add(
                legend(
                    area,
                    [
                        ("production from RES", Palette.RES_PRODUCTION),
                        ("non-flexible demand", Palette.NON_FLEXIBLE_DEMAND),
                        ("flexible demand", Palette.FLEXIBLE_DEMAND),
                    ],
                )
            )
        return scene

    def overlap_energy(self) -> float:
        """Energy (kWh) of flexible demand placed where RES exceeds the base demand.

        The quantity Figure 1 illustrates: after balancing, this overlap grows.
        """
        import numpy as np

        surplus = (self.res_production - self.base_demand).clip(minimum=0.0)
        load = self.flexible_load.slice_slots(surplus.start_slot, surplus.end_slot)
        return float(np.minimum(surplus.values, np.clip(load.values, 0.0, None)).sum())
