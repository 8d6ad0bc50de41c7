"""The pivot view of flex-offers (Figure 5).

The pivot view is the OLAP navigation surface of the framework: the analyst
picks a dimension hierarchy (e.g. prosumer type), navigates its members from
the most summarised ("All prosumers") to the most detailed (e.g. "household"),
and sees one *swimlane* per member with the chosen measure plotted over time.
An MDX query window is part of the view: the rendered scene embeds the query
text, and :meth:`PivotView.run_mdx` executes a manual query against the same
cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ViewError
from repro.flexoffer.model import FlexOffer
from repro.olap.cube import FlexOfferCube, GroupBy, MemberFilter
from repro.olap.mdx import execute as execute_mdx
from repro.olap.pivot import PivotTable, pivot
from repro.render.axes import PlotArea
from repro.render.color import Palette
from repro.render.scales import LinearScale
from repro.render.scene import Group, Line, Rect, Scene, Style, Text
from repro.timeseries.grid import TimeGrid
from repro.views.base import FlexOfferView, ViewOptions

# Shared by every node that draws with them: ``Style`` and ``Color`` are frozen,
# and the SVG serializer formats each style object once per document.
_MDX_WINDOW = Style(fill=Palette.PANEL.lighten(0.5), stroke=Palette.AXIS.with_alpha(0.5))
_MDX_TEXT = Style(fill=Palette.AXIS, font_size=9.0)
#: Swimlane backgrounds, alternating by row.
_LANES = tuple(
    Style(fill=fill, stroke=Palette.AXIS.with_alpha(0.3), stroke_width=0.5)
    for fill in (Palette.PANEL, Palette.PANEL.lighten(0.4))
)
_LABEL = Style(fill=Palette.AXIS, font_size=10.0)
_COLUMN_LABEL = Style(fill=Palette.AXIS, font_size=8.0)
_AXIS_LINE = Style(stroke=Palette.AXIS, stroke_width=1.0)


@dataclass(frozen=True)
class PivotViewOptions(ViewOptions):
    """Options specific to the pivot view."""

    #: Dimension shown on the swimlanes (rows).
    row_dimension: str = "Prosumer"
    row_level: str = "prosumer_type"
    #: Dimension shown along the abscissa (columns) — time by default.
    column_dimension: str = "Time"
    column_level: str = "hour"
    #: Measure plotted inside each swimlane.
    measure: str = "flex_offer_count"
    #: Height of one swimlane in pixels.
    lane_height: float = 70.0
    #: Extra filters applied before pivoting.
    filters: tuple[MemberFilter, ...] = field(default_factory=tuple)
    #: Query text shown in the MDX window area of the view.
    mdx_text: str = ""


class PivotView(FlexOfferView):
    """Figure 5: OLAP pivot with per-member swimlanes over time."""

    view_name = "pivot view"

    def __init__(
        self,
        offers: Sequence[FlexOffer],
        grid: TimeGrid,
        options: PivotViewOptions | None = None,
        cube: FlexOfferCube | None = None,
    ) -> None:
        super().__init__(options or PivotViewOptions())
        self.offers = list(offers)
        self.grid = grid
        self.cube = cube if cube is not None else FlexOfferCube(self.offers, grid)

    # ------------------------------------------------------------------
    # OLAP plumbing
    # ------------------------------------------------------------------
    def pivot_table(self) -> PivotTable:
        """The pivot table behind the swimlanes."""
        options = self.options
        return pivot(
            self.cube,
            GroupBy(options.row_dimension, options.row_level),
            GroupBy(options.column_dimension, options.column_level),
            [options.measure],
            filters=options.filters,
        )

    def drill_down(self) -> "PivotView":
        """Return a new view one level deeper on the row dimension (no-op at the leaf)."""
        dimension = self.cube.dimension(self.options.row_dimension)
        finer = dimension.drill_down_level(self.options.row_level)
        if finer is None:
            return self
        options = replace(self.options, row_level=finer.name)
        return PivotView(self.offers, self.grid, options=options, cube=self.cube)

    def drill_up(self) -> "PivotView":
        """Return a new view one level higher on the row dimension (no-op at the root)."""
        dimension = self.cube.dimension(self.options.row_dimension)
        coarser = dimension.drill_up_level(self.options.row_level)
        if coarser is None:
            return self
        options = replace(self.options, row_level=coarser.name)
        return PivotView(self.offers, self.grid, options=options, cube=self.cube)

    def run_mdx(self, query_text: str) -> PivotTable:
        """Execute a manual MDX query (the Figure 5 query window) against the cube."""
        if not query_text.strip():
            raise ViewError("MDX query text is empty")
        return execute_mdx(self.cube, query_text)

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------
    def build_scene(self) -> Scene:
        options = self.options
        table = self.pivot_table()
        rows = table.row_members or ["(no data)"]
        lane_count = len(rows)
        header_height = 46.0
        needed_height = options.margin_top + header_height + lane_count * options.lane_height + options.margin_bottom
        height = max(options.height, needed_height)
        scene = Scene(width=options.width, height=height, title=self.view_name, background=Palette.PANEL)
        area = PlotArea(
            left=options.margin_left + 110,
            top=options.margin_top + header_height,
            width=options.width - options.margin_left - 110 - options.margin_right,
            height=lane_count * options.lane_height,
        )

        # MDX query window (header area).
        mdx_text = options.mdx_text or self.default_mdx()
        scene.add(
            Rect(
                x=options.margin_left,
                y=options.margin_top,
                width=options.width - options.margin_left - options.margin_right,
                height=header_height - 10,
                style=_MDX_WINDOW,
                css_class="mdx-window",
            )
        )
        scene.add(
            Text(
                x=options.margin_left + 6,
                y=options.margin_top + 15,
                text="MDX query window",
                style=_MDX_TEXT,
                css_class="mdx-caption",
            )
        )
        scene.add(
            Text(
                x=options.margin_left + 6,
                y=options.margin_top + 29,
                text=mdx_text[:160],
                style=_MDX_TEXT,
                css_class="mdx-text",
            )
        )

        columns = table.column_members
        if not columns:
            return scene
        column_scale = LinearScale(0, len(columns), area.left, area.right)
        peak = max(
            (max(row) for row in table.values[options.measure] if row), default=1.0
        )
        peak = max(peak, 1.0)

        marks = Group(name="marks")
        scene.add(marks)
        for row_index, member in enumerate(rows):
            lane_top = area.top + row_index * options.lane_height
            lane = Group(name=f"swimlane-{member}", element_id=f"member:{member}")
            lane.add(
                Rect(
                    x=area.left,
                    y=lane_top,
                    width=area.width,
                    height=options.lane_height - 4,
                    style=_LANES[row_index % 2],
                    css_class="swimlane",
                    element_id=f"member:{member}",
                )
            )
            lane.add(
                Text(
                    x=area.left - 8,
                    y=lane_top + options.lane_height / 2,
                    text=str(member),
                    style=_LABEL,
                    anchor="end",
                    css_class="swimlane-label",
                )
            )
            value_scale = LinearScale(0.0, peak, lane_top + options.lane_height - 6, lane_top + 6)
            bar_style = Style(fill=Palette.categorical(row_index).with_alpha(0.85))
            if table.row_members:
                row_values = table.values[options.measure][row_index]
            else:
                row_values = []
            for column_index, value in enumerate(row_values):
                x_left = column_scale.project(column_index) + 1
                x_right = column_scale.project(column_index + 1) - 1
                y_value = value_scale.project(value)
                baseline = value_scale.project(0.0)
                lane.add(
                    Rect(
                        x=x_left,
                        y=y_value,
                        width=max(x_right - x_left, 1.0),
                        height=max(baseline - y_value, 0.0),
                        style=bar_style,
                        element_id=f"cell:{member}:{columns[column_index]}",
                        css_class="swimlane-bar",
                        tooltip=f"{member} @ {columns[column_index]}: {value:g} {options.measure}",
                    )
                )
            marks.add(lane)

        # Column labels along the bottom.
        label_every = max(len(columns) // 12, 1)
        for column_index, column in enumerate(columns):
            if column_index % label_every:
                continue
            x = column_scale.project(column_index + 0.5)
            scene.add(
                Text(
                    x=x,
                    y=area.bottom + 14,
                    text=str(column)[-5:],
                    style=_COLUMN_LABEL,
                    anchor="middle",
                    css_class="column-label",
                )
            )
        scene.add(
            Line(
                x1=area.left,
                y1=area.bottom,
                x2=area.right,
                y2=area.bottom,
                style=_AXIS_LINE,
            )
        )
        scene.add(
            Text(
                x=area.left,
                y=area.top - 6,
                text=f"measure: {options.measure}  rows: {options.row_dimension}.{options.row_level}  "
                f"columns: {options.column_dimension}.{options.column_level}",
                style=_LABEL,
                css_class="view-caption",
            )
        )
        return scene

    def default_mdx(self) -> str:
        """The MDX text equivalent to the view's current configuration."""
        return (
            f"SELECT {{[Measures].[{self.options.measure}]}} ON COLUMNS, "
            f"{{[{self.options.row_dimension}].[{self.options.row_level}].Members}} ON ROWS "
            f"FROM [FlexOffers]"
        )
