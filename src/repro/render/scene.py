"""The scene graph: backend-independent drawing primitives.

Views build a tree of primitives (rectangles, lines, text, circles, polygons,
pie wedges, and :class:`Bars` — many rectangles drawn as one node) grouped
into named :class:`Group` nodes; backends (SVG, ASCII) walk the tree and emit
output.  Primitives carry their domain object's identifier in ``element_id``
so that hit-testing and selection can map a pixel back to a flex-offer — the
headless equivalent of the tool's mouse interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import RenderError
from repro.render.color import Color


@dataclass(frozen=True)
class Style:
    """Visual attributes shared by all primitives."""

    fill: Color | None = None
    stroke: Color | None = None
    stroke_width: float = 1.0
    dashed: bool = False
    opacity: float = 1.0
    font_size: float = 11.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.opacity <= 1.0:
            raise RenderError("opacity must lie in [0, 1]")


@dataclass
class Node:
    """Base class of every scene-graph node."""

    #: Identifier of the domain object the node represents ("" for decoration).
    element_id: str = ""
    #: Free-form class label used for styling/grouping in the SVG output.
    css_class: str = ""


@dataclass
class Rect(Node):
    """An axis-aligned rectangle."""

    x: float = 0.0
    y: float = 0.0
    width: float = 0.0
    height: float = 0.0
    style: Style = field(default_factory=Style)
    tooltip: str = ""

    def contains(self, px: float, py: float) -> bool:
        """Whether the pixel (px, py) lies inside the rectangle."""
        return self.x <= px <= self.x + self.width and self.y <= py <= self.y + self.height


@dataclass
class Bars(Node):
    """Axis-aligned rectangles sharing one style, element id, class and tooltip.

    A view draws a run of like rectangles (the profile view's per-slot energy
    bars) as one node, which the SVG backend writes as one ``<path>``.
    """

    #: One ``(x, y, width, height)`` per rectangle.
    rects: tuple[tuple[float, float, float, float], ...] = ()
    style: Style = field(default_factory=Style)
    tooltip: str = ""

    def contains(self, px: float, py: float) -> bool:
        """Whether any rectangle contains the pixel (px, py), by :meth:`Rect.contains`' rule."""
        return any(
            x <= px <= x + width and y <= py <= y + height for x, y, width, height in self.rects
        )


@dataclass
class Line(Node):
    """A straight line segment."""

    x1: float = 0.0
    y1: float = 0.0
    x2: float = 0.0
    y2: float = 0.0
    style: Style = field(default_factory=Style)


@dataclass
class Polyline(Node):
    """A connected sequence of line segments (e.g. a time-series curve)."""

    points: tuple[tuple[float, float], ...] = ()
    style: Style = field(default_factory=Style)


@dataclass
class Polygon(Node):
    """A closed filled polygon (e.g. a stacked-area band or map region)."""

    points: tuple[tuple[float, float], ...] = ()
    style: Style = field(default_factory=Style)


@dataclass
class Circle(Node):
    """A circle (map-view glyph anchors, schematic nodes)."""

    cx: float = 0.0
    cy: float = 0.0
    radius: float = 0.0
    style: Style = field(default_factory=Style)
    tooltip: str = ""


@dataclass
class Wedge(Node):
    """A pie-chart wedge from ``start_angle`` to ``end_angle`` (degrees, clockwise from 12 o'clock)."""

    cx: float = 0.0
    cy: float = 0.0
    radius: float = 0.0
    start_angle: float = 0.0
    end_angle: float = 0.0
    style: Style = field(default_factory=Style)
    tooltip: str = ""

    def arc_points(self, steps: int = 24) -> list[tuple[float, float]]:
        """Approximate the wedge outline as a polygon (used by the ASCII backend)."""
        points = [(self.cx, self.cy)]
        span = self.end_angle - self.start_angle
        for step in range(steps + 1):
            angle = math.radians(self.start_angle + span * step / steps - 90.0)
            points.append(
                (self.cx + self.radius * math.cos(angle), self.cy + self.radius * math.sin(angle))
            )
        return points


@dataclass
class Text(Node):
    """A text label anchored at (x, y)."""

    x: float = 0.0
    y: float = 0.0
    text: str = ""
    style: Style = field(default_factory=Style)
    anchor: str = "start"  # start | middle | end
    rotation: float = 0.0


@dataclass
class Group(Node):
    """A named group of child nodes."""

    name: str = ""
    children: list[Node] = field(default_factory=list)

    def add(self, node: Node) -> Node:
        """Append a child node and return it (for chaining)."""
        self.children.append(node)
        return node

    def extend(self, nodes: Sequence[Node]) -> None:
        """Append many child nodes."""
        self.children.extend(nodes)

    def walk(self) -> Iterator[Node]:
        """Depth-first iteration over all descendant nodes (excluding self)."""
        for child in self.children:
            yield child
            if isinstance(child, Group):
                yield from child.walk()


@dataclass
class Scene:
    """A complete drawing: a root group plus the canvas size."""

    width: float
    height: float
    root: Group = field(default_factory=lambda: Group(name="root"))
    title: str = ""
    background: Color | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise RenderError("scene dimensions must be positive")

    def add(self, node: Node) -> Node:
        """Add a node to the root group."""
        return self.root.add(node)

    def walk(self) -> Iterator[Node]:
        """Iterate over every node in the scene."""
        return self.root.walk()

    def count_nodes(self) -> int:
        """Total number of primitive and group nodes (excluding the root)."""
        return sum(1 for _ in self.walk())

    def find(self, element_id: str) -> list[Node]:
        """All nodes carrying the given ``element_id``."""
        return [node for node in self.walk() if node.element_id == element_id]

    def hit_test(self, x: float, y: float) -> list[Node]:
        """Nodes whose geometry contains the pixel (rectangles, :class:`Bars` and circles only).

        This is the headless stand-in for the tool's mouse-pointer interaction:
        the returned nodes' ``element_id`` values identify the flex-offers under
        the cursor.
        """
        hits: list[Node] = []
        for node in self.walk():
            if isinstance(node, (Rect, Bars)) and node.contains(x, y):
                hits.append(node)
            elif isinstance(node, Circle):
                if (x - node.cx) ** 2 + (y - node.cy) ** 2 <= node.radius**2:
                    hits.append(node)
        return hits
