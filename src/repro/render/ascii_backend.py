"""ASCII backend: render a scene into a character grid.

Useful for terminal-only environments, doctest-style examples and quick test
assertions about layout (e.g. "the flex-offer boxes occupy separate lanes")
without parsing SVG.  The backend draws rectangle outlines/fills (a
:class:`~repro.render.scene.Bars` node rectangle by rectangle), straight lines
(approximated with Bresenham), circle outlines and text labels; wedges and
polygons are approximated by their outlines.  A node type it cannot draw
raises ``TypeError``, as the SVG backend does.
"""

from __future__ import annotations

import math

from repro.errors import RenderError
from repro.render.scene import (
    Bars,
    Circle,
    Group,
    Line,
    Node,
    Polygon,
    Polyline,
    Rect,
    Scene,
    Text,
    Wedge,
)


class AsciiCanvas:
    """A character grid with primitive drawing operations."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise RenderError("ASCII canvas dimensions must be positive")
        self.width = width
        self.height = height
        self._cells = [[" "] * width for _ in range(height)]

    def put(self, x: int, y: int, char: str) -> None:
        """Set a cell when inside the canvas (silently ignores out-of-range)."""
        if 0 <= x < self.width and 0 <= y < self.height:
            self._cells[y][x] = char

    def draw_line(self, x1: int, y1: int, x2: int, y2: int, char: str = "*") -> None:
        """Bresenham line between two cells."""
        dx = abs(x2 - x1)
        dy = -abs(y2 - y1)
        sx = 1 if x1 < x2 else -1
        sy = 1 if y1 < y2 else -1
        error = dx + dy
        x, y = x1, y1
        while True:
            self.put(x, y, char)
            if x == x2 and y == y2:
                break
            doubled = 2 * error
            if doubled >= dy:
                error += dy
                x += sx
            if doubled <= dx:
                error += dx
                y += sy

    def draw_rect(self, x: int, y: int, width: int, height: int, fill: str | None, border: str = "#") -> None:
        """Rectangle outline with optional interior fill character."""
        if width < 1 or height < 1:
            return
        if fill is not None:
            for yy in range(y, y + height):
                for xx in range(x, x + width):
                    self.put(xx, yy, fill)
        for xx in range(x, x + width):
            self.put(xx, y, border)
            self.put(xx, y + height - 1, border)
        for yy in range(y, y + height):
            self.put(x, yy, border)
            self.put(x + width - 1, yy, border)

    def draw_text(self, x: int, y: int, text: str) -> None:
        """Write a text string starting at (x, y)."""
        for offset, char in enumerate(text):
            self.put(x + offset, y, char)

    def to_string(self) -> str:
        """The canvas as a newline-joined string."""
        return "\n".join("".join(row).rstrip() for row in self._cells)


def _scale(value: float, factor: float) -> int:
    return int(round(value * factor))


def render_ascii(scene: Scene, columns: int = 100) -> str:
    """Render ``scene`` to ASCII art ``columns`` characters wide.

    The vertical scale is halved relative to the horizontal one because
    terminal cells are roughly twice as tall as they are wide.
    """
    factor = columns / scene.width
    rows = max(int(round(scene.height * factor * 0.5)), 1)
    canvas = AsciiCanvas(columns, rows)
    fx = factor
    fy = factor * 0.5

    def draw_rect(x: float, y: float, width: float, height: float, filled: bool) -> None:
        canvas.draw_rect(
            _scale(x, fx),
            _scale(y, fy),
            max(_scale(width, fx), 1),
            max(_scale(height, fy), 1),
            fill="." if filled else None,
            border="#",
        )

    def draw(node: Node) -> None:
        if isinstance(node, Group):
            for child in node.children:
                draw(child)
            return
        if isinstance(node, Rect):
            draw_rect(node.x, node.y, node.width, node.height, node.style.fill is not None)
            return
        if isinstance(node, Bars):
            filled = node.style.fill is not None
            for x, y, width, height in node.rects:
                draw_rect(x, y, width, height, filled)
            return
        if isinstance(node, Line):
            char = ":" if node.style.dashed else "|" if abs(node.x2 - node.x1) < 1e-9 else "-"
            canvas.draw_line(
                _scale(node.x1, fx), _scale(node.y1, fy), _scale(node.x2, fx), _scale(node.y2, fy), char
            )
            return
        if isinstance(node, (Polyline, Polygon)):
            points = list(node.points)
            if isinstance(node, Polygon) and points:
                points.append(points[0])
            for (x1, y1), (x2, y2) in zip(points, points[1:]):
                canvas.draw_line(_scale(x1, fx), _scale(y1, fy), _scale(x2, fx), _scale(y2, fy), "*")
            return
        if isinstance(node, Circle):
            steps = max(int(node.radius * fx), 8)
            for step in range(steps):
                angle = 2 * math.pi * step / steps
                canvas.put(
                    _scale(node.cx + node.radius * math.cos(angle), fx),
                    _scale(node.cy + node.radius * math.sin(angle), fy),
                    "o",
                )
            return
        if isinstance(node, Wedge):
            for (x1, y1), (x2, y2) in zip(node.arc_points(), node.arc_points()[1:]):
                canvas.draw_line(_scale(x1, fx), _scale(y1, fy), _scale(x2, fx), _scale(y2, fy), "%")
            return
        if isinstance(node, Text):
            x = _scale(node.x, fx)
            if node.anchor == "middle":
                x -= len(node.text) // 2
            elif node.anchor == "end":
                x -= len(node.text)
            canvas.draw_text(x, _scale(node.y, fy), node.text)
            return
        raise TypeError(f"ASCII backend cannot render node type {type(node).__name__}")

    for child in scene.root.children:
        draw(child)
    return canvas.to_string()
