"""SVG backend: serialize a scene graph to an SVG document.

SVG is the reproduction's substitute for the original tool's Swing canvas: it
is deterministic, diffable in tests, viewable in any browser and needs no
external plotting library (none is available offline).
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape, quoteattr

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
    Style,
    Text,
    Wedge,
)


def _style_attributes(style: Style, filled: bool) -> str:
    """A shape's style attributes; lines and polylines pass ``filled=False``."""
    parts = []
    fill, stroke = style.fill if filled else None, style.stroke
    if fill is None:
        parts.append('fill="none"')
    else:
        parts.append(f'fill="{fill.to_hex()}"')
        if fill.alpha < 1.0:
            parts.append(f'fill-opacity="{fill.alpha:.3f}"')
    if stroke is not None:
        parts.append(f'stroke="{stroke.to_hex()}"')
        parts.append(f'stroke-width="{style.stroke_width:g}"')
        if stroke.alpha < 1.0:
            parts.append(f'stroke-opacity="{stroke.alpha:.3f}"')
        if style.dashed:
            parts.append('stroke-dasharray="4 3"')
    if style.opacity < 1.0:
        parts.append(f'opacity="{style.opacity:.3f}"')
    return " ".join(parts)


def _escape_text(text: str) -> str:
    """``escape(text)``, skipped for the common text that holds none of ``&<>``."""
    if "&" in text or "<" in text or ">" in text:
        return escape(text)
    return text


def _element(head: str, tag: str, tooltip: str) -> str:
    """Close ``head`` as an empty element, or around its ``<title>`` tooltip."""
    if tooltip:
        return f"{head}><title>{_escape_text(tooltip)}</title></{tag}>"
    return f"{head}/>"


def _points_attribute(points: tuple[tuple[float, float], ...]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


class _DocumentWriter:
    """Writes one document's nodes, formatting each style and id attribute string once.

    The memos live as long as one :func:`render_svg` call.  Style strings are
    keyed by the ``Style`` object's identity: the scene keeps every style
    alive while it is written, views share their styles, and two equal
    styles may still format differently (``stroke_width`` 0.0 and -0.0).
    Each id and class value is quoted once, however many classes share an
    id (a profile-view offer's ``fo:<id>`` has up to five).  A :class:`Bars`
    node's x and width strings are memoised by value, since bars in one slot
    column share them; zeros are formatted afresh, because 0.0 and -0.0 are
    one dictionary key with two texts.
    """

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self._filled_styles: dict[int, str] = {}
        self._unfilled_styles: dict[int, str] = {}
        self._commons: dict[tuple[str, str], str] = {}
        self._quoted: dict[str, str] = {}
        self._numbers: dict[float, str] = {}

    def _style(self, style: Style, filled: bool = True) -> str:
        memo = self._filled_styles if filled else self._unfilled_styles
        text = memo.get(id(style))
        if text is None:
            text = memo[id(style)] = _style_attributes(style, filled)
        return text

    def _common(self, node: Node) -> str:
        """The node's id and class attributes, with a leading space ("" when it has neither)."""
        key = (node.element_id, node.css_class)
        text = self._commons.get(key)
        if text is None:
            parts = []
            for name, value in zip(("data-element", "class"), key):
                if value:
                    quoted = self._quoted.get(value)
                    if quoted is None:
                        quoted = self._quoted[value] = quoteattr(value)
                    parts.append(f" {name}={quoted}")
            text = self._commons[key] = "".join(parts)
        return text

    def _bars_path(self, node: Bars) -> str:
        """Path data with one closed ``M x y h w v h h -w Z`` subpath per rectangle."""
        numbers = self._numbers
        parts = []
        for x, y, width, height in node.rects:
            # Clamped at 0 as the <rect> branch clamps, but to +0.0, so "h-" never meets "-0.00".
            width = width if width > 0.0 else 0.0
            height = height if height > 0.0 else 0.0
            x_text = numbers.get(x)
            if x_text is None or not x:
                x_text = numbers[x] = f"{x:.2f}"
            width_text = numbers.get(width)
            if width_text is None or not width:
                width_text = numbers[width] = f"{width:.2f}"
            parts.append(f"M{x_text} {y:.2f}h{width_text}v{height:.2f}h-{width_text}Z")
        return "".join(parts)

    def write(self, node: Node, indent: str) -> None:
        lines = self.lines
        common = self._common(node)
        if isinstance(node, Group):
            label = f" data-name={quoteattr(node.name)}" if node.name else ""
            lines.append(f"{indent}<g{label}{common}>")
            inner = indent + "  "
            for child in node.children:
                self.write(child, inner)
            lines.append(f"{indent}</g>")
            return
        if isinstance(node, Rect):
            head = (
                f'{indent}<rect x="{node.x:.2f}" y="{node.y:.2f}" width="{max(node.width, 0):.2f}" '
                f'height="{max(node.height, 0):.2f}" {self._style(node.style)}{common}'
            )
            lines.append(_element(head, "rect", node.tooltip))
            return
        if isinstance(node, Bars):
            head = f'{indent}<path d="{self._bars_path(node)}" {self._style(node.style)}{common}'
            lines.append(_element(head, "path", node.tooltip))
            return
        if isinstance(node, Line):
            lines.append(
                f'{indent}<line x1="{node.x1:.2f}" y1="{node.y1:.2f}" x2="{node.x2:.2f}" y2="{node.y2:.2f}" '
                f"{self._style(node.style, filled=False)}{common}/>"
            )
            return
        if isinstance(node, Polyline):
            lines.append(
                f'{indent}<polyline points="{_points_attribute(node.points)}" '
                f"{self._style(node.style, filled=False)}{common}/>"
            )
            return
        if isinstance(node, Polygon):
            lines.append(
                f'{indent}<polygon points="{_points_attribute(node.points)}" '
                f"{self._style(node.style)}{common}/>"
            )
            return
        if isinstance(node, Circle):
            head = (
                f'{indent}<circle cx="{node.cx:.2f}" cy="{node.cy:.2f}" r="{node.radius:.2f}" '
                f"{self._style(node.style)}{common}"
            )
            lines.append(_element(head, "circle", node.tooltip))
            return
        if isinstance(node, Wedge):
            head = f'{indent}<path d="{_wedge_path(node)}" {self._style(node.style)}{common}'
            lines.append(_element(head, "path", node.tooltip))
            return
        if isinstance(node, Text):
            fill = node.style.fill
            color = fill.to_hex() if fill is not None else "#000000"
            transform = (
                f' transform="rotate({node.rotation:.1f} {node.x:.2f} {node.y:.2f})"' if node.rotation else ""
            )
            lines.append(
                f'{indent}<text x="{node.x:.2f}" y="{node.y:.2f}" fill="{color}" '
                f'font-size="{node.style.font_size:g}" text-anchor="{node.anchor}" '
                f'font-family="Helvetica, Arial, sans-serif"{transform}{common}>'
                f"{_escape_text(node.text)}</text>"
            )
            return
        raise TypeError(f"SVG backend cannot render node type {type(node).__name__}")


def _wedge_path(node: Wedge) -> str:
    start = math.radians(node.start_angle - 90.0)
    end = math.radians(node.end_angle - 90.0)
    x1 = node.cx + node.radius * math.cos(start)
    y1 = node.cy + node.radius * math.sin(start)
    x2 = node.cx + node.radius * math.cos(end)
    y2 = node.cy + node.radius * math.sin(end)
    large_arc = 1 if (node.end_angle - node.start_angle) % 360.0 > 180.0 else 0
    return (
        f"M {node.cx:.2f} {node.cy:.2f} L {x1:.2f} {y1:.2f} "
        f"A {node.radius:.2f} {node.radius:.2f} 0 {large_arc} 1 {x2:.2f} {y2:.2f} Z"
    )


def render_svg(scene: Scene) -> str:
    """Serialize ``scene`` to a standalone SVG document string.

    Each distinct style's attribute string, each distinct
    ``(element_id, css_class)`` attribute string, each id and class value's
    quoting and each distinct :class:`Bars` x or width string is formatted
    once per call.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{scene.width:.0f}" height="{scene.height:.0f}" '
        f'viewBox="0 0 {scene.width:.0f} {scene.height:.0f}">',
    ]
    if scene.title:
        lines.append(f"  <title>{escape(scene.title)}</title>")
    if scene.background is not None:
        lines.append(
            f'  <rect x="0" y="0" width="{scene.width:.0f}" height="{scene.height:.0f}" '
            f'fill="{scene.background.to_hex()}"/>'
        )
    writer = _DocumentWriter(lines)
    for child in scene.root.children:
        writer.write(child, "  ")
    lines.append("</svg>")
    return "\n".join(lines)


def save_svg(scene: Scene, path: str) -> str:
    """Render ``scene`` and write it to ``path``; returns the path for convenience."""
    document = render_svg(scene)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path
