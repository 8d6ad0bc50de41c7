"""Rendering substrate: colours, scales, scene graph, SVG/ASCII backends, incremental rendering."""

from repro.render.ascii_backend import AsciiCanvas, render_ascii
from repro.render.axes import PlotArea, legend, time_axis, value_axis
from repro.render.color import Color, Palette
from repro.render.incremental import (
    IncrementalRenderer,
    RenderChunk,
    monolithic_render_time,
    time_to_first_chunk,
)
from repro.render.scales import LinearScale, SlotTimeScale, nice_step, pretty_ticks
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
from repro.render.svg import render_svg, save_svg

__all__ = [
    "Color",
    "Palette",
    "LinearScale",
    "SlotTimeScale",
    "pretty_ticks",
    "nice_step",
    "Scene",
    "Group",
    "Node",
    "Rect",
    "Bars",
    "Line",
    "Polyline",
    "Polygon",
    "Circle",
    "Wedge",
    "Text",
    "Style",
    "render_svg",
    "save_svg",
    "render_ascii",
    "AsciiCanvas",
    "PlotArea",
    "time_axis",
    "value_axis",
    "legend",
    "IncrementalRenderer",
    "RenderChunk",
    "time_to_first_chunk",
    "monolithic_render_time",
]
