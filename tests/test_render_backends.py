"""Tests for the SVG and ASCII backends, axes and incremental rendering."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import pytest

from repro.errors import RenderError
from repro.render.ascii_backend import AsciiCanvas, render_ascii
from repro.render.axes import PlotArea, legend, time_axis, value_axis
from repro.render.color import Palette
from repro.render.incremental import IncrementalRenderer, monolithic_render_time, time_to_first_chunk
from repro.render.scales import LinearScale, SlotTimeScale
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
from tests.conftest import make_offer


@pytest.fixture
def sample_scene(grid):
    scene = Scene(width=400, height=200, title="sample", background=Palette.PANEL)
    area = PlotArea(left=40, top=20, width=340, height=140)
    time_scale = SlotTimeScale.build(grid, 0, 96, area.left, area.right)
    value_scale = LinearScale.nice(0, 10, area.bottom, area.top)
    scene.add(time_axis(area, time_scale))
    scene.add(value_axis(area, value_scale, label="energy", unit="kWh"))
    marks = Group(name="marks")
    scene.add(marks)
    for index in range(10):
        marks.add(
            Rect(
                x=50 + index * 30,
                y=40 + (index % 3) * 30,
                width=25,
                height=18,
                style=Style(fill=Palette.FLEX_OFFER, stroke=Palette.AXIS),
                element_id=f"fo:{index}",
                tooltip=f"offer {index}",
            )
        )
    marks.add(Line(x1=50, y1=150, x2=350, y2=150, style=Style(stroke=Palette.SCHEDULE, dashed=True)))
    marks.add(Polyline(points=((50, 60), (120, 90), (200, 40)), style=Style(stroke=Palette.RES_PRODUCTION)))
    marks.add(Polygon(points=((300, 100), (320, 120), (280, 120)), style=Style(fill=Palette.ENERGY_BAND)))
    marks.add(Circle(cx=330, cy=60, radius=8, style=Style(fill=Palette.STATE_ACCEPTED)))
    marks.add(Wedge(cx=330, cy=120, radius=12, start_angle=0, end_angle=120, style=Style(fill=Palette.STATE_REJECTED)))
    marks.add(Text(x=200, y=15, text="caption", anchor="middle", style=Style(fill=Palette.AXIS)))
    scene.add(legend(area, [("offer", Palette.FLEX_OFFER)]))
    return scene


class TestSvgBackend:
    def test_document_structure(self, sample_scene):
        svg = render_svg(sample_scene)
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert 'width="400"' in svg and 'height="200"' in svg

    def test_title_and_background_emitted(self, sample_scene):
        svg = render_svg(sample_scene)
        assert "<title>sample</title>" in svg
        assert Palette.PANEL.to_hex() in svg

    def test_all_primitive_tags_present(self, sample_scene):
        svg = render_svg(sample_scene)
        for tag in ("<rect", "<line", "<polyline", "<polygon", "<circle", "<path", "<text"):
            assert tag in svg

    def test_element_ids_become_data_attributes(self, sample_scene):
        svg = render_svg(sample_scene)
        assert 'data-element="fo:0"' in svg

    def test_tooltips_become_title_elements(self, sample_scene):
        svg = render_svg(sample_scene)
        assert "<title>offer 3</title>" in svg

    def test_dashed_style(self, sample_scene):
        assert "stroke-dasharray" in render_svg(sample_scene)

    def test_text_is_escaped(self):
        scene = Scene(width=50, height=50)
        scene.add(Text(x=0, y=10, text="a < b & c"))
        svg = render_svg(scene)
        assert "a &lt; b &amp; c" in svg

    def test_save_svg(self, sample_scene, tmp_path):
        path = save_svg(sample_scene, str(tmp_path / "scene.svg"))
        assert (tmp_path / "scene.svg").read_text().startswith("<?xml")
        assert path.endswith("scene.svg")

    def test_deterministic_output(self, sample_scene):
        assert render_svg(sample_scene) == render_svg(sample_scene)


def _golden_offers():
    from repro.aggregation.aggregate import aggregate_group
    from repro.flexoffer.model import ProfileSlice, Schedule

    scheduled = make_offer(offer_id=1, earliest_start=8, time_flexibility=6).assign(
        Schedule(start_slot=10, energy_per_slice=(1.5, 2.0, 0.5))
    )
    two_slot = replace(
        make_offer(offer_id=2, earliest_start=12, time_flexibility=4),
        profile=(ProfileSlice(1.0, 2.0), ProfileSlice(2.0, 5.0, duration_slots=2)),
    )
    aggregate = aggregate_group(
        [
            make_offer(offer_id=3, earliest_start=9, time_flexibility=5),
            make_offer(offer_id=4, earliest_start=11, time_flexibility=3, appliance_type="heat_pump"),
        ],
        100,
    )
    return [scheduled, two_slot, aggregate]


def _escape_scene() -> Scene:
    """Markup-special text, ids and classes, and styles shared across node kinds."""
    scene = Scene(width=120, height=80, title="a & b <c>")
    shared_id = 'fo:"7"\nx'
    band = Style(fill=Palette.ENERGY_BAND.with_alpha(0.85))
    outline = Style(fill=Palette.FLEX_OFFER, stroke=Palette.SCHEDULE.with_alpha(0.4), opacity=0.5)
    group = Group(name='g "1"', element_id=shared_id, css_class="offer")
    scene.add(group)
    # One id under three classes; one (id, class) pair on a rect and a line.
    group.add(
        Rect(
            x=1, y=2, width=3, height=4, style=band,
            element_id=shared_id, css_class="energy-band", tooltip="1 < 2 & 3 > 2",
        )
    )
    group.add(
        Rect(x=1, y=6, width=3, height=-1, style=band, element_id=shared_id, css_class="energy-min")
    )
    group.add(
        Rect(
            x=5, y=6, width=2, height=2, style=band,
            element_id=shared_id, css_class="energy-band", tooltip="plain",
        )
    )
    group.add(
        Line(x1=0, y1=9, x2=9, y2=9, style=outline, element_id=shared_id, css_class="energy-band")
    )
    # Bars: negative sizes clamp to 0, and x = -0.0 and 0.0 keep their own text.
    group.add(
        Bars(
            rects=((1, 2, 3, 4), (5, 2, -3, 4), (-0.0, 6, 3, -1), (0.0, 6, 3, 1)),
            style=band, element_id=shared_id, css_class="energy-band",
            tooltip="slice 0: 1 < 2\nslice 1: 3 > 2 & 4",
        )
    )
    # One style on a polyline (which drops its fill) and on a polygon (which keeps it).
    group.add(Polyline(points=((0, 1), (2, 3)), style=outline, css_class="it's"))
    group.add(Polygon(points=((0, 1), (2, 3), (4, 1)), style=outline, element_id="fo:8"))
    # Equal styles that format differently: 0.0 == -0.0.
    for width in (0.0, -0.0):
        group.add(
            Line(x1=0, y1=0, x2=1, y2=1, style=Style(stroke=Palette.AXIS, stroke_width=width, dashed=True))
        )
    group.add(
        Circle(
            cx=20, cy=20, radius=3, style=Style(fill=Palette.STATE_ACCEPTED), tooltip="<b>", css_class="dot"
        )
    )
    group.add(
        Wedge(cx=40, cy=40, radius=9, end_angle=200, style=band, element_id="both '\"", tooltip="x&y")
    )
    group.add(
        Text(x=5, y=9, text="p & q <r> s", element_id=shared_id, css_class="label", rotation=30)
    )
    group.add(Text(x=5, y=19, text="plain", style=Style(font_size=8.5)))
    return scene


ESCAPE_SCENE_SVG = "\n".join(
    (
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="120" height="80" viewBox="0 0 120 80">',
        '  <title>a &amp; b &lt;c&gt;</title>',
        '  <g data-name=\'g "1"\' data-element=\'fo:"7"&#10;x\' class="offer">',
        '    <rect x="1.00" y="2.00" width="3.00" height="4.00" fill="#7fb2d9" fill-opacity="0.850" data-element=\'fo:"7"&#10;x\' class="energy-band"><title>1 &lt; 2 &amp; 3 &gt; 2</title></rect>',
        '    <rect x="1.00" y="6.00" width="3.00" height="0.00" fill="#7fb2d9" fill-opacity="0.850" data-element=\'fo:"7"&#10;x\' class="energy-min"/>',
        '    <rect x="5.00" y="6.00" width="2.00" height="2.00" fill="#7fb2d9" fill-opacity="0.850" data-element=\'fo:"7"&#10;x\' class="energy-band"><title>plain</title></rect>',
        '    <line x1="0.00" y1="9.00" x2="9.00" y2="9.00" fill="none" stroke="#cc2222" stroke-width="1" stroke-opacity="0.400" opacity="0.500" data-element=\'fo:"7"&#10;x\' class="energy-band"/>',
        '    <path d="M1.00 2.00h3.00v4.00h-3.00ZM5.00 2.00h0.00v4.00h-0.00ZM-0.00 6.00h3.00v0.00h-3.00ZM0.00 6.00h3.00v1.00h-3.00Z" fill="#7fb2d9" fill-opacity="0.850" data-element=\'fo:"7"&#10;x\' class="energy-band"><title>slice 0: 1 &lt; 2\nslice 1: 3 &gt; 2 &amp; 4</title></path>',
        '    <polyline points="0.00,1.00 2.00,3.00" fill="none" stroke="#cc2222" stroke-width="1" stroke-opacity="0.400" opacity="0.500" class="it\'s"/>',
        '    <polygon points="0.00,1.00 2.00,3.00 4.00,1.00" fill="#aecde8" stroke="#cc2222" stroke-width="1" stroke-opacity="0.400" opacity="0.500" data-element="fo:8"/>',
        '    <line x1="0.00" y1="0.00" x2="1.00" y2="1.00" fill="none" stroke="#444444" stroke-width="0" stroke-dasharray="4 3"/>',
        '    <line x1="0.00" y1="0.00" x2="1.00" y2="1.00" fill="none" stroke="#444444" stroke-width="-0" stroke-dasharray="4 3"/>',
        '    <circle cx="20.00" cy="20.00" r="3.00" fill="#4c9f70" class="dot"><title>&lt;b&gt;</title></circle>',
        '    <path d="M 40.00 40.00 L 40.00 31.00 A 9.00 9.00 0 1 1 36.92 48.46 Z" fill="#7fb2d9" fill-opacity="0.850" data-element="both \'&quot;"><title>x&amp;y</title></path>',
        '    <text x="5.00" y="9.00" fill="#000000" font-size="11" text-anchor="start" font-family="Helvetica, Arial, sans-serif" transform="rotate(30.0 5.00 9.00)" data-element=\'fo:"7"&#10;x\' class="label">p &amp; q &lt;r&gt; s</text>',
        '    <text x="5.00" y="19.00" fill="#000000" font-size="8.5" text-anchor="start" font-family="Helvetica, Arial, sans-serif">plain</text>',
        '  </g>',
        '</svg>',
    )
)


class TestSvgBytes:
    """The serializer's exact output on fixed scenes, pinned byte for byte."""

    @staticmethod
    def _digest(document: str) -> tuple[int, str]:
        data = document.encode("utf-8")
        return len(data), hashlib.sha256(data).hexdigest()

    def test_sample_scene(self, sample_scene):
        assert self._digest(render_svg(sample_scene)) == (
            7823,
            "746560ced3f4d5dcb259bc06dda6d9b0b6175ac2970c446e15c22e992b697303",
        )

    def test_profile_view(self, grid):
        from repro.views.profile_view import ProfileView

        # One <path> of bands and one of minimum bars per offer (was a <rect> each per slot).
        assert self._digest(ProfileView(_golden_offers(), grid).to_svg()) == (
            8192,
            "6fadf6615d47c1359c2f178642bb53bac01ee2b2788d39603533373f4d194a74",
        )

    def test_basic_view(self, grid):
        from repro.views.basic import BasicView

        assert self._digest(BasicView(_golden_offers(), grid).to_svg()) == (
            6328,
            "f2ce00de171c02aa89ae683fb8b516e4f4e2d2d5a0114b45334760b7cc5f05fc",
        )

    def test_pivot_view(self, grid):
        from repro.views.pivot_view import PivotView, PivotViewOptions

        # Rows by state: two lanes, so both lane fills and two bar colours show.
        options = PivotViewOptions(row_dimension="State", row_level="state")
        assert self._digest(PivotView(_golden_offers(), grid, options).to_svg()) == (
            3246,
            "30dc62ed24e203c10435c10446e5a1d7cbd6d8d96fd0a3035b57c6db7fb3a20e",
        )

    def test_dashboard_view(self, grid):
        from repro.views.dashboard import DashboardView

        # One offer per drawn state, so every state colour reaches the scene.
        scheduled, offered, aggregate = _golden_offers()
        offers = [scheduled, offered.accept(), aggregate.reject()]
        assert self._digest(DashboardView(offers, grid).to_svg()) == (
            8558,
            "ce8f1e7a844d997c6e7f83ee1af7da678dd9d569410ddfb1e5ff5c7e80ae033a",
        )

    def test_escaped_text_ids_and_shared_styles(self):
        assert render_svg(_escape_scene()) == ESCAPE_SCENE_SVG


class TestAsciiBackend:
    def test_canvas_dimensions_validated(self):
        with pytest.raises(RenderError):
            AsciiCanvas(0, 10)

    def test_canvas_put_ignores_out_of_range(self):
        canvas = AsciiCanvas(5, 5)
        canvas.put(99, 99, "x")  # must not raise
        assert "x" not in canvas.to_string()

    def test_draw_rect_outline(self):
        canvas = AsciiCanvas(10, 6)
        canvas.draw_rect(1, 1, 6, 4, fill=".", border="#")
        text = canvas.to_string()
        assert "#" in text and "." in text

    def test_draw_text(self):
        canvas = AsciiCanvas(20, 3)
        canvas.draw_text(2, 1, "hello")
        assert "hello" in canvas.to_string()

    def test_render_scene_to_ascii(self, sample_scene):
        art = render_ascii(sample_scene, columns=80)
        lines = art.splitlines()
        assert len(lines) > 5
        assert any("#" in line for line in lines)
        assert any("caption" in line for line in lines)

    def test_width_respected(self, sample_scene):
        art = render_ascii(sample_scene, columns=60)
        assert all(len(line) <= 60 for line in art.splitlines())

    def test_bars_draw_and_hit_test_as_their_rects(self):
        rects = ((10, 10, 30, 20), (45, 5, 10, 40), (60, 30, -5, 10), (70, 20, 0.5, 0.5))
        style = Style(fill=Palette.ENERGY_BAND)
        as_bars, as_rects = Scene(width=100, height=60), Scene(width=100, height=60)
        as_bars.add(Bars(rects=rects, style=style, element_id="fo:1"))
        for x, y, width, height in rects:
            as_rects.add(Rect(x=x, y=y, width=width, height=height, style=style, element_id="fo:1"))
        assert render_ascii(as_bars, columns=50) == render_ascii(as_rects, columns=50)
        for px in range(0, 101):
            for py in range(0, 61):
                hit = bool(as_bars.hit_test(px / 1.0, py / 1.0))
                assert hit == bool(as_rects.hit_test(px / 1.0, py / 1.0))
        assert as_bars.hit_test(70.5, 20.5) and not as_bars.hit_test(71, 21)


@dataclass
class _Unknown(Node):
    """A node type neither backend draws."""


@pytest.mark.parametrize("backend", [render_svg, render_ascii])
def test_backends_refuse_a_node_they_cannot_draw(backend):
    scene = Scene(width=20, height=20)
    scene.add(Group(children=[_Unknown(element_id="fo:1")]))
    with pytest.raises(TypeError, match="_Unknown"):
        backend(scene)


class TestAxes:
    def test_time_axis_has_ticks_and_labels(self, grid):
        area = PlotArea(left=40, top=20, width=300, height=100)
        scale = SlotTimeScale.build(grid, 0, 96, area.left, area.right)
        group = time_axis(area, scale)
        texts = [node for node in group.walk() if isinstance(node, Text)]
        lines = [node for node in group.walk() if isinstance(node, Line)]
        assert len(texts) >= 3
        assert len(lines) >= 3

    def test_value_axis_label_mentions_unit(self, grid):
        area = PlotArea(left=40, top=20, width=300, height=100)
        scale = LinearScale.nice(0, 25, area.bottom, area.top)
        group = value_axis(area, scale, label="energy", unit="kWh")
        labels = [node.text for node in group.walk() if isinstance(node, Text)]
        assert any("kWh" in label for label in labels)

    def test_legend_entries(self, grid):
        area = PlotArea(left=0, top=0, width=200, height=100)
        group = legend(area, [("a", Palette.FLEX_OFFER), ("b", Palette.SCHEDULE)])
        labels = [node.text for node in group.walk() if isinstance(node, Text)]
        assert labels == ["a", "b"]


class TestIncrementalRendering:
    def test_chunks_cover_all_marks(self, sample_scene):
        renderer = IncrementalRenderer(chunk_size=4)
        chunks = list(renderer.render(sample_scene))
        assert chunks[-1].complete
        assert chunks[-1].nodes_rendered == chunks[-1].nodes_total
        assert sum(1 for _ in chunks) == -(-chunks[-1].nodes_total // 4)

    def test_progress_is_monotonic(self, sample_scene):
        chunks = list(IncrementalRenderer(chunk_size=3).render(sample_scene))
        rendered = [chunk.nodes_rendered for chunk in chunks]
        assert rendered == sorted(rendered)

    def test_documents_grow(self, sample_scene):
        chunks = list(IncrementalRenderer(chunk_size=5, emit_documents=True).render(sample_scene))
        sizes = [len(chunk.document) for chunk in chunks]
        assert sizes == sorted(sizes)
        assert all("<svg" in chunk.document for chunk in chunks)

    def test_empty_scene_yields_single_chunk(self):
        scene = Scene(width=10, height=10)
        chunks = list(IncrementalRenderer().render(scene))
        assert len(chunks) == 1
        assert chunks[0].complete

    def test_invalid_chunk_size(self):
        with pytest.raises(RenderError):
            IncrementalRenderer(chunk_size=0)

    def test_first_chunk_faster_than_full_render(self, scenario):
        """CLAIM-4: the first incremental chunk is available before a full monolithic render."""
        from repro.views.basic import BasicView

        view = BasicView(scenario.flex_offers, scenario.grid)
        scene = view.scene()
        first = time_to_first_chunk(scene, chunk_size=10)
        full = monolithic_render_time(scene)
        assert first < full * 1.5 + 0.05  # generous bound: first chunk must not cost more than a full render
