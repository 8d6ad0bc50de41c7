"""Tests for the basic view (Figure 8) and the profile view (Figure 9)."""

from __future__ import annotations

import pytest

from repro.render.scene import Bars, Line, Rect
from repro.views.basic import BasicView, BasicViewOptions
from repro.views.lanes import LaneStrategy, lane_count, lanes_are_valid
from repro.views.profile_view import ProfileView, ProfileViewOptions
from repro.views.selection import SelectionRectangle
from tests.conftest import make_offer


def _bars_by_offer(scene, css_class: str) -> dict[str, Bars]:
    """The scene's ``css_class`` bars by element id, checking there is one node per offer."""
    nodes = [
        node for node in scene.walk() if isinstance(node, Bars) and node.css_class == css_class
    ]
    by_id = {node.element_id: node for node in nodes}
    assert len(by_id) == len(nodes)
    return by_id


class TestBasicView:
    @pytest.fixture(scope="class")
    def view(self, scenario):
        return BasicView(scenario.flex_offers, scenario.grid)

    def test_lane_assignment_is_valid(self, view, scenario):
        assert lanes_are_valid(scenario.flex_offers, view.lane_assignment)

    def test_svg_mentions_every_offer(self, view, scenario):
        svg = view.to_svg()
        for offer in scenario.flex_offers[:10]:
            assert f'data-element="fo:{offer.id}"' in svg

    def test_scheduled_offers_have_red_start_line(self, view, scenario):
        scene = view.scene()
        scheduled_ids = {offer.id for offer in scenario.flex_offers if offer.schedule is not None}
        start_lines = [
            node
            for node in scene.walk()
            if isinstance(node, Line) and node.css_class == "scheduled-start"
        ]
        assert {int(node.element_id.split(":")[1]) for node in start_lines} == scheduled_ids

    def test_aggregated_offers_use_red_boxes(self, scenario):
        from repro.aggregation import AggregationParameters, aggregate

        result = aggregate(scenario.flex_offers, AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8))
        view = BasicView(result.offers, scenario.grid)
        svg = view.to_svg()
        assert "profile-box aggregated" in svg

    def test_every_offer_has_flexibility_and_profile_boxes(self, view, scenario):
        scene = view.scene()
        flexibility = [n for n in scene.walk() if isinstance(n, Rect) and n.css_class == "time-flexibility"]
        profiles = [n for n in scene.walk() if isinstance(n, Rect) and "profile-box" in n.css_class]
        assert len(flexibility) == len(scenario.flex_offers)
        assert len(profiles) == len(scenario.flex_offers)

    def test_boxes_stay_inside_plot_area(self, view):
        area = view.options.plot_area
        for node in view.scene().walk():
            if isinstance(node, Rect) and "profile-box" in node.css_class:
                assert node.x >= area.left - 1
                assert node.x + node.width <= area.right + 1

    def test_caption_shows_counts(self, view, scenario):
        assert f"{len(scenario.flex_offers)} flex-offers" in view.to_svg()

    def test_offer_at_hits_a_real_offer(self, view, scenario):
        # Probe the centre of the first offer's profile box.
        scene = view.scene()
        box = next(n for n in scene.walk() if isinstance(n, Rect) and "profile-box" in n.css_class)
        offer_id = view.offer_at(box.x + box.width / 2, box.y + box.height / 2)
        assert offer_id in {offer.id for offer in scenario.flex_offers}

    def test_offer_at_empty_area_returns_none(self, view):
        assert view.offer_at(1.0, 1.0) is None

    def test_rectangle_query_full_area_selects_all(self, view, scenario):
        area = view.options.plot_area
        found = view.offers_in_rectangle(area.left, area.top, area.right, area.bottom)
        assert set(found) == {offer.id for offer in scenario.flex_offers}

    def test_rectangle_query_left_half_is_partial(self, view, scenario):
        area = view.options.plot_area
        found = view.offers_in_rectangle(area.left, area.top, area.left + area.width / 4, area.bottom)
        assert 0 < len(found) < len(scenario.flex_offers)

    def test_selection_rectangle_is_drawn(self, scenario):
        view = BasicView(
            scenario.flex_offers,
            scenario.grid,
            selection_rectangle=SelectionRectangle(100, 100, 300, 200),
        )
        assert "selection-rectangle" in view.to_svg()

    def test_one_per_lane_strategy(self, scenario):
        options = BasicViewOptions(lane_strategy=LaneStrategy.ONE_PER_LANE)
        view = BasicView(scenario.flex_offers, scenario.grid, options=options)
        assert lane_count(view.lane_assignment) == len(scenario.flex_offers)

    def test_empty_view_renders(self, grid):
        view = BasicView([], grid)
        assert "<svg" in view.to_svg()

    def test_scene_is_memoised(self, scenario):
        view = BasicView(scenario.flex_offers, scenario.grid)
        assert view.scene() is view.scene()
        view.invalidate()
        assert view.scene() is not None

    def test_ascii_rendering(self, scenario):
        view = BasicView(scenario.flex_offers[:10], scenario.grid)
        art = view.to_ascii(columns=80)
        assert "#" in art


class TestProfileView:
    @pytest.fixture(scope="class")
    def offers(self, scenario):
        return scenario.flex_offers[:25]

    @pytest.fixture(scope="class")
    def view(self, offers, scenario):
        return ProfileView(offers, scenario.grid)

    def test_energy_scale_is_shared_maximum(self, view, offers):
        expected = max(
            piece.max_energy / piece.duration_slots for offer in offers for piece in offer.profile
        )
        assert view.max_slice_energy() == pytest.approx(expected)

    def test_every_offer_has_energy_bars(self, view, offers):
        scene = view.scene()
        bands = _bars_by_offer(scene, "energy-band")
        minimums = _bars_by_offer(scene, "energy-min")
        assert set(bands) == set(minimums) == {f"fo:{offer.id}" for offer in offers}
        for offer in offers:
            slots = sum(piece.duration_slots for piece in offer.profile)
            assert len(bands[f"fo:{offer.id}"].rects) == slots
            assert len(minimums[f"fo:{offer.id}"].rects) == slots
        # No per-slot rectangle is left beside the bars.
        assert not any(
            isinstance(node, Rect) and node.css_class in ("energy-band", "energy-min")
            for node in scene.walk()
        )

    def test_min_bars_below_band_tops(self, view):
        scene = view.scene()
        bands = _bars_by_offer(scene, "energy-band")
        minimums = _bars_by_offer(scene, "energy-min")
        assert set(bands) == set(minimums)
        for element_id, band in bands.items():
            assert len(band.rects) == len(minimums[element_id].rects)
            for (x, y, width, height), minimum in zip(band.rects, minimums[element_id].rects):
                # Same slot column; the minimum bar starts where its band ends,
                # unless the band was clamped to its 0.5-px floor.
                assert minimum[0] == x and minimum[2] == width
                if height == 0.5:
                    assert minimum[1] <= y + height
                else:
                    assert minimum[1] == pytest.approx(y + height)

    def test_every_bar_hits_its_offer(self, view):
        scene = view.scene()
        for css_class in ("energy-band", "energy-min"):
            for element_id, bars in _bars_by_offer(scene, css_class).items():
                for x, y, width, height in bars.rects:
                    assert element_id in view.elements_at(x + width / 2, y + height / 2)

    def test_scheduled_offers_show_red_energy_lines(self, view, offers):
        scene = view.scene()
        scheduled = {offer.id for offer in offers if offer.schedule is not None}
        lines = {
            int(node.element_id.split(":")[1])
            for node in scene.walk()
            if isinstance(node, Line) and node.css_class == "scheduled-energy"
        }
        assert lines == scheduled

    def test_caption_mentions_shared_scale(self, view):
        assert "shared energy scale" in view.to_svg()

    def test_rectangle_query(self, view, offers):
        area = view.options.plot_area
        found = view.offers_in_rectangle(area.left, area.top, area.right, area.bottom)
        assert set(found) == {offer.id for offer in offers}

    def test_lane_labels_present(self, view, offers):
        svg = view.to_svg()
        assert f"#{offers[0].id}" in svg

    def test_hide_lane_scale(self, offers, scenario):
        options = ProfileViewOptions(show_lane_scale=False, show_legend=False)
        view = ProfileView(offers, scenario.grid, options=options)
        assert "lane-label" not in view.to_svg()

    def test_single_offer_profile(self, grid):
        from xml.etree import ElementTree

        offer = make_offer().with_default_schedule()
        view = ProfileView([offer], grid)
        svg = view.to_svg()
        assert svg.count("energy-band") == 1
        path = next(
            node
            for node in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}path")
            if node.get("class") == "energy-band"
        )
        assert path.get("data-element") == f"fo:{offer.id}"
        assert path.get("d").count("M") == sum(piece.duration_slots for piece in offer.profile)
        # One tooltip line per slice, as each slice's own <title> read before.
        assert path.find("{http://www.w3.org/2000/svg}title").text.split("\n") == [
            f"flex-offer {offer.id} slice {index}: "
            f"{piece.min_energy:.2f}-{piece.max_energy:.2f} kWh"
            for index, piece in enumerate(offer.profile)
        ]

    def test_empty_view_renders(self, grid):
        assert "<svg" in ProfileView([], grid).to_svg()

    def test_profile_view_has_more_nodes_than_basic(self, offers, scenario):
        """The profile view is the denser encoding — the reason it only scales to a few thousand offers."""
        from repro.views.basic import BasicView

        basic_nodes = BasicView(offers, scenario.grid).scene().count_nodes()
        profile_nodes = ProfileView(offers, scenario.grid).scene().count_nodes()
        assert profile_nodes > basic_nodes
