"""FIG-7 bench: the flex-offer loading workflow.

Figure 7 shows the loading tab: connect to the MIRABEL DW, choose a legal
entity and an absolute time interval, and read the matching flex-offers into
a new view tab.  The bench times (a) loading a whole scenario into the
warehouse substitute and (b) the filtered read for one entity and a 6-hour
window — the operation the tab performs.
"""

from __future__ import annotations

from datetime import timedelta

from benchmarks.conftest import record
from repro.session import FlexSession
from repro.views.loading import LoadingWorkflow
from repro.warehouse.loader import load_scenario
from repro.warehouse.query import FlexOfferFilter, FlexOfferRepository


def test_fig07_warehouse_load(benchmark, paper_scenario):
    """ETL: scenario -> star schema."""
    schema = benchmark.pedantic(lambda: load_scenario(paper_scenario), rounds=3, iterations=1)
    counts = schema.row_counts()
    record(
        benchmark,
        {
            "fact_flexoffer_rows": counts["fact_flexoffer"],
            "fact_flexoffer_slice_rows": counts["fact_flexoffer_slice"],
            "fact_timeseries_rows": counts["fact_timeseries"],
            "dimension_rows": sum(counts[name] for name in schema.dimension_names),
        },
        "Figure 7: warehouse load",
    )
    assert counts["fact_flexoffer"] == len(paper_scenario.flex_offers)


def test_fig07_entity_interval_read(benchmark, paper_scenario):
    """The loading tab's read: one legal entity, one absolute time interval."""
    workflow = LoadingWorkflow(FlexSession(paper_scenario))
    entity = next(
        (e["entity_id"] for e in workflow.available_entities() if paper_scenario.offers_of_prosumer(e["entity_id"])),
        workflow.available_entities()[0]["entity_id"],
    )
    start = paper_scenario.grid.origin
    end = start + timedelta(hours=6)

    dataset = benchmark(lambda: workflow.load_entity(entity, start, end))
    record(
        benchmark,
        {
            "entity_id": entity,
            "interval": f"{start} .. {end}",
            "rows_scanned": dataset.scanned_rows,
            "offers_loaded": len(dataset),
            "available_entities": len(workflow.available_entities()),
        },
        "Figure 7: entity + interval read",
    )
    # The prosumer_id hash index narrows the scan to the entity's own rows.
    assert dataset.scanned_rows == len(paper_scenario.offers_of_prosumer(entity))
    assert dataset.scanned_rows < len(paper_scenario.flex_offers)


def test_fig07_attribute_filter_read(benchmark, paper_scenario):
    """The Section-3 style attribute filter: region + state, through the same read path."""
    schema = load_scenario(paper_scenario)
    repository = FlexOfferRepository(schema, paper_scenario.grid)
    query = FlexOfferFilter(regions=("Capital", "Zealand"), states=("assigned",))

    result = benchmark(lambda: repository.load(query))
    record(
        benchmark,
        {"filter": query.describe(), "offers_loaded": len(result)},
        "Figure 7: attribute filter read",
    )
    assert all(offer.region in ("Capital", "Zealand") for offer in result.offers)
