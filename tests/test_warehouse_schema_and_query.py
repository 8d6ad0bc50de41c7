"""Tests for the star schema, the scenario loader, the repository query API and persistence."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import UnknownTableError, WarehouseError
from repro.flexoffer.model import FlexOfferState
from repro.warehouse.loader import load_flex_offer, load_scenario
from repro.warehouse.persistence import load_schema, save_schema
from repro.warehouse.query import FlexOfferFilter, FlexOfferRepository
from repro.warehouse.schema import DIMENSION_TABLES, FACT_TABLES, StarSchema
from tests.conftest import make_offer


@pytest.fixture(scope="module")
def loaded(scenario):
    schema = load_scenario(scenario)
    return schema, FlexOfferRepository(schema, scenario.grid)


class TestStarSchema:
    def test_empty_schema_declares_all_tables(self):
        schema = StarSchema.empty()
        for name in list(DIMENSION_TABLES) + list(FACT_TABLES):
            assert name in schema.tables

    def test_unknown_table_raises(self):
        with pytest.raises(UnknownTableError):
            StarSchema.empty().table("fact_unicorns")

    def test_dimension_and_fact_names(self):
        schema = StarSchema.empty()
        assert set(schema.dimension_names) == set(DIMENSION_TABLES)
        assert set(schema.fact_names) == set(FACT_TABLES)

    def test_row_counts_all_zero_when_empty(self):
        counts = StarSchema.empty().row_counts()
        assert all(count == 0 for count in counts.values())


class TestLoader:
    def test_fact_row_per_offer(self, loaded, scenario):
        schema, _ = loaded
        assert len(schema.table("fact_flexoffer")) == len(scenario.flex_offers)

    def test_slice_rows_match_profiles(self, loaded, scenario):
        schema, _ = loaded
        expected = sum(len(offer.profile) for offer in scenario.flex_offers)
        assert len(schema.table("fact_flexoffer_slice")) == expected

    def test_time_dimension_covers_horizon(self, loaded, scenario):
        schema, _ = loaded
        assert len(schema.table("dim_time")) == scenario.config.horizon_slots

    def test_geography_dimension_covers_districts(self, loaded, scenario):
        schema, _ = loaded
        assert len(schema.table("dim_geography")) == len(scenario.geography.all_districts())

    def test_prosumer_dimension(self, loaded, scenario):
        schema, _ = loaded
        assert len(schema.table("dim_prosumer")) == len(scenario.prosumers)
        assert len(schema.table("dim_legal_entity")) == len(scenario.prosumers)

    def test_timeseries_fact_has_three_kinds(self, loaded):
        schema, _ = loaded
        kinds = set(schema.table("fact_timeseries").column("kind"))
        assert kinds == {"base_demand", "res_production", "spot_price"}


class TestRepository:
    def test_load_all(self, loaded, scenario):
        _, repo = loaded
        result = repo.load()
        assert len(result) == len(scenario.flex_offers)
        assert result.scanned_rows == len(scenario.flex_offers)

    def test_loaded_offers_roundtrip_payload(self, loaded, scenario):
        _, repo = loaded
        offers = {offer.id: offer for offer in repo.load().offers}
        for original in scenario.flex_offers[:20]:
            assert offers[original.id] == original

    def test_filter_by_state(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(states=(FlexOfferState.ASSIGNED.value,)))
        expected = sum(1 for o in scenario.flex_offers if o.state is FlexOfferState.ASSIGNED)
        assert len(result) == expected

    def test_filter_by_region(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(regions=("Capital",)))
        assert all(offer.region == "Capital" for offer in result.offers)
        assert len(result) == sum(1 for o in scenario.flex_offers if o.region == "Capital")

    def test_filter_by_city_and_appliance(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(cities=("Copenhagen",), appliance_types=("electric_vehicle",)))
        assert all(o.city == "Copenhagen" and o.appliance_type == "electric_vehicle" for o in result.offers)

    def test_state_filter_is_index_planned(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(states=(FlexOfferState.ASSIGNED.value,)))
        # The state index narrows the scan to exactly the matching rows.
        assert result.scanned_rows == result.matched_rows
        assert result.scanned_rows < len(scenario.flex_offers)

    def test_grid_node_filter_is_index_planned(self, loaded, scenario):
        _, repo = loaded
        node = scenario.flex_offers[0].grid_node
        result = repo.load(FlexOfferFilter(grid_nodes=(node,)))
        assert result.scanned_rows == result.matched_rows
        assert all(offer.grid_node == node for offer in result.offers)

    def test_intersected_index_plan(self, loaded, scenario):
        _, repo = loaded
        node = scenario.flex_offers[0].grid_node
        per_node = repo.load(FlexOfferFilter(grid_nodes=(node,)))
        both = repo.load(
            FlexOfferFilter(grid_nodes=(node,), states=(FlexOfferState.ASSIGNED.value,))
        )
        # Candidates are the intersection of both index hits, so the combined
        # plan scans no more rows than the narrower single-filter plan.
        assert both.scanned_rows <= per_node.scanned_rows
        assert both.scanned_rows == both.matched_rows
        expected = sum(
            1
            for offer in scenario.flex_offers
            if offer.grid_node == node and offer.state is FlexOfferState.ASSIGNED
        )
        assert len(both) == expected

    def test_geo_filters_push_down_onto_geo_id_index(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(regions=("Capital",)))
        # regions resolve through the geography dimension onto the geo_id
        # index: only the candidate rows are examined, not the whole table.
        assert result.scanned_rows == result.matched_rows
        assert result.scanned_rows < len(scenario.flex_offers)
        expected = [o for o in scenario.flex_offers if o.region == "Capital"]
        assert sorted(o.id for o in result.offers) == sorted(o.id for o in expected)

    def test_geo_pushdown_matches_scan_fallback(self, loaded, scenario):
        _, repo = loaded
        cities = tuple(sorted({offer.city for offer in scenario.flex_offers})[:2])
        pushed = repo.load(FlexOfferFilter(cities=cities, states=("assigned",)))
        expected = [
            o for o in scenario.flex_offers if o.city in cities and o.state.value == "assigned"
        ]
        assert sorted(o.id for o in pushed.offers) == sorted(o.id for o in expected)
        assert pushed.scanned_rows <= len(scenario.flex_offers)

    def test_unindexed_filters_still_scan_correctly(self, loaded, scenario):
        _, repo = loaded
        result = repo.load(FlexOfferFilter(energy_types=("grid",)))
        # energy_type has no index; the linear scan remains the fallback.
        assert result.scanned_rows == len(scenario.flex_offers)

    def test_load_for_entity(self, loaded, scenario):
        _, repo = loaded
        prosumer = scenario.prosumers[0]
        result = repo.load_for_entity(prosumer.id)
        assert all(offer.prosumer_id == prosumer.id for offer in result.offers)
        assert len(result) == len(scenario.offers_of_prosumer(prosumer.id))

    def test_interval_filter_overlap_semantics(self, loaded, scenario):
        _, repo = loaded
        start = scenario.grid.to_datetime(40)
        end = scenario.grid.to_datetime(48)
        result = repo.load(FlexOfferFilter(interval_start=start, interval_end=end))
        for offer in result.offers:
            assert offer.earliest_start_slot < 48
            assert offer.latest_end_slot > 40

    def test_interval_excludes_non_overlapping(self, loaded, scenario):
        _, repo = loaded
        start = scenario.grid.to_datetime(0)
        end = scenario.grid.to_datetime(1)
        result = repo.load(FlexOfferFilter(interval_start=start, interval_end=end))
        assert all(offer.earliest_start_slot < 1 for offer in result.offers)

    def test_legal_entities_listing(self, loaded, scenario):
        _, repo = loaded
        assert len(repo.legal_entities()) == len(scenario.prosumers)

    def test_known_values(self, loaded):
        _, repo = loaded
        states = repo.known_values("state")
        assert set(states) <= {state.value for state in FlexOfferState}

    def test_load_series(self, loaded, scenario):
        _, repo = loaded
        demand = repo.load_series("base_demand")
        assert demand.total() == pytest.approx(scenario.base_demand.total())

    def test_load_missing_series_raises(self, loaded):
        _, repo = loaded
        with pytest.raises(WarehouseError):
            repo.load_series("weather")

    def test_summary(self, loaded, scenario):
        _, repo = loaded
        summary = repo.summary()
        assert summary["offer_count"] == len(scenario.flex_offers)
        assert sum(summary["states"].values()) == len(scenario.flex_offers)

    def test_filter_describe(self):
        description = FlexOfferFilter(regions=("Capital",), states=("assigned",)).describe()
        assert "Capital" in description and "assigned" in description
        assert FlexOfferFilter().describe() == "all flex-offers"


class TestPersistence:
    def test_save_and_load_roundtrip(self, loaded, scenario, tmp_path):
        schema, repo = loaded
        save_schema(schema, tmp_path)
        reloaded = load_schema(tmp_path)
        assert reloaded.row_counts() == schema.row_counts()
        repo2 = FlexOfferRepository(reloaded, scenario.grid)
        assert len(repo2.load()) == len(scenario.flex_offers)
        # Offers must round-trip through CSV persistence losslessly.
        original = {offer.id: offer for offer in repo.load().offers}
        for offer in repo2.load().offers[:20]:
            assert offer == original[offer.id]

    def test_datetime_columns_keep_sub_second_parts(self, tmp_path):
        offer = make_offer()
        offer = replace(
            offer,
            creation_time=offer.creation_time.replace(hour=6, minute=0, second=0, microsecond=500001),
        )
        schema = StarSchema.empty()
        load_flex_offer(schema, offer, {})
        save_schema(schema, tmp_path)
        (row,) = load_schema(tmp_path).table("fact_flexoffer").rows()
        for column in ("creation_time", "acceptance_deadline", "assignment_deadline"):
            assert row[column] == getattr(offer, column), column

    def test_load_dump_missing_new_columns(self, loaded, tmp_path):
        # A dump written before a column existed (e.g. group_cell) must still
        # load, with the missing column defaulting to empty.
        import csv
        import io

        schema, _ = loaded
        save_schema(schema, tmp_path / "dw")
        csv_path = tmp_path / "dw" / "fact_flexoffer.csv"
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        drop = rows[0].index("group_cell")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for row in rows:
            writer.writerow([cell for index, cell in enumerate(row) if index != drop])
        csv_path.write_text(buffer.getvalue())
        reloaded = load_schema(tmp_path / "dw")
        fact = reloaded.table("fact_flexoffer")
        assert len(fact) == len(schema.table("fact_flexoffer"))
        assert set(fact.column("group_cell")) == {""}

    def test_load_from_missing_directory_raises(self, tmp_path):
        with pytest.raises(WarehouseError):
            load_schema(tmp_path / "does-not-exist")

    def test_save_writes_one_file_per_table(self, loaded, tmp_path):
        schema, _ = loaded
        written = save_schema(schema, tmp_path / "dw")
        assert len(written) == len(schema.tables)
