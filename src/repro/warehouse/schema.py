"""The MIRABEL DW star schema, as used by this reproduction.

The original tool reads flex-offers "from a database employing the MIRABEL DW
schema" (Siksnys, Thomsen, Pedersen: *MIRABEL DW*, DaWaK 2012).  The substitute
keeps the dimensional design — one fact table per subject (flex-offers, time
series) surrounded by conformed dimensions — but stores everything in
in-memory :class:`~repro.warehouse.table.Table` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnknownTableError
from repro.warehouse.table import Table

#: Dimension tables and their columns.
DIMENSION_TABLES: dict[str, list[str]] = {
    "dim_time": [
        "slot",
        "timestamp",
        "date",
        "year",
        "month",
        "day",
        "hour",
        "minute",
        "weekday",
    ],
    "dim_geography": [
        "geo_id",
        "district",
        "city",
        "region",
        "country",
        "latitude",
        "longitude",
    ],
    "dim_grid_node": [
        "node_name",
        "kind",
        "parent_node",
        "district",
        "city",
        "region",
        "latitude",
        "longitude",
    ],
    "dim_energy_type": ["energy_type", "renewable"],
    "dim_prosumer": [
        "prosumer_id",
        "name",
        "prosumer_type",
        "district",
        "city",
        "region",
        "grid_node",
    ],
    "dim_appliance": ["appliance_type", "direction", "energy_type"],
    "dim_legal_entity": ["entity_id", "name", "kind"],
}

#: Fact tables and their columns.
FACT_TABLES: dict[str, list[str]] = {
    "fact_flexoffer": [
        "offer_id",
        "prosumer_id",
        "geo_id",
        "grid_node",
        "energy_type",
        "prosumer_type",
        "appliance_type",
        "state",
        "direction",
        "earliest_start_slot",
        "latest_start_slot",
        "profile_slots",
        "time_flexibility_slots",
        "min_total_energy",
        "max_total_energy",
        "scheduled_energy",
        "scheduled_start_slot",
        "price_per_kwh",
        "is_aggregate",
        # Aggregation grouping-grid cell key ("" when not maintained); filled
        # by the live warehouse so dirty-cell lookups are index hits.
        "group_cell",
        "creation_time",
        "acceptance_deadline",
        "assignment_deadline",
        "payload",
    ],
    "fact_timeseries": ["series_name", "kind", "slot", "value", "unit"],
    # Derived rows maintained by the live warehouse: engine aggregates are
    # mirrored here, NOT into fact_flexoffer, so queries over raw offers
    # never double-count energy with their derived aggregates.
    "fact_flexoffer_aggregate": [],  # filled in below: same columns as fact_flexoffer
    "fact_flexoffer_slice": [
        "offer_id",
        "slice_index",
        "min_energy",
        "max_energy",
        "scheduled_energy",
    ],
}

FACT_TABLES["fact_flexoffer_aggregate"] = list(FACT_TABLES["fact_flexoffer"])


@dataclass
class StarSchema:
    """All dimension and fact tables of the warehouse."""

    tables: dict[str, Table] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "StarSchema":
        """Create a schema with every table declared but no rows."""
        tables = {}
        for name, columns in {**DIMENSION_TABLES, **FACT_TABLES}.items():
            tables[name] = Table(name, columns)
        return cls(tables=tables)

    def table(self, name: str) -> Table:
        """Return the table called ``name``."""
        try:
            return self.tables[name]
        except KeyError as exc:
            raise UnknownTableError(f"schema has no table {name!r}") from exc

    @property
    def dimension_names(self) -> list[str]:
        """Names of the dimension tables present in the schema."""
        return [name for name in self.tables if name in DIMENSION_TABLES]

    @property
    def fact_names(self) -> list[str]:
        """Names of the fact tables present in the schema."""
        return [name for name in self.tables if name in FACT_TABLES]

    def row_counts(self) -> dict[str, int]:
        """Number of rows per table (useful in the loading tab and tests)."""
        return {name: len(table) for name, table in self.tables.items()}
