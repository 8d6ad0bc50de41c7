"""Query layer over the warehouse: the read path of the loading tab (Figure 7).

The tool's loading tab lets the analyst pick a *legal entity* (prosumer) and an
*absolute time interval* and then reads the matching flex-offers from the DW.
:class:`FlexOfferRepository` exposes exactly that operation, plus the
attribute-based filters required by Section 3 (geography, grid topology,
energy type, prosumer type, appliance type, state) and reconstruction of full
:class:`~repro.flexoffer.model.FlexOffer` objects from their stored payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import WarehouseError
from repro.flexoffer.model import FlexOffer
from repro.flexoffer.serialization import flex_offer_from_dict
from repro.timeseries.grid import TimeGrid
from repro.warehouse.schema import StarSchema

if TYPE_CHECKING:  # pragma: no cover - typing only; load_series imports the
    # numpy-native TimeSeries lazily at call time.
    from repro.timeseries.series import TimeSeries


@dataclass(frozen=True)
class FlexOfferFilter:
    """A conjunctive filter over flex-offer facts.

    ``None`` fields do not constrain.  Time bounds are absolute instants; an
    offer matches when its feasible span ``[earliest start, latest end]``
    overlaps the requested interval — the same semantics the tool uses when an
    analyst selects "an absolute time interval, for which flex-offers need to
    be selected".
    """

    prosumer_ids: tuple[int, ...] | None = None
    regions: tuple[str, ...] | None = None
    cities: tuple[str, ...] | None = None
    districts: tuple[str, ...] | None = None
    grid_nodes: tuple[str, ...] | None = None
    energy_types: tuple[str, ...] | None = None
    prosumer_types: tuple[str, ...] | None = None
    appliance_types: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    interval_start: datetime | None = None
    interval_end: datetime | None = None
    only_aggregates: bool | None = None

    def describe(self) -> str:
        """Human-readable one-line description (shown in view tab titles)."""
        parts: list[str] = []
        if self.prosumer_ids:
            parts.append(f"prosumers={list(self.prosumer_ids)}")
        for label, values in (
            ("regions", self.regions),
            ("cities", self.cities),
            ("districts", self.districts),
            ("grid_nodes", self.grid_nodes),
            ("energy_types", self.energy_types),
            ("prosumer_types", self.prosumer_types),
            ("appliance_types", self.appliance_types),
            ("states", self.states),
        ):
            if values:
                parts.append(f"{label}={list(values)}")
        if self.interval_start or self.interval_end:
            parts.append(f"interval=[{self.interval_start} .. {self.interval_end}]")
        if self.only_aggregates is not None:
            parts.append(f"aggregates={self.only_aggregates}")
        return ", ".join(parts) if parts else "all flex-offers"


@dataclass
class QueryResult:
    """Result of a repository query: the offers plus bookkeeping metadata."""

    offers: list[FlexOffer]
    filter: FlexOfferFilter
    scanned_rows: int
    matched_rows: int

    def __len__(self) -> int:
        return len(self.offers)


#: fact_flexoffer columns the repository keeps hash indexes on.  ``prosumer_id``
#: serves the Figure 7 entity lookup and the live path's per-prosumer refresh,
#: ``offer_id`` the live warehouse's upsert/delete, ``group_cell`` the
#: dirty-cell lookups of the live aggregation engine, ``state`` /
#: ``grid_node`` the session query builder's most common filters, and
#: ``geo_id`` the geography pushdown (regions/cities/districts resolve to
#: geo ids through the dimension, then hit this index).
INDEXED_FACT_COLUMNS = ("prosumer_id", "offer_id", "group_cell", "state", "grid_node", "geo_id")

#: (indexed column, filter attribute) pairs :meth:`FlexOfferRepository.load`
#: can plan with: when the filter pins any of these, the candidate row set is
#: the intersection of the per-column index hits instead of a full scan.
PLANNABLE_FILTERS = (
    ("prosumer_id", "prosumer_ids"),
    ("grid_node", "grid_nodes"),
    ("state", "states"),
)

#: Geography filter attributes and the ``dim_geography`` column each resolves
#: through; all three push down onto the fact table's ``geo_id`` index.
GEO_FILTERS = (
    ("regions", "region"),
    ("cities", "city"),
    ("districts", "district"),
)


class FlexOfferRepository:
    """Read-side API over a loaded :class:`StarSchema`."""

    def __init__(self, schema: StarSchema, grid: TimeGrid) -> None:
        self.schema = schema
        self.grid = grid
        for table_name in ("fact_flexoffer", "fact_flexoffer_aggregate"):
            if table_name not in schema.tables:
                continue
            fact = schema.table(table_name)
            for column in INDEXED_FACT_COLUMNS:
                if column in fact.columns:
                    fact.create_index(column)

    # ------------------------------------------------------------------
    # Master data used by the loading tab's combo boxes
    # ------------------------------------------------------------------
    def legal_entities(self) -> list[dict[str, Any]]:
        """All legal entities (prosumers) the analyst can choose from."""
        return list(self.schema.table("dim_legal_entity").rows())

    def known_values(self, column: str) -> list[Any]:
        """Distinct values of a fact_flexoffer column (for filter pick lists)."""
        seen: list[Any] = []
        for value in self.schema.table("fact_flexoffer").values(column):
            if value not in seen:
                seen.append(value)
        return seen

    # ------------------------------------------------------------------
    # Main read operation
    # ------------------------------------------------------------------
    def _row_matches(self, row: dict[str, Any], query: FlexOfferFilter) -> bool:
        def in_or_none(value: Any, allowed: tuple | None) -> bool:
            return allowed is None or value in allowed

        checks = (
            in_or_none(row["prosumer_id"], query.prosumer_ids)
            and in_or_none(row["grid_node"], query.grid_nodes)
            and in_or_none(row["energy_type"], query.energy_types)
            and in_or_none(row["prosumer_type"], query.prosumer_types)
            and in_or_none(row["appliance_type"], query.appliance_types)
            and in_or_none(row["state"], query.states)
        )
        if not checks:
            return False
        if query.only_aggregates is not None and bool(row["is_aggregate"]) != query.only_aggregates:
            return False
        if query.regions or query.cities or query.districts:
            geo = self._geo_lookup()["by_id"].get(row["geo_id"])
            if geo is None:
                return False
            if query.regions is not None and geo["region"] not in query.regions:
                return False
            if query.cities is not None and geo["city"] not in query.cities:
                return False
            if query.districts is not None and geo["district"] not in query.districts:
                return False
        if query.interval_start is not None or query.interval_end is not None:
            earliest = self.grid.to_datetime(row["earliest_start_slot"])
            latest_end = self.grid.to_datetime(
                row["latest_start_slot"] + row["profile_slots"]
            )
            if query.interval_end is not None and earliest >= query.interval_end:
                return False
            if query.interval_start is not None and latest_end <= query.interval_start:
                return False
        return True

    def _geo_lookup(self) -> dict[str, dict]:
        """The cached two-way geography index.

        ``by_id`` maps geo_id -> dimension row (the row-match path);
        ``region``/``city``/``district`` each map an attribute value -> the
        set of geo ids carrying it (the pushdown path).  Rebuilt from scratch
        whenever the geography dimension gained rows (the loader appends one
        per offer geography it has not seen; rows are never deleted).
        """
        table = self.schema.table("dim_geography")
        cached = getattr(self, "_geo_cache", None)
        if cached is None or len(cached["by_id"]) != len(table):
            by_id: dict[int, dict[str, Any]] = {}
            reverse: dict[str, dict[Any, set[int]]] = {
                column: {} for _, column in GEO_FILTERS
            }
            for row in table.rows():
                by_id[row["geo_id"]] = row
                for _, column in GEO_FILTERS:
                    reverse[column].setdefault(row[column], set()).add(row["geo_id"])
            self._geo_cache = cached = {"by_id": by_id, **reverse}
        return cached

    def _plan_positions(self, fact, query: FlexOfferFilter) -> list[int] | None:
        """Candidate row positions from the hash indexes, or ``None`` to scan.

        Every plannable filter present in the query contributes the union of
        its per-value index hits; the candidate set is the intersection across
        filters (the filters are conjunctive), so e.g. ``states + grid_nodes``
        examines only rows satisfying both.  Geography filters participate by
        resolving their values to geo ids through the dimension and hitting
        the fact table's ``geo_id`` index.  The result is sorted and free of
        duplicates, so rows load in physical order.
        """
        groups: list[list[int]] = []
        for column, attribute in PLANNABLE_FILTERS:
            values = getattr(query, attribute)
            if values is None or column not in fact.indexed_columns:
                continue
            hits = [p for value in values for p in fact.lookup(column, value)]
            if not hits:
                return []
            groups.append(hits)
        if "geo_id" in fact.indexed_columns:
            for attribute, geo_column in GEO_FILTERS:
                values = getattr(query, attribute)
                if values is None:
                    continue
                ids_by_value = self._geo_lookup()[geo_column]
                geo_ids = {gid for value in values for gid in ids_by_value.get(value, ())}
                hits = [p for gid in geo_ids for p in fact.lookup("geo_id", gid)]
                if not hits:
                    return []
                groups.append(hits)
        if not groups:
            return None
        positions = set(groups[0])
        for hits in groups[1:]:
            positions &= set(hits)
        return sorted(positions)

    def load(self, query: FlexOfferFilter | None = None) -> QueryResult:
        """Load flex-offers matching ``query`` (all offers when ``None``).

        When the filter pins ``prosumer_ids``, ``grid_nodes``, ``states`` or
        a geography level (``regions``/``cities``/``districts``, pushed down
        through the geo dimension onto the ``geo_id`` index), only the
        candidate rows from the corresponding hash indexes are examined
        (intersected across filters) instead of scanning the whole fact
        table; the linear scan remains the fallback for every other filter
        shape.
        """
        query = query or FlexOfferFilter()
        fact = self.schema.table("fact_flexoffer")
        offers: list[FlexOffer] = []
        matched = 0
        positions = self._plan_positions(fact, query)
        if positions is not None:
            candidate_rows = (fact.row(position) for position in positions)
            scanned = len(positions)
        else:
            candidate_rows = fact.rows()
            scanned = len(fact)
        for row in candidate_rows:
            if not self._row_matches(row, query):
                continue
            matched += 1
            offers.append(flex_offer_from_dict(json.loads(row["payload"])))
        return QueryResult(offers=offers, filter=query, scanned_rows=scanned, matched_rows=matched)

    def offers_from_payloads(self, payloads) -> list[FlexOffer]:
        """Reconstruct full offers from stored JSON payload cells."""
        return [flex_offer_from_dict(json.loads(payload)) for payload in payloads]

    def load_aggregates(self) -> list[FlexOffer]:
        """The derived aggregates the live warehouse mirrors.

        These live in ``fact_flexoffer_aggregate``, separate from the raw
        offers, so :meth:`load` never mixes the two.  Empty for schemas
        persisted before the table existed.
        """
        if "fact_flexoffer_aggregate" not in self.schema.tables:
            return []
        return self.offers_from_payloads(
            self.schema.table("fact_flexoffer_aggregate").values("payload")
        )

    def load_by_offer_ids(self, offer_ids: Sequence[int]) -> list[FlexOffer]:
        """Resolve specific offer ids to full objects via the ``offer_id`` index.

        The live path (alert drill-down, change notifications) uses this to
        refresh exactly the touched offers without a fact-table scan.
        """
        fact = self.schema.table("fact_flexoffer")
        payloads = fact.column("payload")
        return self.offers_from_payloads(
            payloads[position]
            for offer_id in offer_ids
            for position in fact.lookup("offer_id", offer_id)
        )

    def load_for_entity(
        self, entity_id: int, start: datetime | None = None, end: datetime | None = None
    ) -> QueryResult:
        """The Figure 7 operation: offers of one legal entity in a time interval."""
        return self.load(
            FlexOfferFilter(prosumer_ids=(entity_id,), interval_start=start, interval_end=end)
        )

    # ------------------------------------------------------------------
    # Time-series read path
    # ------------------------------------------------------------------
    def load_series(self, kind: str) -> TimeSeries:
        """Reassemble one stored time series by its ``kind`` column."""
        from repro.timeseries.series import TimeSeries

        table = self.schema.table("fact_timeseries").where(kind=kind)
        if len(table) == 0:
            raise WarehouseError(f"no time series of kind {kind!r} is stored")
        pairs = list(zip(table.column("slot"), table.column("value")))
        name = table.column("series_name")[0]
        unit = table.column("unit")[0]
        series = TimeSeries.from_pairs(
            self.grid, [(int(s), float(v)) for s, v in pairs], name=name, unit=unit
        )
        return series

    # ------------------------------------------------------------------
    # Summary statistics (used by the loading tab and the dashboard)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Row counts plus offer-state distribution of the whole warehouse."""
        fact = self.schema.table("fact_flexoffer")
        states: dict[str, int] = {}
        for state in fact.values("state"):
            states[state] = states.get(state, 0) + 1
        return {
            "row_counts": self.schema.row_counts(),
            "offer_count": len(fact),
            "states": states,
        }
