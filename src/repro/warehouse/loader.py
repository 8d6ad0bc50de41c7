"""Loading a synthetic scenario into the warehouse star schema.

This is the ETL step the MIRABEL pilot performs when smart-meter readings and
flex-offers arrive: dimensions are populated from the master data (geography,
grid topology, prosumers, energy types), and facts are populated from the
flex-offers and the time series.  The full flex-offer object is also kept as a
JSON payload column so detail views can reconstruct it losslessly.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.flexoffer.model import FlexOffer
from repro.flexoffer.serialization import flex_offer_to_dict
from repro.warehouse.schema import StarSchema

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps the module
    # importable without numpy: datagen and timeseries are numpy-native,
    # while warehouse loading itself only walks their objects)
    from repro.datagen.prosumers import Prosumer
    from repro.datagen.scenarios import Scenario
    from repro.timeseries.series import TimeSeries

#: Energy types considered renewable by the dim_energy_type dimension.
RENEWABLE_TYPES = {"hydro", "wind", "solar", "chp"}


def _load_time_dimension(schema: StarSchema, scenario: Scenario) -> None:
    table = schema.table("dim_time")
    for slot in scenario.horizon_slots:
        instant = scenario.grid.to_datetime(slot)
        table.append(
            {
                "slot": slot,
                "timestamp": instant,
                "date": instant.date().isoformat(),
                "year": instant.year,
                "month": instant.month,
                "day": instant.day,
                "hour": instant.hour,
                "minute": instant.minute,
                "weekday": instant.weekday(),
            }
        )


def _load_geography_dimension(schema: StarSchema, scenario: Scenario) -> dict[str, int]:
    table = schema.table("dim_geography")
    geo_ids: dict[str, int] = {}
    next_id = 1
    for district in scenario.geography.all_districts():
        geo_ids[district.name] = next_id
        table.append(
            {
                "geo_id": next_id,
                "district": district.name,
                "city": district.city,
                "region": district.region,
                "country": scenario.geography.country,
                "latitude": district.latitude,
                "longitude": district.longitude,
            }
        )
        next_id += 1
    return geo_ids


def _load_grid_dimension(schema: StarSchema, scenario: Scenario) -> None:
    table = schema.table("dim_grid_node")
    parents: dict[str, str] = {}
    for line in scenario.topology.lines:
        # Lines always point from the higher-voltage node to the lower one.
        parents.setdefault(line.target, line.source)
    for node in scenario.topology.nodes.values():
        table.append(
            {
                "node_name": node.name,
                "kind": node.kind.value,
                "parent_node": parents.get(node.name, ""),
                "district": node.district,
                "city": node.city,
                "region": node.region,
                "latitude": node.latitude,
                "longitude": node.longitude,
            }
        )


def legal_entity_row(prosumer: "Prosumer") -> dict:
    """The ``dim_legal_entity`` row of one prosumer (the loading tab's pick list)."""
    return {"entity_id": prosumer.id, "name": prosumer.name, "kind": prosumer.type.value}


def _load_prosumer_dimension(schema: StarSchema, scenario: Scenario) -> None:
    prosumer_table = schema.table("dim_prosumer")
    entity_table = schema.table("dim_legal_entity")
    for prosumer in scenario.prosumers:
        prosumer_table.append(
            {
                "prosumer_id": prosumer.id,
                "name": prosumer.name,
                "prosumer_type": prosumer.type.value,
                "district": prosumer.district,
                "city": prosumer.city,
                "region": prosumer.region,
                "grid_node": prosumer.grid_node,
            }
        )
        entity_table.append(legal_entity_row(prosumer))


def _load_type_dimensions(schema: StarSchema, scenario: Scenario) -> None:
    energy_table = schema.table("dim_energy_type")
    appliance_table = schema.table("dim_appliance")
    energy_types = sorted(
        {offer.energy_type for offer in scenario.flex_offers if offer.energy_type}
    )
    for energy_type in energy_types:
        energy_table.append(
            {"energy_type": energy_type, "renewable": energy_type in RENEWABLE_TYPES}
        )
    seen: set[str] = set()
    for offer in scenario.flex_offers:
        if offer.appliance_type and offer.appliance_type not in seen:
            seen.add(offer.appliance_type)
            appliance_table.append(
                {
                    "appliance_type": offer.appliance_type,
                    "direction": offer.direction.value,
                    "energy_type": offer.energy_type,
                }
            )


def load_flex_offer(
    schema: StarSchema,
    offer: FlexOffer,
    geo_ids: dict[str, int],
    group_cell: str = "",
    fact_table: str = "fact_flexoffer",
) -> None:
    """Insert one flex-offer into the fact tables.

    ``fact_table`` lets the live warehouse route derived aggregates into
    ``fact_flexoffer_aggregate`` (same columns) instead of the raw fact table.
    """
    fact = schema.table(fact_table)
    slices = schema.table("fact_flexoffer_slice")
    fact.append(
        {
            "offer_id": offer.id,
            "prosumer_id": offer.prosumer_id,
            "geo_id": _geo_id(schema, offer, geo_ids),
            "grid_node": offer.grid_node,
            "energy_type": offer.energy_type,
            "prosumer_type": offer.prosumer_type,
            "appliance_type": offer.appliance_type,
            "state": offer.state.value,
            "direction": offer.direction.value,
            "earliest_start_slot": offer.earliest_start_slot,
            "latest_start_slot": offer.latest_start_slot,
            "profile_slots": offer.profile_duration_slots,
            "time_flexibility_slots": offer.time_flexibility_slots,
            "min_total_energy": offer.min_total_energy,
            "max_total_energy": offer.max_total_energy,
            "scheduled_energy": offer.scheduled_energy,
            "scheduled_start_slot": offer.schedule.start_slot if offer.schedule else None,
            "price_per_kwh": offer.price_per_kwh,
            "is_aggregate": offer.is_aggregate,
            "group_cell": group_cell,
            "creation_time": offer.creation_time,
            "acceptance_deadline": offer.acceptance_deadline,
            "assignment_deadline": offer.assignment_deadline,
            "payload": json.dumps(flex_offer_to_dict(offer)),
        }
    )
    for index, piece in enumerate(offer.profile):
        scheduled = (
            offer.schedule.energy_per_slice[index] if offer.schedule is not None else None
        )
        slices.append(
            {
                "offer_id": offer.id,
                "slice_index": index,
                "min_energy": piece.min_energy,
                "max_energy": piece.max_energy,
                "scheduled_energy": scheduled,
            }
        )


def _geo_id(schema: StarSchema, offer: FlexOffer, geo_ids: dict[str, int]) -> int:
    """The geography row of ``offer``, added when its district is not a known one.

    An offer from a district outside the loaded geography — streamed in
    later, or an aggregate whose members span districts (``"mixed"`` under
    the region they share) — gets a row for its own (region, city,
    district), so geography filters find it as :meth:`QuerySpec.matches
    <repro.session.spec.QuerySpec.matches>` does instead of losing it to
    ``geo_id`` 0.
    """
    geo_id = geo_ids.get(offer.district)
    if geo_id is not None or not offer.district:
        return geo_id or 0
    key = f"{offer.region}|{offer.city}|{offer.district}"
    if key not in geo_ids:
        geo_ids[key] = max(geo_ids.values(), default=0) + 1
        schema.table("dim_geography").append(
            {
                "geo_id": geo_ids[key],
                "district": offer.district,
                "city": offer.city,
                "region": offer.region,
                "country": "",
                "latitude": 0.0,
                "longitude": 0.0,
            }
        )
    return geo_ids[key]


def geography_ids(schema: StarSchema) -> dict[str, int]:
    """Rebuild the district -> geo_id mapping from a loaded geography dimension.

    :func:`load_scenario` builds this mapping internally and discards it; the
    live warehouse needs it again to insert facts for offers arriving as
    events after the initial load.
    """
    return {row["district"]: row["geo_id"] for row in schema.table("dim_geography").rows()}


def load_time_series(schema: StarSchema, series: TimeSeries, kind: str) -> None:
    """Insert one time series into ``fact_timeseries``."""
    table = schema.table("fact_timeseries")
    for slot, value in series.to_pairs():
        table.append(
            {
                "series_name": series.name,
                "kind": kind,
                "slot": slot,
                "value": value,
                "unit": series.unit,
            }
        )


def load_scenario(scenario: Scenario) -> StarSchema:
    """Load a full scenario into a fresh star schema and return it."""
    schema = StarSchema.empty()
    _load_time_dimension(schema, scenario)
    geo_ids = _load_geography_dimension(schema, scenario)
    _load_grid_dimension(schema, scenario)
    _load_prosumer_dimension(schema, scenario)
    _load_type_dimensions(schema, scenario)
    for offer in scenario.flex_offers:
        load_flex_offer(schema, offer, geo_ids)
    load_time_series(schema, scenario.base_demand, kind="base_demand")
    load_time_series(schema, scenario.res_production, kind="res_production")
    load_time_series(schema, scenario.spot_prices, kind="spot_price")
    return schema
