"""Property-based round-trip tests across module boundaries.

These properties tie several substrates together: arbitrary (valid) flex-offers
must survive the warehouse fact-table round trip, the JSON and CSV exchange
formats and the checkpoint's positional rows, and the OLAP cube must preserve
totals regardless of which dimension level the offers are grouped on.
"""

from __future__ import annotations

import json
import struct
import tempfile
from datetime import datetime, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import Direction, FlexOffer, FlexOfferState, ProfileSlice, Schedule
from repro.flexoffer.serialization import (
    flex_offer_from_row,
    flex_offer_to_row,
    from_csv,
    from_json,
    to_csv,
    to_json,
)
from repro.olap.cube import FlexOfferCube, GroupBy
from repro.olap.mdx import parse
from repro.store import SnapshotStore
from repro.store.state import AggregateRecord, EngineState
from repro.timeseries.grid import TimeGrid
from repro.warehouse.loader import load_flex_offer
from repro.warehouse.query import FlexOfferRepository
from repro.warehouse.schema import StarSchema

_GRID = TimeGrid()


@st.composite
def stateful_offers(draw, offer_id: int):
    """A valid flex-offer in a random lifecycle state (with schedule when needed)."""
    earliest = draw(st.integers(min_value=0, max_value=90))
    flexibility = draw(st.integers(min_value=0, max_value=20))
    slice_count = draw(st.integers(min_value=1, max_value=5))
    profile = []
    for _ in range(slice_count):
        low = round(draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)), 3)
        band = round(draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False)), 3)
        profile.append(ProfileSlice(min_energy=low, max_energy=low + band))
    start_time = _GRID.to_datetime(earliest)
    offer = FlexOffer(
        id=offer_id,
        prosumer_id=draw(st.integers(min_value=1, max_value=50)),
        profile=tuple(profile),
        earliest_start_slot=earliest,
        latest_start_slot=earliest + flexibility,
        creation_time=start_time - timedelta(hours=6),
        acceptance_deadline=start_time - timedelta(hours=3),
        assignment_deadline=start_time - timedelta(hours=1),
        region=draw(st.sampled_from(["Capital", "Zealand"])),
        city=draw(st.sampled_from(["Copenhagen", "Roskilde"])),
        district="Copenhagen Centrum",
        energy_type=draw(st.sampled_from(["grid", "hydro"])),
        prosumer_type=draw(st.sampled_from(["household", "commercial"])),
        appliance_type=draw(st.sampled_from(["electric_vehicle", "heat_pump"])),
        price_per_kwh=round(draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)), 4),
    )
    action = draw(st.sampled_from(["offered", "accepted", "assigned", "rejected"]))
    if action == "accepted":
        return offer.accept()
    if action == "rejected":
        return offer.reject()
    if action == "assigned":
        return offer.with_default_schedule()
    return offer


offer_batches = st.integers(min_value=1, max_value=8).flatmap(
    lambda count: st.tuples(*[stateful_offers(offer_id=i + 1) for i in range(count)]).map(list)
)


class TestExchangeRoundTrips:
    @given(offer_batches)
    @settings(max_examples=30, deadline=None)
    def test_json_roundtrip(self, offers):
        assert from_json(to_json(offers)) == offers

    @given(offer_batches)
    @settings(max_examples=30, deadline=None)
    def test_csv_roundtrip(self, offers):
        assert from_csv(to_csv(offers)) == offers

    @given(offer_batches)
    @settings(max_examples=25, deadline=None)
    def test_warehouse_roundtrip(self, offers):
        schema = StarSchema.empty()
        for offer in offers:
            load_flex_offer(schema, offer, geo_ids={})
        repository = FlexOfferRepository(schema, _GRID)
        loaded = repository.load().offers
        assert loaded == offers


#: Energy bounds: signed zeros, int-valued floats, ints and any finite value.
_bounds = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
#: Dimension attributes, empty and non-ASCII ones included.
_labels = st.one_of(st.sampled_from(["", "Århus Ø", "東京"]), st.text(max_size=8))


@st.composite
def row_offers(draw, offer_id: int):
    """Any valid flex-offer: multi-slot slices, sub-second times, aggregates."""
    earliest = draw(st.integers(min_value=-1000, max_value=1000))
    latest = earliest + draw(st.integers(min_value=0, max_value=50))
    profile = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        low = draw(_bounds)
        profile.append(ProfileSlice(low, low + draw(_bounds), draw(st.integers(1, 4))))
    schedule = None
    if draw(st.booleans()):
        schedule = Schedule(
            draw(st.integers(min_value=earliest, max_value=latest)),
            tuple(draw(st.sampled_from([p.min_energy, p.max_energy])) for p in profile),
        )
    created = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2040, 1, 1)))
    accept_by = created + draw(st.timedeltas(min_value=timedelta(0), max_value=timedelta(days=2)))
    assign_by = accept_by + draw(st.timedeltas(min_value=timedelta(0), max_value=timedelta(days=2)))
    is_aggregate = draw(st.booleans())
    return FlexOffer(
        id=offer_id,
        prosumer_id=draw(st.integers(min_value=0, max_value=10**9)),
        profile=tuple(profile),
        earliest_start_slot=earliest,
        latest_start_slot=latest,
        creation_time=created,
        acceptance_deadline=accept_by,
        assignment_deadline=assign_by,
        direction=draw(st.sampled_from(Direction)),
        state=draw(st.sampled_from(FlexOfferState)),
        schedule=schedule,
        region=draw(_labels),
        city=draw(_labels),
        district=draw(_labels),
        grid_node=draw(_labels),
        energy_type=draw(_labels),
        prosumer_type=draw(_labels),
        appliance_type=draw(_labels),
        price_per_kwh=draw(
            st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
        ),
        is_aggregate=is_aggregate,
        constituent_ids=tuple(draw(st.lists(st.integers(0, 10**9), max_size=4)))
        if is_aggregate
        else (),
    )


def _float_fields(offer: FlexOffer) -> list:
    """Every float field of an offer: slice bounds, scheduled energies, price."""
    values = [bound for piece in offer.profile for bound in (piece.min_energy, piece.max_energy)]
    if offer.schedule is not None:
        values.extend(offer.schedule.energy_per_slice)
    values.append(offer.price_per_kwh)
    return values


def _assert_same_bits(decoded: FlexOffer, original: FlexOffer) -> None:
    """Equal offers whose float fields are floats with the original's raw bits."""
    assert decoded == original
    values = _float_fields(decoded)
    assert all(type(value) is float for value in values)
    bits = [struct.pack("<d", value) for value in values]
    assert bits == [struct.pack("<d", float(value)) for value in _float_fields(original)]


class TestRowCodec:
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda count: st.tuples(*[row_offers(offer_id=i + 1) for i in range(count)]).map(list)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip_bit_for_bit(self, offers):
        """Through JSON text alone, and through a checkpoint as offers and as
        aggregate records."""
        for offer in offers:
            text = json.dumps(flex_offer_to_row(offer), separators=(",", ":"))
            _assert_same_bits(flex_offer_from_row(json.loads(text)), offer)
        records = [
            AggregateRecord(
                cell=(offer.earliest_start_slot, offer.time_flexibility_slots, "consumption"),
                chunk=index,
                offer=offer,
            )
            for index, offer in enumerate(offers)
        ]
        state = EngineState(
            engine="live",
            parameters=AggregationParameters(),
            id_offset=0,
            offers=offers,
            aggregates=records,
            next_id=len(offers) + 1,
        )
        with tempfile.TemporaryDirectory() as directory:
            store = SnapshotStore(directory)
            store.save(state, log_offset=0)
            loaded = store.load().state
        assert loaded == state
        for decoded, original in zip(loaded.offers, offers):
            _assert_same_bits(decoded, original)
        for decoded, original in zip(loaded.aggregates, records):
            _assert_same_bits(decoded.offer, original.offer)


class TestCubeInvariants:
    @given(offer_batches, st.sampled_from(["region", "city", "all"]))
    @settings(max_examples=30, deadline=None)
    def test_count_total_is_level_independent(self, offers, level):
        cube = FlexOfferCube(offers, _GRID)
        cell_set = cube.aggregate([GroupBy("Geography", level)], ["flex_offer_count"])
        assert cell_set.totals()["flex_offer_count"] == len(offers)

    @given(offer_batches)
    @settings(max_examples=30, deadline=None)
    def test_scheduled_energy_total_matches_offers(self, offers):
        cube = FlexOfferCube(offers, _GRID)
        cell_set = cube.aggregate([GroupBy("State", "state")], ["scheduled_energy"])
        expected = sum(offer.scheduled_energy for offer in offers)
        assert abs(cell_set.totals()["scheduled_energy"] - expected) < 1e-6

    @given(offer_batches)
    @settings(max_examples=30, deadline=None)
    def test_two_axis_grouping_preserves_count(self, offers):
        cube = FlexOfferCube(offers, _GRID)
        cell_set = cube.aggregate(
            [GroupBy("Prosumer", "prosumer_type"), GroupBy("Appliance", "appliance_type")],
            ["flex_offer_count"],
        )
        assert cell_set.totals()["flex_offer_count"] == len(offers)


class TestMdxParseProperties:
    measure_names = st.sampled_from(["flex_offer_count", "scheduled_energy", "avg_price"])
    dimension_levels = st.sampled_from(
        [("Geography", "region"), ("Prosumer", "prosumer_type"), ("State", "state")]
    )

    @given(st.lists(measure_names, min_size=1, max_size=3, unique=True), dimension_levels)
    @settings(max_examples=40, deadline=None)
    def test_generated_queries_parse(self, measures, dimension_level):
        dimension, level = dimension_level
        columns = ", ".join(f"[Measures].[{measure}]" for measure in measures)
        query_text = (
            f"SELECT {{{columns}}} ON COLUMNS, "
            f"{{[{dimension}].[{level}].Members}} ON ROWS FROM [FlexOffers]"
        )
        query = parse(query_text)
        assert query.measures == tuple(measures)
        assert query.rows_dimension == dimension
        assert query.rows_level == level
