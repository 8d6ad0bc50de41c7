"""Property tests for the binary columnar checkpoint format.

The contract: a checkpoint written in the binary columnar format and read
back (memmapped or eager, with or without numpy) is **value-identical** to
the same checkpoint written in the CSV text format — for any warehouse the
engines can produce, at any commit point, for every live-family engine.
Old-format checkpoints (manifests predating ``warehouse_format``) must keep
restoring through the text readers.

Every test in this module is datagen-free: offers are built by hand through
``tests.conftest.make_offer`` and streamed through the real engines, so the
whole module also runs in the no-numpy CI leg (where the generated-scenario
suites skip).
"""

from __future__ import annotations

import datetime
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.parameters import AggregationParameters
from repro.errors import StoreError
from repro.live.asynccommit import AsyncCommitEngine
from repro.flexoffer.model import FlexOfferState, Schedule
from repro.live.engine import LiveAggregationEngine
from repro.live.events import EventLog, OfferAdded, OfferStateChanged, OfferUpdated, OfferWithdrawn
from repro.live.replay import replay
from repro.live.warehouse import LiveWarehouse
from repro.store import SnapshotStore, capture_engine_state
from repro.store.columnar import load_schema_columnar, read_table, save_schema_columnar, write_table
from repro.timeseries.grid import TimeGrid
from repro.warehouse.persistence import load_schema, save_schema
from repro.warehouse.schema import StarSchema

from tests.conftest import make_offer

GRID = TimeGrid()

ENGINE_FACTORIES = {
    "live": lambda: LiveAggregationEngine(AggregationParameters()),
    "async": lambda: AsyncCommitEngine(
        LiveAggregationEngine(AggregationParameters()), drain_batch=5
    ),
}


def _event_stream(offer_count: int) -> list:
    """A hand-built lifecycle stream: adds, revisions, decisions, withdrawals."""
    log = EventLog()
    regions = ["Capital", "Zealand", "North Jutland"]
    for index in range(offer_count):
        offer = make_offer(
            offer_id=index + 1,
            earliest_start=30 + 3 * index,
            time_flexibility=4 + index % 5,
            region=regions[index % 3],
            prosumer_id=index % 5 + 1,
            appliance_type=["electric_vehicle", "heat_pump", "dishwasher"][index % 3],
        )
        log.append(OfferAdded(offer.creation_time, offer))
        if index % 4 == 1:
            widened = make_offer(
                offer_id=offer.id,
                earliest_start=offer.earliest_start_slot,
                time_flexibility=offer.time_flexibility_slots + 1,
                region=regions[index % 3],
                prosumer_id=index % 5 + 1,
            )
            log.append(OfferUpdated(offer.creation_time + datetime.timedelta(minutes=30), widened))
        if index % 3 == 0:
            log.append(
                OfferStateChanged(offer.acceptance_deadline, offer.id, FlexOfferState.ACCEPTED)
            )
            log.append(
                OfferStateChanged(
                    offer.assignment_deadline,
                    offer.id,
                    FlexOfferState.ASSIGNED,
                    Schedule(
                        start_slot=offer.earliest_start_slot + 1,
                        energy_per_slice=tuple(p.min_energy for p in offer.profile),
                    ),
                )
            )
        elif index % 7 == 2:
            log.append(OfferWithdrawn(offer.assignment_deadline, offer.id))
    return log.replay_order()


def _warehouse_after(events, engine_name: str) -> tuple[LiveWarehouse, object]:
    engine = ENGINE_FACTORIES[engine_name]()
    warehouse = LiveWarehouse(StarSchema.empty(), GRID, AggregationParameters())
    replay(events, engine, warehouse=warehouse)
    return warehouse, engine


def _schema_tables(schema: StarSchema) -> dict[str, list[dict]]:
    return {name: list(table.rows()) for name, table in schema.tables.items()}


def _assert_schemas_identical(left: StarSchema, right: StarSchema) -> None:
    left_tables, right_tables = _schema_tables(left), _schema_tables(right)
    assert sorted(left_tables) == sorted(right_tables)
    for name, rows in left_tables.items():
        assert rows == right_tables[name], f"table {name} diverged"


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
@given(cut_fraction=st.floats(min_value=0.1, max_value=1.0))
@settings(deadline=None, max_examples=8)
def test_columnar_restore_identical_to_csv_restore(tmp_path_factory, engine_name, cut_fraction):
    """Both formats restore the same warehouse at any commit point."""
    events = _event_stream(14)
    cut = max(1, int(len(events) * cut_fraction))
    warehouse, engine = _warehouse_after(events[:cut], engine_name)
    state = capture_engine_state(getattr(engine, "engine", engine))

    base = tmp_path_factory.mktemp("fmt")
    csv_store = SnapshotStore(base / "csv", warehouse_format="csv")
    bin_store = SnapshotStore(base / "bin", warehouse_format="columnar")
    csv_store.save(state, log_offset=cut, schema=warehouse.schema)
    bin_store.save(state, log_offset=cut, schema=warehouse.schema)

    from_csv = csv_store.load()
    from_bin = bin_store.load()
    assert from_bin.manifest["warehouse_format"] == "columnar"
    assert from_csv.log_offset == from_bin.log_offset == cut
    assert from_csv.state == from_bin.state
    assert from_bin.schema is not None
    _assert_schemas_identical(from_csv.schema, from_bin.schema)
    # Both restores must also equal the warehouse that was checkpointed.
    _assert_schemas_identical(warehouse.schema, from_bin.schema)


def test_old_format_checkpoint_still_restores(tmp_path):
    """A manifest without ``warehouse_format`` reads through the CSV path."""
    events = _event_stream(8)
    warehouse, engine = _warehouse_after(events, "live")
    state = capture_engine_state(engine)
    store = SnapshotStore(tmp_path, warehouse_format="csv")
    store.save(state, log_offset=len(events), schema=warehouse.schema)

    # Simulate a checkpoint written before the columnar format existed.
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["warehouse_format"]
    manifest_path.write_text(json.dumps(manifest))

    checkpoint = SnapshotStore(tmp_path).load()
    assert checkpoint.schema is not None
    _assert_schemas_identical(warehouse.schema, checkpoint.schema)


def test_unknown_warehouse_format_is_rejected(tmp_path):
    store = SnapshotStore(tmp_path, warehouse_format="csv")
    warehouse, engine = _warehouse_after(_event_stream(3), "live")
    store.save(capture_engine_state(engine), log_offset=1, schema=warehouse.schema)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["warehouse_format"] = "parquet"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError):
        SnapshotStore(tmp_path).load()

    with pytest.raises(StoreError):
        SnapshotStore(tmp_path / "new", warehouse_format="parquet")


def test_memmap_and_eager_reads_are_identical(tmp_path):
    warehouse, _ = _warehouse_after(_event_stream(10), "live")
    for name, table in warehouse.schema.tables.items():
        if len(table) == 0:
            continue
        path = tmp_path / f"{name}.fcb"
        write_table(table, path)
        name_mm, rows_mm, data_mm = read_table(path, memmap=True)
        name_eager, rows_eager, data_eager = read_table(path, memmap=False)
        assert (name_mm, rows_mm) == (name_eager, rows_eager)
        assert sorted(data_mm) == sorted(data_eager)
        for column in data_mm:
            assert list(data_mm[column]) == list(data_eager[column])


def test_awkward_values_round_trip(tmp_path):
    """Cells CSV needs to escape: empty strings, None, unicode, newlines.

    Both writers run over the same production schema table, so the assertion
    compares the real restore paths, not synthetic ones.
    """
    schema = StarSchema.empty()
    fact = schema.table("fact_flexoffer")
    stamp = datetime.datetime(2012, 2, 1, 13, 45)
    base = {column: None for column in fact.columns}
    awkward_rows = [
        {
            **base,
            "offer_id": 1,
            "group_cell": "køb;en\nhavn",
            "payload": '{"quote": "d\\"x", "comma": "a,b"}',
            "creation_time": stamp,
            "scheduled_start_slot": None,
            "min_total_energy": 0.5,
            "is_aggregate": False,
        },
        {
            **base,
            "offer_id": 2,
            "group_cell": "",
            "payload": "",
            "creation_time": None,
            "scheduled_start_slot": 7,
            "min_total_energy": 1e-9,
            "is_aggregate": True,
        },
    ]
    for row in awkward_rows:
        fact.append(dict(row))

    csv_dir, bin_dir = tmp_path / "csv", tmp_path / "bin"
    save_schema(schema, csv_dir)
    save_schema_columnar(schema, bin_dir)
    via_csv = load_schema(csv_dir).table("fact_flexoffer")
    via_bin = load_schema_columnar(bin_dir).table("fact_flexoffer")
    assert list(via_bin.rows()) == list(via_csv.rows())


def test_segment_sidecar_survives_checkpoint_cycle(tmp_path):
    """End-to-end: record → checkpoint → tail read uses the seek index."""
    from repro.store.segments import SegmentStore

    events = _event_stream(12)
    log = SegmentStore(tmp_path / "events", segment_size=8)
    log.extend(events)
    for segment in log.segments():
        assert segment.with_name(segment.name + ".idx").exists()
    tail = list(log.tail(len(events) // 2))
    assert len(tail) == len(events) - len(events) // 2
