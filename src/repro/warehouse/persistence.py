"""Persisting the warehouse to and from a directory of CSV files.

The MIRABEL DW lives in PostgreSQL; the offline substitute persists each table
of the star schema as ``<table>.csv`` inside a directory.  Values are stored as
strings and coerced back to their declared types on load, which keeps the
format inspectable with any spreadsheet tool.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path
from typing import Any, Callable

from repro.errors import WarehouseError
from repro.warehouse.schema import DIMENSION_TABLES, FACT_TABLES, StarSchema
from repro.warehouse.table import Table

#: Column-level parsers applied when reading CSV back (strings otherwise).
_COLUMN_PARSERS: dict[str, Callable[[str], Any]] = {
    "slot": int,
    "year": int,
    "month": int,
    "day": int,
    "hour": int,
    "minute": int,
    "weekday": int,
    "geo_id": int,
    "prosumer_id": int,
    "entity_id": int,
    "offer_id": int,
    "slice_index": int,
    "earliest_start_slot": int,
    "latest_start_slot": int,
    "profile_slots": int,
    "time_flexibility_slots": int,
    "latitude": float,
    "longitude": float,
    "min_total_energy": float,
    "max_total_energy": float,
    "scheduled_energy": float,
    "price_per_kwh": float,
    "min_energy": float,
    "max_energy": float,
    "value": float,
    "renewable": lambda text: text == "True",
    "is_aggregate": lambda text: text == "True",
}

_DATETIME_COLUMNS = {"timestamp", "creation_time", "acceptance_deadline", "assignment_deadline"}
_NULLABLE_COLUMNS = {"scheduled_start_slot", "scheduled_energy"}


def _column_coercer(column: str) -> Callable[[str], Any] | None:
    """A per-column coercion function, or ``None`` for plain string columns.

    Resolving the column's parsing rule *once* (instead of re-deciding per
    cell) lets :func:`load_schema` coerce whole columns in tight loops.
    """
    if column in _DATETIME_COLUMNS:
        # The stored format is ISO with a space separator, which the C-level
        # fromisoformat parses directly (an order of magnitude faster than
        # strptime — schema loads are the hot path of checkpoint restores).
        return lambda text: datetime.fromisoformat(text) if text else None
    if column == "scheduled_start_slot":
        return lambda text: None if text == "" else int(float(text))
    parser = _COLUMN_PARSERS.get(column)
    nullable = column in _NULLABLE_COLUMNS
    if parser is None and not nullable:
        return None

    def coerce(text: str) -> Any:
        if nullable and text == "":
            return None
        if parser is None:
            return text
        try:
            return parser(text)
        except ValueError:
            return text

    return coerce


def _missing_default(column: str) -> Any:
    """Backfill value for a column absent from an old dump.

    Typed columns default to ``None`` (an empty string would poison
    arithmetic and equality filters); plain string columns default to ``""``.
    """
    if column in _DATETIME_COLUMNS or column in _COLUMN_PARSERS or column in _NULLABLE_COLUMNS:
        return None
    return ""


def _format(value: Any) -> Any:
    if isinstance(value, datetime):
        # ISO with a space separator: whole seconds read "YYYY-MM-DD
        # HH:MM:SS", and sub-second parts survive the round trip.
        return value.isoformat(sep=" ")
    if value is None:
        return ""
    return value


def save_schema(schema: StarSchema, directory: str | Path) -> list[Path]:
    """Write every table of ``schema`` as ``<directory>/<table>.csv``."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in schema.tables.items():
        formatted = Table(name, table.columns)
        for row in table.rows():
            formatted.append({column: _format(value) for column, value in row.items()})
        path = target / f"{name}.csv"
        path.write_text(formatted.to_csv(), encoding="utf-8")
        written.append(path)
    return written


def load_schema(directory: str | Path) -> StarSchema:
    """Rebuild a star schema from a directory written by :func:`save_schema`.

    Loading is column-wise: the CSV rows are transposed once, each column is
    coerced with its single resolved parser and the result is installed in
    bulk (:meth:`~repro.warehouse.table.Table.install_columns`) — no per-row
    dictionaries, no per-cell rule dispatch.
    """
    import csv as _csv

    source = Path(directory)
    if not source.is_dir():
        raise WarehouseError(f"{source} is not a directory")
    schema = StarSchema.empty()
    for name in {**DIMENSION_TABLES, **FACT_TABLES}:
        path = source / f"{name}.csv"
        if not path.exists():
            continue
        target = schema.table(name)
        with open(path, encoding="utf-8", newline="") as handle:
            reader = _csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration as exc:
                raise WarehouseError(f"{path} is empty") from exc
            rows = list(reader)
        data: dict[str, list[Any]] = {}
        for position, column in enumerate(header):
            values = [row[position] for row in rows]
            coercer = _column_coercer(column)
            data[column] = [coercer(value) for value in values] if coercer else values
        # Dumps written before a column existed load with an empty default, so
        # old warehouse directories stay readable after schema growth.
        for column in target.columns:
            if column not in data:
                data[column] = [_missing_default(column)] * len(rows)
        target.install_columns(data)
    return schema
