"""A small columnar table — the storage primitive of the warehouse substitute.

The MIRABEL tool reads flex-offers from a PostgreSQL database laid out as the
MIRABEL DW star schema.  Offline, this reproduction stores the same schema in
memory: each :class:`Table` keeps named columns, supports appending rows,
predicate filtering, projection, sorting and simple aggregation, and
round-trips through CSV.  The goal is fidelity of the access pattern
(dimensional filtering and grouping).

Every column is a plain Python list, so cells keep their Python types and
filters keep Python equality (``7 == 7.0``, ``0 == False``).  Equality
lookups go through hash indexes where one is declared; everything else is a
scan.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import UnknownColumnError, WarehouseError


class Table:
    """A columnar table with named list columns and hash indexes.

    The table is append-mostly; :meth:`delete_where` and :meth:`set_value`
    exist for the live warehouse's event-driven updates.  Secondary indexes map a
    column value to the list of row positions holding it, turning equality
    lookups into dict hits.  Appends maintain indexes incrementally.

    Deletes are *tombstoned*: :meth:`delete_where` only marks the row
    positions dead, which keeps every index valid (lookups skip tombstoned
    positions) and makes a delete O(matched rows) instead of O(table).  Once
    tombstones pile past :data:`COMPACT_MIN_TOMBSTONES` *and* half the
    physical rows, :meth:`compact` rewrites the columns — so the rewrite cost
    is amortized over the deletes that caused it.  Positions returned by
    :meth:`lookup` are *physical* and stay valid until the next compaction.
    """

    #: Tombstones needed before an automatic compaction is even considered.
    COMPACT_MIN_TOMBSTONES = 64
    #: Automatic compaction triggers once tombstones exceed this fraction of
    #: the physical rows (and the minimum above).
    COMPACT_FRACTION = 0.5

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if len(set(columns)) != len(columns):
            raise WarehouseError(f"table {name!r} declares duplicate columns")
        self.name = name
        self.columns: tuple[str, ...] = tuple(columns)
        self._data: dict[str, list[Any]] = {column: [] for column in columns}
        #: column -> (value -> row positions); ``None`` marks a stale index.
        self._indexes: dict[str, dict[Any, list[int]] | None] = {}
        #: Physical positions of deleted-but-not-yet-compacted rows.
        self._tombstones: set[int] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _physical_len(self) -> int:
        return len(self._data[self.columns[0]]) if self.columns else 0

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row given as a mapping; missing columns raise."""
        missing = [column for column in self.columns if column not in row]
        if missing:
            raise UnknownColumnError(f"row for table {self.name!r} misses columns {missing}")
        for column in self.columns:
            self._data[column].append(row[column])
        position = self._physical_len() - 1
        for column, index in self._indexes.items():
            if index is not None:
                index.setdefault(row[column], []).append(position)

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    def install_columns(self, data: Mapping[str, Any]) -> None:
        """Replace the table contents with whole columns (bulk-load fast path).

        Every declared column must be present and all columns equal-length.
        The CSV loader uses this to skip per-row dict building and index
        upkeep entirely; indexes rebuild lazily on the next lookup.  Each
        column is copied into a fresh list, so the caller keeps its own.
        """
        missing = [column for column in self.columns if column not in data]
        if missing:
            raise UnknownColumnError(f"bulk load for table {self.name!r} misses columns {missing}")
        lengths = {len(data[column]) for column in self.columns}
        if len(lengths) > 1:
            raise WarehouseError(f"bulk load for table {self.name!r} has ragged columns")
        self._data = {column: list(data[column]) for column in self.columns}
        self._tombstones.clear()
        for indexed in self._indexes:
            self._indexes[indexed] = None

    def delete_where(self, column: str, value: Any) -> int:
        """Tombstone all rows whose ``column`` equals ``value``; returns the count.

        The rows only disappear logically; the physical rewrite happens in the
        (auto-triggered) :meth:`compact`, so repeated deletes on a large table
        stay amortized O(matched rows) rather than O(table) each.
        """
        positions = self.lookup(column, value)
        if not positions:
            return 0
        self._tombstones.update(positions)
        self._maybe_compact()
        return len(positions)

    @property
    def tombstone_count(self) -> int:
        """Rows deleted but not yet physically removed."""
        return len(self._tombstones)

    def _maybe_compact(self) -> None:
        if (
            len(self._tombstones) >= self.COMPACT_MIN_TOMBSTONES
            and len(self._tombstones) >= self._physical_len() * self.COMPACT_FRACTION
        ):
            self.compact()

    def compact(self) -> int:
        """Physically drop tombstoned rows; returns how many were removed.

        Every column is rebuilt by one comprehension over its list.  Indexes
        are invalidated (rebuilt lazily on the next lookup) because every
        physical position after the first tombstone shifts.
        """
        if not self._tombstones:
            return 0
        removed = len(self._tombstones)
        for name, values in self._data.items():
            self._data[name] = [v for i, v in enumerate(values) if i not in self._tombstones]
        self._tombstones.clear()
        for indexed in self._indexes:
            self._indexes[indexed] = None
        return removed

    def set_value(self, column: str, position: int, value: Any) -> None:
        """Overwrite one cell in place, keeping any index on ``column`` honest."""
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        if not 0 <= position < self._physical_len():
            raise WarehouseError(f"row index {position} out of range for table {self.name!r}")
        self._data[column][position] = value
        self.invalidate_index(column)

    # ------------------------------------------------------------------
    # Secondary indexes
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        """Declare a hash index on ``column`` (built lazily, maintained on append)."""
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        self._indexes.setdefault(column, None)

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        """Columns a hash index has been declared on."""
        return tuple(self._indexes)

    def invalidate_index(self, column: str) -> None:
        """Mark one index stale (callers that mutate column values in place)."""
        if column in self._indexes:
            self._indexes[column] = None

    def _index(self, column: str) -> dict[Any, list[int]]:
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for position, value in enumerate(self._data[column]):
                if position not in self._tombstones:
                    index.setdefault(value, []).append(position)
            self._indexes[column] = index
        return index

    def lookup(self, column: str, value: Any) -> list[int]:
        """Physical positions of the *live* rows whose ``column`` equals ``value``.

        A dict hit when ``column`` is indexed; otherwise a linear scan (the
        fallback keeps the method usable on any column).  Tombstoned rows are
        skipped either way — incrementally maintained indexes may still hold
        their positions, so index hits are filtered against the tombstone set.
        """
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        if column in self._indexes:
            hits = self._index(column).get(value, ())
            if not self._tombstones:
                return list(hits)
            return [p for p in hits if p not in self._tombstones]
        return [
            i
            for i, v in enumerate(self._data[column])
            if v == value and i not in self._tombstones
        ]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *live* rows (tombstoned rows excluded)."""
        return self._physical_len() - len(self._tombstones)

    def live_positions(self) -> Iterator[int]:
        """The physical positions of the live rows, ascending."""
        if not self._tombstones:
            yield from range(self._physical_len())
            return
        for position in range(self._physical_len()):
            if position not in self._tombstones:
                yield position

    def column(self, name: str) -> list[Any]:
        """The *physical* list of one column (the live storage; do not mutate).

        Positions from :meth:`lookup` index into it directly.  When the table
        holds tombstones the list still contains the dead rows' values — full
        iterations should use :meth:`values` (or :meth:`rows`).
        """
        if name not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {name!r}")
        return self._data[name]

    def values(self, name: str) -> Iterator[Any]:
        """Iterate one column's live values (tombstoned rows skipped)."""
        column = self.column(name)
        for position in self.live_positions():
            yield column[position]

    def row(self, index: int) -> dict[str, Any]:
        """Return the row at *physical* position ``index`` as a dictionary."""
        if not 0 <= index < self._physical_len():
            raise WarehouseError(f"row index {index} out of range for table {self.name!r}")
        if index in self._tombstones:
            raise WarehouseError(f"row {index} of table {self.name!r} is deleted")
        return {column: self._data[column][index] for column in self.columns}

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over all live rows as dictionaries."""
        for index in self.live_positions():
            yield self.row(index)

    # ------------------------------------------------------------------
    # Relational-style operations (each returns a new table)
    # ------------------------------------------------------------------
    def _subset(self, positions: Sequence[int], columns: Sequence[str] | None = None) -> "Table":
        """Bulk-build a new table from physical positions.

        Each column is copied by one comprehension instead of per-row appends.
        """
        columns = tuple(columns if columns is not None else self.columns)
        result = Table(self.name, columns)
        for column in columns:
            backing = self._data[column]
            result._data[column] = [backing[p] for p in positions]
        return result

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Return a new table with the rows for which ``predicate`` is true."""
        positions = [i for i in self.live_positions() if predicate(self.row(i))]
        return self._subset(positions)

    def where(self, **equals: Any) -> "Table":
        """Return rows whose columns equal the given values (conjunction).

        When one constrained column is indexed, only the candidate rows from
        the index are examined; otherwise the full table is scanned.
        """
        for column in equals:
            if column not in self._data:
                raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        indexed = next((column for column in equals if column in self._indexes), None)
        if indexed is not None:
            positions = []
            for position in self.lookup(indexed, equals[indexed]):
                row = self.row(position)
                if all(row[column] == value for column, value in equals.items()):
                    positions.append(position)
            return self._subset(positions)
        return self.filter(
            lambda row: all(row[column] == value for column, value in equals.items())
        )

    def where_in(self, column: str, values: Iterable[Any]) -> "Table":
        """Return rows whose ``column`` value is in ``values``."""
        allowed = set(values)
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        return self.filter(lambda row: row[column] in allowed)

    def where_between(self, column: str, low: Any, high: Any) -> "Table":
        """Return rows whose ``column`` value lies in the closed interval [low, high]."""
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        return self.filter(lambda row: low <= row[column] <= high)

    def select(self, columns: Sequence[str]) -> "Table":
        """Project onto the given columns."""
        for column in columns:
            if column not in self._data:
                raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        return self._subset(list(self.live_positions()), columns=columns)

    def sort_by(self, column: str, reverse: bool = False) -> "Table":
        """Return a copy sorted by ``column``."""
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        backing = self._data[column]
        order = sorted(self.live_positions(), key=lambda i: backing[i], reverse=reverse)
        return self._subset(order)

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: Mapping[str, Callable[[list[dict[str, Any]]], Any]],
    ) -> "Table":
        """Group rows by ``keys`` and compute named aggregations per group.

        Each aggregation receives the list of row dictionaries of its group.
        The result table has the key columns followed by the aggregation names.
        """
        for key in keys:
            if key not in self._data:
                raise UnknownColumnError(f"table {self.name!r} has no column {key!r}")
        groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in self.rows():
            group_key = tuple(row[key] for key in keys)
            groups.setdefault(group_key, []).append(row)
        result = Table(f"{self.name}_grouped", list(keys) + list(aggregations))
        for group_key, group_rows in groups.items():
            out: dict[str, Any] = dict(zip(keys, group_key))
            for agg_name, agg_fn in aggregations.items():
                out[agg_name] = agg_fn(group_rows)
            result.append(out)
        return result

    def join(
        self, other: "Table", on: str, other_on: str | None = None, prefix: str = ""
    ) -> "Table":
        """Left-join ``other`` on equality of the key columns.

        Columns of ``other`` (except its key) are added, optionally prefixed to
        avoid collisions.  Unmatched rows keep ``None`` in the joined columns.
        """
        other_key = other_on or on
        if on not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {on!r}")
        if other_key not in other._data:
            raise UnknownColumnError(f"table {other.name!r} has no column {other_key!r}")
        lookup: dict[Any, dict[str, Any]] = {}
        for row in other.rows():
            lookup.setdefault(row[other_key], row)
        joined_columns = [c for c in other.columns if c != other_key]
        new_columns = list(self.columns) + [f"{prefix}{c}" for c in joined_columns]
        result = Table(f"{self.name}_join_{other.name}", new_columns)
        for row in self.rows():
            match = lookup.get(row[on])
            extra = {
                f"{prefix}{c}": (match[c] if match is not None else None) for c in joined_columns
            }
            result.append({**row, **extra})
        return result

    # ------------------------------------------------------------------
    # CSV round trip
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Serialize the table to CSV (header + rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows():
            writer.writerow([row[column] for column in self.columns])
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, name: str, text: str) -> "Table":
        """Rebuild a table from :meth:`to_csv` output (all values are strings)."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration as exc:
            raise WarehouseError("CSV text is empty") from exc
        table = cls(name, header)
        for values in reader:
            table.append(dict(zip(header, values)))
        return table
