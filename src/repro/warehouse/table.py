"""A small columnar table — the storage primitive of the warehouse substitute.

The MIRABEL tool reads flex-offers from a PostgreSQL database laid out as the
MIRABEL DW star schema.  Offline, this reproduction stores the same schema in
memory: each :class:`Table` keeps named columns, supports appending rows,
predicate filtering, projection, sorting and simple aggregation, and
round-trips through CSV.  The goal is fidelity of the access pattern
(dimensional filtering and grouping) — but the storage layer now has to hold
100k+ flex-offers (ROADMAP's scale item), so columns are *typed*.

A column declared with a dtype (``"int64"``, ``"float64"`` or ``"bool"``) is
backed by a growable numpy array (:class:`ColumnArray`) instead of a Python
list.  Predicate evaluation over typed columns is vectorized: ``where``
becomes a conjunction of boolean masks, ``where_in`` an ``np.isin``,
``where_between`` a range mask, tombstone compaction a single fancy-index
pass.  Everything else — indexes, tombstones, row dictionaries — is
unchanged.

**Bit-identity is part of the contract** (mirroring
:mod:`repro.aggregation.kernel`'s dual-path design): list storage is the
specification, arrays are an internal representation.  A typed column only
holds cells whose array round-trip is exact (``type(cell)`` is exactly the
dtype's Python type and, for ``int64``, the value is in range); any other
cell *demotes* the column back to a plain list on the spot.  Reads always
return plain Python values (``ColumnArray`` indexing/iteration go through
``.item()``/``.tolist()``), so callers cannot observe numpy scalars.  When
numpy is absent — or a test pins the scalar path with :func:`force_backend`
— every column is a list and behavior is identical, just slower.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import UnknownColumnError, WarehouseError

try:  # Optional dependency: every path falls back to plain lists.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

#: Declarable column dtypes -> the exact Python type a cell must have to be
#: storable in the typed array.  The check is strict on purpose (no int→float
#: coercion): only cells whose array round-trip is bit-identical go in.
COLUMN_DTYPES: dict[str, type] = {"int64": int, "float64": float, "bool": bool}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Test hook: ``None`` auto-dispatches, ``"numpy"``/``"scalar"`` pin a path.
_forced: str | None = None


def numpy_enabled() -> bool:
    """True when typed columns may use numpy arrays (importable, not pinned off)."""
    if _forced == "scalar":
        return False
    if _forced == "numpy" and _np is None:
        raise WarehouseError("numpy backend forced but numpy is not importable")
    return _np is not None


@contextmanager
def force_backend(mode: str | None) -> Iterator[None]:
    """Pin the column backend to ``"numpy"`` or ``"scalar"`` within the block.

    Tables *created* under ``"scalar"`` store every column as a list; tables
    that already hold arrays keep them but stop taking vectorized paths, so
    both representations can be differenced against each other in tests.
    """
    global _forced
    if mode not in (None, "numpy", "scalar"):
        raise WarehouseError(f"unknown table backend {mode!r}")
    previous = _forced
    _forced = mode
    try:
        yield
    finally:
        _forced = previous


class _DemotionRequired(Exception):
    """Internal: a cell does not fit its column's dtype; fall back to a list."""


def _fits(dtype: str, value: Any) -> bool:
    """True when ``value`` round-trips exactly through an array of ``dtype``."""
    if type(value) is not COLUMN_DTYPES[dtype]:
        return False
    if dtype == "int64":
        return _INT64_MIN <= value <= _INT64_MAX
    return True


class ColumnArray:
    """A growable typed numpy column that reads back as plain Python values.

    Appends amortize O(1) via capacity doubling.  ``__getitem__``/``__iter__``
    convert through ``.item()``/``.tolist()`` so no numpy scalar ever leaks to
    a caller; :attr:`array` exposes the live slice for vectorized operators.
    A cell that does not fit the dtype raises :class:`_DemotionRequired`,
    which :class:`Table` answers by converting the column back to a list.
    """

    __slots__ = ("dtype", "_buffer", "_size")

    def __init__(self, dtype: str, values: Any = None) -> None:
        if dtype not in COLUMN_DTYPES:
            raise WarehouseError(f"unknown column dtype {dtype!r}")
        self.dtype = dtype
        if values is None:
            self._buffer = _np.empty(0, dtype=dtype)
            self._size = 0
        else:
            self._buffer = _np.array(values, dtype=dtype)
            self._size = len(self._buffer)

    @property
    def array(self) -> Any:
        """The live values as a numpy array view (no copy)."""
        return self._buffer[: self._size]

    def append(self, value: Any) -> None:
        if not _fits(self.dtype, value):
            raise _DemotionRequired
        if self._size == len(self._buffer):
            grown = _np.empty(max(8, 2 * len(self._buffer)), dtype=self.dtype)
            grown[: self._size] = self._buffer
            self._buffer = grown
        self._buffer[self._size] = value
        self._size += 1

    def take(self, positions: Any) -> "ColumnArray":
        """A new column holding the given physical positions (fancy index)."""
        index = _np.asarray(positions, dtype=_np.int64)
        return ColumnArray(self.dtype, self.array[index])

    def tolist(self) -> list[Any]:
        return self.array.tolist()

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return self.array[index].tolist()
        return self.array[index].item()

    def __setitem__(self, index: int, value: Any) -> None:
        if not _fits(self.dtype, value):
            raise _DemotionRequired
        self.array[index] = value

    def __iter__(self) -> Iterator[Any]:
        return iter(self.array.tolist())

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, ColumnArray):
            return self.tolist() == other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnArray({self.dtype}, {self.tolist()!r})"


class Table:
    """A columnar table with named columns, optional dtypes and hash indexes.

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

    ``dtypes`` maps column names to :data:`COLUMN_DTYPES` keys; those columns
    are array-backed when numpy is available (see the module docstring for
    the demotion/bit-identity contract).  Tables built without dtypes — test
    tables, :meth:`from_csv`, ``group_by``/``join`` results — behave exactly
    as the seed's list-of-lists tables did.
    """

    #: Tombstones needed before an automatic compaction is even considered.
    COMPACT_MIN_TOMBSTONES = 64
    #: Automatic compaction triggers once tombstones exceed this fraction of
    #: the physical rows (and the minimum above).
    COMPACT_FRACTION = 0.5

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        dtypes: Mapping[str, str] | None = None,
    ) -> None:
        if len(set(columns)) != len(columns):
            raise WarehouseError(f"table {name!r} declares duplicate columns")
        self.name = name
        self.columns: tuple[str, ...] = tuple(columns)
        self.dtypes: dict[str, str] = {}
        for column, dtype in (dtypes or {}).items():
            if dtype not in COLUMN_DTYPES:
                raise WarehouseError(f"table {name!r}: unknown dtype {dtype!r} for {column!r}")
            if column in self.columns:
                self.dtypes[column] = dtype
        self._data: dict[str, Any] = {column: self._fresh_backing(column) for column in columns}
        #: column -> (value -> row positions); ``None`` marks a stale index.
        self._indexes: dict[str, dict[Any, list[int]] | None] = {}
        #: Physical positions of deleted-but-not-yet-compacted rows.
        self._tombstones: set[int] = set()

    def _fresh_backing(self, column: str) -> Any:
        dtype = self.dtypes.get(column)
        if dtype is not None and numpy_enabled():
            return ColumnArray(dtype)
        return []

    def _demote(self, column: str) -> list[Any]:
        """Convert one typed column back to a plain list (value did not fit)."""
        backing = self._data[column]
        if isinstance(backing, ColumnArray):
            backing = backing.tolist()
            self._data[column] = backing
        return backing

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
            try:
                self._data[column].append(row[column])
            except _DemotionRequired:
                self._demote(column).append(row[column])
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
        upkeep entirely; indexes rebuild lazily on the next lookup.  A typed
        column's values are adopted as an array when every cell fits, and
        kept as a list otherwise.
        """
        missing = [column for column in self.columns if column not in data]
        if missing:
            raise UnknownColumnError(f"bulk load for table {self.name!r} misses columns {missing}")
        lengths = {len(data[column]) for column in self.columns}
        if len(lengths) > 1:
            raise WarehouseError(f"bulk load for table {self.name!r} has ragged columns")
        self._data = {column: self._adopt_column(column, data[column]) for column in self.columns}
        self._tombstones.clear()
        for indexed in self._indexes:
            self._indexes[indexed] = None

    def _adopt_column(self, column: str, values: Any) -> Any:
        """Typed-array backing when possible, a plain list otherwise."""
        values = list(values)
        dtype = self.dtypes.get(column)
        if dtype is None or not numpy_enabled():
            return values
        if all(_fits(dtype, value) for value in values):
            return ColumnArray(dtype, _np.array(values, dtype=dtype))
        return values

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

        Typed columns compact in one fancy-index pass over the keep mask;
        list columns rebuild by comprehension.  Indexes are invalidated
        (rebuilt lazily on the next lookup) because every physical position
        after the first tombstone shifts.
        """
        if not self._tombstones:
            return 0
        removed = len(self._tombstones)
        if numpy_enabled() and any(isinstance(b, ColumnArray) for b in self._data.values()):
            keep = _np.ones(self._physical_len(), dtype=bool)
            keep[list(self._tombstones)] = False
            positions = _np.nonzero(keep)[0]
            survivors = positions.tolist()
            for name, backing in self._data.items():
                if isinstance(backing, ColumnArray):
                    self._data[name] = backing.take(positions)
                else:
                    self._data[name] = [backing[i] for i in survivors]
        else:
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
        try:
            self._data[column][position] = value
        except _DemotionRequired:
            self._demote(column)[position] = value
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

        A dict hit when ``column`` is indexed; otherwise a vectorized equality
        scan on typed columns, a linear Python scan on the rest (the fallback
        keeps the method usable on any column).  Tombstoned rows are skipped
        either way — incrementally maintained indexes may still hold their
        positions, so index hits are filtered against the tombstone set.
        """
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        if column in self._indexes:
            hits = self._index(column).get(value, ())
            if not self._tombstones:
                return list(hits)
            return [p for p in hits if p not in self._tombstones]
        backing = self._data[column]
        if isinstance(backing, ColumnArray) and numpy_enabled() and _fits(backing.dtype, value):
            hits = _np.nonzero(backing.array == value)[0].tolist()
            if not self._tombstones:
                return hits
            return [p for p in hits if p not in self._tombstones]
        return [
            i
            for i, v in enumerate(backing)
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

    def column(self, name: str) -> Any:
        """The *physical* backing of one column (the live storage; do not mutate).

        A plain list for untyped/demoted columns, a :class:`ColumnArray` for
        typed ones — both index and iterate as plain Python values, and
        positions from :meth:`lookup` index into them directly.  When the
        table holds tombstones the backing still contains the dead rows'
        values — full iterations should use :meth:`values` (or :meth:`rows`).
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
        """Bulk-build a new table from physical positions (dtype-preserving).

        Typed columns copy via one fancy-index pass instead of per-row
        appends; list columns copy by comprehension and stay lists.
        """
        columns = tuple(columns if columns is not None else self.columns)
        dtypes = {c: self.dtypes[c] for c in columns if c in self.dtypes}
        result = Table(self.name, columns, dtypes=dtypes)
        index = None
        if numpy_enabled() and any(isinstance(self._data[c], ColumnArray) for c in columns):
            index = _np.asarray(list(positions), dtype=_np.int64)
        for column in columns:
            backing = self._data[column]
            if isinstance(backing, ColumnArray) and index is not None:
                result._data[column] = backing.take(index)
            else:
                result._data[column] = [backing[p] for p in positions]
        return result

    def _mask_to_positions(self, mask: Any) -> list[int]:
        """Live physical positions from a boolean mask over physical rows."""
        if self._tombstones:
            mask[list(self._tombstones)] = False
        return _np.nonzero(mask)[0].tolist()

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Return a new table with the rows for which ``predicate`` is true."""
        positions = [i for i in self.live_positions() if predicate(self.row(i))]
        return self._subset(positions)

    def where(self, **equals: Any) -> "Table":
        """Return rows whose columns equal the given values (conjunction).

        When every constrained column is array-backed the conjunction is one
        boolean-mask pass; when one is indexed, only the candidate rows from
        the index are examined; otherwise the full table is scanned.
        """
        for column in equals:
            if column not in self._data:
                raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        if (
            equals
            and numpy_enabled()
            and all(
                isinstance(self._data[c], ColumnArray) and _fits(self._data[c].dtype, v)
                for c, v in equals.items()
            )
        ):
            mask = _np.ones(self._physical_len(), dtype=bool)
            for column, value in equals.items():
                mask &= self._data[column].array == value
            return self._subset(self._mask_to_positions(mask))
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
        backing = self._data[column]
        if (
            isinstance(backing, ColumnArray)
            and numpy_enabled()
            and all(_fits(backing.dtype, v) for v in allowed)
        ):
            if not allowed:
                return self._subset([])
            candidates = _np.array(list(allowed), dtype=backing.dtype)
            mask = _np.isin(backing.array, candidates)
            return self._subset(self._mask_to_positions(mask))
        return self.filter(lambda row: row[column] in allowed)

    def where_between(self, column: str, low: Any, high: Any) -> "Table":
        """Return rows whose ``column`` value lies in the closed interval [low, high]."""
        if column not in self._data:
            raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
        backing = self._data[column]
        if (
            isinstance(backing, ColumnArray)
            and numpy_enabled()
            and _fits(backing.dtype, low)
            and _fits(backing.dtype, high)
        ):
            arr = backing.array
            mask = (arr >= low) & (arr <= high)
            return self._subset(self._mask_to_positions(mask))
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
        live = list(self.live_positions())
        if (
            isinstance(backing, ColumnArray)
            and numpy_enabled()
            and not reverse
            and not (backing.dtype == "float64" and bool(_np.isnan(backing.array).any()))
        ):
            sub = backing.array[_np.asarray(live, dtype=_np.int64)]
            order = _np.argsort(sub, kind="stable").tolist()
            return self._subset([live[i] for i in order])
        order = sorted(live, key=lambda i: backing[i], reverse=reverse)
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
