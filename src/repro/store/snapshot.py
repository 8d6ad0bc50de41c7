"""Versioned on-disk checkpoints of a live-family engine.

A checkpoint directory is written by :class:`SnapshotStore` and contains:

* ``manifest.json`` — format version, engine family, aggregation parameters,
  allocator state, the event-log offset the snapshot is consistent with,
  (when known) the scenario configuration to regenerate the session from,
  and which *data buffer* holds the current snapshot;
* two data buffers, ``snapshot-a/`` and ``snapshot-b/``, each holding
  ``offers.jsonl`` (the surviving offers) and ``aggregates.jsonl`` (the
  committed aggregate outputs with their grid cell, chunk index and stable
  id — see :class:`~repro.store.state.AggregateRecord`).  That is the whole
  state: the star schema is derived from it on demand after a restore.

Both data files are JSON Lines.  Version 2 (written since) stores each offer
as a *positional row*, one JSON array in the field order of
:data:`~repro.flexoffer.serialization.ROW_FIELDS`, written with compact
separators; each aggregate line is ``[[est, tft, direction], chunk,
offer_row]``.  :meth:`SnapshotStore.load` decodes the rows by position
straight into the model, parsing each distinct timestamp once per load and
keeping one string per distinct dimension text.
Version 1 stored one dictionary per offer (:func:`flex_offer_to_dict`) and
``{"cell", "chunk", "offer"}`` per aggregate; such directories still load,
through the dictionary decoder.  A malformed line of either file, in either
version, raises :class:`~repro.errors.StoreError` naming the file and line.

Checkpoints written while the live engines mirrored a warehouse also hold a
``warehouse/`` directory and the ``has_warehouse`` / ``warehouse_format``
manifest keys; :meth:`SnapshotStore.load` ignores all three.

Saves are double-buffered: a new checkpoint is written into the buffer the
current manifest does *not* reference, and the manifest — the commit point —
is swapped in last via an atomic rename.  A crash at any instant therefore
leaves either the new checkpoint (manifest landed) or the previous one
(manifest untouched, its buffer never written to); a directory with data
files but no manifest is refused by :meth:`SnapshotStore.load` instead of
being restored torn.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.aggregation.parameters import AggregationParameters
from repro.errors import ReproError, StoreError
from repro.flexoffer.serialization import (
    TextCache,
    TimeCache,
    flex_offer_from_dict,
    flex_offer_from_row,
    flex_offer_to_row,
)
from repro.store.state import AggregateRecord, EngineState

#: Format version of the checkpoint directory layout (see the module docstring).
CHECKPOINT_VERSION = 2
#: Older versions :meth:`SnapshotStore.load` still reads.
_READABLE_VERSIONS = (1, CHECKPOINT_VERSION)

_MANIFEST = "manifest.json"
_OFFERS = "offers.jsonl"
_AGGREGATES = "aggregates.jsonl"
#: The two data buffers saves alternate between (manifest names the live one).
_BUFFERS = ("snapshot-a", "snapshot-b")

#: What decoding one malformed line raises: the parser's and the coercions'
#: ValueError family (UnicodeDecodeError included), a wrong shape's
#: TypeError, LookupError or AttributeError, an out-of-range number's
#: OverflowError, and the model's and codecs' ValidationError.
_DECODE_ERRORS = (ValueError, TypeError, LookupError, AttributeError, OverflowError, ReproError)

_encode_row = json.JSONEncoder(separators=(",", ":")).encode

#: Engine families older checkpoints may name that no longer exist, mapped to
#: the family that restores them.  The captured state holds no engine
#: topology, so the mapping only picks which backend a restore rebuilds.
_RETIRED_ENGINES = {"sharded": "live"}


@dataclass
class Checkpoint:
    """One loaded checkpoint: engine state and manifest."""

    state: EngineState
    manifest: dict[str, Any]

    @property
    def log_offset(self) -> int:
        """Events the snapshot already contains; replays resume here."""
        return int(self.manifest["log_offset"])

    @property
    def engine(self) -> str:
        """The engine family that restores the snapshot (normally its writer)."""
        return self.state.engine

    def scenario_config(self):
        """The recorded scenario configuration (``None`` when not recorded)."""
        payload = self.manifest.get("scenario")
        if payload is None:
            return None
        from repro.datagen.scenarios import ScenarioConfig

        return ScenarioConfig(**payload)


class SnapshotStore:
    """Reads and writes checkpoint directories."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def exists(self) -> bool:
        """Whether the directory holds a committed (manifest-bearing) checkpoint."""
        return (self.directory / _MANIFEST).is_file()

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def _live_buffer(self) -> str | None:
        """The buffer the current manifest references (``None`` when absent)."""
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.is_file():
            return None
        try:
            return json.loads(manifest_path.read_text(encoding="utf-8")).get("data")
        except ValueError:
            return None

    def save(
        self,
        state: EngineState,
        log_offset: int,
        scenario_config: Any = None,
    ) -> Path:
        """Write one checkpoint; returns the manifest path (the commit point).

        The data lands in the buffer the current manifest does *not*
        reference, so the previous checkpoint stays committed and loadable
        until the new manifest replaces the old one atomically.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / _MANIFEST
        buffer = _BUFFERS[1] if self._live_buffer() == _BUFFERS[0] else _BUFFERS[0]
        data_dir = self.directory / buffer
        data_dir.mkdir(parents=True, exist_ok=True)
        _write_rows(data_dir / _OFFERS, (flex_offer_to_row(offer) for offer in state.offers))
        _write_rows(
            data_dir / _AGGREGATES,
            (
                [list(record.cell), record.chunk, flex_offer_to_row(record.offer)]
                for record in state.aggregates
            ),
        )
        manifest = {
            "version": CHECKPOINT_VERSION,
            "data": buffer,
            "engine": state.engine,
            "parameters": asdict(state.parameters),
            "id_offset": state.id_offset,
            "next_id": state.next_id,
            "reserved_ids": list(state.reserved_ids),
            "commit_count": state.commit_count,
            "log_offset": int(log_offset),
            "offer_count": len(state.offers),
            "aggregate_count": len(state.aggregates),
            "scenario": asdict(scenario_config) if scenario_config is not None else None,
        }
        staged = manifest_path.with_suffix(".json.tmp")
        staged.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(staged, manifest_path)
        return manifest_path

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self) -> Checkpoint:
        """Read the checkpoint back; raises :class:`StoreError` when absent/torn."""
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.is_file():
            raise StoreError(
                f"{self.directory} holds no committed checkpoint (missing {_MANIFEST})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise StoreError(f"malformed checkpoint manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreError(f"malformed checkpoint manifest: a JSON {type(manifest).__name__}")
        version = manifest.get("version")
        if version not in _READABLE_VERSIONS:
            raise StoreError(
                f"checkpoint format version {version!r} is not supported "
                f"(this build reads versions {', '.join(map(str, _READABLE_VERSIONS))})"
            )
        data_dir = self.directory / str(manifest.get("data", _BUFFERS[0]))
        if version == 1:
            decode_offer, decode_aggregate = flex_offer_from_dict, AggregateRecord.from_dict
        else:
            times, texts = TimeCache(), TextCache()
            decode_offer = partial(flex_offer_from_row, times=times, texts=texts)
            decode_aggregate = partial(_aggregate_from_row, times=times, texts=texts)
        try:
            parameters = AggregationParameters(**manifest["parameters"])
            offers = list(_read_lines(data_dir / _OFFERS, decode_offer))
            aggregates = list(_read_lines(data_dir / _AGGREGATES, decode_aggregate))
            engine = str(manifest["engine"])
            state = EngineState(
                engine=_RETIRED_ENGINES.get(engine, engine),
                parameters=parameters,
                id_offset=int(manifest["id_offset"]),
                offers=offers,
                aggregates=aggregates,
                next_id=int(manifest["next_id"]),
                reserved_ids=tuple(int(r) for r in manifest.get("reserved_ids", ())),
                commit_count=int(manifest.get("commit_count", 0)),
            )
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise StoreError(f"malformed checkpoint in {self.directory}: {exc}") from exc
        return Checkpoint(state=state, manifest=manifest)


def _aggregate_from_row(row: list[Any], times: TimeCache, texts: TextCache) -> AggregateRecord:
    """Rebuild an :class:`AggregateRecord` from ``[[est, tft, direction], chunk, offer_row]``."""
    (est, tft, direction), chunk, offer = row
    return AggregateRecord(
        cell=(int(est), int(tft), str(direction)),
        chunk=int(chunk),
        offer=flex_offer_from_row(offer, times, texts),
    )


def _write_rows(path: Path, rows: Iterable[list[Any]]) -> None:
    """Write one compact JSON array per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(_encode_row(row))
            handle.write("\n")


def _read_lines(path: Path, decode: Callable[[Any], Any]) -> Iterator[Any]:
    """Decode each line of a checkpoint file; a malformed one raises StoreError."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if line.isspace():
                continue
            try:
                record = decode(json.loads(line.decode("utf-8")))
            except _DECODE_ERRORS as exc:
                raise StoreError(f"malformed checkpoint line {path}:{number}: {exc}") from exc
            yield record
