"""Versioned on-disk checkpoints of a live-family engine.

A checkpoint directory is written by :class:`SnapshotStore` and contains:

* ``manifest.json`` — format version, engine family, aggregation parameters,
  allocator state, the event-log offset the snapshot is consistent with,
  (when known) the scenario configuration to regenerate the session from,
  and which *data buffer* holds the current snapshot;
* two data buffers, ``snapshot-a/`` and ``snapshot-b/``, each holding
  ``offers.jsonl`` (the surviving offers, one JSON document per line) and
  ``aggregates.jsonl`` (the committed aggregate outputs with their grid
  cell, chunk index and stable id — see
  :class:`~repro.store.state.AggregateRecord`).  That is the whole state:
  the star schema is derived from it on demand after a restore.

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
from pathlib import Path
from typing import Any

from repro.aggregation.parameters import AggregationParameters
from repro.errors import StoreError
from repro.flexoffer.serialization import flex_offer_from_dict, flex_offer_to_dict
from repro.live.events import read_jsonl, write_jsonl
from repro.store.state import AggregateRecord, EngineState

#: Format version of the checkpoint directory layout.
CHECKPOINT_VERSION = 1

_MANIFEST = "manifest.json"
_OFFERS = "offers.jsonl"
_AGGREGATES = "aggregates.jsonl"
#: The two data buffers saves alternate between (manifest names the live one).
_BUFFERS = ("snapshot-a", "snapshot-b")

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
        write_jsonl(
            data_dir / _OFFERS,
            (flex_offer_to_dict(offer) for offer in state.offers),
        )
        write_jsonl(
            data_dir / _AGGREGATES,
            (record.to_dict() for record in state.aggregates),
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
        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise StoreError(
                f"checkpoint format version {version!r} is not supported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        data_dir = self.directory / str(manifest.get("data", _BUFFERS[0]))
        try:
            parameters = AggregationParameters(**manifest["parameters"])
            offers = [
                flex_offer_from_dict(payload)
                for payload in read_jsonl(data_dir / _OFFERS)
            ]
            aggregates = [
                AggregateRecord.from_dict(payload)
                for payload in read_jsonl(data_dir / _AGGREGATES)
            ]
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
