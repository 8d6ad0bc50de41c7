"""Durability for the live engine (the ``repro.store`` subsystem).

Layers, bottom up:

* :mod:`repro.store.state` — :class:`EngineState`:
  :func:`capture_engine_state` / :func:`restore_engine_state` turn a
  committed live engine into plain data and back.
* :mod:`repro.store.segments` — :class:`SegmentStore`: the on-disk,
  sequence-numbered event log split into JSONL segments, its only on-disk
  format (a tail read skips the checkpointed prefix by each line's trailing
  ``"seq": N}``), with ``compact()``.
* :mod:`repro.store.snapshot` — :class:`SnapshotStore`: versioned checkpoint
  directories (offers + aggregates as positional JSONL rows, + manifest).
* :mod:`repro.store.recovery` — :class:`RecoveryManager`: checkpoint /
  restore / verify over one durability directory, enforcing the recovery
  contract (snapshot + log tail ≡ full replay).
"""

from repro.store.recovery import EVENTS_SUBDIR, RecoveryManager, RestoreReport
from repro.store.segments import SegmentStore
from repro.store.snapshot import CHECKPOINT_VERSION, Checkpoint, SnapshotStore
from repro.store.state import (
    AggregateRecord,
    EngineState,
    capture_engine_state,
    restore_engine_state,
)

__all__ = [
    "EVENTS_SUBDIR",
    "RecoveryManager",
    "RestoreReport",
    "SegmentStore",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "SnapshotStore",
    "AggregateRecord",
    "EngineState",
    "capture_engine_state",
    "restore_engine_state",
]
