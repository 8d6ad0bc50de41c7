"""``repro.readpath`` — versioned snapshots, result cache, concurrent reads.

The read side of the live engines, split off from their mutable state: every
commit publishes an immutable :class:`AggregateSnapshot` (version = the
commit sequence, structure shared with the previous version where the commit
skipped), a :class:`SnapshotManager` retains a bounded, pinnable ring of
them, and a :class:`ResultCache` memoizes ``ResultSet``s keyed on frozen
spec + version with offer-exact invalidation driven by the offers each
commit names (``CommitResult.touched``).  ``FlexSession.query()`` routes
through the latest snapshot by default, making reads lock-free while the
live and async engines commit underneath; :mod:`repro.readpath.checker`
proves it — recorded concurrent histories are verified for atomicity (no
torn commits) and monotonic reads.
"""

from repro.readpath.cache import ResultCache
from repro.readpath.checker import (
    ReadHistory,
    ReadObservation,
    run_concurrent_readers,
    verify_history,
)
from repro.readpath.manager import SnapshotManager
from repro.readpath.publisher import ReadPath
from repro.readpath.snapshot import AggregateSnapshot, SnapshotReader

__all__ = [
    "AggregateSnapshot",
    "ReadHistory",
    "ReadObservation",
    "ReadPath",
    "ResultCache",
    "SnapshotManager",
    "SnapshotReader",
    "run_concurrent_readers",
    "verify_history",
]
