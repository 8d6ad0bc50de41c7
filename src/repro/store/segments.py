"""Segmented event-log persistence with compaction.

The in-memory :class:`~repro.live.events.EventLog` holds the whole stream;
for a long-running service the log must live on disk and must not grow
forever.  :class:`SegmentStore` persists events as JSON-Lines *segments*
(``events-00000000.jsonl``, ``events-00000512.jsonl``, ...; file named by the
first sequence number it was opened for) of at most ``segment_size`` records
each.  Every record carries its global sequence number, so a checkpoint can
say "I contain everything before sequence N" and a restore replays exactly
the tail ``[N, ...)``.

:meth:`SegmentStore.compact` rewrites the *closed* segments (every file but
the newest) keeping only the events that still matter: events of surviving
offers, events at or past the protected ``before`` offset (the latest
checkpoint's), and events of any offer the unprotected suffix still mentions.
Sequence numbers are preserved, so tails remain addressable after any number
of compactions, and a cold replay of the compacted log ends in the same state
as a cold replay of the full one.

The JSONL lines are the log's only on-disk format, one file per segment.
Records are written with sorted keys, so every line ends in its
``"seq": N}``: opening the store counts its active segment by that suffix,
and :meth:`SegmentStore.tail` skips the already-checkpointed prefix of its
first overlapping segment by reading it; each decodes only the lines it
must.  A malformed line raises :class:`~repro.errors.StoreError` where it
is decoded, so a corrupt body behind an intact suffix raises at its first
read, not at open.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import LiveEngineError, StoreError
from repro.live.events import OfferEvent, event_from_dict, event_to_dict, write_jsonl
from repro.obs import get_registry
from repro.obs.metrics import COUNT_BUCKETS

# ----------------------------------------------------------------------
# Observability: the restore-time tail replay.  The tail histograms cover
# the whole stream-out, however far the consumer drained it.
# ----------------------------------------------------------------------
_OBS = get_registry()
_TAIL_SECONDS = _OBS.histogram(
    "repro.store.segment.tail.seconds", "segment-log tail replay latency (drain to exhaustion)"
)
_TAIL_RECORDS = _OBS.histogram(
    "repro.store.segment.tail.records", "events streamed per tail replay", COUNT_BUCKETS
)

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".jsonl"
#: The last key of every record line (keys are sorted: "event" < "seq").
_SEQ_KEY = '"seq": '


def _trailing_sequence(line: str) -> int | None:
    """The sequence a record line ends in (``..., "seq": N}``), else None.

    Inside a JSON string every ``"`` is escaped, so the last ``"seq": `` of
    a line written by :class:`SegmentStore` is its record's own key.
    """
    start = line.rfind(_SEQ_KEY)
    digits = line[start + len(_SEQ_KEY) : -1]
    if start < 0 or not line.endswith("}") or not (digits.isascii() and digits.isdigit()):
        return None
    return int(digits)


def _subject_of(event_payload: dict[str, Any]) -> int:
    """The subject offer id of one serialized event (no object rebuild)."""
    if "offer_id" in event_payload:
        return int(event_payload["offer_id"])
    try:
        return int(event_payload["offer"]["id"])
    except (KeyError, TypeError) as exc:
        raise StoreError(f"malformed event record: {event_payload!r}") from exc


class SegmentStore:
    """An on-disk, sequence-numbered offer-event log split into segments.

    Events are appended in the order the engine consumes them, so the
    sequence number doubles as the replay offset: a checkpoint taken after
    the engine ingested ``n`` events records ``log_offset=n`` and a restore
    replays :meth:`tail`\\ ``(n)``.
    """

    def __init__(self, directory: str | Path, segment_size: int = 512) -> None:
        if segment_size < 1:
            raise StoreError("segment_size must be >= 1")
        self.directory = Path(directory)
        self.segment_size = segment_size
        self._active: Path | None = None
        self._active_count = 0
        self._next_sequence = 0
        segments = self.segments()
        if segments:
            self._active = segments[-1]
            self._repair_torn_tail(self._active)
            sequences = self._sequences(self._active)
            self._active_count = len(sequences)
            # An empty active segment resumes at the sequence in its name.
            last = max(sequences, default=self._first_sequence(self._active) - 1)
            self._next_sequence = last + 1

    def _repair_torn_tail(self, path: Path) -> None:
        """Drop the unterminated bytes a crash mid-append left at the end.

        Only the *final* line of the *active* segment can legitimately be
        torn (appends go nowhere else; compaction renames atomically).  A
        record is written once its newline is, so bytes after the last
        newline belong to an append that never completed, even when they
        parse as a whole record.  Truncating them atomically lets the log
        reopen, reissue their sequence numbers and append on a fresh line.
        A malformed line anywhere else is real corruption and still raises
        on read.
        """
        raw = path.read_bytes()
        terminated = raw.rfind(b"\n") + 1
        if terminated == len(raw):
            return
        staged = path.with_suffix(".jsonl.tmp")
        staged.write_bytes(raw[:terminated])
        os.replace(staged, path)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        """The segment files, oldest first (the last one is the active one).

        Ordered by the sequence number in the file name, not lexically —
        zero padding runs out past 8 digits, the log must not.
        """
        if not self.directory.is_dir():
            return []
        return sorted(
            (
                path
                for path in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
                if path.is_file()
            ),
            key=self._first_sequence,
        )

    @staticmethod
    def _first_sequence(path: Path) -> int:
        text = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
        try:
            return int(text)
        except ValueError as exc:
            raise StoreError(f"malformed segment file name {path.name!r}") from exc

    @staticmethod
    def _records(path: Path, from_sequence: int = 0) -> Iterator[tuple[int, dict[str, Any]]]:
        """Decode one segment's ``(sequence, event payload)`` records.

        Only records with sequence >= ``from_sequence`` are decoded and
        yielded: until the first of them, a line whose trailing
        ``"seq": N}`` reads below the cut is skipped undecoded (a segment's
        sequences ascend, so none follows it).  A malformed line that is
        decoded raises :class:`StoreError`.
        """
        skipping = from_sequence > 0
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    if skipping:
                        sequence = _trailing_sequence(line)
                        if sequence is not None and sequence < from_sequence:
                            continue
                    record = json.loads(line)
                    sequence, payload = int(record["seq"]), record["event"]
                    if sequence >= from_sequence:
                        skipping = False
                        yield sequence, payload
        except (ValueError, KeyError, TypeError) as exc:
            # ValueError covers bytes that are not UTF-8 (records are ASCII).
            raise StoreError(f"malformed segment record in {path}: {exc}") from exc

    @staticmethod
    def _sequences(path: Path) -> list[int]:
        """Each record's sequence in one segment, read from its trailing ``"seq": N}``.

        Only a line without a valid suffix is decoded, so opening the store
        decodes no intact record; a corrupt body behind an intact suffix
        raises :class:`StoreError` at its first read instead.
        """
        sequences = []
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        sequence = _trailing_sequence(line)
                        if sequence is None:
                            sequence = int(json.loads(line)["seq"])
                        sequences.append(sequence)
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"malformed segment record in {path}: {exc}") from exc
        return sequences

    @property
    def next_sequence(self) -> int:
        """The sequence number the next appended event will receive."""
        return self._next_sequence

    @property
    def stored_events(self) -> int:
        """Records currently on disk (compaction makes this < next_sequence)."""
        return sum(1 for _ in self.records())

    def records(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Every stored ``(sequence, event payload)`` pair, oldest first."""
        for path in self.segments():
            yield from self._records(path)

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(self, event: OfferEvent) -> int:
        """Persist one event; returns its sequence number."""
        sequence = self._next_sequence
        self.extend([event])
        return sequence

    def extend(self, events: Iterable[OfferEvent]) -> int:
        """Persist many events (one file open per touched segment); returns the count.

        An event that cannot be serialized raises :class:`StoreError` after
        the records before it are written, so ``next_sequence`` always
        counts exactly the records on disk.
        """
        # Created on first write, so pure read paths (a restore from a
        # mistyped directory, an existence probe) never leave dirs behind.
        self.directory.mkdir(parents=True, exist_ok=True)
        appended = 0
        batch: list[str] = []
        try:
            for event in events:
                if self._active is None or self._active_count >= self.segment_size:
                    if batch:
                        self._append_segment(self._active, batch)
                        batch = []
                    self._active = self.directory / (
                        f"{_SEGMENT_PREFIX}{self._next_sequence:08d}{_SEGMENT_SUFFIX}"
                    )
                    self._active_count = 0
                try:
                    record = {"seq": self._next_sequence, "event": event_to_dict(event)}
                    batch.append(json.dumps(record, sort_keys=True))
                except (LiveEngineError, AttributeError, TypeError, ValueError) as exc:
                    raise StoreError(
                        f"cannot log event {self._next_sequence} ({type(event).__name__}): {exc}"
                    ) from exc
                self._next_sequence += 1
                self._active_count += 1
                appended += 1
        finally:
            if batch:
                self._append_segment(self._active, batch)
        return appended

    @staticmethod
    def _append_segment(path: Path, lines: list[str]) -> None:
        """Append serialized records to one segment, one per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def tail(self, from_sequence: int = 0) -> Iterator[OfferEvent]:
        """Stream the stored events with sequence >= ``from_sequence``.

        Segments wholly before the cut are skipped without being read, and
        within the first overlapping segment the already-checkpointed prefix
        is skipped by each line's trailing sequence — a restore decodes only
        the records it replays.
        """
        if not _OBS.enabled:
            return self._tail(from_sequence)
        return self._timed_tail(from_sequence)

    def _timed_tail(self, from_sequence: int) -> Iterator[OfferEvent]:
        """The instrumented tail: latency and record count per replay.

        Deliberately **no span** in here: a generator can be dropped half
        consumed, and a span opened inside it would then close on whatever
        thread runs the finalizer — corrupting that thread's span stack.
        Histograms are closed over in a ``finally`` instead, which is safe
        at any point of consumption (including never).
        """
        started = time.perf_counter()
        records = 0
        try:
            for event in self._tail(from_sequence):
                records += 1
                yield event
        finally:
            _TAIL_SECONDS.observe(time.perf_counter() - started)
            _TAIL_RECORDS.observe(records)

    def _tail(self, from_sequence: int = 0) -> Iterator[OfferEvent]:
        paths = self.segments()
        for position, path in enumerate(paths):
            following = position + 1
            if following < len(paths) and self._first_sequence(paths[following]) <= from_sequence:
                continue
            for _, payload in self._records(path, from_sequence):
                yield event_from_dict(payload)

    def events(self) -> Iterator[OfferEvent]:
        """Stream every stored event, oldest first."""
        return self.tail(0)

    def surviving_subjects(self) -> set[int]:
        """Offer ids alive at the end of the stored log.

        Adds and updates make a subject alive, withdrawals kill it; state
        changes leave liveness untouched.  Computed from the serialized
        records directly — no offers are rebuilt.
        """
        alive: set[int] = set()
        for _, payload in self.records():
            subject = _subject_of(payload)
            if payload.get("type") == "withdrawn":
                alive.discard(subject)
            elif payload.get("type") in ("added", "updated"):
                alive.add(subject)
        return alive

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, surviving_ids: Iterable[int], before: int | None = None) -> int:
        """Rewrite closed segments dropping events that no longer matter.

        A record is dropped when its sequence precedes ``before`` (default:
        everything) *and* its subject is neither in ``surviving_ids`` nor
        mentioned at/after ``before`` nor in the active segment.  The two
        extra keep-rules make the result self-consistent: a cold replay never
        sees an event whose offer's earlier lifecycle was dropped, and a
        restore-plus-tail never loses an event past its checkpoint.  Returns
        the number of dropped records; closed segments that end up empty are
        deleted.
        """
        segment_paths = self.segments()
        if len(segment_paths) <= 1:
            return 0
        closed, active = segment_paths[:-1], segment_paths[-1]
        if before is None:
            before = self._next_sequence
        keep = set(surviving_ids)
        for _, payload in self._records(active):
            keep.add(_subject_of(payload))
        for path in closed:
            for _, payload in self._records(path, before):
                keep.add(_subject_of(payload))
        dropped = 0
        for path in closed:
            kept: list[dict[str, Any]] = []
            total = 0
            for sequence, payload in self._records(path):
                total += 1
                if sequence >= before or _subject_of(payload) in keep:
                    kept.append({"seq": sequence, "event": payload})
            if len(kept) == total:
                continue
            dropped += total - len(kept)
            if kept:
                # Rewrite via a temp file + atomic rename: a crash mid-compaction
                # must never truncate the only copy of a segment.
                staged = path.with_suffix(".jsonl.tmp")
                write_jsonl(staged, kept)
                os.replace(staged, path)
            else:
                path.unlink()
        return dropped
