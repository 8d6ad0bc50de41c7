"""Asynchronous commits: decouple event ingestion from dirty-set draining.

:class:`~repro.live.engine.LiveAggregationEngine` commits *synchronously*:
the caller that applied the events also pays for re-aggregating the dirty
cells.  :class:`AsyncCommitEngine` puts a background worker between the two —
``apply`` only enqueues onto a **bounded queue** (blocking when full, so a
fast producer is back-pressured instead of ballooning memory), while the
worker drains the queue into the inner engine and commits whenever the queue
momentarily empties or ``drain_batch`` events have accumulated.

The commit semantics of the inner engine are preserved unchanged: no-op
suppression, stable aggregate ids, one hub publication per logical commit
(callbacks just run on the worker thread).  Determinism is restored on demand
through the two barriers:

* :meth:`flush` — returns once every event enqueued *before the call* has
  been applied and committed; the read API is then exactly the synchronous
  engine's state.
* :meth:`close` — flush, stop the worker, release the thread.

A worker-side failure (e.g. an invalid event) poisons the engine: the queue
keeps draining so producers never deadlock, but the error re-raises on the
next ``apply``/``flush``/``commit`` — the async counterpart of the
synchronous engines raising at the offending ``apply``.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterable

from repro.aggregation.aggregate import AggregationResult
from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer
from repro.live.engine import CommitResult
from repro.live.events import OfferEvent
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import COUNT_BUCKETS

#: Queue sentinel telling the worker to exit its loop.
_STOP = object()

# ----------------------------------------------------------------------
# Observability: queue depth and worker-side commit cadence.  Each inner
# commit is a ``live.async.worker.commit`` span; the worker thread traces
# its commits on its own thread-local span stack.
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_QUEUE_DEPTH_GAUGE = _OBS.gauge(
    "repro.live.async.queue_depth", "events enqueued but not yet applied"
)
_DRAIN_BATCH_EVENTS = _OBS.histogram(
    "repro.live.async.drain_batch.events",
    "events applied between worker commits",
    COUNT_BUCKETS,
)


class AsyncCommitEngine:
    """A background worker draining events into an inner live engine.

    Parameters
    ----------
    inner:
        The :class:`~repro.live.engine.LiveAggregationEngine` that owns the
        state.  Its ``micro_batch_size`` must be 0: the worker owns the
        commit cadence.
    queue_size:
        Bound of the ingest queue; ``apply`` blocks when it is full.
    drain_batch:
        Commit after at most this many applied events even when the queue
        never runs empty (latency bound under sustained load).
    """

    def __init__(
        self,
        inner,
        queue_size: int = 1024,
        drain_batch: int = 64,
    ) -> None:
        if queue_size < 1:
            raise LiveEngineError("queue_size must be >= 1")
        if drain_batch < 1:
            raise LiveEngineError("drain_batch must be >= 1")
        if getattr(inner, "micro_batch_size", 0):
            raise LiveEngineError(
                "the inner engine must not micro-batch; the async worker owns commits"
            )
        self.inner = inner
        self.queue_size = queue_size
        self.drain_batch = drain_batch
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        #: The most recent producer-side trace context (captured by ``apply``
        #: while the ingesting thread had a span open).  The worker attaches
        #: its next commit to it — an explicit handoff, so the asynchronous
        #: commit lands in the trace of the operation that caused it instead
        #: of starting an unexplained root on the worker thread.
        self._ingest_context = None
        #: Serializes every touch of ``inner`` (worker commits vs caller reads).
        self._lock = threading.RLock()
        self._commit_log: list[CommitResult] = []
        self._last_commit: CommitResult | None = None
        self._total_commits = 0
        self._error: BaseException | None = None
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="async-commit-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # The worker loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        applied = 0
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                break
            try:
                # After a failure the queue still drains (task_done below) so
                # a blocked producer wakes up, but nothing further is applied.
                if self._error is None:
                    with self._lock:
                        self.inner.apply(item)
                    applied += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced at the barriers
                self._error = exc
            finally:
                self._queue.task_done()
            _QUEUE_DEPTH_GAUGE.track(self._queue.qsize())
            if applied and (applied >= self.drain_batch or self._queue.empty()):
                _DRAIN_BATCH_EVENTS.observe(applied)
                try:
                    self._commit_if_dirty()
                except BaseException as exc:  # noqa: BLE001
                    self._error = exc
                applied = 0

    def _commit_if_dirty(self) -> CommitResult | None:
        """Commit the inner engine unless it is clean (no-op suppression)."""
        with self._lock:
            if not (self.inner.has_pending_changes or self.inner.pending_events):
                return None
            return self._commit_inner()

    def _commit_inner(self) -> CommitResult:
        """One logged inner commit (callers hold the lock).

        Instrumented as the ``live.async.worker.commit`` span.  A commit
        running on the worker thread attaches to the trace context the
        producer handed off at enqueue time (when there was one); barrier
        commits run on the caller's thread and nest there naturally.
        """
        handoff = None
        if threading.current_thread() is self._worker:
            handoff, self._ingest_context = self._ingest_context, None
        with _TRACER.attach(handoff):
            with _TRACER.span("live.async.worker.commit"):
                result = self.inner.commit()
        self._commit_log.append(result)
        self._last_commit = result
        self._total_commits += 1
        return result

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            raise self._error

    # ------------------------------------------------------------------
    # Ingest (producer side)
    # ------------------------------------------------------------------
    def apply(self, event: OfferEvent) -> None:
        """Enqueue one event; blocks when the bounded queue is full.

        Always returns ``None`` — commits happen on the worker.  Call
        :meth:`flush` (or :meth:`commit`) for a barrier.
        """
        if self._closed:
            raise LiveEngineError("the async-commit engine is closed")
        self._raise_pending_error()
        if _OBS.enabled:
            # Hand the producer's open span (if any) to the worker so the
            # resulting asynchronous commit joins this operation's trace.
            # Last-writer-wins is deliberate: the worker's next commit covers
            # every event applied since its last one, and the newest enqueue
            # is that batch's most recent cause.
            context = _TRACER.context()
            if context is not None:
                self._ingest_context = context
        self._queue.put(event)
        _QUEUE_DEPTH_GAUGE.track(self._queue.qsize())
        return None

    def apply_many(self, events: Iterable[OfferEvent]) -> list[CommitResult]:
        """Enqueue many events; returns ``[]`` (commits happen on the worker)."""
        for event in events:
            self.apply(event)
        return []

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Wait until every previously enqueued event is applied and committed."""
        self._queue.join()
        self._commit_if_dirty()
        self._raise_pending_error()

    def commit(self) -> CommitResult:
        """Synchronous barrier commit: drain, commit, return the newest result.

        When the worker already committed everything (it drains eagerly), the
        most recent logical commit is returned instead of forcing an empty
        one — subscribers never see a phantom commit from the barrier.  Only
        a barrier on an engine that never committed anything produces (and
        logs) one empty commit, matching the synchronous engines' behaviour
        of allowing clean commits.
        """
        self._queue.join()
        self._raise_pending_error()
        with self._lock:
            result = self._commit_if_dirty()
            if result is None:
                result = self._last_commit
            if result is None:
                result = self._commit_inner()
            return result

    def close(self) -> None:
        """Drain the queue, stop the worker and commit the remainder (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._worker.join()
        self._commit_if_dirty()
        self._raise_pending_error()

    def drain_commits(self) -> list[CommitResult]:
        """Return (and clear) the log of commits since the last drain.

        Draining only empties the log — :attr:`commit_count` and the
        :meth:`commit` barrier's most-recent-result fallback keep counting.
        """
        with self._lock:
            log = list(self._commit_log)
            self._commit_log.clear()
            return log

    # ------------------------------------------------------------------
    # Introspection and reads (delegate under the lock)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self.inner)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def parameters(self):
        return self.inner.parameters

    @property
    def id_offset(self) -> int:
        return self.inner.id_offset

    @property
    def hub(self):
        return self.inner.hub

    @property
    def micro_batch_size(self) -> int:
        """Always 0 — the worker owns the commit cadence (see ``drain_batch``)."""
        return 0

    @property
    def queued_events(self) -> int:
        """Events enqueued but not yet applied (approximate, racy by nature)."""
        return self._queue.qsize()

    @property
    def pending_events(self) -> int:
        """Queued plus applied-but-uncommitted events (approximate)."""
        with self._lock:
            return self._queue.qsize() + self.inner.pending_events

    @property
    def dirty_cell_count(self) -> int:
        with self._lock:
            return self.inner.dirty_cell_count

    @property
    def dirty_chunk_count(self) -> int:
        """Chunks the inner engine's next commit would re-aggregate (racy)."""
        with self._lock:
            return self.inner.dirty_chunk_count

    @property
    def has_pending_changes(self) -> bool:
        with self._lock:
            return self._queue.qsize() > 0 or self.inner.has_pending_changes

    @property
    def cell_count(self) -> int:
        with self._lock:
            return self.inner.cell_count

    @property
    def commit_count(self) -> int:
        """Total commits this engine performed (unaffected by drains)."""
        with self._lock:
            return self._total_commits

    def offers(self) -> list[FlexOffer]:
        with self._lock:
            return self.inner.offers()

    def offer(self, offer_id: int) -> FlexOffer:
        with self._lock:
            return self.inner.offer(offer_id)

    def cell_of(self, offer_id: int):
        with self._lock:
            return self.inner.cell_of(offer_id)

    def aggregated_offers(self) -> list[FlexOffer]:
        with self._lock:
            return self.inner.aggregated_offers()

    def constituents_of(self, aggregate_id: int) -> list[FlexOffer]:
        with self._lock:
            return self.inner.constituents_of(aggregate_id)

    def result(self) -> AggregationResult:
        with self._lock:
            return self.inner.result()

    def batch_equivalent(self) -> AggregationResult:
        with self._lock:
            return self.inner.batch_equivalent()
