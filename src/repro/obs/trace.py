"""Distributed-style tracing: nested timing spans with ids and sampling.

A span is one timed region of one thread — ``with tracer.span("live.commit"):``
— and spans nest: a span opened while another is running becomes its child.
Every span carries a process-unique ``span_id``, its parent's ``parent_id``
and the ``trace_id`` of the logical operation it belongs to (the root span
mints the trace id), so the finished-span log reconstructs the call tree of a
commit (drain → kernel → publish) *by ids*, not by names — two sibling
spans of the same stage stay distinguishable.

**A span is its stage's only clock.**  It reads ``perf_counter`` once on
entry and once on exit, and every call observes the stage histogram
``repro.<name>.seconds`` in the tracer's registry (created on first use).
Instrumented code therefore times a stage by opening its span and nothing
else; the ``flexviz stats`` table and the bench stage shares read those
histograms.

Each thread keeps its own span stack, so a span opened on one thread never
becomes the child of another thread's span; finished spans land in one
bounded ring buffer shared by the process.

Always-on production tracing goes through a head-based :class:`Sampler`: the
decision is taken once, at the root span, per root-stage name (trace 1-in-N
commits but every checkpoint), and children inherit it.  Sampling decides
*only* whether a span's :class:`SpanRecord` is kept: a sampled-out span still
times its stage and observes its histogram, so stage histograms (and every
counter) stay exact.  The one instrument sampling thins is the aggregation
kernel's probe, which runs below every stage boundary and asks
:meth:`Tracer.muted` before it records.

The fast path mirrors the metrics registry: while the registry is disabled
:meth:`Tracer.span` hands back a shared per-thread no-op context manager —
one attribute check, one thread-local load, no clock read, no observation.
The no-op still counts its nesting depth, which is what makes enable/disable
flips safe for in-flight stacks: a child opened after ``obs.enable()`` inside
an operation whose root was a no-op times its stage but is not recorded as an
orphan root of a trace that never existed.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry

#: How many finished spans the ring buffer retains (oldest evicted first).
SPAN_BUFFER = 4096

#: One process-global id source for span and trace ids.  ``next()`` on an
#: ``itertools.count`` is atomic under the GIL — no lock on the hot path —
#: and a shared sequence keeps every id unique across both kinds.
_IDS = itertools.count(1)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as plain data."""

    #: Dotted stage name (``live.commit.drain``).
    name: str
    #: ``perf_counter`` timestamp the span opened at (process-relative).
    started: float
    #: Wall-clock seconds the span covered.
    duration: float
    #: Nesting depth within its trace (0 = trace root).
    depth: int
    #: Name of the enclosing span (``None`` for roots) — kept for backward
    #: compatibility with pre-id exports; :attr:`parent_id` is authoritative.
    parent: str | None
    #: Name of the thread the span ran on.
    thread: str
    #: Process-unique id of this span (0 only in records from pre-id dumps).
    span_id: int = 0
    #: Id of the enclosing span — ``None`` for trace roots.  Unlike
    #: :attr:`parent`, unambiguous between same-named siblings.
    parent_id: int | None = None
    #: Id of the logical operation this span belongs to, minted at the root.
    trace_id: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "started": self.started,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "thread": self.thread,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpanRecord":
        # The id fields default when absent so dumps written before spans
        # carried ids still parse (their trees fall back to name linkage).
        parent_id = payload.get("parent_id")
        return cls(
            name=str(payload["name"]),
            started=float(payload["started"]),
            duration=float(payload["duration"]),
            depth=int(payload["depth"]),
            parent=payload["parent"],
            thread=str(payload["thread"]),
            span_id=int(payload.get("span_id", 0)),
            parent_id=None if parent_id is None else int(parent_id),
            trace_id=int(payload.get("trace_id", 0)),
        )


class Sampler:
    """Head-based sampling rates per root stage.

    ``rate`` semantics: ``N`` keeps 1 in N traces rooted at that stage
    (deterministic — the first occurrence always records, then every Nth),
    ``1`` keeps everything, ``0`` keeps nothing.  ``rates`` overrides the
    default per root-stage name, so production can trace 1-in-N commits while
    keeping every checkpoint::

        Sampler(default_rate=16, rates={"store.checkpoint": 1, "store.restore": 1})

    Only *roots* consult the sampler; children inherit the root's
    decision.  Counters are per stage and
    process-global, reset by :meth:`reset` (``obs.reset()`` drops the whole
    sampler).
    """

    def __init__(self, default_rate: int = 1, rates: dict[str, int] | None = None) -> None:
        for label, rate in {"default_rate": default_rate, **(rates or {})}.items():
            if not isinstance(rate, int) or rate < 0:
                raise ObservabilityError(
                    f"sampling rate must be an integer >= 0, got {label}={rate!r}"
                )
        self.default_rate = default_rate
        self.rates = dict(rates or {})
        self._counters: dict[str, Any] = {}

    def rate_for(self, name: str) -> int:
        """The keep-1-in-N rate applied to traces rooted at ``name``."""
        return self.rates.get(name, self.default_rate)

    def sample(self, name: str) -> bool:
        """Decide whether the next trace rooted at ``name`` records."""
        rate = self.rate_for(name)
        if rate == 1:
            return True
        if rate <= 0:
            return False
        counter = self._counters.get(name)
        if counter is None:
            # setdefault keeps concurrent first calls on one shared counter.
            counter = self._counters.setdefault(name, itertools.count())
        return next(counter) % rate == 0

    def reset(self) -> None:
        """Restart every per-stage counter (the next trace of each records)."""
        self._counters.clear()


class _MutedSpan:
    """The per-thread no-op span: times nothing but counts its nesting.

    Handed out while the registry is disabled.  The depth counter is what
    keeps transitions safe: as long as any muted frame is open on a thread,
    newly opened spans stay unrecorded — flipping ``obs.enable()``
    mid-operation cannot graft orphan children onto a parent that never
    recorded.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "_ThreadState") -> None:
        self._state = state

    def __enter__(self) -> "_MutedSpan":
        self._state.muted += 1
        return self

    def __exit__(self, *exc_info) -> None:
        if self._state.muted:
            self._state.muted -= 1
        return None


class _ThreadState:
    """One thread's tracing state: its span stack and mute depth."""

    __slots__ = ("stack", "muted", "mute")

    def __init__(self) -> None:
        self.stack: list[Any] = []
        self.muted = 0
        #: The shared muted span of this thread (spans nest LIFO per thread,
        #: so one reentrant instance serves every muted frame).
        self.mute = _MutedSpan(self)


class _UnrecordedSpan:
    """A span of a sampled-out (or otherwise muted) operation.

    It times its stage and observes the stage histogram like any span, but
    keeps no record.  It counts the thread's mute depth like the no-op, so
    everything nested in it stays unrecorded too.
    """

    __slots__ = ("_state", "_histogram", "_started")

    def __init__(self, state: "_ThreadState", histogram: Histogram) -> None:
        self._state = state
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_UnrecordedSpan":
        self._state.muted += 1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)
        if self._state.muted:
            self._state.muted -= 1
        return None


class _Span:
    """One live, recorded span; observes its histogram and logs itself on exit.

    Exceptions propagate untouched — the span still closes (its duration then
    covers the raising region), so a failing commit leaves a trace instead of
    a hole.
    """

    __slots__ = (
        "_tracer",
        "_histogram",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "parent_name",
        "depth",
        "_started",
    )

    def __init__(
        self,
        tracer: "Tracer",
        histogram: Histogram,
        name: str,
        trace_id: int,
        parent_id: int | None,
        parent_name: str | None,
        depth: int,
    ) -> None:
        self._tracer = tracer
        self._histogram = histogram
        self.name = name
        self.trace_id = trace_id
        self.span_id = next(_IDS)
        self.parent_id = parent_id
        self.parent_name = parent_name
        self.depth = depth
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._push(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._started
        self._histogram.observe(duration)
        self._tracer._pop(self, duration)
        return None


class Tracer:
    """Hands out spans and keeps the bounded finished-span log."""

    def __init__(self, registry: MetricsRegistry, buffer: int = SPAN_BUFFER) -> None:
        self._registry = registry
        self._local = threading.local()
        self._sampler: Sampler | None = None
        #: Stage name → its ``repro.<name>.seconds`` histogram.
        self._histograms: dict[str, Histogram] = {}
        # deque appends are atomic under the GIL; maxlen gives the ring.
        self._finished: deque[SpanRecord] = deque(maxlen=buffer)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def sampler(self) -> Sampler | None:
        """The installed head-based sampler (``None`` = record every trace)."""
        return self._sampler

    def set_sampler(self, sampler: Sampler | None) -> None:
        """Install (or, with ``None``, remove) the head-based sampler."""
        if sampler is not None and not isinstance(sampler, Sampler):
            raise ObservabilityError(
                f"expected a Sampler or None, got {type(sampler).__name__}"
            )
        self._sampler = sampler

    # ------------------------------------------------------------------
    # The span factory (the hot entry point)
    # ------------------------------------------------------------------
    def span(self, name: str) -> "_Span | _UnrecordedSpan | _MutedSpan":
        """A context manager timing stage ``name`` into ``repro.<name>.seconds``.

        Recorded as a :class:`SpanRecord` unless the trace is sampled out;
        the shared no-op while the registry is disabled.
        """
        state = self._state()
        if not self._registry.enabled:
            return state.mute
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = self._registry.histogram(
                f"repro.{name}.seconds", f"seconds spent in the {name} stage"
            )
        if state.muted:
            return _UnrecordedSpan(state, histogram)
        stack = state.stack
        if stack:
            parent = stack[-1]
            return _Span(
                self,
                histogram,
                name,
                trace_id=parent.trace_id,
                parent_id=parent.span_id,
                parent_name=parent.name,
                depth=parent.depth + 1,
            )
        # A root span: the head-based sampling decision happens here, once
        # per trace; a sampled-out root mutes everything underneath it.
        if self._sampler is not None and not self._sampler.sample(name):
            return _UnrecordedSpan(state, histogram)
        return _Span(
            self, histogram, name, trace_id=next(_IDS), parent_id=None, parent_name=None, depth=0
        )

    def muted(self) -> bool:
        """Whether a span opened on this thread now would keep no record.

        True inside a sampled-out trace (and under a muted frame); sub-stage
        probes that are not spans themselves check it to thin with the trace.
        """
        return self._state().muted > 0

    # ------------------------------------------------------------------
    # Stack bookkeeping (called by _Span)
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def _push(self, span: "_Span") -> None:
        self._state().stack.append(span)

    def _pop(self, span: "_Span", duration: float) -> None:
        stack = self._state().stack
        # The span being closed is the top of its thread's stack by
        # construction (context managers unwind LIFO even on exceptions).
        if stack and stack[-1] is span:
            stack.pop()
        self._finished.append(
            SpanRecord(
                name=span.name,
                started=span._started,
                duration=duration,
                depth=span.depth,
                parent=span.parent_name,
                thread=threading.current_thread().name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                trace_id=span.trace_id,
            )
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def finished(
        self,
        limit: int | None = None,
        name: str | None = None,
        trace_id: int | None = None,
    ) -> list[SpanRecord]:
        """The most recent finished spans, oldest first.

        ``name`` filters to one stage, ``trace_id`` to one logical operation;
        ``limit`` keeps the newest N after filtering.
        """
        spans = list(self._finished)
        if name is not None:
            spans = [span for span in spans if span.name == name]
        if trace_id is not None:
            spans = [span for span in spans if span.trace_id == trace_id]
        if limit is not None:
            spans = spans[-limit:]
        return spans

    def clear(self) -> None:
        """Drop the finished-span log and restart the sampler's counters."""
        self._finished.clear()
        if self._sampler is not None:
            self._sampler.reset()
