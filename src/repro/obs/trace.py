"""Distributed-style tracing: nested timing spans with ids, handoff, sampling.

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

Crossing threads is **explicit**: the thread that owns an operation captures
a :class:`TraceContext` (``tracer.context()``) and the worker thread installs
it (``with tracer.attach(context):``) before opening its spans — the async
commit worker joins the trace of the ingest that caused its commit this way
instead of relying on thread-local state that was never its own.  Each thread
still keeps its own span stack, and finished spans land in one bounded ring
buffer shared by the process.

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
    #: Nesting depth within its trace (0 = trace root), across threads.
    depth: int
    #: Name of the enclosing span (``None`` for roots) — kept for backward
    #: compatibility with pre-id exports; :attr:`parent_id` is authoritative.
    parent: str | None
    #: Name of the thread the span ran on.
    thread: str
    #: Process-unique id of this span (0 only in records from pre-id dumps).
    span_id: int = 0
    #: Id of the enclosing span — ``None`` for trace roots.  Unlike
    #: :attr:`parent`, unambiguous between same-named siblings and valid
    #: across threads (a handed-off context keeps the link).
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


@dataclass(frozen=True)
class TraceContext:
    """A portable capture of "the current span" for explicit cross-thread handoff.

    The owning thread calls :meth:`Tracer.context` while its span is open and
    ships the frozen result to the worker (a closure argument, a queue slot —
    anything explicit); the worker wraps its work in
    ``with tracer.attach(context):`` and every span it opens becomes a child
    of the captured span, in the captured trace.  ``recording=False`` marks a
    context captured inside a sampled-out operation: attaching it mutes the
    worker's spans too, so one head-based decision covers every thread the
    operation fans out to.
    """

    trace_id: int
    span_id: int
    name: str
    depth: int
    recording: bool = True


#: The context handed out inside muted (sampled-out or disabled-rooted)
#: regions — shared, so capturing under mute never allocates.
_NOT_RECORDING = TraceContext(trace_id=0, span_id=0, name="", depth=0, recording=False)


class Sampler:
    """Head-based sampling rates per root stage.

    ``rate`` semantics: ``N`` keeps 1 in N traces rooted at that stage
    (deterministic — the first occurrence always records, then every Nth),
    ``1`` keeps everything, ``0`` keeps nothing.  ``rates`` overrides the
    default per root-stage name, so production can trace 1-in-N commits while
    keeping every checkpoint::

        Sampler(default_rate=16, rates={"store.checkpoint": 1, "store.restore": 1})

    Only *roots* consult the sampler; children (local or attached from
    another thread) inherit the root's decision.  Counters are per stage and
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


class _NoopSpan:
    """A fully transparent context manager (``attach(None)``)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP = _NoopSpan()


class _MutedSpan:
    """The per-thread no-op span: times nothing but counts its nesting.

    Handed out while the registry is disabled and under an attached
    non-recording context.  The depth counter is what keeps transitions
    safe: as long as any muted frame is open on a thread, newly opened spans
    stay unrecorded — flipping ``obs.enable()`` mid-operation cannot graft
    orphan children onto a parent that never recorded.
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


class _AttachedFrame:
    """A remote parent installed on this thread by :meth:`Tracer.attach`.

    Sits on the thread's stack like a span — children read its ids — but
    records nothing itself: the real span lives on the thread that captured
    the context.
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "depth")

    def __init__(self, tracer: "Tracer", context: TraceContext) -> None:
        self._tracer = tracer
        self.name = context.name
        self.trace_id = context.trace_id
        self.span_id = context.span_id
        self.depth = context.depth

    def __enter__(self) -> "_AttachedFrame":
        self._tracer._state().stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        stack = self._tracer._state().stack
        if stack and stack[-1] is self:
            stack.pop()
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
    # Explicit cross-thread handoff
    # ------------------------------------------------------------------
    def context(self) -> TraceContext | None:
        """Capture the current span for handoff to another thread.

        ``None`` when tracing is off or no span is open (workers then run
        untraced); a non-recording context inside a sampled-out trace, so
        the mute decision travels with the handoff.
        """
        if not self._registry.enabled:
            return None
        state = self._state()
        if state.muted:
            return _NOT_RECORDING
        stack = state.stack
        if not stack:
            return None
        top = stack[-1]
        return TraceContext(
            trace_id=top.trace_id, span_id=top.span_id, name=top.name, depth=top.depth
        )

    def attach(self, context: TraceContext | None):
        """A context manager installing a captured context on *this* thread.

        Spans opened inside become children of the captured span — same
        trace id, correct parent id — no matter which thread runs them.
        ``attach(None)`` is fully transparent (spans behave as if no handoff
        happened), so call sites can pass an optional context through
        unconditionally.
        """
        if context is None:
            return _NOOP
        state = self._state()
        if not context.recording:
            return state.mute
        return _AttachedFrame(self, context)

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
