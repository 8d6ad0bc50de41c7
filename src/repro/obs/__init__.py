"""``repro.obs`` — metrics, tracing spans and exporters for the whole engine.

The system's hot paths (commit drains, the aggregation kernel, query execution,
checkpoint/restore) are instrumented against **one process-global registry**
and **one tracer**, both disabled by default:

>>> from repro import obs
>>> obs.enable()
>>> session.replay()                      # commits now record latencies
>>> obs.get_registry().snapshot()         # every counter/gauge/histogram
>>> obs.get_tracer().finished(limit=10)   # the most recent spans
>>> print(obs.to_prometheus_text(obs.get_registry()))

**One timer per stage.**  A stage is one span, ``with
get_tracer().span("live.commit"):``, and the span is the stage's only clock:
every call observes ``repro.live.commit.seconds``, sampled or not.  No
instrumented module reads a clock for observability beside its spans; the
aggregation kernel's probe (which runs below every stage boundary) and the
segment-log tail generator (which cannot hold a span) are the two exceptions.

Disabled mode costs a single attribute check per instrumented site — the
engines produce bit-identical output either way (differential-tested), and
the CI bench trajectory gates the enabled-mode commit-throughput overhead.

``flexviz stats`` is the operator's entry point: it replays a scenario with
observability on and prints the per-stage latency table.
"""

from __future__ import annotations

from repro.obs.export import (
    export_chrome_trace,
    export_jsonl,
    prometheus_name,
    read_jsonl_export,
    to_chrome_trace,
    to_prometheus_text,
)
from repro.obs.flame import (
    folded_stacks,
    format_trace,
    to_folded_text,
    trace_summaries,
    write_folded,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Sampler, SpanRecord, TraceContext, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Sampler",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "export_jsonl",
    "folded_stacks",
    "format_trace",
    "get_registry",
    "get_tracer",
    "prometheus_name",
    "read_jsonl_export",
    "reset",
    "set_sampler",
    "to_chrome_trace",
    "to_folded_text",
    "to_prometheus_text",
    "trace_summaries",
    "write_folded",
]

#: The process-global default registry every instrumented module binds to.
_REGISTRY = MetricsRegistry(enabled=False)

#: The process-global tracer, sharing the registry's enabled switch.
_TRACER = Tracer(_REGISTRY)


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-global tracer (shares the registry's enabled switch)."""
    return _TRACER


def enable() -> None:
    """Flip observability on for the whole process."""
    _REGISTRY.enable()


def disable() -> None:
    """Flip observability off (instruments keep their recorded state)."""
    _REGISTRY.disable()


def enabled() -> bool:
    """Whether the process-global registry is currently recording."""
    return _REGISTRY.enabled


def set_sampler(sampler: "Sampler | None") -> None:
    """Install (or remove, with ``None``) the head-based trace sampler.

    Sampling gates only the span log: a sampled-out operation still times
    every stage into its histogram and bumps every counter, so metrics stay
    exact while always-on tracing stays cheap.  The one exception is the
    aggregation kernel's per-call probe, which is muted inside a sampled-out
    trace.
    """
    _TRACER.set_sampler(sampler)


def reset() -> None:
    """Zero every instrument, drop the finished-span log and the sampler."""
    _REGISTRY.reset()
    _TRACER.set_sampler(None)
    _TRACER.clear()
