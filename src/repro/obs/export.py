"""Exporters: JSONL dumps, Prometheus text and Chrome ``trace_event`` JSON.

Three consumers, three formats:

* :func:`export_jsonl` / :func:`read_jsonl_export` — a lossless dump of every
  instrument and finished span, one JSON document per line.  This is the
  faithful, timestamped operation history the black-box checkers in PAPERS.md
  consume (and what the round-trip test parses back).
* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative ``_bucket``
  series with ``le`` labels plus ``_sum``/``_count``), so a scrape endpoint
  or a textfile collector can ship the same registry without translation.
* :func:`to_chrome_trace` / :func:`export_chrome_trace` — the Chrome
  ``trace_event`` JSON object format (complete ``"ph": "X"`` events with
  microsecond ``ts``/``dur``, one ``tid`` lane per engine thread), loadable
  directly in Perfetto or ``chrome://tracing`` — the timeline twin of the
  folded-stack flamegraph in :mod:`repro.obs.flame`.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer


def _format_value(value: float) -> str:
    """One sample value in Prometheus text form (ints stay unscientific)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_name(name: str) -> str:
    """A dotted metric name as a Prometheus identifier (dots → underscores)."""
    sanitized = "".join(
        ch if ch.isalnum() or ch in ("_", ":") else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in the Prometheus text exposition format.

    Every instrument is one unlabeled series; the only label the output
    carries is ``le`` on a histogram's cumulative ``_bucket`` lines.  Help
    text escapes ``\\`` and newline as ``\\\\`` and ``\\n``, as the format
    requires, so it stays on its ``# HELP`` line.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        name = prometheus_name(instrument.name)
        if instrument.help:
            help_text = instrument.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            cumulative = instrument.cumulative_counts()
            for boundary, count in zip(instrument.boundaries, cumulative):
                lines.append(f'{name}_bucket{{le="{_format_value(boundary)}"}} {count}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{name}_sum {_format_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
    return "\n".join(lines) + "\n" if lines else ""


def export_jsonl(
    target: str | Path | TextIO,
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
) -> int:
    """Dump every instrument (and finished span) as JSON lines.

    Each line is ``{"record": "metric"|"span", ...}`` (``kind`` inside a
    metric line keeps the instrument kind); metric lines carry the
    instrument's full snapshot (histograms include boundaries and per-bucket
    counts, so the dump is lossless).  Returns the number of lines written.
    """
    lines = [
        {"record": "metric", **instrument.snapshot()}
        for instrument in registry.instruments()
    ]
    if tracer is not None:
        lines.extend({"record": "span", **span.to_dict()} for span in tracer.finished())
    payload = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if hasattr(target, "write"):
        target.write(payload)
    else:
        Path(target).write_text(payload, encoding="utf-8")
    return len(lines)


def to_chrome_trace(spans: Sequence[SpanRecord], pid: int | None = None) -> dict[str, Any]:
    """The finished spans as a Chrome ``trace_event`` JSON object.

    Every span becomes one *complete* event (``"ph": "X"``) with the fields
    the Trace Event format requires — ``name``, ``ph``, integer ``pid`` and
    ``tid``, microsecond ``ts`` and ``dur`` — plus the trace/span/parent ids
    under ``args`` so the Perfetto UI can slice one logical operation out of
    the timeline.  Thread names map to stable integer ``tid`` lanes (first
    appearance order) and are declared through ``thread_name`` metadata
    events, the way Chrome's own traces do it.
    """
    process = os.getpid() if pid is None else pid
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        tid = lanes.setdefault(span.thread, len(lanes) + 1)
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": span.started * 1e6,
                "dur": span.duration * 1e6,
                "pid": process,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "depth": span.depth,
                },
            }
        )
    for thread, tid in lanes.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": process,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    target: str | Path | TextIO, spans: Sequence[SpanRecord], pid: int | None = None
) -> int:
    """Write the Chrome trace JSON; returns the number of span events."""
    document = to_chrome_trace(spans, pid=pid)
    payload = json.dumps(document, sort_keys=True)
    if hasattr(target, "write"):
        target.write(payload)
    else:
        Path(target).write_text(payload, encoding="utf-8")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")


def read_jsonl_export(
    source: str | Path | Iterable[str],
) -> tuple[dict[str, dict[str, Any]], list[SpanRecord]]:
    """Parse a :func:`export_jsonl` dump back into ``(metrics, spans)``.

    ``metrics`` maps instrument name → its snapshot dict; ``spans`` are the
    finished spans in write (oldest-first) order.  The exporter round-trip
    test feeds one into the other and compares against the live registry.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        rows = text.splitlines()
    else:
        rows = [str(row) for row in source]
    metrics: dict[str, dict[str, Any]] = {}
    spans: list[SpanRecord] = []
    for row in rows:
        row = row.strip()
        if not row:
            continue
        payload = json.loads(row)
        record = payload.pop("record", None)
        if record == "metric":
            metrics[payload["name"]] = payload
        elif record == "span":
            spans.append(SpanRecord.from_dict(payload))
    return metrics, spans
