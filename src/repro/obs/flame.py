"""Flamegraph-friendly views of the finished-span log.

Two renderings of the same :class:`~repro.obs.trace.SpanRecord` list:

* :func:`folded_stacks` / :func:`to_folded_text` / :func:`write_folded` —
  the collapsed-stack text format (``root;child;grandchild <value>``, one
  line per unique stack) that ``flamegraph.pl`` and speedscope ingest.
  Values are **self-time microseconds**: a span's duration minus its
  same-thread children's — so, per stack root, the lines of its subtree sum
  back to exactly the root's duration, and hot leaves stand out instead of
  being double-counted under every ancestor.  Stacks are built along
  *same-thread* parent links: a span whose parent lives on another thread
  (as in dumps exported while a background commit worker joined its
  producer's trace) roots its own stack — concurrent children overlap in
  wall time, so folding them under the cross-thread parent would fabricate
  self-time.
* :func:`format_trace` / :func:`trace_summaries` — the ``flexviz trace``
  tree printer: one logical operation's spans as an indented tree linked by
  ids (same-named siblings stay distinct), cross-thread children marked with
  the thread that ran them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

from repro.obs.trace import SpanRecord


def _by_id(spans: Sequence[SpanRecord]) -> dict[int, SpanRecord]:
    """Index spans by id (records from pre-id dumps carry 0 and are skipped)."""
    return {span.span_id: span for span in spans if span.span_id}


def _same_thread_parent(
    span: SpanRecord, index: dict[int, SpanRecord]
) -> SpanRecord | None:
    """The parent record when it exists *and* ran on the span's own thread."""
    if not span.parent_id:
        return None
    parent = index.get(span.parent_id)
    if parent is None or parent.thread != span.thread:
        return None
    return parent


def folded_stacks(spans: Sequence[SpanRecord]) -> dict[str, float]:
    """Collapse spans into ``stack path -> self-time microseconds``.

    Identical stacks across traces accumulate (that is what makes the
    flamegraph: width = total time in that stack), and per stack root the
    subtree's values sum to the root's duration — self-time is duration
    minus same-thread children, clamping nothing.
    """
    index = _by_id(spans)
    child_seconds: dict[int, float] = {}
    for span in spans:
        parent = _same_thread_parent(span, index)
        if parent is not None:
            child_seconds[parent.span_id] = (
                child_seconds.get(parent.span_id, 0.0) + span.duration
            )
    stacks: dict[str, float] = {}
    for span in spans:
        frames = [span.name]
        cursor = span
        while True:
            parent = _same_thread_parent(cursor, index)
            if parent is None:
                break
            cursor = parent
            frames.append(cursor.name)
        path = ";".join(reversed(frames))
        self_seconds = span.duration - child_seconds.get(span.span_id, 0.0)
        stacks[path] = stacks.get(path, 0.0) + self_seconds * 1e6
    return stacks


def to_folded_text(spans: Sequence[SpanRecord]) -> str:
    """The collapsed-stack text: one ``path value`` line per unique stack."""
    stacks = folded_stacks(spans)
    return "".join(f"{path} {value:.3f}\n" for path, value in sorted(stacks.items()))


def write_folded(target: str | Path | TextIO, spans: Sequence[SpanRecord]) -> int:
    """Write the collapsed-stack text; returns the number of stack lines."""
    text = to_folded_text(spans)
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")
    return len(text.splitlines())


def trace_summaries(spans: Iterable[SpanRecord]) -> list[dict[str, Any]]:
    """One row per distinct trace: id, root stage, span count, total duration.

    Ordered oldest trace first (by the root's start).  Spans from pre-id
    dumps (``trace_id == 0``) are ignored — they belong to no trace.
    """
    traces: dict[int, dict[str, Any]] = {}
    for span in spans:
        if not span.trace_id:
            continue
        row = traces.setdefault(
            span.trace_id,
            {"trace_id": span.trace_id, "root": "", "started": span.started, "spans": 0, "duration": 0.0},
        )
        row["spans"] += 1
        if span.parent_id is None:
            row["root"] = span.name
            row["started"] = span.started
            row["duration"] = span.duration
    return sorted(traces.values(), key=lambda row: row["started"])


def format_trace(spans: Sequence[SpanRecord], trace_id: int) -> str:
    """Render one trace's span tree, linked by ids, as indented text.

    Children sort by start time; a child that ran on a different thread than
    its parent is marked with its thread name (worker spans in dumps
    exported while a background commit worker joined its producer's trace).  Spans whose parent never finished (or fell out of the
    ring) are shown as additional roots rather than dropped.
    """
    members = [span for span in spans if span.trace_id == trace_id]
    if not members:
        return f"trace {trace_id}: no spans (wrong id, or evicted from the ring)"
    index = _by_id(members)
    children: dict[int | None, list[SpanRecord]] = {}
    for span in members:
        key = span.parent_id if span.parent_id in index else None
        children.setdefault(key, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: span.started)
    lines = [f"trace {trace_id} ({len(members)} spans)"]

    def render(span: SpanRecord, indent: int, parent: SpanRecord | None) -> None:
        marker = f"  [{span.thread}]" if parent is not None and parent.thread != span.thread else ""
        lines.append(
            f"{'  ' * indent}{span.name}  {span.duration * 1000:.3f} ms"
            f"  (span {span.span_id}){marker}"
        )
        for child in children.get(span.span_id, ()):
            render(child, indent + 1, span)

    for root in children.get(None, ()):
        render(root, 1, None)
    return "\n".join(lines)
