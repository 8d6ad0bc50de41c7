"""The observability layer: instruments, spans, exporters, and the contract
that instrumentation never changes engine outputs.

Unit tests build their own :class:`MetricsRegistry` instances so they cannot
interfere with the process-global one; the integration tests that do touch
the global registry go through the ``global_obs`` fixture, which leaves it
disabled and zeroed no matter how the test exits.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from collections import Counter as TallyCounter
from dataclasses import replace
from io import StringIO

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import OfferAdded, OfferUpdated
from repro.live.replay import replay, scenario_event_stream
from repro.obs.export import export_jsonl, read_jsonl_export, to_prometheus_text
from repro.obs.metrics import COUNT_BUCKETS, LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer
from repro.session import FlexSession


@pytest.fixture
def registry() -> MetricsRegistry:
    """A private, enabled registry (never the process-global one)."""
    return MetricsRegistry(enabled=True)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_counts_and_rejects_decrease(registry):
    counter = registry.counter("c", "help text")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ObservabilityError):
        counter.inc(-1)
    counter.reset()
    assert counter.value == 0.0


def test_gauge_track_vs_set_disabled_semantics():
    registry = MetricsRegistry(enabled=False)
    gauge = registry.gauge("g")
    gauge.track(7)  # hot-path setter is a no-op while disabled...
    assert gauge.value == 0.0
    gauge.set(7)  # ...the read-side refresh always writes.
    assert gauge.value == 7.0
    registry.enable()
    gauge.track(3)
    assert gauge.value == 3.0


def test_disabled_registry_is_a_no_op(registry):
    registry.disable()
    counter = registry.counter("c")
    histogram = registry.histogram("h")
    counter.inc(100)
    counter.inc(-100)  # not even validated on the disabled path
    histogram.observe(1.0)
    assert counter.value == 0.0
    assert histogram.count == 0


def test_instruments_are_singletons_per_name(registry):
    assert registry.counter("x") is registry.counter("x")
    assert registry.histogram("h", boundaries=(1.0, 2.0)) is registry.histogram(
        "h", boundaries=(1.0, 2.0)
    )
    with pytest.raises(ObservabilityError):
        registry.gauge("x")  # same name, different kind
    with pytest.raises(ObservabilityError):
        registry.histogram("h", boundaries=(1.0, 3.0))  # would split the series


# ----------------------------------------------------------------------
# Histogram bucket edges
# ----------------------------------------------------------------------
def test_histogram_boundary_values_use_le_semantics(registry):
    """An observation exactly on a boundary counts in that boundary's bucket."""
    histogram = registry.histogram("h", boundaries=(1.0, 2.0, 5.0))
    for value in (1.0, 1.5, 2.0, 5.0, 7.0):
        histogram.observe(value)
    # Buckets: <=1, <=2, <=5, +Inf.
    assert histogram.bucket_counts() == [1, 2, 1, 1]
    assert histogram.cumulative_counts() == [1, 3, 4, 5]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(16.5)
    assert histogram.mean == pytest.approx(3.3)
    snapshot = histogram.snapshot()
    assert snapshot["min"] == 1.0 and snapshot["max"] == 7.0


def test_histogram_quantiles_clamp_to_true_extremes(registry):
    histogram = registry.histogram("h", boundaries=(1.0, 10.0))
    histogram.observe(4.0)
    histogram.observe(6.0)
    assert histogram.quantile(0.0) == 4.0  # clamped to the true minimum
    assert histogram.quantile(1.0) == 6.0  # clamped to the true maximum
    assert 4.0 <= histogram.quantile(0.5) <= 6.0
    with pytest.raises(ObservabilityError):
        histogram.quantile(1.5)
    empty = registry.histogram("empty")
    assert empty.quantile(0.95) == 0.0


def test_histogram_boundary_validation(registry):
    with pytest.raises(ObservabilityError):
        registry.histogram("bad", boundaries=())
    with pytest.raises(ObservabilityError):
        registry.histogram("bad", boundaries=(1.0, 1.0))
    with pytest.raises(ObservabilityError):
        registry.histogram("bad", boundaries=(2.0, 1.0))


def test_default_bucket_ladders_are_strictly_increasing():
    for ladder in (LATENCY_BUCKETS, COUNT_BUCKETS):
        assert all(b2 > b1 for b1, b2 in zip(ladder, ladder[1:]))


def test_registry_partial_reset(registry):
    registry.counter("a").inc(5)
    registry.counter("b").inc(7)
    registry.reset(names=["a", "missing-is-fine"])
    assert registry.get("a").value == 0.0
    assert registry.get("b").value == 7.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_nesting_records_parent_and_depth(registry):
    tracer = Tracer(registry)
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):  # reentrant: same name nests again
                pass
    records = tracer.finished()
    assert [(r.name, r.depth, r.parent) for r in records] == [
        ("inner", 2, "inner"),
        ("inner", 1, "outer"),
        ("outer", 0, None),
    ]
    assert all(r.duration >= 0.0 for r in records)


def test_span_closes_and_records_on_exception(registry):
    tracer = Tracer(registry)
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    (record,) = tracer.finished()
    assert record.name == "failing" and record.depth == 0
    # The stack fully unwound: the next span is a root again.
    with tracer.span("after"):
        pass
    assert tracer.finished(limit=1)[0].parent is None


def test_spans_disabled_mode_allocates_nothing(registry):
    registry.disable()
    tracer = Tracer(registry)
    first = tracer.span("a")
    second = tracer.span("b")
    assert first is second  # the shared no-op context manager
    with first:
        pass
    assert tracer.finished() == []


def test_span_stacks_are_per_thread(registry):
    tracer = Tracer(registry)
    seen = []

    def worker():
        with tracer.span("worker.commit"):
            pass
        seen.append(True)

    with tracer.span("main.outer"):
        thread = threading.Thread(target=worker, name="obs-worker")
        thread.start()
        thread.join()
    worker_span = next(r for r in tracer.finished() if r.name == "worker.commit")
    # The main thread's open span is not the worker span's parent.
    assert worker_span.parent is None and worker_span.depth == 0
    assert worker_span.thread == "obs-worker"


def test_finished_filtering_and_limit(registry):
    tracer = Tracer(registry)
    for index in range(5):
        with tracer.span("a" if index % 2 else "b"):
            pass
    assert len(tracer.finished(name="a")) == 2
    assert len(tracer.finished(limit=3)) == 3
    tracer.clear()
    assert tracer.finished() == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _populated(registry: MetricsRegistry) -> Tracer:
    registry.counter("repro.test.count", "events seen").inc(3)
    registry.gauge("repro.test.depth", "queue depth").set(7)
    histogram = registry.histogram(
        "repro.test.seconds", "latency", boundaries=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.005, 0.05, 0.5):
        histogram.observe(value)
    tracer = Tracer(registry)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    return tracer


def test_jsonl_export_round_trips(tmp_path, registry):
    tracer = _populated(registry)
    path = tmp_path / "dump.jsonl"
    lines = export_jsonl(path, registry, tracer)
    # Three instruments, the two spans' stage histograms, two finished spans.
    assert lines == 3 + 2 + 2
    metrics, spans = read_jsonl_export(path)
    assert metrics == registry.snapshot()
    assert spans == tracer.finished()
    # Histograms round-trip their boundaries and per-bucket counts exactly.
    assert metrics["repro.test.seconds"]["boundaries"] == [0.001, 0.01, 0.1]
    assert metrics["repro.test.seconds"]["bucket_counts"] == [1, 1, 1, 1]
    # Every line is a standalone JSON document with a record discriminator.
    for row in path.read_text(encoding="utf-8").splitlines():
        assert json.loads(row)["record"] in ("metric", "span")


def test_jsonl_export_accepts_file_objects(registry):
    tracer = _populated(registry)
    buffer = StringIO()
    export_jsonl(buffer, registry, tracer)
    metrics, spans = read_jsonl_export(buffer.getvalue().splitlines())
    assert metrics == registry.snapshot()
    assert [s.name for s in spans] == ["inner", "outer"]


_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
# A label value is any run of non-reserved characters or the three escape
# sequences the text format defines: \\, \" and \n.
_LABEL_VALUE = r'(?:[^"\\\n]|\\\\|\\"|\\n)*'
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="' + _LABEL_VALUE + r'"'
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    + r"(\{" + _LABEL_PAIR + r"(," + _LABEL_PAIR + r")*\})?"
    + r" (\+Inf|-Inf|-?[0-9][0-9eE.+-]*)$"
)


def test_prometheus_text_grammar_and_histogram_series(registry):
    _populated(registry)
    registry.counter("repro.test.help", "first line\nsecond line \\ end")
    text = to_prometheus_text(registry)
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        assert (
            _HELP_RE.match(line) or _TYPE_RE.match(line) or _SAMPLE_RE.match(line)
        ), f"not valid exposition format: {line!r}"
    # Histogram series: cumulative buckets ending in +Inf == _count.
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_test_seconds_bucket")
    ]
    # One le-labeled line per boundary plus +Inf.
    assert len(buckets) == 4
    assert buckets == sorted(buckets)
    assert 'le="+Inf"} 4' in text
    assert "repro_test_seconds_count 4" in text
    # Help text escapes backslash and newline, so it stays on one line.
    assert "# HELP repro_test_help first line\\nsecond line \\\\ end\n" in text
    # Dotted names sanitize to identifiers, and empty registries export empty.
    assert obs.prometheus_name("repro.live.commit.seconds") == "repro_live_commit_seconds"
    assert to_prometheus_text(MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# The no-observable-effect contract
# ----------------------------------------------------------------------
def async_engine():
    """A fresh async engine over a plain live one (worker-thread commits)."""
    return AsyncCommitEngine(LiveAggregationEngine())


@pytest.mark.parametrize(
    ("engine_factory", "commit_metric"),
    (
        (LiveAggregationEngine, "repro.live.commit.seconds"),
        (async_engine, "repro.live.async.worker.commit.seconds"),
    ),
)
def test_instrumented_replay_is_bit_identical(
    global_obs, engine_factory, commit_metric, scenario
):
    """Flipping observability on must not change a single aggregate bit."""

    def run(instrumented: bool):
        engine = engine_factory()
        log = scenario_event_stream(
            scenario, update_fraction=0.1, withdraw_fraction=0.05, seed=7
        )
        obs.reset()
        if instrumented:
            obs.enable()
        try:
            replay(log, engine)
        finally:
            obs.disable()
            if isinstance(engine, AsyncCommitEngine):
                engine.close()
        return TallyCounter(canonical_form(offer) for offer in engine.aggregated_offers())

    baseline = run(instrumented=False)
    instrumented = run(instrumented=True)
    assert baseline == instrumented  # exact equality, no tolerance
    # And the instrumented run actually recorded commits for this engine.
    commits = obs.get_registry().get(commit_metric)
    assert commits is not None and commits.count > 0


def test_session_metrics_and_trace_surface(global_obs, scenario):
    session = FlexSession(scenario, engine="live", live_preload=False)
    obs.enable()
    log = scenario_event_stream(scenario, update_fraction=0.1, seed=7)
    session.replay(log.replay_order())
    session.offers().where(state="assigned").fetch()
    obs.disable()
    metrics = session.metrics()
    assert metrics["repro.live.commit.seconds"]["count"] > 0
    assert metrics["repro.session.query.seconds"]["count"] >= 1
    spans = session.trace(name="live.commit")
    assert spans and all(span.name == "live.commit" for span in spans)
    session.close()


def test_summary_reports_engine_depth_figures(scenario):
    asynchronous = FlexSession(scenario, engine="async", live_preload=False)
    summary = asynchronous.summary()
    assert summary["queue_depth"] == 0 and summary["dirty_cells"] == 0
    assert "dirty_shards" not in summary
    asynchronous.close()
    # The backlog is reported as it stood when summary() was called, even
    # though the row counts read the star schema with the backlog committed.
    live = FlexSession(scenario, engine="live", live_preload=False)
    offer = scenario.flex_offers[0]
    live.ingest(OfferAdded(offer.creation_time, offer))
    summary = live.summary()
    assert summary["pending_events"] == 1 and summary["dirty_cells"] == 1
    assert summary["offer_count"] == 1
    live.close()
    batch = FlexSession(scenario, engine="batch")
    assert "queue_depth" not in batch.summary()
    batch.close()


# ----------------------------------------------------------------------
# The operator entry point
# ----------------------------------------------------------------------
def test_flexviz_stats_smoke(global_obs, capsys):
    from repro.app.cli import main

    assert main(["--prosumers", "40", "stats", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "stage" in out
    for fragment in ("commit", "query", "store.checkpoint", "store.restore"):
        assert fragment in out, f"stats table is missing the {fragment} stage"
    assert "stats smoke OK" in out
    # The command cleans up after itself: global observability is off again.
    assert not obs.enabled()


# ----------------------------------------------------------------------
# One timer per stage: the span is the clock, sampling thins only records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stage", ("checkpoint", "compact"))
def test_enabling_obs_inside_a_durability_stage_records_no_epoch(
    global_obs, scenario, tmp_path, monkeypatch, stage
):
    """A stage opened while obs was off must not time itself from clock zero."""
    from repro.store import RecoveryManager
    from repro.store.segments import SegmentStore
    from repro.store.snapshot import SnapshotStore

    ordered = scenario_event_stream(scenario, update_fraction=0.1, seed=7).replay_order()
    session = FlexSession(scenario, engine="live", live_preload=False)
    session.replay(ordered)
    manager = RecoveryManager(tmp_path / "store", segment_size=64)
    manager.record(ordered)
    if stage == "compact":
        manager.checkpoint(session)
    # Switch obs on from inside the stage, after it started.
    target, method = (SnapshotStore, "save") if stage == "checkpoint" else (SegmentStore, "compact")
    original = getattr(target, method)

    def enable_then_run(self, *args, **kwargs):
        obs.enable()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(target, method, enable_then_run)
    started = time.perf_counter()
    if stage == "checkpoint":
        manager.checkpoint(session)
    else:
        manager.compact()
    wall = time.perf_counter() - started
    session.close()
    histogram = obs.get_registry().get(f"repro.store.{stage}.seconds")
    assert histogram is None or histogram.count == 0 or histogram.snapshot()["max"] <= wall


def test_sampling_keeps_stage_histograms_exact_and_thins_spans_and_kernel(global_obs):
    from tests.conftest import make_offer

    engine = LiveAggregationEngine()
    offers = [
        make_offer(offer_id=i, earliest_start=40 + i % 8, time_flexibility=4 + i % 3)
        for i in range(1, 41)
    ]
    for offer in offers:
        engine.apply(OfferAdded(offer.creation_time, offer))
    engine.commit()
    tracer = obs.get_tracer()
    obs.enable()
    obs.set_sampler(obs.Sampler(default_rate=16))
    commits, recorded_chunks = 40, 0
    for index in range(commits):
        current = engine.offer(offers[index].id)
        # A profile revision: a price-only one refolds no profile, so it
        # would never reach the kernel probe this test counts.
        revised = replace(current, profile=tuple(piece.scale(1.01) for piece in current.profile))
        engine.apply(OfferUpdated(current.creation_time, revised))
        traced = len(tracer.finished(name="live.commit"))
        result = engine.commit()
        if len(tracer.finished(name="live.commit")) > traced:
            recorded_chunks += result.chunks_reaggregated
    obs.disable()
    registry = obs.get_registry()
    # Every commit is timed, sampled in or out...
    assert registry.get("repro.live.commit.seconds").count == commits
    assert registry.get("repro.live.commit.drain.seconds").count == commits
    assert registry.get("repro.live.chunks.reaggregated").value >= commits
    # ...but only 1 in 16 keeps its span record, and the kernel probe (one
    # call per re-aggregated chunk) records only inside those commits.
    assert len(tracer.finished(name="live.commit")) == math.ceil(commits / 16)
    assert recorded_chunks > 0
    assert registry.get("repro.aggregation.kernel.scalar.seconds").count == recorded_chunks


def test_stats_every_recorded_span_has_a_fuller_histogram(global_obs, capsys):
    from repro.app.cli import main

    assert main(["--prosumers", "40", "stats", "--sample", "4"]) == 0
    capsys.readouterr()
    recorded = TallyCounter(span.name for span in obs.get_tracer().finished())
    assert recorded
    for name, spans in recorded.items():
        histogram = obs.get_registry().get(f"repro.{name}.seconds")
        assert histogram is not None and histogram.count >= spans, name
