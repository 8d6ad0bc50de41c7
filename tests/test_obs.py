"""The observability layer: instruments, spans, exporters, and the contract
that instrumentation never changes engine outputs.

Unit tests build their own :class:`MetricsRegistry` instances so they cannot
interfere with the process-global one; the integration tests that do touch
the global registry go through the ``global_obs`` fixture, which leaves it
disabled and zeroed no matter how the test exits.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter as TallyCounter
from io import StringIO

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine, canonical_form
from repro.live.events import OfferAdded
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
    assert lines == 3 + 2  # three instruments, two finished spans
    metrics, spans = read_jsonl_export(path)
    assert metrics == registry.snapshot()
    assert spans == tracer.finished()
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
    assert buckets == sorted(buckets)
    assert 'le="+Inf"} 4' in text
    assert "repro_test_seconds_count 4" in text
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
        (LiveAggregationEngine, "repro.live.commit.count"),
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
    assert commits is not None
    recorded = commits.value if hasattr(commits, "value") else commits.count
    assert recorded > 0


def test_session_metrics_and_trace_surface(global_obs, scenario):
    session = FlexSession(scenario, engine="live", live_preload=False)
    obs.enable()
    log = scenario_event_stream(scenario, update_fraction=0.1, seed=7)
    session.replay(log.replay_order())
    session.offers().where(state="assigned").fetch()
    obs.disable()
    metrics = session.metrics()
    assert metrics["repro.live.commit.count"]["value"] > 0
    assert metrics["repro.session.query.count"]["value"] >= 1
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
# Labeled series (the generic labeled-metric API)
# ----------------------------------------------------------------------
def test_labeled_instruments_are_independent_series(registry):
    total = registry.counter("repro.test.fanout", "fan-out total")
    shard0 = registry.counter("repro.test.fanout", "fan-out total", labels={"shard": "0"})
    shard1 = registry.counter("repro.test.fanout", labels={"shard": "1"})
    assert shard0 is not total and shard0 is not shard1
    # Same (name, labels) pair returns the same instrument object.
    assert registry.counter("repro.test.fanout", labels={"shard": "0"}) is shard0
    assert registry.get("repro.test.fanout", {"shard": "1"}) is shard1
    total.inc(1)
    shard0.inc(2)
    shard1.inc(3)
    snapshot = registry.snapshot()
    assert snapshot["repro.test.fanout"]["value"] == 1
    assert "labels" not in snapshot["repro.test.fanout"]
    assert snapshot['repro.test.fanout{shard="0"}']["value"] == 2
    assert snapshot['repro.test.fanout{shard="0"}']["labels"] == {"shard": "0"}
    assert snapshot['repro.test.fanout{shard="1"}']["value"] == 3


def test_prometheus_labeled_series_share_one_header(registry):
    base = registry.histogram("repro.test.fan.seconds", "per-shard drain")
    shard = registry.histogram(
        "repro.test.fan.seconds", "per-shard drain", labels={"shard": "3"}
    )
    base.observe(0.002)
    shard.observe(0.004)
    text = to_prometheus_text(registry)
    # One HELP/TYPE header for the base name, labels only on sample lines.
    assert text.count("# TYPE repro_test_fan_seconds histogram") == 1
    assert text.count("# HELP repro_test_fan_seconds ") == 1
    assert 'repro_test_fan_seconds_bucket{shard="3",le="' in text
    assert 'repro_test_fan_seconds_sum{shard="3"}' in text
    assert 'repro_test_fan_seconds_count{shard="3"} 1' in text
    assert "repro_test_fan_seconds_count 1" in text  # the unlabeled series
    for line in text.rstrip("\n").splitlines():
        assert (
            _HELP_RE.match(line) or _TYPE_RE.match(line) or _SAMPLE_RE.match(line)
        ), f"not valid exposition format: {line!r}"


def test_jsonl_round_trip_keeps_labels(registry):
    shard = registry.counter("repro.test.fanout", "fan-out total", labels={"shard": "5"})
    shard.inc(4)
    buffer = StringIO()
    export_jsonl(buffer, registry)
    metrics, _ = read_jsonl_export(buffer.getvalue().splitlines())
    key = 'repro.test.fanout{shard="5"}'
    assert metrics[key]["value"] == 4
    assert metrics[key]["labels"] == {"shard": "5"}


#: Label values that used to corrupt the exposition text / instrument keys:
#: a raw quote terminates the quoted value early, a raw backslash forges an
#: escape, a raw newline splits the sample line in two.
_ADVERSARIAL_VALUES = (
    'say "hi"',
    "back\\slash",
    "line\nbreak",
    'all \\ of "them"\nat once',
    "trailing backslash\\",
)


@pytest.mark.parametrize("value", _ADVERSARIAL_VALUES)
def test_prometheus_text_escapes_adversarial_label_values(registry, value):
    counter = registry.counter("repro.test.hostile", "hostile labels", labels={"q": value})
    counter.inc(2)
    text = to_prometheus_text(registry)
    lines = text.rstrip("\n").splitlines()
    for line in lines:
        assert (
            _HELP_RE.match(line) or _TYPE_RE.match(line) or _SAMPLE_RE.match(line)
        ), f"not valid exposition format: {line!r}"
    # Exactly one sample line — a raw newline in the value must not split it.
    samples = [line for line in lines if line.startswith("repro_test_hostile{")]
    assert len(samples) == 1
    assert "\n" not in samples[0]


def test_histogram_bucket_lines_escape_labels(registry):
    histogram = registry.histogram(
        "repro.test.hostile.seconds", "hostile labels", labels={"q": 'a"b\\c\nd'}
    )
    histogram.observe(0.003)
    text = to_prometheus_text(registry)
    for line in text.rstrip("\n").splitlines():
        assert (
            _HELP_RE.match(line) or _TYPE_RE.match(line) or _SAMPLE_RE.match(line)
        ), f"not valid exposition format: {line!r}"
    # The le= label merges after the escaped label body, still well-formed.
    assert 'repro_test_hostile_seconds_bucket{q="a\\"b\\\\c\\nd",le="' in text


def test_escaping_is_injective_keys_never_collide(registry):
    """Two values that rendered identically before escaping stay distinct."""
    from repro.obs.metrics import escape_label_value, instrument_key

    # ('a\nb' raw newline) vs ('a\\nb' literal backslash-n): unescaped both
    # rendered as the same two-line text; escaped they differ.
    pairs = (("a\nb", "a\\nb"), ('x"y', 'x\\"y'), ("p\\", "p\\\\"))
    for left, right in pairs:
        assert escape_label_value(left) != escape_label_value(right)
        assert instrument_key("n", {"k": left}) != instrument_key("n", {"k": right})
        one = registry.counter("repro.test.pair", labels={"k": left})
        two = registry.counter("repro.test.pair", labels={"k": right})
        assert one is not two, f"{left!r} and {right!r} collided on one series"


@pytest.mark.parametrize("value", _ADVERSARIAL_VALUES)
def test_jsonl_keys_round_trip_adversarial_labels(registry, value):
    """read_jsonl_export re-derives the same instrument key from raw labels."""
    labels = {"q": value, "shard": "3"}
    counter = registry.counter("repro.test.hostile", "hostile labels", labels=labels)
    counter.inc(7)
    buffer = StringIO()
    export_jsonl(buffer, registry)
    metrics, _ = read_jsonl_export(buffer.getvalue().splitlines())
    assert counter.key in metrics, (
        "JSONL export corrupted the instrument key for an adversarial label"
    )
    assert metrics[counter.key]["value"] == 7
    # The payload carries the *raw* label values, unescaped.
    assert metrics[counter.key]["labels"] == labels
    # And the registry snapshot agrees with the export on every key.
    assert set(metrics) == set(registry.snapshot())
