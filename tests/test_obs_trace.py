"""Production tracing: trace/span ids, explicit cross-thread handoff,
head-based sampling, flip safety, and the flamegraph/trace exporters.

Unit tests build private :class:`MetricsRegistry`/:class:`Tracer` pairs; the
engine-integration test (the async worker) goes through the
``global_obs`` fixture because the engines bind the process-global tracer at
import time.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.export import to_chrome_trace
from repro.obs.flame import (
    folded_stacks,
    format_trace,
    to_folded_text,
    trace_summaries,
    write_folded,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Sampler, SpanRecord, Tracer


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


@pytest.fixture
def tracer(registry) -> Tracer:
    return Tracer(registry)


# ----------------------------------------------------------------------
# Ids
# ----------------------------------------------------------------------
def test_ids_disambiguate_same_named_siblings(tracer):
    with tracer.span("commit"):
        with tracer.span("drain"):
            pass
        with tracer.span("drain"):
            pass
    drains = tracer.finished(name="drain")
    (root,) = tracer.finished(name="commit")
    assert root.parent_id is None and root.depth == 0
    assert root.trace_id and root.span_id
    # Name linkage cannot tell the two drains apart; the ids can.
    assert drains[0].parent == drains[1].parent == "commit"
    assert drains[0].span_id != drains[1].span_id
    assert {span.parent_id for span in drains} == {root.span_id}
    assert {span.trace_id for span in drains} == {root.trace_id}


def test_each_root_mints_a_fresh_trace_id(tracer):
    for _ in range(3):
        with tracer.span("op"):
            pass
    ids = [span.trace_id for span in tracer.finished()]
    assert len(set(ids)) == 3 and all(ids)


def test_span_record_round_trip_and_pre_id_compat():
    record = SpanRecord(
        name="x",
        started=1.0,
        duration=0.5,
        depth=1,
        parent="root",
        thread="MainThread",
        span_id=10,
        parent_id=9,
        trace_id=8,
    )
    payload = record.to_dict()
    assert payload["span_id"] == 10 and payload["parent_id"] == 9
    assert SpanRecord.from_dict(payload) == record
    # Dumps written before spans carried ids still parse, ids defaulted.
    legacy = {
        "name": "x",
        "started": 1.0,
        "duration": 0.5,
        "depth": 0,
        "parent": None,
        "thread": "MainThread",
    }
    old = SpanRecord.from_dict(legacy)
    assert old.span_id == 0 and old.parent_id is None and old.trace_id == 0


# ----------------------------------------------------------------------
# Explicit cross-thread handoff
# ----------------------------------------------------------------------
def test_attach_joins_worker_spans_to_the_trace(tracer):
    handoff = {}

    def worker():
        with tracer.attach(handoff["context"]):
            with tracer.span("worker.step"):
                pass

    with tracer.span("main.op") as root:
        handoff["context"] = tracer.context()
        thread = threading.Thread(target=worker, name="handoff-worker")
        thread.start()
        thread.join()
        root_span_id, root_trace_id = root.span_id, root.trace_id
    (worker_span,) = tracer.finished(name="worker.step")
    assert worker_span.trace_id == root_trace_id
    assert worker_span.parent_id == root_span_id
    assert worker_span.depth == 1
    assert worker_span.thread == "handoff-worker"
    # ``parent`` (the name) still points at the remote parent for old readers.
    assert worker_span.parent == "main.op"


def test_attach_none_is_transparent(tracer):
    with tracer.attach(None):
        with tracer.span("solo"):
            pass
    (span,) = tracer.finished()
    assert span.parent_id is None and span.depth == 0


def test_context_is_none_without_an_open_span(tracer, registry):
    assert tracer.context() is None
    registry.disable()
    with tracer.span("muted"):
        assert tracer.context() is None


# ----------------------------------------------------------------------
# Head-based sampling
# ----------------------------------------------------------------------
def test_sampler_validates_rates():
    with pytest.raises(ObservabilityError):
        Sampler(default_rate=-1)
    with pytest.raises(ObservabilityError):
        Sampler(default_rate=1, rates={"x": 2.5})


def test_sampler_is_deterministic_first_then_every_nth():
    sampler = Sampler(default_rate=4)
    assert [sampler.sample("op") for _ in range(8)] == [
        True, False, False, False, True, False, False, False,
    ]
    assert Sampler(default_rate=1).sample("op") is True
    assert Sampler(default_rate=0).sample("op") is False


def test_sampler_per_stage_overrides():
    sampler = Sampler(default_rate=0, rates={"store.checkpoint": 1})
    assert sampler.rate_for("store.checkpoint") == 1
    assert sampler.rate_for("live.commit") == 0
    assert sampler.sample("store.checkpoint") and not sampler.sample("live.commit")


def test_sampled_out_roots_mute_children_but_not_metrics(tracer, registry):
    histogram = registry.histogram("repro.test.op.seconds", "latency")
    tracer.set_sampler(Sampler(default_rate=2))
    for _ in range(4):
        with tracer.span("op"):
            with tracer.span("op.child"):
                pass
            histogram.observe(0.001)
    spans = tracer.finished()
    # 1-in-2: ops 1 and 3 record (with their children); 2 and 4 vanish whole.
    assert len(spans) == 4
    assert len({span.trace_id for span in spans}) == 2
    assert len(tracer.finished(name="op.child")) == 2
    # Sampling thins traces only — every round still hit the histogram.
    assert histogram.count == 4


def test_sampled_out_context_mutes_the_attached_thread(tracer):
    tracer.set_sampler(Sampler(default_rate=0))
    captured = {}

    def worker():
        with tracer.attach(captured["context"]):
            with tracer.span("worker.step"):
                pass

    with tracer.span("op"):
        captured["context"] = tracer.context()
        assert captured["context"] is not None and not captured["context"].recording
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert tracer.finished() == []


def test_clear_restarts_the_sampler_counters(tracer):
    tracer.set_sampler(Sampler(default_rate=4))
    with tracer.span("op"):
        pass
    tracer.clear()
    with tracer.span("op"):  # first occurrence again: must record
        pass
    assert len(tracer.finished()) == 1


def test_global_reset_drops_the_sampler(global_obs):
    obs.set_sampler(Sampler(default_rate=16))
    assert obs.get_tracer().sampler is not None
    obs.reset()
    assert obs.get_tracer().sampler is None


def test_obs_overhead_sampled_leg_traces_one_commit_in_sixteen(global_obs):
    """The benchmark's sampled leg keeps one 1-in-16 sampler across rounds:
    17 sampled commits record the 1st and the 17th, not all 17."""
    pytest.importorskip("numpy", exc_type=ImportError)
    from benchmarks.bench_live_engine import obs_overhead
    from tests.conftest import make_offer

    offers = [
        make_offer(offer_id=i, earliest_start=40 + i % 8, time_flexibility=4 + i % 3)
        for i in range(1, 41)
    ]
    assert obs_overhead(offers, rounds=17)["sampled_traced_commits"] == 2
    assert obs_overhead(offers, rounds=16)["sampled_traced_commits"] == 1


# ----------------------------------------------------------------------
# Enable/disable flip safety
# ----------------------------------------------------------------------
def test_enable_mid_operation_records_no_orphans(tracer, registry):
    registry.disable()
    outer = tracer.span("outer")
    with outer:
        registry.enable()
        # The root never recorded; a child recorded now would be an orphan
        # grafted onto a trace that does not exist.
        with tracer.span("child"):
            pass
    assert tracer.finished() == []
    # The flip is over once the muted stack unwound: the next span records.
    with tracer.span("fresh"):
        pass
    (fresh,) = tracer.finished()
    assert fresh.name == "fresh" and fresh.parent_id is None


def test_disable_mid_operation_keeps_the_open_root(tracer, registry):
    with tracer.span("outer"):
        registry.disable()
        with tracer.span("child"):  # muted: opened while disabled
            pass
        registry.enable()
    spans = tracer.finished()
    assert [span.name for span in spans] == ["outer"]


# ----------------------------------------------------------------------
# Engine integration: one trace across threads
# ----------------------------------------------------------------------
def test_async_worker_commit_joins_the_ingest_trace(global_obs):
    from repro.live.asynccommit import AsyncCommitEngine
    from repro.live.engine import LiveAggregationEngine
    from repro.live.events import OfferAdded

    from tests.conftest import make_offer

    engine = AsyncCommitEngine(LiveAggregationEngine(), drain_batch=1024)
    offers = [make_offer(offer_id=i, earliest_start=8 * i) for i in range(1, 6)]
    obs.enable()
    try:
        tracer = obs.get_tracer()
        with tracer.span("ingest.batch") as ingest:
            ingest_ids = (ingest.trace_id, ingest.span_id)
            for offer in offers:
                engine.apply(OfferAdded(offer.creation_time, offer))
            # The worker commits on its own once the queue runs empty; wait
            # for that commit so it demonstrably ran on the worker thread.
            deadline = time.time() + 10.0
            while engine.commit_count < 1 and time.time() < deadline:
                time.sleep(0.002)
        assert engine.commit_count >= 1, "worker never committed"
    finally:
        obs.disable()
        engine.close()
    commits = [
        span
        for span in obs.get_tracer().finished(name="live.async.worker.commit")
        if span.thread == "async-commit-worker"
    ]
    assert commits, "no worker-side live.async.worker.commit span recorded"
    worker_commit = commits[0]
    trace_id, span_id = ingest_ids
    assert worker_commit.trace_id == trace_id
    assert worker_commit.parent_id == span_id
    # Id-verified single trace across both threads: the ingest root and the
    # worker's commit (plus its drain children) share one trace id.
    trace = obs.get_tracer().finished(trace_id=trace_id)
    assert {span.thread for span in trace} >= {"async-commit-worker"}
    assert any(span.name == "ingest.batch" for span in trace)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def test_chrome_trace_has_required_fields_and_thread_lanes(tracer):
    def worker():
        with tracer.span("worker.op"):
            pass

    with tracer.span("main.op"):
        thread = threading.Thread(target=worker, name="lane-two")
        thread.start()
        thread.join()
    document = to_chrome_trace(tracer.finished(), pid=7)
    events = document["traceEvents"]
    slices = [event for event in events if event["ph"] == "X"]
    metas = [event for event in events if event["ph"] == "M"]
    assert len(slices) == 2 and metas
    for event in slices:
        for field in ("name", "cat", "ph", "pid", "tid", "ts", "dur", "args"):
            assert field in event
        assert event["pid"] == 7 and isinstance(event["tid"], int)
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"]["trace_id"] and event["args"]["span_id"]
    # Distinct threads land in distinct integer lanes, each named by a
    # thread_name metadata event — the way Chrome's own traces do it.
    assert len({event["tid"] for event in slices}) == 2
    named = {meta["args"]["name"] for meta in metas if meta["name"] == "thread_name"}
    assert "lane-two" in named
    json.dumps(document)  # the whole document must be JSON-serializable


# ----------------------------------------------------------------------
# Folded stacks
# ----------------------------------------------------------------------
def test_folded_stacks_sum_to_root_durations(tracer):
    with tracer.span("root"):
        with tracer.span("child.a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("child.b"):
            pass
    spans = tracer.finished()
    folded = folded_stacks(spans)
    assert set(folded) == {
        "root",
        "root;child.a",
        "root;child.a;leaf",
        "root;child.b",
    }
    (root,) = [span for span in spans if span.name == "root"]
    total_us = sum(folded.values())
    assert total_us == pytest.approx(root.duration * 1e6, abs=1e-3)
    assert all(value >= 0.0 for value in folded.values())
    text = to_folded_text(spans)
    assert text.splitlines() == sorted(text.splitlines())


def test_folded_cross_thread_children_root_their_own_stacks(tracer):
    captured = {}

    def worker():
        with tracer.attach(captured["context"]):
            with tracer.span("worker.op"):
                pass

    with tracer.span("root"):
        captured["context"] = tracer.context()
        thread = threading.Thread(target=worker, name="folded-worker")
        thread.start()
        thread.join()
    folded = folded_stacks(tracer.finished())
    # The worker span ran concurrently with its remote parent; folding it
    # under ``root`` would produce negative self-time, so it starts a stack.
    assert "worker.op" in folded
    assert "root;worker.op" not in folded


def test_write_folded_to_a_path(tmp_path, tracer):
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    target = tmp_path / "stacks.folded"
    assert write_folded(target, tracer.finished()) == 2
    lines = target.read_text(encoding="utf-8").splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["a", "a;b"]


# ----------------------------------------------------------------------
# Trace summaries and the tree printer
# ----------------------------------------------------------------------
def test_trace_summaries_one_row_per_trace(tracer):
    with tracer.span("first"):
        with tracer.span("inner"):
            pass
    with tracer.span("second"):
        pass
    rows = trace_summaries(tracer.finished())
    assert [row["root"] for row in rows] == ["first", "second"]
    assert rows[0]["spans"] == 2 and rows[1]["spans"] == 1
    assert rows[0]["trace_id"] != rows[1]["trace_id"]


def test_format_trace_draws_the_id_tree(tracer):
    captured = {}

    def worker():
        with tracer.attach(captured["context"]):
            with tracer.span("remote.child"):
                pass

    with tracer.span("op") as root:
        trace_id = root.trace_id
        with tracer.span("local.child"):
            pass
        captured["context"] = tracer.context()
        thread = threading.Thread(target=worker, name="tree-worker")
        thread.start()
        thread.join()
    rendered = format_trace(tracer.finished(), trace_id)
    lines = rendered.splitlines()
    assert lines[0].startswith(f"trace {trace_id}")
    assert any(line.lstrip().startswith("op") for line in lines)
    indented = [line for line in lines if line.startswith("    ")]
    assert len(indented) == 2
    # The cross-thread child is flagged with its thread name.
    assert any("remote.child" in line and "[tree-worker]" in line for line in lines)
    assert "no spans" in format_trace(tracer.finished(), 999_999_999)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_stats_flame_folded_then_trace(global_obs, tmp_path, capsys):
    from repro.app.cli import main

    dump = tmp_path / "obs.jsonl"
    flame = tmp_path / "flame.json"
    folded = tmp_path / "stacks.folded"
    assert (
        main(
            [
                "--prosumers", "40",
                "stats",
                "--export-jsonl", str(dump),
                "--flame", str(flame),
                "--folded", str(folded),
            ]
        )
        == 0
    )
    capsys.readouterr()
    document = json.loads(flame.read_text(encoding="utf-8"))
    assert any(event["ph"] == "X" for event in document["traceEvents"])
    assert folded.read_text(encoding="utf-8").strip()

    assert main(["trace", "--list", "--input", str(dump)]) == 0
    listing = capsys.readouterr().out
    assert "live.commit" in listing

    assert main(["trace", "latest", "--input", str(dump)]) == 0
    tree = capsys.readouterr().out
    assert tree.startswith("trace ")

    assert main(["trace", "123456789", "--input", str(dump)]) == 1
    assert main(["trace", "not-a-number", "--input", str(dump)]) == 2
    assert main(["trace", "--input", str(tmp_path / "missing.jsonl")]) == 2


def test_cli_stats_sample_flag(global_obs, capsys):
    from repro.app.cli import main

    assert main(["--prosumers", "40", "stats", "--sample", "4", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "head-sampling roots 1-in-4" in out
    assert "stats smoke OK" in out
    assert main(["--prosumers", "40", "stats", "--sample", "-1"]) == 2
