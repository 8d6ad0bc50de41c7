"""A guided tour of the tracing layer: ids, cross-thread traces, sampling,
and the flamegraph exporters.

Run with::

    python examples/trace_tour.py

The script streams a scenario through the async engine with observability
on, one ``ingest.batch`` span per batch of events.  The engine's background
worker commits those events on its own thread, yet its commits land in the
trace of the ingest that handed them over, linked by ids.  The tour then
demonstrates the head-based sampler (traces thin out, stage histograms stay exact)
and writes the three trace artifacts — a JSONL dump, a Chrome
``trace_event`` file for Perfetto/``chrome://tracing`` and a folded-stack
file for speedscope/``flamegraph.pl`` — into ``examples/output/``.
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.datagen import ScenarioConfig, generate_scenario
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Events ingested under one ``ingest.batch`` span, and the worker's commit
#: cadence: it commits after every ``DRAIN`` applied events, so each batch
#: sees worker-thread commits before the flush barrier returns.
BATCH, DRAIN = 64, 16

#: The async engine's worker thread name (see ``repro.live.asynccommit``).
WORKER = "async-commit-worker"


def replay_once(scenario) -> int:
    """Stream the scenario through the async engine; returns the batch count."""
    tracer = obs.get_tracer()
    events = scenario_event_stream(scenario, seed=9).replay_order()
    with FlexSession(
        scenario, engine="async", micro_batch_size=DRAIN, live_preload=False
    ) as session:
        for start in range(0, len(events), BATCH):
            # Each enqueue hands the open span's context to the worker, whose
            # next commit joins this batch's trace.  The flush barrier inside
            # the span waits until every event of the batch is committed.
            with tracer.span("ingest.batch"):
                for event in events[start : start + BATCH]:
                    session.ingest(event)
                session.engine.refresh()
        session.offers().aggregate().fetch()
    return -(-len(events) // BATCH)


def main() -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    scenario = generate_scenario(ScenarioConfig(prosumer_count=120, seed=9))

    # ------------------------------------------------------------------
    # 1. One ingest, one trace — across threads.
    # ------------------------------------------------------------------
    obs.reset()
    obs.enable()
    replay_once(scenario)
    tracer = obs.get_tracer()
    spans = tracer.finished()
    first = tracer.finished(name="ingest.batch")[0]
    trace = tracer.finished(trace_id=first.trace_id)
    threads = {span.thread for span in trace}
    assert WORKER in threads, "no worker commit joined the ingest trace"
    print(f"{len(spans)} spans finished; first ingest batch = trace {first.trace_id}")
    print(
        f"  that one trace holds {len(trace)} spans across "
        f"{len(threads)} threads: {sorted(threads)}"
    )
    print("  (the worker attached the ingest span's TraceContext explicitly —")
    print("   its commit carries the ingest's trace_id and parent_id)")
    print()
    print(obs.format_trace(spans, first.trace_id))
    print()

    # ------------------------------------------------------------------
    # 2. The artifacts: JSONL, Chrome trace_event, folded stacks.
    # ------------------------------------------------------------------
    jsonl = OUTPUT_DIR / "trace_tour.jsonl"
    flame = OUTPUT_DIR / "trace_tour.trace.json"
    folded = OUTPUT_DIR / "trace_tour.folded"
    lines = obs.export_jsonl(jsonl, obs.get_registry(), tracer)
    events = obs.export_chrome_trace(flame, spans)
    stacks = obs.write_folded(folded, spans)
    print(f"wrote {lines} JSONL records to {jsonl}")
    print(f"wrote {events} trace events to {flame}  (open in https://ui.perfetto.dev)")
    print(f"wrote {stacks} folded stacks to {folded}  (open in https://speedscope.app)")
    print()

    # ------------------------------------------------------------------
    # 3. Head-based sampling: 1-in-4 ingest traces, metrics still exact.
    # ------------------------------------------------------------------
    obs.reset()
    obs.enable()
    obs.set_sampler(obs.Sampler(default_rate=4, rates={"store.checkpoint": 1}))
    batches = replay_once(scenario)
    sampled_roots = obs.get_tracer().finished(name="ingest.batch")
    commits = obs.get_registry().get("repro.live.commit.seconds")
    print(
        f"sampled 1-in-4: {len(sampled_roots)} of {batches} ingest traces recorded, "
        f"but the commit histogram still counted every one of the {commits.count} commits"
    )
    print("  (sampling thins the span log only; checkpoints would keep rate 1)")
    obs.disable()
    obs.reset()


if __name__ == "__main__":
    main()
