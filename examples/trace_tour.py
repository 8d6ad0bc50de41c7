"""A guided tour of the tracing layer: ids, one operation's trace, sampling,
and the flamegraph exporters.

Run with::

    python examples/trace_tour.py

The script streams a scenario through the live engine with observability
on, one ``ingest.batch`` span per batch of events.  Each batch ends in a
commit, so one trace holds the ingest, the ``live.commit`` that drained it
and the read path's snapshot publication, linked by ids.  The tour then
demonstrates the head-based sampler (traces thin out, stage histograms stay
exact) and writes the three trace artifacts — a JSONL dump, a Chrome
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

#: Events ingested, then committed, under one ``ingest.batch`` span.
BATCH = 64

#: The stages one batch's trace spans: the commit and the snapshot it publishes.
COMMIT_STAGES = ("live.commit", "readpath.snapshot.build")


def replay_once(scenario) -> int:
    """Stream the scenario through the live engine; returns the batch count."""
    tracer = obs.get_tracer()
    events = scenario_event_stream(scenario, seed=9).replay_order()
    session = FlexSession(scenario, engine="live", live_preload=False)
    for start in range(0, len(events), BATCH):
        # The commit runs inside the batch's span, so its spans (and the read
        # path's publication) nest under it as children of this trace.
        with tracer.span("ingest.batch"):
            session.ingest_many(events[start : start + BATCH])
            session.commit()
    session.offers().aggregate().fetch()
    return -(-len(events) // BATCH)


def main() -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    scenario = generate_scenario(ScenarioConfig(prosumer_count=120, seed=9))

    # ------------------------------------------------------------------
    # 1. One batch, one trace: ingest -> live.commit -> read-path publish.
    # ------------------------------------------------------------------
    obs.reset()
    obs.enable()
    replay_once(scenario)
    tracer = obs.get_tracer()
    spans = tracer.finished()
    first = tracer.finished(name="ingest.batch")[0]
    trace = tracer.finished(trace_id=first.trace_id)
    stages = {span.name for span in trace}
    assert stages >= set(COMMIT_STAGES), "the batch's commit left its trace"
    print(f"{len(spans)} spans finished; first ingest batch = trace {first.trace_id}")
    print(
        f"  that one trace holds {len(trace)} spans on one thread, "
        f"{', '.join(COMMIT_STAGES)} among them"
    )
    print("  (each span carries the batch's trace_id and its parent's span_id)")
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
