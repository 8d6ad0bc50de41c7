"""RECOVERY bench: snapshot + log tail beats cold replay; deletes stay O(1).

Two claims of the :mod:`repro.store` durability subsystem are gated here:

* **Restore speedup** — rebuilding a session from the latest checkpoint and
  replaying only the log tail must be ≥5x faster than a cold replay of the
  whole event log when 10% of the stream lies beyond the checkpoint.  The
  restore path parses the snapshot (JSONL offers + aggregates) instead of
  re-running ~90% of the event stream through the engine.  Each of 9 rounds
  times one cold replay and one restore back to back, and the gate reads
  the median of the per-round ratios.

* **Delete throughput** — `warehouse.Table` deletes are tombstoned and
  compacted periodically, so per-delete cost is amortized O(1).  The bench
  deletes every row of a small and a 4x larger indexed table; the throughput
  ratio (large/small) must stay near 1 instead of degrading linearly with
  table size as the old full-rewrite deletes did.

Standalone mode (CI): ``python -m benchmarks.bench_recovery --quick --json
BENCH_recovery.json`` writes the machine-readable summary the trajectory gate
(``benchmarks/check_bench_trajectory.py``) consumes alongside the live-engine
sweep.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time

from benchmarks.conftest import record
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession
from repro.store import RecoveryManager
from repro.warehouse.table import Table

#: Fraction of the stream left beyond the checkpoint (the acceptance point).
TAIL_FRACTION = 0.1

#: Micro-batch size both the cold replay and the tail replay commit with.
BATCH_SIZE = 64

#: Rounds of offer churn the synthetic service lives through (see below).
CHURN_ROUNDS = 5


def _event_stream(scenario, churn_rounds: int = CHURN_ROUNDS):
    """A long-running service's event log: several rounds of offer churn.

    Flex-offers are short-lived (day-ahead), the service is not: each round
    replays the scenario's lifecycle stream and then withdraws every offer —
    prosumers re-offer their flexibility the next day — except the last
    round, which survives.  The log therefore holds several times more events
    than surviving offers, which is exactly the regime the snapshot+tail
    restore exists for (and the worst case for replaying from sequence 0).
    The list is in consumption order; replaying it ends in the last round's
    population.
    """
    events = []
    for round_index in range(churn_rounds):
        last = round_index == churn_rounds - 1
        log = scenario_event_stream(
            scenario,
            update_fraction=0.1 if last else 0.0,
            withdraw_fraction=0.05 if last else 0.0,
            seed=7 + round_index,
        )
        ordered = log.replay_order()
        events.extend(ordered)
        if not last:
            from repro.live.events import OfferWithdrawn

            cutoff = max(event.timestamp for event in ordered) + scenario.grid.resolution
            events.extend(
                OfferWithdrawn(cutoff, offer.id) for offer in scenario.flex_offers
            )
    return events


def _cold_replay_seconds(directory: str, scenario) -> float:
    gc.collect()
    started = time.perf_counter()
    session = FlexSession(
        scenario, engine="live", micro_batch_size=BATCH_SIZE, live_preload=False
    )
    session.replay(list(RecoveryManager(directory).log.events()))
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed


def _restore_seconds(directory: str, scenario) -> float:
    gc.collect()
    started = time.perf_counter()
    session = RecoveryManager(directory).restore(
        scenario=scenario, micro_batch_size=BATCH_SIZE
    )
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed


def recovery_summary(scenario, rounds: int = 9) -> dict:
    """The restore-vs-cold-replay comparison as a JSON-ready row.

    Both contenders start from durable state only, as a crash recovery does:

    * *cold replay* reads the whole segmented event log back from disk and
      replays it through a fresh session (sequence 0 onward);
    * *restore* loads the checkpoint (offers + aggregates) and replays only
      the log tail past the checkpoint's offset.

    Each round times one cold replay and one restore back to back,
    alternating which runs first, and the speedup is the median of the
    per-round ratios: a swing in host speed then lands on both contenders
    of a round, not on one contender's whole series.  Each contender starts
    after a full collection, so neither is timed collecting the cyclic
    garbage earlier sessions left (25-60 ms a collection, about what a whole
    restore takes).
    """
    ordered = _event_stream(scenario)
    cut = len(ordered) - int(len(ordered) * TAIL_FRACTION)
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as directory:
        writer = FlexSession(
            scenario, engine="live", micro_batch_size=BATCH_SIZE, live_preload=False
        )
        manager = RecoveryManager(directory)
        manager.record(ordered)
        writer.replay(ordered[:cut])
        manager.checkpoint(writer)
        writer.close()
        cold, restore, ratios = [], [], []
        for index in range(rounds):
            if index % 2:
                restore.append(_restore_seconds(directory, scenario))
                cold.append(_cold_replay_seconds(directory, scenario))
            else:
                cold.append(_cold_replay_seconds(directory, scenario))
                restore.append(_restore_seconds(directory, scenario))
            ratios.append(cold[-1] / restore[-1])
    return {
        "events": len(ordered),
        "tail_fraction": TAIL_FRACTION,
        "tail_events": len(ordered) - cut,
        "cold_replay_ms": round(statistics.median(cold) * 1000, 3),
        "restore_ms": round(statistics.median(restore) * 1000, 3),
        "speedup": round(statistics.median(ratios), 1),
    }


def store_stage_breakdown(scenario) -> dict:
    """Per-stage store latency rows from one instrumented checkpoint cycle.

    Runs record -> checkpoint -> compact -> restore once with :mod:`repro.obs`
    enabled and returns the ``store.*`` histograms as JSON-ready rows, so the
    trajectory gate can require the durability stages to stay instrumented.
    """
    from benchmarks.conftest import stage_rows
    from repro import obs

    ordered = _event_stream(scenario, churn_rounds=2)
    obs.reset()
    obs.enable()
    try:
        with tempfile.TemporaryDirectory(prefix="bench-obs-store-") as directory:
            writer = FlexSession(
                scenario, engine="live", micro_batch_size=BATCH_SIZE, live_preload=False
            )
            manager = RecoveryManager(directory)
            manager.record(ordered)
            writer.replay(ordered)
            # A full collection before each timed stage, as in
            # recovery_summary: each stage's row then times the stage, not
            # where a collection of the replay's garbage happened to land.
            gc.collect()
            manager.checkpoint(writer)
            gc.collect()
            manager.compact()
            writer.close()
            gc.collect()
            session = manager.restore(scenario=scenario, micro_batch_size=BATCH_SIZE)
            session.close()
    finally:
        obs.disable()
    rows = {
        name: row
        for name, row in stage_rows(obs.get_registry()).items()
        if name.startswith("repro.store.")
    }
    obs.reset()
    return rows


def _delete_throughput(row_count: int) -> float:
    """Deletes per second over a fully indexed table of ``row_count`` rows."""
    table = Table("facts", ["offer_id", "state", "payload"])
    table.create_index("offer_id")
    table.extend(
        {"offer_id": i, "state": "offered", "payload": f"payload-{i}"}
        for i in range(row_count)
    )
    table.lookup("offer_id", 0)  # force the lazy index build outside the timing
    started = time.perf_counter()
    for offer_id in range(row_count):
        table.delete_where("offer_id", offer_id)
    elapsed = time.perf_counter() - started
    assert len(table) == 0
    return row_count / elapsed


def delete_summary(small_rows: int, rounds: int = 9) -> dict:
    """Delete throughput at two table sizes; flat scaling is the claim.

    Each round times one small and one large table back to back, and the
    scaling is the median of the per-round ratios: each timing takes a few
    ms, so a swing in host speed lands on both sizes of a round, not on one
    size's whole series.
    """
    large_rows = small_rows * 4
    small, large, ratios = [], [], []
    for _ in range(rounds):
        small.append(_delete_throughput(small_rows))
        large.append(_delete_throughput(large_rows))
        ratios.append(large[-1] / small[-1])
    return {
        "small_rows": small_rows,
        "large_rows": large_rows,
        "small_deletes_per_s": round(statistics.median(small)),
        "large_deletes_per_s": round(statistics.median(large)),
        "scaling": round(statistics.median(ratios), 2),
    }


def test_snapshot_restore_beats_cold_replay(benchmark, paper_scenario):
    """Acceptance: snapshot+tail restore >=5x faster than cold replay @ 10% tail."""
    summary = benchmark.pedantic(
        lambda: recovery_summary(paper_scenario), rounds=1, iterations=1
    )
    record(
        benchmark,
        {
            **summary,
            "claim": "restore from snapshot + log tail beats replaying from sequence 0",
        },
        "RECOVERY: snapshot+tail restore vs cold replay",
    )
    assert summary["speedup"] >= 5.0


def test_delete_throughput_does_not_degrade_with_table_size(benchmark):
    """Acceptance: tombstoned deletes scale flat, not linearly with table size."""
    summary = benchmark.pedantic(lambda: delete_summary(2000), rounds=1, iterations=1)
    record(
        benchmark,
        {
            **summary,
            "claim": "tombstone + periodic compaction makes deletes amortized O(1)",
        },
        "RECOVERY: warehouse delete throughput vs table size",
    )
    # The old full-rewrite deletes degraded ~linearly (scaling ~0.25 at 4x);
    # amortized-O(1) deletes stay near parity.
    assert summary["scaling"] >= 0.5


# ----------------------------------------------------------------------
# Standalone smoke mode (CI: `python -m benchmarks.bench_recovery --quick`)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Run the recovery comparison without the pytest harness.

    ``--quick`` shrinks the scenario and delete tables so the run finishes in
    a few seconds.  CI gates on the *relative* ratios inside the ``--json``
    summary (see ``check_bench_trajectory.py``); the absolute wall clock is
    informational.
    """
    import argparse
    import json

    from repro.datagen.scenarios import ScenarioConfig, generate_scenario

    parser = argparse.ArgumentParser(description="recovery bench (standalone)")
    parser.add_argument("--quick", action="store_true", help="small scenario, few rounds")
    parser.add_argument("--prosumers", type=int, default=800)
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument(
        "--json", metavar="PATH", help="write the machine-readable summary to PATH"
    )
    args = parser.parse_args(argv)
    prosumers = 200 if args.quick else args.prosumers
    small_rows = 1000 if args.quick else 2000

    scenario = generate_scenario(ScenarioConfig(prosumer_count=prosumers, seed=args.seed))
    recovery = recovery_summary(scenario)
    deletes = delete_summary(small_rows)
    print(
        f"[RECOVERY] {recovery['events']} events, tail {TAIL_FRACTION:.0%}: "
        f"cold {recovery['cold_replay_ms']:.1f} ms vs restore "
        f"{recovery['restore_ms']:.1f} ms -> {recovery['speedup']:.1f}x"
    )
    print(
        f"[DELETES ] {deletes['small_rows']} rows {deletes['small_deletes_per_s']:,}/s, "
        f"{deletes['large_rows']} rows {deletes['large_deletes_per_s']:,}/s "
        f"-> scaling {deletes['scaling']:.2f}"
    )
    stages = store_stage_breakdown(scenario)
    for stage, row in sorted(stages.items()):
        print(
            f"  stage {stage:<32} n={row['count']:<3} mean {row['mean_ms']:8.3f} ms "
            f"max {row['max_ms']:8.3f} ms"
        )
    from benchmarks.conftest import stage_shares

    summary = {
        "schema": 1,
        "quick": bool(args.quick),
        "recovery": recovery,
        "deletes": deletes,
        "stages": stages,
        "stage_shares": stage_shares(stages),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
