"""Gate the live-engine perf trajectory on *relative* benchmark ratios.

CI runs ``python -m benchmarks.bench_live_engine --quick --engine all --json
BENCH_live.json`` (and, since the durability subsystem,
``python -m benchmarks.bench_recovery --quick --json BENCH_recovery.json``)
and then this checker against the committed baselines
(``benchmarks/BENCH_live_baseline.json`` /
``benchmarks/BENCH_recovery_baseline.json``).  Wall-clock milliseconds are
meaningless across runner generations, so they are printed but never gate;
what gates are machine-independent *ratios*:

* replay throughput of the async engine *relative to the live engine* — the
  background-commit path must not drift behind the synchronous engine it
  wraps.  A drop of more than ``TOLERANCE`` (25%) against the committed
  baseline fails the job.  (The async engine's sweep commit column is
  *barrier latency* — dominated by worker-thread wakeup jitter at
  quick-sweep scale — so it is reported but not gated.)

* the chunked-workload speedup — a commit touching 1 chunk of 16 vs the
  whole-cell re-aggregation any mutation cost before the chunk-granular
  dirty ledger.  Gated relative to the baseline like the other ratios *and*
  against the absolute ``CHUNKED_FLOOR`` (3x) acceptance criterion: this
  ratio compares two commits of the same engine in the same process, so it
  is machine-independent enough for an absolute floor.

* the recovery ratios (when the optional third/fourth arguments name the
  recovery summaries): snapshot+tail restore speedup over cold replay, and
  warehouse delete-throughput scaling across table sizes — both gated
  relative to their committed baseline with the same ``TOLERANCE``.

* the scale claim (``scaling`` in the live summary): commit latency for a
  fixed touched set must stay flat as the stored population grows 10x —
  chunk-granular dirty tracking means commits pay for what changed, not
  what is stored.  ``latency_ratio`` (largest rung
  over smallest) gates against the absolute ``SCALING_CEILING`` only: it
  is a ratio of two medians on differently-sized working sets, jittery
  enough run-to-run (±30% observed on an idle machine) that a
  baseline-relative tolerance would flake; the baseline value is printed
  for the artifact reader.

* the versioned-read-path storm (``storm`` in the live summary): the
  cached read of an untouched aggregation spec must beat recomputing it
  (``CACHE_SPEEDUP_FLOOR``, 5x), the region-confined write workload must
  keep the result cache hot (``STORM_HIT_FLOOR``) and the concurrent
  reader pool must outpace recomputation (``STORM_THROUGHPUT_FLOOR``) —
  all same-process ratios gated as absolute floors on the current run.

* the observability contract: enabled-vs-disabled commit throughput must
  stay above the absolute ``OBS_FLOOR`` (0.9 — instrumentation may cost at
  most 10% of commit throughput; same-engine same-process ratio, so an
  absolute floor is safe), the head-sampled posture (1-in-16 traces,
  stage histograms exact) must recover most of that cost (``sampled_ratio``
  against the absolute ``SAMPLED_FLOOR``, 0.95), and the per-stage latency
  breakdown must keep covering the required stages (commit, kernel, query
  in the live summary; checkpoint and restore in the recovery summary) —
  an instrumented path silently losing its instruments is a regression
  even when it gets faster.

* stage-share drift: once a committed baseline carries ``stage_shares``
  (each stage's fraction of the total instrumented time), the required
  stages' shares must stay within ``STAGE_SHARE_TOLERANCE`` (an
  absolute band of share points) of the baseline — a stage silently
  ballooning relative to its peers fails CI even when absolute wall clock
  moved with the runner.  Baselines without the section (pre-tracing) fall
  back to the presence-only check.

Exit code 0 = trajectory healthy, 1 = regression, 2 = malformed input.

Refreshing the baselines after an *intentional* change: run the quick sweeps
locally and commit the JSON they write::

    python -m benchmarks.bench_live_engine --quick --engine all \
        --json benchmarks/BENCH_live_baseline.json
    python -m benchmarks.bench_recovery --quick \
        --json benchmarks/BENCH_recovery_baseline.json
"""

from __future__ import annotations

import json
import sys

#: Engines gated on replay throughput relative to the live engine.
REPLAY_GATED = ("async",)

#: Fraction key of the headline sweep point (1% of the offers touched).
HEADLINE = "0.01"

#: How much a relative ratio may regress vs the committed baseline.
TOLERANCE = 0.25

#: Absolute floor on the chunked-workload speedup (1 touched chunk of 16 vs
#: whole-cell re-aggregation) — the ROADMAP live (c) acceptance criterion.
CHUNKED_FLOOR = 3.0

#: Absolute floor on the materialized-view maintenance speedup (per-commit
#: delta application vs a from-scratch ``view.refresh()`` of the same spec)
#: — the PR 10 acceptance criterion.
MATERIALIZED_FLOOR = 3.0

#: Absolute floor on enabled/disabled commit throughput — instrumentation may
#: cost at most 10% (same engine, same process: machine-independent ratio).
OBS_FLOOR = 0.9

#: Absolute floor on the head-sampled (1-in-16 traces, exact metrics) vs
#: disabled commit throughput — the production always-on posture must keep
#: >=95% of uninstrumented throughput.
SAMPLED_FLOOR = 0.95

#: How far a required stage's share of total instrumented time may move
#: from the committed baseline, in absolute share points.  Generous on
#: purpose: quick sweeps are short and shares jitter; the gate exists to
#: catch a stage ballooning (or vanishing) by a workload-shape margin, not
#: to pin scheduler noise.
STAGE_SHARE_TOLERANCE = 0.20

#: Absolute ceiling on the scaling sweep's commit-latency ratio between the
#: largest and smallest population rung (10x apart).  A truly flat commit
#: path holds this near 1; the ceiling leaves room for cache effects on the
#: bigger working set while still failing anything resembling O(population).
SCALING_CEILING = 3.0

#: Absolute floor on the storm's cached-vs-uncached read latency ratio — a
#: cache hit on an untouched aggregation spec must beat recomputing it >=5x
#: (the readpath acceptance criterion; same spec, same snapshot, same
#: process, so an absolute floor is safe).
CACHE_SPEEDUP_FLOOR = 5.0

#: Absolute floor on the storm's cache hit ratio: with the writer confined to
#: one region and the reader specs covering the others, commits must keep
#: carrying the untouched entries — a ratio this low means invalidation went
#: spec-blind.  Observed quick-sweep values sit above 0.95.
STORM_HIT_FLOOR = 0.5

#: Absolute floor on reads the storm pool serves per uncached-recompute time.
#: The raw qps figures jitter with thread scheduling, but the pool beating
#: one recomputation 5x is the minimum for "concurrent reads pay off".
STORM_THROUGHPUT_FLOOR = 5.0

#: Stage histograms the live sweep's instrumented replay must cover.
LIVE_REQUIRED_STAGES = (
    "repro.live.commit.seconds",
    "repro.aggregation.kernel.scalar.seconds",
    "repro.session.query.seconds",
    # The versioned read path: snapshot publication on commit and the
    # cache-fronted read (every default-consistency query probes the cache).
    "repro.readpath.snapshot.build.seconds",
    "repro.readpath.cache.lookup.seconds",
)

#: Stage histograms the recovery bench's instrumented cycle must cover.
RECOVERY_REQUIRED_STAGES = (
    "repro.store.checkpoint.seconds",
    "repro.store.restore.seconds",
)


def _missing_stages(stages: dict, required) -> list[str]:
    return [name for name in required if name not in stages]


def _share_drift(current: dict, baseline: dict, required, label: str) -> list[str]:
    """Gate required stages' share of instrumented time vs the baseline.

    Relative gate with a graceful ramp: it only engages once the committed
    baseline carries a ``stage_shares`` section (pre-tracing baselines keep
    passing on the presence-only check).
    """
    then_shares = baseline.get("stage_shares")
    if not then_shares:
        print(f"  {label} share drift     : baseline has no stage_shares (presence-only)")
        return []
    now_shares = current.get("stage_shares", {})
    failures = []
    for name in required:
        now = float(now_shares.get(name, 0.0))
        then = float(then_shares.get(name, 0.0))
        drift = now - then
        flag = "DRIFT" if abs(drift) > STAGE_SHARE_TOLERANCE else "ok"
        print(
            f"  share {name.removeprefix('repro.').removesuffix('.seconds'):<24}: "
            f"{now:6.3f} (baseline {then:.3f}, drift {drift:+.3f}, "
            f"band ±{STAGE_SHARE_TOLERANCE:.2f}) {flag}"
        )
        if abs(drift) > STAGE_SHARE_TOLERANCE:
            failures.append(
                f"{label}: stage [{name}] share of instrumented time "
                f"drifted {drift:+.3f} vs baseline (band ±{STAGE_SHARE_TOLERANCE:.2f})"
            )
    return failures


def _replay_ratio(summary: dict, engine: str) -> float:
    live = float(summary["engines"]["live"]["replay"]["events_per_second"])
    return float(summary["engines"][engine]["replay"]["events_per_second"]) / live


def check(current: dict, baseline: dict) -> list[str]:
    """Return the list of gate failures (empty = healthy)."""
    failures: list[str] = []
    floor = 1.0 - TOLERANCE
    for engine in REPLAY_GATED:
        now_r, then_r = _replay_ratio(current, engine), _replay_ratio(baseline, engine)
        print(
            f"  {engine:>7} replay vs live  : {now_r:6.2f} (baseline {then_r:.2f}, "
            f"floor {then_r * floor:.2f})"
        )
        if now_r < then_r * floor:
            failures.append(
                f"{engine}: replay throughput vs live regressed >{TOLERANCE:.0%} "
                f"({now_r:.2f} vs baseline {then_r:.2f})"
            )
    # Chunk-granular commits: cost must scale with touched chunks, not cell
    # size.  Gated both relative to the committed baseline (like every other
    # ratio) and against the absolute CHUNKED_FLOOR acceptance criterion.
    if "chunked" not in current:
        failures.append("chunked workload summary missing from the current sweep")
    else:
        # The absolute floor gates unconditionally — it is machine- and
        # baseline-independent (two commits of the same engine, same process).
        now_c = float(current["chunked"]["speedup"])
        then_c = float(baseline["chunked"]["speedup"]) if "chunked" in baseline else None
        print(
            f"  chunked 1-of-{current['chunked']['chunks']} speedup: {now_c:6.1f}x "
            f"(baseline {then_c or 0.0:.1f}x, floor "
            f"{max(then_c * floor if then_c else 0.0, CHUNKED_FLOOR):.1f}x)"
        )
        if now_c < CHUNKED_FLOOR:
            failures.append(
                f"chunked: 1-touched-chunk speedup {now_c:.1f}x fell below the "
                f"absolute {CHUNKED_FLOOR:.0f}x acceptance floor"
            )
        elif then_c is not None and now_c < then_c * floor:
            failures.append(
                f"chunked: speedup regressed >{TOLERANCE:.0%} "
                f"({now_c:.1f}x vs baseline {then_c:.1f}x)"
            )
    # Materialized views: per-commit delta maintenance must beat a full
    # refresh of the same spec.  Same gating shape as the chunked workload —
    # an unconditional absolute floor (same process, same spec: machine-
    # independent) plus the baseline-relative tolerance.
    if "materialized" not in current:
        failures.append("materialized-view summary missing from the current sweep")
    else:
        now_m = float(current["materialized"]["speedup"])
        then_m = (
            float(baseline["materialized"]["speedup"])
            if "materialized" in baseline
            else None
        )
        print(
            f"  materialized maintenance: {now_m:6.1f}x vs full refresh "
            f"(baseline {then_m or 0.0:.1f}x, floor "
            f"{max(then_m * floor if then_m else 0.0, MATERIALIZED_FLOOR):.1f}x)"
        )
        if now_m < MATERIALIZED_FLOOR:
            failures.append(
                f"materialized: delta-maintenance speedup {now_m:.1f}x fell below "
                f"the absolute {MATERIALIZED_FLOOR:.0f}x acceptance floor"
            )
        elif then_m is not None and now_m < then_m * floor:
            failures.append(
                f"materialized: speedup regressed >{TOLERANCE:.0%} "
                f"({now_m:.1f}x vs baseline {then_m:.1f}x)"
            )
    # The scale claim: a fixed touched set must cost the same to commit no
    # matter how many offers are resident.  Gated against the absolute
    # ceiling only — the ratio's run-to-run jitter (±30% observed) makes a
    # baseline-relative tolerance flake; the baseline is informational.
    if "scaling" not in current:
        failures.append("scaling sweep summary missing from the current sweep")
    else:
        now_f = float(current["scaling"]["latency_ratio"])
        then_f = (
            float(baseline["scaling"]["latency_ratio"]) if "scaling" in baseline else None
        )
        rungs = current["scaling"]["rungs"]
        print(
            f"  scaling {current['scaling']['population_ratio']:.0f}x population : "
            f"{now_f:6.2f}x commit latency "
            f"({rungs[0]['commit_ms']:.1f} -> {rungs[-1]['commit_ms']:.1f} ms, "
            f"baseline {then_f if then_f is not None else float('nan'):.2f}x "
            f"informational, absolute ceiling {SCALING_CEILING:.1f}x)"
        )
        if now_f > SCALING_CEILING:
            failures.append(
                f"scaling: commit latency grew {now_f:.2f}x over a "
                f"{current['scaling']['population_ratio']:.0f}x population — "
                f"above the absolute {SCALING_CEILING:.1f}x flatness ceiling"
            )
    # Observability: instrumentation overhead and stage coverage.  Both gate
    # on the *current* run only (absolute, machine-independent contracts), so
    # pre-obs baselines stay readable.
    if "obs" not in current:
        failures.append("observability overhead row missing from the current sweep")
    else:
        ratio = float(current["obs"]["throughput_ratio"])
        print(
            f"  obs enabled/disabled    : {ratio:6.3f} "
            f"(absolute floor {OBS_FLOOR:.2f})"
        )
        if ratio < OBS_FLOOR:
            failures.append(
                f"obs: instrumentation costs >{1 - OBS_FLOOR:.0%} of commit "
                f"throughput (enabled/disabled ratio {ratio:.3f} < {OBS_FLOOR:.2f})"
            )
        if "sampled_ratio" not in current["obs"]:
            failures.append("obs: sampled (1-in-16) leg missing from the current sweep")
        else:
            sampled = float(current["obs"]["sampled_ratio"])
            print(
                f"  obs sampled/disabled    : {sampled:6.3f} "
                f"(absolute floor {SAMPLED_FLOOR:.2f})"
            )
            if sampled < SAMPLED_FLOOR:
                failures.append(
                    f"obs: head-sampled tracing costs >{1 - SAMPLED_FLOOR:.0%} of "
                    f"commit throughput (sampled/disabled ratio {sampled:.3f} "
                    f"< {SAMPLED_FLOOR:.2f})"
                )
    # The versioned read path's storm: cached reads must beat recomputation,
    # the writer-confined workload must keep the cache hot, and the reader
    # pool must outpace recomputation while commits land underneath it.  All
    # three are same-process ratios gated on the *current* run only (absolute
    # floors, like the obs contract), so pre-readpath baselines stay readable.
    if "storm" not in current:
        failures.append("query-storm summary missing from the current sweep")
    else:
        storm = current["storm"]
        speedup = float(storm["cache_speedup"])
        hit_ratio = float(storm["hit_ratio"])
        throughput = float(storm["throughput_vs_recompute"])
        print(
            f"  storm cached vs uncached: {speedup:6.1f}x "
            f"(absolute floor {CACHE_SPEEDUP_FLOOR:.0f}x)"
        )
        print(
            f"  storm cache hit ratio   : {hit_ratio:6.3f} "
            f"(absolute floor {STORM_HIT_FLOOR:.2f}, "
            f"{storm['commits_during_storm']} commits mid-storm)"
        )
        print(
            f"  storm pool vs recompute : {throughput:6.1f}x "
            f"(absolute floor {STORM_THROUGHPUT_FLOOR:.0f}x; "
            f"{storm['storm_qps']:,.0f} reads/s raw, informational)"
        )
        if speedup < CACHE_SPEEDUP_FLOOR:
            failures.append(
                f"storm: cached untouched-spec read only {speedup:.1f}x the "
                f"uncached recomputation (floor {CACHE_SPEEDUP_FLOOR:.0f}x)"
            )
        if hit_ratio < STORM_HIT_FLOOR:
            failures.append(
                f"storm: cache hit ratio {hit_ratio:.3f} under the confined "
                f"writer fell below the {STORM_HIT_FLOOR:.2f} floor"
            )
        if throughput < STORM_THROUGHPUT_FLOOR:
            failures.append(
                f"storm: reader pool served only {throughput:.1f}x one "
                f"recompute time of reads (floor {STORM_THROUGHPUT_FLOOR:.0f}x)"
            )
    stages = current.get("stages", {})
    missing = _missing_stages(stages, LIVE_REQUIRED_STAGES)
    print(
        f"  obs stage coverage      : {len(stages)} stages recorded, "
        f"{len(missing)} required missing"
    )
    for name in missing:
        failures.append(f"obs: no observations for required stage [{name}]")
    failures.extend(_share_drift(current, baseline, LIVE_REQUIRED_STAGES, "live"))
    # Informational only: absolute wall clock, for the artifact reader.
    for engine in ("live", *REPLAY_GATED):
        row = current["engines"][engine]["sweep"][HEADLINE]
        print(
            f"  {engine:>7} commit@1% wall  : {row['commit_ms']:8.3f} ms "
            f"(informational, not gated)"
        )
    return failures


def check_recovery(current: dict, baseline: dict) -> list[str]:
    """Gate the durability ratios (restore speedup, delete scaling)."""
    failures: list[str] = []
    floor = 1.0 - TOLERANCE
    now = float(current["recovery"]["speedup"])
    then = float(baseline["recovery"]["speedup"])
    print(
        f"  restore vs cold replay  : {now:6.1f}x (baseline {then:.1f}x, "
        f"floor {then * floor:.1f}x)"
    )
    if now < then * floor:
        failures.append(
            f"recovery: snapshot+tail restore speedup regressed >{TOLERANCE:.0%} "
            f"({now:.1f}x vs baseline {then:.1f}x)"
        )
    now_s = float(current["deletes"]["scaling"])
    then_s = float(baseline["deletes"]["scaling"])
    print(
        f"  delete scaling 4x table : {now_s:6.2f} (baseline {then_s:.2f}, "
        f"floor {then_s * floor:.2f})"
    )
    if now_s < then_s * floor:
        failures.append(
            f"recovery: delete throughput degrades with table size again "
            f"(scaling {now_s:.2f} vs baseline {then_s:.2f})"
        )
    stages = current.get("stages", {})
    missing = _missing_stages(stages, RECOVERY_REQUIRED_STAGES)
    print(
        f"  obs store stages        : {len(stages)} recorded, "
        f"{len(missing)} required missing"
    )
    for name in missing:
        failures.append(f"obs: no observations for required store stage [{name}]")
    failures.extend(
        _share_drift(current, baseline, RECOVERY_REQUIRED_STAGES, "recovery")
    )
    print(
        f"  restore wall            : {current['recovery']['restore_ms']:8.1f} ms vs "
        f"cold {current['recovery']['cold_replay_ms']:.1f} ms (informational)"
    )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 4):
        print(
            "usage: python -m benchmarks.check_bench_trajectory CURRENT.json BASELINE.json "
            "[RECOVERY_CURRENT.json RECOVERY_BASELINE.json]",
            file=sys.stderr,
        )
        return 2
    try:
        with open(argv[0], encoding="utf-8") as handle:
            current = json.load(handle)
        with open(argv[1], encoding="utf-8") as handle:
            baseline = json.load(handle)
        print(f"[bench trajectory] current={argv[0]} baseline={argv[1]}")
        failures = check(current, baseline)
        if len(argv) == 4:
            with open(argv[2], encoding="utf-8") as handle:
                recovery_current = json.load(handle)
            with open(argv[3], encoding="utf-8") as handle:
                recovery_baseline = json.load(handle)
            print(f"[recovery trajectory] current={argv[2]} baseline={argv[3]}")
            failures.extend(check_recovery(recovery_current, recovery_baseline))
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"malformed benchmark summary: {exc!r}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("trajectory OK: no relative regression beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
