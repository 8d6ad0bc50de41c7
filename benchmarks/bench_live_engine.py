"""LIVE bench: the incremental engine beats full re-aggregation.

The live engine re-aggregates only the grid cells touched since the last
commit, so commit cost scales with the touched fraction of the population
while the batch pipeline always pays for everyone.  The sweep records commit
time against a full re-aggregation for touched-offer fractions of 1%, 5% and
25%.

The headline requirement stays: >=5x over full re-aggregation when 1% of the
offers are touched.

The standalone mode additionally runs :func:`scaling_sweep` — the scale
claim: with a fixed touched set, commit latency (engine apply + commit) must
stay flat while the resident population grows an order of magnitude
(100k → 1M offers; ``--quick`` stops at 100k).

Standalone mode (CI): ``python -m benchmarks.bench_live_engine --quick
--engine all --json BENCH_live.json`` writes the machine-readable summary the
benchmark-trajectory gate (``benchmarks/check_bench_trajectory.py``) consumes.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from benchmarks.conftest import record
from repro.aggregation.aggregate import aggregate
from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import Direction
from repro.live.engine import LiveAggregationEngine
from repro.live.events import OfferAdded, OfferUpdated
from repro.live.replay import replay, scenario_event_stream

#: Touched-offer fractions the acceptance sweep covers.
FRACTIONS = (0.01, 0.05, 0.25)

#: The incremental engines benchmarked (batch is the baseline).
ENGINES = ("live",)


def make_engine(name: str, micro_batch_size: int = 0):
    """One fresh incremental engine by CLI/CI name."""
    if name == "live":
        return LiveAggregationEngine(micro_batch_size=micro_batch_size)
    raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")


def _seeded_engine(offers, name: str = "live"):
    engine = make_engine(name)
    for offer in offers:
        engine.apply(OfferAdded(offer.creation_time, offer))
    engine.commit()
    return engine


def _batch_seconds(offers, rounds: int = 9) -> float:
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        aggregate(offers)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def _commit_seconds(engine, offers, fraction: float, rng, rounds: int = 9) -> float:
    """Median commit time after revising ``fraction`` of the offers (prices)."""
    touched = max(1, int(len(offers) * fraction))
    timings = []
    for _ in range(rounds):
        for position in rng.choice(len(offers), size=touched, replace=False):
            current = engine.offer(offers[position].id)
            engine.apply(
                OfferUpdated(
                    current.creation_time,
                    replace(current, price_per_kwh=current.price_per_kwh * 1.01 + 0.001),
                )
            )
        started = time.perf_counter()
        engine.commit()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def _sweep_engine(name, offers, full_seconds, rounds: int = 9) -> dict:
    """The touched-fraction sweep for one engine; returns the JSON row."""
    return sweep_engines((name,), offers, full_seconds, rounds=rounds)[name]


def sweep_engines(names, offers, full_seconds, rounds: int = 9) -> dict:
    """The touched-fraction sweep, engines *interleaved* round by round.

    Timing the engines back to back folds slow in-process drift (allocator
    growth, clock scaling) into whichever engine runs later; alternating the
    engines within every round spreads that drift evenly, so the medians
    compare engines, not process phases.
    """
    engines = {name: _seeded_engine(offers, name) for name in names}
    rngs = {name: np.random.default_rng(7) for name in names}
    results: dict[str, dict] = {name: {} for name in names}
    for fraction in FRACTIONS:
        touched = max(1, int(len(offers) * fraction))
        timings: dict[str, list[float]] = {name: [] for name in names}
        for _ in range(rounds):
            for name in names:
                engine, rng = engines[name], rngs[name]
                for position in rng.choice(len(offers), size=touched, replace=False):
                    current = engine.offer(offers[position].id)
                    engine.apply(
                        OfferUpdated(
                            current.creation_time,
                            replace(
                                current,
                                price_per_kwh=current.price_per_kwh * 1.01 + 0.001,
                            ),
                        )
                    )
                started = time.perf_counter()
                engine.commit()
                timings[name].append(time.perf_counter() - started)
        for name in names:
            incremental = statistics.median(timings[name])
            results[name][f"{fraction:g}"] = {
                "touched_offers": touched,
                "commit_ms": round(incremental * 1000, 3),
                "speedup_vs_batch": round(full_seconds / incremental, 1),
            }
    return results


def chunked_workload(offers, chunk_size: int = 32, chunks: int = 16, rounds: int = 9) -> dict:
    """The chunk-granularity sweep: commit cost scales with *touched chunks*.

    Builds one grouping-grid cell holding ``chunks`` aggregation chunks of
    ``chunk_size`` offers each (``max_group_size=chunk_size``), then times

    * ``one_chunk_ms``  — a commit after revising one offer's profile (1 of
      ``chunks`` chunks dirty; the ledger skips the rest), against
    * ``full_cell_ms`` — a commit after mutating one offer in *every* chunk,
      which is exactly what the pre-ledger engine paid for any single
      mutation (a dirty cell re-aggregated all of its chunks).

    ``speedup`` is their ratio — the headline of ROADMAP live item (c),
    gated ≥3x (and against the committed baseline) in
    ``check_bench_trajectory.py``.
    """
    population = []
    for index in range(chunk_size * chunks):
        base = offers[index % len(offers)]
        population.append(
            replace(
                base,
                id=index + 1,
                earliest_start_slot=40,
                latest_start_slot=48,
                direction=Direction.CONSUMPTION,
                # Scenario offers may carry schedules anchored to their real
                # start window; the forced window would invalidate them.
                schedule=None,
            )
        )
    engine = LiveAggregationEngine(AggregationParameters(max_group_size=chunk_size))
    for offer in population:
        engine.apply(OfferAdded(offer.creation_time, offer))
    engine.commit()

    def mutate(offer_id: int) -> None:
        # An in-place profile revision: every touched chunk re-sums its
        # members.  (A price-only revision refolds just the mean price, so it
        # would time no aggregation on either side of the ratio.)
        current = engine.offer(offer_id)
        engine.apply(
            OfferUpdated(
                current.creation_time,
                replace(current, profile=tuple(piece.scale(1.01) for piece in current.profile)),
            )
        )

    one_timings, full_timings = [], []
    for round_index in range(rounds):
        # One offer touched -> one dirty chunk of `chunks`.
        mutate(round_index % len(population) + 1)
        started = time.perf_counter()
        result = engine.commit()
        one_timings.append(time.perf_counter() - started)
        assert result.chunks_reaggregated == 1 and result.chunks_skipped == chunks - 1
        # One offer touched per chunk -> every chunk dirty (pre-change cost).
        for chunk_index in range(chunks):
            mutate(chunk_index * chunk_size + round_index % chunk_size + 1)
        started = time.perf_counter()
        result = engine.commit()
        full_timings.append(time.perf_counter() - started)
        assert result.chunks_reaggregated == chunks and result.chunks_skipped == 0
    one = statistics.median(one_timings)
    full = statistics.median(full_timings)
    return {
        "chunks": chunks,
        "chunk_size": chunk_size,
        "one_chunk_ms": round(one * 1000, 3),
        "full_cell_ms": round(full * 1000, 3),
        "speedup": round(full / one, 1),
    }


def test_chunked_commit_granularity(benchmark, large_offer_scenario):
    """Commit cost tracks touched chunks, not cell size (>=3x at 1 of 16)."""
    rows = benchmark.pedantic(
        lambda: chunked_workload(large_offer_scenario.flex_offers), rounds=1, iterations=1
    )
    record(
        benchmark,
        {
            **rows,
            "claim": "chunk-granular commits re-aggregate only perturbed chunks",
        },
        "LIVE: chunk-granular commit vs whole-cell re-aggregation",
    )
    assert rows["speedup"] >= 3.0


def scaling_sweep(offers, rungs, touched: int = 256, rounds: int = 5) -> dict:
    """Commit latency against resident population — the scale claim.

    For every rung the population is grown to ``size`` offers (replicas of the
    scenario offers under fresh ids), streamed into a fresh live engine, and
    then exactly ``touched`` offers are revised per commit.  The engine runs
    with a *bounded* aggregate group size (the paper's ``max_group_size``):
    with unbounded groups one aggregate output covers its entire grid cell, so
    a single touched offer re-aggregates O(cell) members by definition and no
    incremental engine can be flat.  Bounded, the chunk-granular dirty ledger
    pays ``dirty_chunks * max_group_size`` per commit, so the timed commit
    (engine apply + commit, what a session commit pays) must stay *flat* as
    the resident population grows — that is the claim the trajectory gate
    holds: ``latency_ratio`` (largest over smallest rung) stays under an
    absolute ceiling.
    """
    parameters = AggregationParameters(max_group_size=64)
    rows = []
    for size in rungs:
        population = []
        for index in range(size):
            base = offers[index % len(offers)]
            population.append(replace(base, id=index + 1, schedule=None))
        engine = LiveAggregationEngine(parameters)
        seed_started = time.perf_counter()
        for offer in population:
            engine.apply(OfferAdded(offer.creation_time, offer))
        engine.commit()
        seed_seconds = time.perf_counter() - seed_started
        rng = np.random.default_rng(23)
        timings = []
        for _ in range(rounds):
            events = []
            for position in rng.choice(size, size=min(touched, size), replace=False):
                current = engine.offer(int(position) + 1)
                events.append(
                    OfferUpdated(
                        current.creation_time,
                        replace(current, price_per_kwh=current.price_per_kwh * 1.01 + 0.001),
                    )
                )
            started = time.perf_counter()
            for event in events:
                engine.apply(event)
            engine.commit()
            timings.append(time.perf_counter() - started)
        rows.append(
            {
                "population": size,
                "touched_offers": min(touched, size),
                "seed_seconds": round(seed_seconds, 3),
                "commit_ms": round(statistics.median(timings) * 1000, 3),
            }
        )
    smallest, largest = rows[0], rows[-1]
    return {
        "rungs": rows,
        "touched": touched,
        # Flatness: commit latency at the largest rung over the smallest.
        "latency_ratio": round(largest["commit_ms"] / smallest["commit_ms"], 2),
        "population_ratio": round(largest["population"] / smallest["population"], 1),
    }


def obs_overhead(offers, rounds: int = 15, fraction: float = 0.05) -> dict:
    """Observability cost on the commit path — off, fully on, and sampled.

    Three identical live engines run the same revise-and-commit workload,
    rounds interleaved so process drift lands on all equally, and each
    round rotates which leg goes first: one commits with :mod:`repro.obs`
    disabled, one fully enabled, one enabled under a head-based 1-in-16
    :class:`~repro.obs.Sampler` (the production "always-on" posture: stage
    histograms stay exact, span records and the kernel probe are thinned).
    The sampled leg keeps one sampler for the whole run — a fresh sampler
    always records its first trace, so one per round would trace every
    commit.  ``sampled_traced_commits``
    counts the sampled commits that did record (1 in 16, starting with the
    first).  The JSON row carries two same-process, machine-independent
    ratios the trajectory gate holds above absolute floors:
    ``throughput_ratio = disabled_ms / enabled_ms`` (>= 90%) and
    ``sampled_ratio = disabled_ms / sampled_ms`` (>= 95% — sampling must
    recover most of the tracing cost).
    """
    from repro import obs

    modes = ("disabled", "enabled", "sampled")
    engines = {mode: _seeded_engine(offers) for mode in modes}
    rngs = {mode: np.random.default_rng(11) for mode in modes}
    touched = max(1, int(len(offers) * fraction))
    timings: dict[str, list[float]] = {mode: [] for mode in modes}
    sampler = obs.Sampler(default_rate=16)
    tracer = obs.get_tracer()
    sampled_traced = 0
    obs.reset()
    try:
        for round_index in range(rounds):
            first = round_index % len(modes)
            for mode in modes[first:] + modes[:first]:
                engine, rng = engines[mode], rngs[mode]
                for position in rng.choice(len(offers), size=touched, replace=False):
                    current = engine.offer(offers[position].id)
                    engine.apply(
                        OfferUpdated(
                            current.creation_time,
                            replace(
                                current,
                                price_per_kwh=current.price_per_kwh * 1.01 + 0.001,
                            ),
                        )
                    )
                if mode == "enabled":
                    obs.enable()
                elif mode == "sampled":
                    obs.enable()
                    obs.set_sampler(sampler)
                    newest = tracer.finished(limit=1, name="live.commit")
                started = time.perf_counter()
                engine.commit()
                timings[mode].append(time.perf_counter() - started)
                if mode == "sampled":
                    sampled_traced += tracer.finished(limit=1, name="live.commit") != newest
                obs.set_sampler(None)
                obs.disable()
    finally:
        obs.disable()
        obs.reset()
    disabled = statistics.median(timings["disabled"])
    enabled = statistics.median(timings["enabled"])
    sampled = statistics.median(timings["sampled"])
    return {
        "touched_offers": touched,
        "rounds": rounds,
        "disabled_commit_ms": round(disabled * 1000, 3),
        "enabled_commit_ms": round(enabled * 1000, 3),
        "sampled_commit_ms": round(sampled * 1000, 3),
        "sampled_traced_commits": sampled_traced,
        "throughput_ratio": round(disabled / enabled, 3),
        "sampled_ratio": round(disabled / sampled, 3),
    }


def materialized_refresh(scenario, rounds: int = 9, fraction: float = 0.02) -> dict:
    """Delta-maintained view update vs a full recompute of the same spec.

    A standing aggregated :class:`~repro.session.materialize.MaterializedView`
    rides a revise-and-commit workload: each round touches ``fraction`` of
    the raw offers and commits once.  The measured spec aggregates the whole
    population at re-tuned parameters (``est_tolerance_slots + 1``), so the
    view maintains it group by group; the engine's own aggregation would only
    adopt the engine's committed outputs and measure nothing of the view.
    The per-commit maintenance cost comes from the view's own
    ``maintenance_seconds`` clock (only the delta application, not the
    engine commit around it); the comparator is a timed ``view.refresh()``
    — the from-scratch rebuild every dashboard redraw paid before
    materialized views existed.  ``speedup`` is a same-process,
    machine-independent ratio the trajectory gate holds above an absolute
    floor (>= 3x).  ``engine_own_apply_ms`` is the per-commit upkeep of a
    second view over the engine's own aggregation, beside it on the same
    commits (informational, not gated).
    """
    from repro.session import FlexSession, QuerySpec

    with FlexSession(scenario, engine="live") as session:
        parameters = session.parameters
        retuned = replace(
            parameters, est_tolerance_slots=parameters.est_tolerance_slots + 1
        )
        view = session.materialize(QuerySpec.build(parameters=retuned), name="bench")
        engine_own = session.materialize(
            QuerySpec.build(parameters=parameters), name="engine-own"
        )
        population = {
            offer.id: offer
            for offer in session.engine.offers()
            if not offer.is_aggregate
        }
        ids = sorted(population)
        touched = max(1, int(len(ids) * fraction))
        rng = np.random.default_rng(17)
        apply_timings: list[float] = []
        engine_own_timings: list[float] = []
        for _ in range(rounds):
            for position in rng.choice(len(ids), size=touched, replace=False):
                current = population[ids[position]]
                revised = replace(
                    current, price_per_kwh=current.price_per_kwh * 1.01 + 0.001
                )
                population[revised.id] = revised
                session.ingest(OfferUpdated(current.creation_time, revised))
            before = view.maintenance_seconds
            engine_own_before = engine_own.maintenance_seconds
            session.commit()
            apply_timings.append(view.maintenance_seconds - before)
            engine_own_timings.append(engine_own.maintenance_seconds - engine_own_before)
        refresh_timings: list[float] = []
        for _ in range(rounds):
            started = time.perf_counter()
            view.refresh()
            refresh_timings.append(time.perf_counter() - started)
        deltas_applied = view.deltas_applied
    delta_apply = statistics.median(apply_timings)
    full_refresh = statistics.median(refresh_timings)
    return {
        "rounds": rounds,
        "touched_offers": touched,
        "offer_count": len(ids),
        "deltas_applied": deltas_applied,
        "delta_apply_ms": round(delta_apply * 1000, 4),
        "full_refresh_ms": round(full_refresh * 1000, 4),
        "speedup": round(full_refresh / delta_apply, 1) if delta_apply else 0.0,
        "engine_own_apply_ms": round(statistics.median(engine_own_timings) * 1000, 4),
    }


#: The storm writer commits after this many ingested events, as the
#: snapshot-isolation check in ``tests/test_readpath_concurrency.py`` does.
STORM_COMMIT_EVERY = 64


def query_storm(
    scenario,
    readers: int = 4,
    reads_per_reader: int = 250,
    writer_passes: int = 3,
    rounds: int = 9,
) -> dict:
    """The versioned-read-path storm: a reader pool racing a confined writer.

    A live session preloads the scenario; the writer thread then revises
    only the offers of a single *hot* region, committing every
    ``STORM_COMMIT_EVERY`` events, while ``readers`` threads hammer
    ``consistency="latest"`` queries whose specs cover the *cold* regions —
    exactly the workload the spec-keyed cache exists for, since commits only
    dirty hot-region cells and the cold entries are carried across versions.

    The JSON row carries three machine-independent ratios the trajectory gate
    consumes:

    * ``cache_speedup``   — uncached vs cached latency of the same untouched
      aggregation spec (the cache is rebased before every uncached probe);
      gated against the absolute ``CACHE_SPEEDUP_FLOOR`` (5x);
    * ``hit_ratio``       — cache hits over lookups *during the storm only*
      (counter deltas), gated against the absolute ``STORM_HIT_FLOOR``;
    * ``throughput_vs_recompute`` — reads the pool served per uncached
      recomputation time, gated against the absolute
      ``STORM_THROUGHPUT_FLOOR`` (the pool must beat recomputation even
      while a writer commits underneath it).  The raw qps figures and the
      per-thread ``parallel_efficiency`` are reported but not gated —
      thread-scheduling jitter swamps them at quick-sweep scale.
    """
    import threading

    from repro.session import FlexSession
    from repro.session.spec import QuerySpec

    session = FlexSession(scenario, engine="live")
    backend = session.engine
    cache = backend.readpath.cache
    regions = sorted({offer.region for offer in scenario.offers_in_arrival_order()})
    hot_region = regions[0]
    cold_regions = tuple(regions[1:]) or (hot_region,)
    specs = [QuerySpec.build(region=region) for region in cold_regions]
    specs.append(QuerySpec.build(regions=cold_regions, parameters=session.parameters))
    hot_offers = [
        offer
        for offer in scenario.offers_in_arrival_order()
        if offer.region == hot_region
    ]

    # Cached vs uncached latency on one untouched aggregation spec.  The
    # uncached probe rebases the cache (same version) so every read pays
    # the full snapshot select + aggregation; the cached probe repeats a
    # warm read.  Same spec, same snapshot, same process — the ratio is
    # machine-independent.
    agg_spec = QuerySpec.build(regions=cold_regions, parameters=session.parameters)
    uncached_timings = []
    for _ in range(rounds):
        cache.rebase(cache.version)
        started = time.perf_counter()
        session.query(agg_spec, consistency="latest")
        uncached_timings.append(time.perf_counter() - started)
    session.query(agg_spec, consistency="latest")  # warm the entry
    cached_timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(50):
            session.query(agg_spec, consistency="latest")
        cached_timings.append((time.perf_counter() - started) / 50)
    uncached = statistics.median(uncached_timings)
    cached = statistics.median(cached_timings)

    # Single-reader baseline: one thread, warm cache, quiescent writer.
    for spec in specs:
        session.query(spec, consistency="latest")
    single_reads = len(specs) * 40
    started = time.perf_counter()
    for index in range(single_reads):
        session.query(specs[index % len(specs)], consistency="latest")
    single_qps = single_reads / (time.perf_counter() - started)

    # The storm: the writer revises hot-region prices and commits every
    # STORM_COMMIT_EVERY events while the reader pool runs.
    before = cache.stats()
    version_before = backend.readpath.manager.latest_version
    failures: list[BaseException] = []

    def writer() -> None:
        try:
            ingested = 0
            for sweep in range(writer_passes):
                for offer in hot_offers:
                    session.ingest(
                        OfferUpdated(
                            offer.creation_time,
                            replace(
                                offer,
                                price_per_kwh=offer.price_per_kwh
                                * (1.0 + 0.01 * (sweep + 1))
                                + 0.001,
                            ),
                        )
                    )
                    ingested += 1
                    if ingested % STORM_COMMIT_EVERY == 0:
                        session.commit()
            session.commit()
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    reader_finishes: list[float] = []

    def reader() -> None:
        try:
            for index in range(reads_per_reader):
                session.query(specs[index % len(specs)], consistency="latest")
            reader_finishes.append(time.perf_counter())
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=writer, name="storm-writer")]
    threads.extend(
        threading.Thread(target=reader, name=f"storm-reader-{index}")
        for index in range(readers)
    )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    # Reader throughput stops at the *last reader's* finish — the writer
    # keeps running (and keeps the race honest) but must not count
    # against the readers' wall clock.
    elapsed = max(reader_finishes) - started
    backend.refresh()
    after = cache.stats()
    lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
    hit_ratio = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
    storm_qps = readers * reads_per_reader / elapsed
    return {
        "readers": readers,
        "reads": readers * reads_per_reader,
        "hot_region": hot_region,
        "cold_specs": len(specs),
        "commits_during_storm": backend.readpath.manager.latest_version
        - version_before,
        "uncached_read_ms": round(uncached * 1000, 4),
        "cached_read_ms": round(cached * 1000, 4),
        "cache_speedup": round(uncached / cached, 1),
        "hit_ratio": round(hit_ratio, 3),
        "single_qps": round(single_qps, 1),
        "storm_qps": round(storm_qps, 1),
        "parallel_efficiency": round(storm_qps / readers / single_qps, 3),
        # Reads the pool served in the time ONE uncached recomputation
        # takes — the cache's payoff under concurrency, and the only
        # storm ratio stable enough to gate (thread-scheduling jitter
        # dominates the qps figures at quick-sweep scale).
        "throughput_vs_recompute": round(storm_qps * uncached, 1),
    }


def test_query_storm(benchmark, paper_scenario):
    """Readers racing a region-confined writer stay cache-served and atomic."""
    rows = benchmark.pedantic(
        lambda: query_storm(paper_scenario, reads_per_reader=150, rounds=5),
        rounds=1,
        iterations=1,
    )
    record(
        benchmark,
        {**rows, "claim": "untouched-spec reads survive commits as cache hits"},
        "LIVE: concurrent query storm over the versioned read path",
    )
    assert rows["cache_speedup"] >= 5.0
    assert rows["hit_ratio"] >= 0.5
    assert rows["throughput_vs_recompute"] >= 5.0


#: Instrumented passes behind each stage's share: a pass times ~11 commits,
#: so one host pause inside it moves a share by tenths; the median of three
#: passes does not follow one paused pass.
STAGE_PASSES = 3


def stage_breakdown(scenario) -> dict:
    """Per-stage latency rows from one instrumented replay-and-query pass.

    Goes through a fresh :class:`FlexSession` (not a bare engine) so the
    commit, kernel *and* query stages all record — the trajectory gate
    requires all three to stay present in the ``--json`` summary.
    """
    from benchmarks.conftest import stage_rows
    from repro import obs
    from repro.session import FlexSession

    # The legs before this one leave a full collection pending; it would land
    # in whichever of this pass's ~11 timed commits allocates past the
    # threshold and swamp that stage's share.  Start from a collected heap.
    gc.collect()
    obs.reset()
    obs.enable()
    try:
        session = FlexSession(
            scenario, engine="live", micro_batch_size=64, live_preload=False
        )
        log = scenario_event_stream(
            scenario, update_fraction=0.1, withdraw_fraction=0.05, seed=7
        )
        session.replay(log.replay_order())
        session.offers().where(state="assigned").fetch()
        session.offers().aggregate().fetch()
    finally:
        obs.disable()
    rows = stage_rows(obs.get_registry())
    obs.reset()
    return rows


def _replay_report(name, scenario, micro_batch_size: int = 64):
    engine = make_engine(name, micro_batch_size=micro_batch_size)
    log = scenario_event_stream(
        scenario, update_fraction=0.1, withdraw_fraction=0.05, seed=7
    )
    return replay(log, engine)


def test_incremental_vs_batch_sweep(benchmark, large_offer_scenario):
    """Live commit time vs full re-aggregation across touched-offer fractions."""
    offers = large_offer_scenario.flex_offers

    def sweep():
        full = _batch_seconds(offers)
        rows = _sweep_engine("live", offers, full)
        for values in rows.values():
            values["full_reaggregation_ms"] = round(full * 1000, 3)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        benchmark,
        {
            "engine": "live",
            "offer_count": len(offers),
            **{f"touched_{key}": str(values) for key, values in rows.items()},
            "claim": "incremental commits beat full re-aggregation as touched fraction shrinks",
        },
        "LIVE: live vs batch re-aggregation",
    )
    # Monotonic: the smaller the touched fraction, the larger the speedup.
    speedups = [rows[f"{fraction:g}"]["speedup_vs_batch"] for fraction in FRACTIONS]
    assert speedups[0] >= speedups[-1]
    # Headline acceptance: >=5x when 1% of the offers are touched.
    assert speedups[0] >= 5.0


@pytest.mark.parametrize("engine_name", ENGINES)
def test_replay_throughput(benchmark, paper_scenario, engine_name):
    """Full lifecycle replay (adds, revisions, transitions, withdrawals)."""
    report = benchmark.pedantic(
        lambda: _replay_report(engine_name, paper_scenario), rounds=3, iterations=1
    )
    record(
        benchmark,
        {
            "engine": engine_name,
            "events": report.events,
            "commits": report.commit_count,
            "events_per_second": round(report.events_per_second),
            "mean_commit_ms": round(report.mean_commit_ms, 3),
            "p95_commit_ms": round(report.p95_commit_ms, 3),
            "max_commit_ms": round(report.max_commit_ms, 3),
        },
        f"LIVE: {engine_name} event replay throughput",
    )
    assert report.events_per_second > 0


# ----------------------------------------------------------------------
# Standalone smoke mode (CI: `python -m benchmarks.bench_live_engine --quick`)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Run the incremental-vs-batch sweep without the pytest harness.

    ``--quick`` shrinks the scenario and the timing rounds so the sweep
    finishes in a few seconds — a functional smoke of the whole live path
    (stream synthesis, engines, commit timing).  Wall-clock assertions stay
    in the pytest-benchmark tests; CI gates only on the *relative ratios*
    inside the ``--json`` summary (see ``check_bench_trajectory.py``).
    """
    import argparse
    import json

    from repro.datagen.scenarios import ScenarioConfig, generate_scenario

    parser = argparse.ArgumentParser(description="live engine sweep (standalone)")
    parser.add_argument("--quick", action="store_true", help="small scenario, few rounds")
    parser.add_argument("--prosumers", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument(
        "--engine",
        choices=(*ENGINES, "all"),
        default="all",
        help="which incremental engine(s) to sweep (default: all)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the machine-readable summary to PATH"
    )
    args = parser.parse_args(argv)
    prosumers = 200 if args.quick else args.prosumers
    # The quick scenario's commits are tiny (a few dirty cells), so medians
    # need more rounds to be stable enough for the CI trajectory gate.
    rounds = 15 if args.quick else 9
    names = ENGINES if args.engine == "all" else (args.engine,)

    scenario = generate_scenario(ScenarioConfig(prosumer_count=prosumers, seed=args.seed))
    offers = scenario.flex_offers
    full = _batch_seconds(offers, rounds=rounds)
    summary = {
        "schema": 1,
        "quick": bool(args.quick),
        "offer_count": len(offers),
        "full_reaggregation_ms": round(full * 1000, 3),
        "engines": {},
    }
    print(f"[LIVE sweep] {len(offers)} offers, full re-aggregation {full * 1000:.3f} ms")
    sweeps = sweep_engines(names, offers, full, rounds=rounds)
    for name in names:
        fractions = sweeps[name]
        for key, values in fractions.items():
            label = float(key)
            print(
                f"  {name:>7} touched {label:>4.0%}: commit {values['commit_ms']:8.3f} ms, "
                f"speedup {values['speedup_vs_batch']:6.1f}x"
            )
        report = _replay_report(name, scenario)
        print(
            f"  {name:>7} replay: {report.events} events, {report.commit_count} commits, "
            f"{report.events_per_second:,.0f} events/s"
        )
        summary["engines"][name] = {
            "sweep": fractions,
            "replay": {
                "events": report.events,
                "commits": report.commit_count,
                "events_per_second": round(report.events_per_second, 1),
                "mean_commit_ms": round(report.mean_commit_ms, 3),
                "p95_commit_ms": round(report.p95_commit_ms, 3),
            },
        }
    # The chunk-granularity workload: one touched chunk of 16 vs the whole
    # cell (what any single mutation cost before the chunk ledger).
    chunk_size = 16 if args.quick else 32
    chunked = chunked_workload(offers, chunk_size=chunk_size, rounds=rounds)
    summary["chunked"] = chunked
    print(
        f"  chunked workload: 1 of {chunked['chunks']} chunks {chunked['one_chunk_ms']:.3f} ms, "
        f"full cell {chunked['full_cell_ms']:.3f} ms, speedup {chunked['speedup']:.1f}x"
    )
    # The scale claim: fixed-touched-set commit latency stays flat while the
    # resident population grows 10x.
    scaling_rungs = (10_000, 100_000) if args.quick else (100_000, 1_000_000)
    scaling = scaling_sweep(offers, scaling_rungs, rounds=5 if args.quick else 9)
    summary["scaling"] = scaling
    for rung in scaling["rungs"]:
        print(
            f"  scaling {rung['population']:>9,} offers: commit {rung['commit_ms']:8.3f} ms "
            f"({rung['touched_offers']} touched, seeded in {rung['seed_seconds']:.1f} s)"
        )
    print(
        f"  scaling flatness: {scaling['population_ratio']:.0f}x population -> "
        f"{scaling['latency_ratio']:.2f}x commit latency"
    )
    # Observability overhead: enabled commits must stay within 10% of disabled.
    # Its own, longer run under --quick: a quick commit takes ~1 ms, and with
    # every leg disabled the ratio of two legs' medians still spread ~0.97-1.07
    # over 45 rounds but ~0.99-1.03 over 180, narrow enough to gate at 0.95.
    overhead = obs_overhead(offers, rounds=180 if args.quick else rounds)
    summary["obs"] = overhead
    print(
        f"  obs overhead: disabled {overhead['disabled_commit_ms']:.3f} ms, "
        f"enabled {overhead['enabled_commit_ms']:.3f} ms, "
        f"sampled {overhead['sampled_commit_ms']:.3f} ms, "
        f"ratios enabled {overhead['throughput_ratio']:.3f} / "
        f"sampled {overhead['sampled_ratio']:.3f}"
    )
    # Materialized views: per-commit delta maintenance vs a from-scratch
    # refresh of the same standing spec (the PR 10 acceptance criterion).
    materialized = materialized_refresh(scenario, rounds=rounds)
    summary["materialized"] = materialized
    print(
        f"  materialized view: delta apply {materialized['delta_apply_ms']:.4f} ms vs "
        f"full refresh {materialized['full_refresh_ms']:.4f} ms "
        f"({materialized['speedup']:.1f}x, {materialized['touched_offers']} touched "
        f"of {materialized['offer_count']}); engine-own view "
        f"{materialized['engine_own_apply_ms']:.4f} ms per commit"
    )
    # The versioned-read-path storm: cached reads vs recomputation, reader
    # scaling, and the cache hit ratio under a region-confined writer.
    storm = query_storm(scenario, reads_per_reader=150 if args.quick else 250, rounds=rounds)
    summary["storm"] = storm
    print(
        f"  query storm: cached {storm['cached_read_ms']:.4f} ms vs uncached "
        f"{storm['uncached_read_ms']:.4f} ms ({storm['cache_speedup']:.1f}x), "
        f"hit ratio {storm['hit_ratio']:.3f}, "
        f"{storm['storm_qps']:,.0f} reads/s over {storm['readers']} readers "
        f"({storm['throughput_vs_recompute']:.0f}x the recompute rate, "
        f"{storm['commits_during_storm']} commits mid-storm)"
    )
    # Per-stage latency breakdown from the last instrumented replay, plus each
    # stage's median share of the total over STAGE_PASSES replays — the shape
    # the drift gate holds in a band.
    from benchmarks.conftest import stage_shares

    passes = [stage_breakdown(scenario) for _ in range(STAGE_PASSES)]
    shares = [stage_shares(rows) for rows in passes]
    stages = passes[-1]
    summary["stages"] = stages
    summary["stage_shares"] = {
        name: statistics.median(share.get(name, 0.0) for share in shares)
        for name in sorted(set().union(*shares))
    }
    for stage, row in sorted(stages.items()):
        print(
            f"  stage {stage:<42} n={row['count']:<5} mean {row['mean_ms']:8.4f} ms "
            f"p95 {row['p95_ms']:8.4f} ms "
            f"median share {summary['stage_shares'].get(stage, 0.0):.3f}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
