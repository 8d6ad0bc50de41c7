"""Run one workload: inputs, then rounds of set-up, warm-up and timed units.

Run rules (one process, main thread only):

* engine ``live`` (no sharded pool, no async worker), ``repro.obs`` disabled;
* imports and input generation stay out of ``setup_s``;
* the run is :data:`~perfbench.inputs.ROUNDS` rounds.  Each round builds
  fresh state (one ``setup_s`` sample), runs an untimed warm-up prefix, then
  timed units until the run's summed unit time reaches the round's share of
  ``seconds``, then the round's oracle checks.  Host speed swings over tens
  of seconds, so set-ups timed back to back at the start of a run would all
  land in one swing; spread over the run, every metric samples the same
  stretch of time.  ``setup_s`` is the median of the rounds' set-ups;
* the end-to-end timings are calibrated: a fixed reference workload is
  timed before and after each set-up and between the timed units, and each
  round's set-up and unit times are scaled by that round's reference factor
  (see ``calibrate.py``), so they read at one host speed.  The per-layer
  times of the traced run stay raw;
* GC stays on.  The inputs and the oracle's expectations are frozen once,
  after generation, so no collection scans them; the program's own state is
  collected as it would be in use.  ``gc.collect()`` runs before each set-up
  and each timed phase (and, in ``recover``, after each restart);
* oracle checks and bookkeeping run between units, untimed.

In the traced run the layer wrappers are installed around a seeded coin
flip's half of the units only, so the untraced half gives the same
process's untraced speed to compare against (the tracing overhead).
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

from repro.obs import get_registry

from perfbench.calibrate import Calibration
from perfbench.inputs import PROSUMERS, ROUNDS, generate
from perfbench.layers import LAYERS, MATERIALIZE_SITE, LayerTracer
from perfbench.workloads import CACHE_COUNTERS, WORKLOADS

#: No round or unit starts after this many wall seconds per second of
#: ``seconds``, plus a minute (a run must end within its time limit).
WALL_LIMIT_FACTOR = 4
#: A reference sample is taken between timed units whenever this much unit
#: time has passed since the last one.
CALIBRATE_EVERY_S = 0.5


def percentile(samples: list[float], q: int) -> float:
    if len(samples) <= 1:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def checked(check, *args, **kwargs) -> list[str]:
    """Run an oracle check; an exception in it is one more failure, not a crash."""
    try:
        return check(*args, **kwargs)
    except Exception:
        return [traceback.format_exc()]


class Phase:
    """Calibrated totals of the timed units on one side (traced or untraced)."""

    def __init__(self) -> None:
        self.ops = 0
        self.busy = 0.0
        #: Uncalibrated busy time, which the traced spans are compared with.
        self.raw_busy = 0.0
        self.units = 0
        self.latencies_ms: list[float] = []
        #: Index of the unit each latency sample came from.
        self.sample_units: list[int] = []
        #: kind -> [units, busy seconds]
        self.by_kind: dict[str, list] = {}

    def add(self, unit, factor: float) -> None:
        """Count ``unit``, its timings scaled by its round's ``factor``."""
        busy = unit.busy * factor
        self.ops += unit.ops
        self.busy += busy
        self.raw_busy += unit.busy
        self.latencies_ms.extend(sample * factor for sample in unit.latencies_ms)
        self.sample_units.extend([self.units] * len(unit.latencies_ms))
        totals = self.by_kind.setdefault(unit.kind, [0, 0.0])
        totals[0] += 1
        totals[1] += busy
        self.units += 1

    @property
    def throughput(self) -> float:
        return self.ops / self.busy if self.busy else 0.0


def tracing_overhead(traced: Phase, untraced: Phase) -> float:
    """How much longer traced units take than untraced ones, at the same mix.

    A coin picks each unit's side, so one side can draw more of a slow kind
    (explore's re-tunes); each kind's mean time on each side is therefore
    weighted by that kind's count over both sides.
    """
    traced_s = untraced_s = 0.0
    for kind, (units, busy) in traced.by_kind.items():
        if kind not in untraced.by_kind:
            continue
        other_units, other_busy = untraced.by_kind[kind]
        weight = units + other_units
        traced_s += weight * busy / units
        untraced_s += weight * other_busy / other_units
    return traced_s / untraced_s - 1.0 if untraced_s else 0.0


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    max_units: int | None = None,
    prosumers: int = PROSUMERS,
    workroot: Path | None = None,
) -> dict:
    """Measure one workload; returns the report (see ``run.py`` for its shape).

    ``max_units`` bounds the timed phase by unit count instead of time, which
    makes two runs' work identical (the benchmark's own tests use it);
    ``seconds`` then only sizes the input pools and the wall-clock limit.
    """
    if get_registry().enabled:
        raise RuntimeError("repro.obs must stay disabled while benchmarking")
    deadline = time.monotonic() + WALL_LIMIT_FACTOR * seconds + 60
    inputs = generate(workload_name, seed, seconds, prosumers)
    workroot = workroot or Path(__file__).resolve().parent.parent / ".perfbench-work"
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=workroot))
    workload = WORKLOADS[workload_name](inputs, workdir)
    gc.collect()
    gc.freeze()
    inputs_rss_mb = peak_rss_mb()

    failures: list[str] = []
    attempted = 0
    setup_seconds: list[float] = []
    factors: list[float] = []
    checkpoint_bytes = 0
    setup_tracer = LayerTracer() if trace else None
    tracer = LayerTracer() if trace else None
    coin = random.Random(f"{seed}/trace")
    traced_side, untraced_side = Phase(), Phase()
    timed_s = 0.0
    units = 0
    deltas: dict = {}
    broken = False
    try:
        for round_index in range(ROUNDS):
            if broken or time.monotonic() > deadline:
                break
            last = round_index == ROUNDS - 1
            workload.close()
            gc.collect()
            calibration = Calibration()
            calibration.sample()
            trace_setup = setup_tracer is not None and last
            if trace_setup:
                setup_tracer.install()
            started = time.perf_counter()
            try:
                workload.setup()
            finally:
                elapsed = time.perf_counter() - started
                if trace_setup:
                    setup_tracer.uninstall()
            calibration.sample()
            if last:
                checkpoint_bytes = workload.checkpoint_bytes()

            warm = round_index == 0 or workload.warm_every_round
            for _ in range(workload.warmup_units if warm else 0):
                try:
                    unit = workload.step()
                except Exception:
                    attempted += 1
                    failures.append(traceback.format_exc())
                    broken = True
                    break
                if unit is None:
                    break
                attempted += unit.ops
                failures += checked(workload.after, unit, timed=False)

            gc.collect()
            calibration.sample()
            round_units = []
            since_sample = 0.0
            while not broken:
                if max_units is None:
                    if timed_s >= seconds * (round_index + 1) / ROUNDS:
                        break
                elif units >= max_units * (round_index + 1) // ROUNDS:
                    break
                if time.monotonic() > deadline:
                    break
                traced = tracer is not None and coin.random() < 0.5
                before = workload.counters() if traced else None
                if traced:
                    tracer.install()
                try:
                    unit = workload.step()
                except Exception:
                    attempted += 1
                    failures.append(traceback.format_exc())
                    broken = True
                    break
                finally:
                    if traced:
                        tracer.uninstall()
                if unit is None:
                    break
                if traced:
                    for key, value in workload.counters().items():
                        deltas[key] = deltas.get(key, 0) + value - before[key]
                round_units.append((traced_side if traced else untraced_side, unit))
                timed_s += unit.busy
                since_sample += unit.busy
                units += 1
                attempted += unit.ops
                failures += checked(workload.after, unit, timed=True)
                if since_sample >= CALIBRATE_EVERY_S:
                    calibration.sample()
                    since_sample = 0.0
            factor = calibration.factor()
            factors.append(factor)
            setup_seconds.append(elapsed)
            for side, unit in round_units:
                side.add(unit, factor)
            failures += checked(workload.finish)
    finally:
        gc.unfreeze()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = untraced_side if not trace else traced_side
    report = {
        "workload": workload_name,
        "seed": seed,
        "inputs": describe_inputs(inputs, workload_name),
        "inputs_rss_mb": inputs_rss_mb,
        "attempted": attempted,
        "checks": workload.checks,
        "failures": failures,
        "setup_seconds": setup_seconds,
        "factors": factors,
        "units": units,
    }
    if not trace:
        latencies = measured.latencies_ms
        p95 = percentile(latencies, 95)
        beyond = [
            unit for sample, unit in zip(latencies, measured.sample_units) if sample > p95
        ]
        # Events of one stream batch share its commit: the tail is only as
        # trustworthy as the number of distinct units it spans.
        report["tail"] = (len(beyond), len(set(beyond)))
        calibrated = [elapsed * factor for elapsed, factor in zip(setup_seconds, factors)]
        report["raw"] = {
            "setup_s": statistics.median(setup_seconds),
            "throughput_per_s": measured.ops / measured.raw_busy if measured.raw_busy else 0.0,
        }
        report["metrics"] = {
            "setup_s": (statistics.median(calibrated), "s", len(calibrated)),
            "throughput_per_s": (measured.throughput, "1/s", measured.ops),
            "latency_p50_ms": (percentile(latencies, 50), "ms", len(latencies)),
            "latency_p95_ms": (p95, "ms", len(latencies)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        }
    else:
        report["metrics"] = layer_metrics(
            tracer, setup_tracer, deltas, traced_side, untraced_side, checkpoint_bytes, inputs
        )
    return report


def describe_inputs(inputs, workload_name: str) -> dict:
    offers = len(inputs.scenario.flex_offers)
    described = {"offers": offers, "max_group_size": inputs.parameters.max_group_size}
    if workload_name == "stream":
        described["events_per_round"] = sum(len(batch) for batch in inputs.stream[0])
        described["region"] = inputs.stream_region
    elif workload_name == "explore":
        described["actions"] = sum(action.kind != "write" for action in inputs.script)
        described["hot_region"] = inputs.hot_region
    else:
        described["tail_events"] = len(inputs.tail)
    return described


def layer_metrics(
    tracer, setup_tracer, deltas, traced, untraced, checkpoint_bytes, inputs
) -> dict:
    """Per-layer metrics of the traced units: ``name -> (value, unit, samples)``."""
    layers = tracer.layers
    counts = tracer.counts
    metrics: dict[str, tuple] = {}

    def put(name: str, value: float, unit: str, samples: int = 1) -> None:
        metrics[name] = (float(value), unit, samples)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def self_ms(layer: str) -> float:
        return layers[layer].self_s * 1000.0

    def put_self(layer: str) -> None:
        put(f"{layer}.self_ms", self_ms(layer), "ms", layers[layer].calls)

    # Materialized views are maintained inside hub.publish, by listeners the
    # tracer cannot wrap; their time comes from the views' own counter, minus
    # the aggregation spans and collection pauses inside it.
    materialize_ms = 1000.0 * max(
        0.0,
        deltas.get("maintenance_s", 0.0)
        - tracer.site_s[MATERIALIZE_SITE]
        - tracer.gc_in["live.hub"],
    )
    chunks = counts["chunks_reaggregated"]
    commit_work_s = (
        layers["live.commit"].self_s + tracer.nested_s[("live.commit", "aggregation.group")]
    )
    put("live.apply.calls", layers["live.apply"].calls, "count")
    put_self("live.apply")
    put("live.commit.calls", layers["live.commit"].calls, "count")
    put_self("live.commit")
    put("live.commit.chunks_reaggregated", chunks, "count")
    skipped = counts["chunks_skipped"]
    put("live.commit.chunk_skip_ratio", ratio(skipped, chunks + skipped), "ratio")
    put("live.commit.us_per_chunk", ratio(commit_work_s * 1e6, chunks), "us", int(chunks))
    hub_ms = max(0.0, self_ms("live.hub") - materialize_ms)
    put("live.hub.self_ms", hub_ms, "ms", layers["live.hub"].calls)

    mirror = layers["mirror.apply"]
    put_self("mirror.apply")
    put("mirror.apply.us_per_event", ratio(mirror.self_s * 1e6, mirror.calls), "us", mirror.calls)
    put_self("mirror.apply_commit")
    put("mirror.rows_touched", counts["rows_touched"], "count")

    group = layers["aggregation.group"]
    members = counts["members"]
    put("aggregation.group.calls", group.calls, "count")
    put("aggregation.group.members", members, "count")
    put_self("aggregation.group")
    put("aggregation.group.us_per_member", ratio(group.total_s * 1e6, members), "us", int(members))
    put_self("aggregation.kernel")
    put("aggregation.batch.calls", layers["aggregation.batch"].calls, "count")
    put_self("aggregation.batch")

    cache = {name: deltas.get(f"cache.{name}", 0) for name in CACHE_COUNTERS}
    lookups = cache["hits"] + cache["misses"]
    put_self("readpath.publish")
    put_self("readpath.snapshot_advance")
    put_self("readpath.cache_advance")
    put("readpath.read.calls", layers["readpath.read"].calls, "count")
    put_self("readpath.read")
    for name in CACHE_COUNTERS:
        put(f"readpath.cache.{name}", cache[name], "count")
    put("readpath.cache.hit_ratio", ratio(cache["hits"], lookups), "ratio", int(lookups))
    matched = counts["rows_matched"]
    scanned = ratio(counts["rows_scanned"], matched)
    put("readpath.rows_scanned_per_row", scanned, "ratio", int(matched))

    put("session.execute.calls", layers["session.execute"].calls, "count")
    put_self("session.execute")
    put("session.materialize.self_ms", materialize_ms, "ms")
    put("session.materialize.deltas_applied", deltas.get("deltas_applied", 0), "count")
    put("session.materialize.commits_skipped", deltas.get("commits_skipped", 0), "count")

    put_self("views.sync")
    syncs = layers["views.sync"].calls
    put("views.sync.redraw_share", ratio(counts["redrawn"], counts["shown"]), "ratio", syncs)
    put_self("views.build")
    put_self("views.loading")
    put_self("render.svg")
    renders = layers["render.svg"].calls
    put("render.svg.kbytes", ratio(counts["svg_bytes"] / 1024.0, renders), "kB", renders)

    put_self("warehouse.repository")
    put("warehouse.repository.rows_scanned", counts["repository_scanned"], "count")

    appended = counts["appended"]
    put_self("store.append")
    per_event = ratio(deltas.get("log_bytes", 0), appended)
    put("store.append.bytes_per_event", per_event, "B", int(appended))
    checkpoint = setup_tracer.layers["store.checkpoint"]
    put("store.checkpoint.self_ms", checkpoint.self_s * 1000.0, "ms", checkpoint.calls)
    put("store.checkpoint.errors", checkpoint.errors, "count", checkpoint.calls)
    offers = len(inputs.scenario.flex_offers)
    put("store.checkpoint.bytes_per_offer", ratio(checkpoint_bytes, offers), "B")
    load = layers["store.load"]
    put_self("store.restore")
    put_self("store.load")
    loaded = counts["loaded_offers"]
    put("store.load.us_per_offer", ratio(load.total_s * 1e6, loaded), "us", int(loaded))
    put_self("store.state_restore")
    put_self("store.tail_replay")
    put("store.tail.events", counts["tail_events"], "count")

    for layer in LAYERS:
        if layer != "store.checkpoint":
            put(f"{layer}.errors", layers[layer].errors, "count", layers[layer].calls)
    put("gc.collections", tracer.gc_collections, "count")
    put("gc.self_ms", tracer.gc_s * 1000.0, "ms", tracer.gc_collections)
    put("trace.coverage", ratio(tracer.top_level_s, traced.raw_busy), "ratio", traced.units)
    put("trace.overhead", tracing_overhead(traced, untraced), "ratio", untraced.units)
    put("trace.throughput_per_s", traced.throughput, "1/s", traced.ops)
    put("trace.ops", traced.ops, "count")
    return metrics
