"""Command-line interface of the reproduction (``flexviz``).

Every sub-command goes through one :class:`~repro.session.FlexSession` — the
unified facade over scenario, warehouse, engines and views:

* ``flexviz figures --out <dir>`` — regenerate every paper figure as SVG.
* ``flexviz render --view basic --out basic.svg`` — render one registered
  view of a freshly generated scenario.
* ``flexviz warehouse --out <dir>`` — generate a scenario and persist its
  star schema as CSV files.
* ``flexviz plan`` — run one enterprise planning cycle and print the report.
* ``flexviz mdx "<query>"`` — run an MDX-like query against a scenario cube
  and print the resulting table.
* ``flexviz session`` — run a fluent offer query through the facade and
  print the result frame; ``--smoke`` checks batch≡live interchangeability.
* ``flexviz live`` — replay a scenario as a timestamped offer-event stream
  through the incremental aggregation engine and report commit latencies.
* ``flexviz checkpoint`` — stream a scenario into the segmented event log,
  checkpoint mid-stream (committed state + log offset), optionally compact
  the closed segments.
* ``flexviz restore`` — rebuild a session from a checkpoint plus its log
  tail; ``--smoke`` proves the recovery contract (restore ≡ batch rebuild ≡
  cold replay) and exits non-zero on divergence.
* ``flexviz stats`` — replay a scenario with observability enabled, exercise
  the query and durability paths, and print the per-stage latency table
  (commit, kernel, query, checkpoint/restore); ``--export-jsonl`` /
  ``--export-prom`` dump the registry through the exporters, ``--flame`` /
  ``--folded`` dump the finished spans as a Chrome ``trace_event`` JSON
  (load it in Perfetto / ``chrome://tracing``) and as folded stacks
  (speedscope / ``flamegraph.pl``), ``--smoke`` exits non-zero when a
  required stage recorded nothing.
* ``flexviz trace`` — print one trace from a ``--export-jsonl`` dump as an
  indented span tree (``latest`` or a numeric trace id); ``--list``
  summarizes every trace in the dump.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.app.figures import generate_all_figures
from repro.enterprise.planning import run_planning_cycle
from repro.olap.mdx import execute as execute_mdx
from repro.scheduling.evaluation import compare, report
from repro.scheduling.greedy import EarliestStartScheduler, GreedyScheduler
from repro.scheduling.problem import BalancingProblem, make_target
from repro.session import ENGINE_FACTORIES, FlexSession
from repro.session.views import registered_views
from repro.warehouse.persistence import save_schema

_VIEW_NAMES = registered_views()
#: ``session --engine`` choices: every registered engine.
_ENGINE_NAMES = tuple(ENGINE_FACTORIES)
#: ``views --materialized`` commits every this many events, so the views see
#: carries and notifications, not one commit of the whole stream.
_VIEWS_COMMIT_EVERY = 32


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexviz",
        description="Flex-offer visual analysis framework (EDBT/ICDT 2013 reproduction)",
    )
    parser.add_argument("--prosumers", type=int, default=200, help="scenario size (default 200)")
    parser.add_argument("--seed", type=int, default=42, help="scenario random seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser("figures", help="regenerate every paper figure as SVG")
    figures.add_argument("--out", default="figures", help="output directory")

    render = subparsers.add_parser("render", help="render one view to SVG")
    render.add_argument("--view", choices=_VIEW_NAMES, default="basic")
    render.add_argument("--out", default="view.svg", help="output SVG path")
    render.add_argument("--ascii", action="store_true", help="print an ASCII rendering instead")

    warehouse = subparsers.add_parser("warehouse", help="persist a scenario's star schema as CSV")
    warehouse.add_argument("--out", default="warehouse", help="output directory")

    subparsers.add_parser("plan", help="run one planning cycle and print the report")

    mdx = subparsers.add_parser("mdx", help="run an MDX-like query against a scenario cube")
    mdx.add_argument("query", help="the MDX query text")

    session = subparsers.add_parser(
        "session", help="run a fluent offer query through the FlexSession facade"
    )
    session.add_argument(
        "--engine",
        choices=_ENGINE_NAMES,
        default="batch",
        help="which engine answers",
    )
    session.add_argument("--state", action="append", help="filter by offer state (repeatable)")
    session.add_argument("--region", action="append", help="filter by region (repeatable)")
    session.add_argument("--grid-node", action="append", help="filter by grid node (repeatable)")
    session.add_argument(
        "--aggregate", action="store_true", help="aggregate the selection before printing"
    )
    session.add_argument(
        "--limit", type=int, default=10, help="frame rows to print (default 10; 0 = all)"
    )
    session.add_argument(
        "--smoke",
        action="store_true",
        help="run the batch/live interchangeability smoke check and exit non-zero on mismatch",
    )

    live = subparsers.add_parser(
        "live", help="replay a scenario as an event stream through the live engine"
    )
    live.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch size (events per commit)"
    )
    live.add_argument(
        "--update", type=float, default=0.1, help="fraction of offers revised mid-stream"
    )
    live.add_argument(
        "--withdraw", type=float, default=0.05, help="fraction of offers withdrawn"
    )

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="stream a scenario, persist the event log and write a mid-stream checkpoint",
    )
    checkpoint.add_argument("--out", default="checkpoint", help="durability directory")
    checkpoint.add_argument(
        "--tail",
        type=float,
        default=0.1,
        help="fraction of the stream left beyond the checkpoint (default 0.1)",
    )
    checkpoint.add_argument(
        "--update", type=float, default=0.1, help="fraction of offers revised mid-stream"
    )
    checkpoint.add_argument(
        "--withdraw", type=float, default=0.05, help="fraction of offers withdrawn"
    )
    checkpoint.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch size (events per commit)"
    )
    checkpoint.add_argument(
        "--segment-size", type=int, default=512, help="events per log segment file"
    )
    checkpoint.add_argument(
        "--compact",
        action="store_true",
        help="compact the closed log segments after checkpointing",
    )

    restore = subparsers.add_parser(
        "restore", help="rebuild a session from a checkpoint directory plus its log tail"
    )
    restore.add_argument("--from", dest="source", default="checkpoint", help="durability directory")
    restore.add_argument(
        "--smoke",
        action="store_true",
        help="prove the recovery contract (restore ≡ batch rebuild ≡ cold replay) "
        "and exit non-zero on divergence",
    )

    stats = subparsers.add_parser(
        "stats",
        help="replay with observability enabled and print the per-stage latency table",
    )
    stats.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch size (events per commit)"
    )
    stats.add_argument(
        "--update", type=float, default=0.1, help="fraction of offers revised mid-stream"
    )
    stats.add_argument(
        "--withdraw", type=float, default=0.05, help="fraction of offers withdrawn"
    )
    stats.add_argument(
        "--export-jsonl", metavar="PATH", help="dump every metric and span as JSON lines"
    )
    stats.add_argument(
        "--export-prom",
        metavar="PATH",
        help="dump the registry in the Prometheus text exposition format",
    )
    stats.add_argument(
        "--flame",
        metavar="PATH",
        help="dump the finished spans as Chrome trace_event JSON (Perfetto-loadable)",
    )
    stats.add_argument(
        "--folded",
        metavar="PATH",
        help="dump the finished spans as folded stacks (speedscope / flamegraph.pl)",
    )
    stats.add_argument(
        "--sample",
        type=int,
        metavar="N",
        default=0,
        help="head-sample root spans 1-in-N (0 = record every trace)",
    )
    stats.add_argument(
        "--smoke",
        action="store_true",
        help="exit non-zero when a required stage (commit, kernel, query, "
        "checkpoint/restore) recorded no observations",
    )

    views = subparsers.add_parser(
        "views", help="list the registered views, or demo delta-maintained materialized views"
    )
    views.add_argument(
        "--materialized",
        action="store_true",
        help="replay a mutated stream with standing materialized views attached and "
        "print their maintenance stats (deltas applied vs skipped, staleness, cost)",
    )
    views.add_argument(
        "--update", type=float, default=0.1, help="fraction of offers revised mid-stream"
    )
    views.add_argument(
        "--withdraw", type=float, default=0.05, help="fraction of offers withdrawn"
    )

    trace = subparsers.add_parser(
        "trace", help="print one trace from a stats --export-jsonl dump as a span tree"
    )
    trace.add_argument(
        "trace_id",
        nargs="?",
        default="latest",
        help="numeric trace id, or 'latest' (default) for the newest trace in the dump",
    )
    trace.add_argument(
        "--input",
        default="obs.jsonl",
        metavar="PATH",
        help="JSONL dump written by flexviz stats --export-jsonl (default obs.jsonl)",
    )
    trace.add_argument(
        "--list", action="store_true", help="summarize every trace in the dump instead"
    )
    return parser


def _make_session(args: argparse.Namespace, **session_options) -> FlexSession:
    return FlexSession.from_config(prosumers=args.prosumers, seed=args.seed, **session_options)


def _command_figures(args: argparse.Namespace) -> int:
    session = _make_session(args)
    artifacts = generate_all_figures(session, directory=args.out)
    for artifact in artifacts:
        print(f"{artifact.figure_id:<24} {artifact.title}")
    print(f"wrote {len(artifacts)} figures to {args.out}/")
    return 0


def _command_render(args: argparse.Namespace) -> int:
    session = _make_session(args)
    query = session.offers()
    if args.view == "profile":
        # The profile view is meant for small sets; match the historic cap.
        query = query.limit(100)
    result = query.fetch()
    view = session.view(args.view, result)
    if args.ascii:
        print(view.to_ascii(columns=110))
        return 0
    view.save_svg(args.out)
    print(f"wrote {args.view} view ({result.matched_rows} flex-offers) to {args.out}")
    return 0


def _command_warehouse(args: argparse.Namespace) -> int:
    session = _make_session(args)
    written = save_schema(session.schema, args.out)
    for path in written:
        print(path)
    print(f"wrote {len(written)} tables to {args.out}/")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    scenario = _make_session(args).scenario
    target = make_target(scenario.res_production, scenario.base_demand)
    problem = BalancingProblem(offers=list(scenario.flex_offers), target=target, grid=scenario.grid)
    baseline = report(EarliestStartScheduler().schedule(problem))
    plan = run_planning_cycle(scenario, scheduler=GreedyScheduler())
    print(compare([baseline, plan.balance_report]))
    print()
    print(f"spot trades           : {len(plan.trades)}")
    print(f"trade cost            : {plan.trade_cost_eur:10.2f} EUR")
    print(f"imbalance cost        : {plan.imbalance_cost_eur:10.2f} EUR")
    print(f"plan deviation        : {plan.settlement.total_absolute_deviation:10.2f} kWh")
    return 0


def _command_mdx(args: argparse.Namespace) -> int:
    session = _make_session(args)
    table = execute_mdx(session.cube(), args.query)
    print(json.dumps(
        {
            "rows": [str(member) for member in table.row_members],
            "columns": [str(member) for member in table.column_members],
            "values": table.values["value"],
        },
        indent=2,
    ))
    return 0


def _session_query(session: FlexSession, args: argparse.Namespace):
    query = session.offers()
    filters = {}
    if args.state:
        filters["states"] = tuple(args.state)
    if args.region:
        filters["regions"] = tuple(args.region)
    if args.grid_node:
        filters["grid_nodes"] = tuple(args.grid_node)
    if filters:
        query = query.where(**filters)
    if args.aggregate:
        query = query.aggregate()
    return query


def _command_session(args: argparse.Namespace) -> int:
    session = _make_session(args, engine=args.engine)
    if args.smoke:
        return _session_smoke(session, args)
    result = _session_query(session, args).fetch()
    print(result.describe())
    frame = result.to_frame()
    shown = frame if args.limit == 0 else frame[: args.limit]
    for row in shown:
        print(
            f"  #{row['id']:<8} {row['state']:<9} {row['region']:<14} "
            f"{row['grid_node']:<24} {row['min_total_energy']:8.2f}.."
            f"{row['max_total_energy']:<8.2f} kWh"
            f"{'  [aggregate]' if row['is_aggregate'] else ''}"
        )
    if len(frame) > len(shown):
        print(f"  ... {len(frame) - len(shown)} more rows (raise --limit)")
    return 0


def _session_smoke(session: FlexSession, args: argparse.Namespace) -> int:
    """The equivalence contract, end to end: same spec, two engines, equal results."""
    checks = []
    for label, query in (
        ("filtered read", _session_query(session, args)),
        ("aggregation", _session_query(session, args).aggregate()),
    ):
        spec = query.spec
        session.use_engine("batch")
        batch_result = session.query(spec)
        session.use_engine("live")
        live_result = session.query(spec)
        ok = batch_result.matches(live_result)
        checks.append(ok)
        print(
            f"{'ok ' if ok else 'FAIL'} {label:<14} "
            f"batch={len(batch_result)} live={len(live_result)} "
            f"spec=({spec.describe() or 'all flex-offers'})"
        )
    if all(checks):
        print(f"session smoke OK: {session.describe()}")
        return 0
    print("session smoke FAILED: engines disagree on at least one spec", file=sys.stderr)
    return 1


def _command_live(args: argparse.Namespace) -> int:
    import time

    from repro.aggregation.aggregate import aggregate
    from repro.live.replay import scenario_event_stream

    if args.batch_size < 0:
        print("error: --batch-size must be >= 0 (0 = single commit at the end)", file=sys.stderr)
        return 2
    session = _make_session(
        args, engine="live", micro_batch_size=args.batch_size, live_preload=False
    )
    log = scenario_event_stream(
        session.scenario, update_fraction=args.update, withdraw_fraction=args.withdraw, seed=args.seed
    )
    report = session.replay(log)
    print(report.describe())
    backend = session.engine
    started = time.perf_counter()
    # Deliberately the raw batch pipeline (not a session query, whose fast
    # path would serve the committed state): this times a full recompute.
    batch = aggregate(backend.offers(), backend.parameters)
    batch_seconds = time.perf_counter() - started
    print(f"batch re-aggregation  : {batch_seconds * 1000:9.3f} ms ({len(batch.offers)} outputs)")
    if report.mean_commit_ms > 0:
        print(f"commit vs batch       : {batch_seconds * 1000 / report.mean_commit_ms:9.1f}x")
    committed = backend.engine.aggregated_offers()
    print(
        f"committed state       : {len(backend.offers())} offers + "
        f"{sum(offer.is_aggregate for offer in committed)} aggregates"
    )
    return 0


def _command_checkpoint(args: argparse.Namespace) -> int:
    from repro.live.replay import scenario_event_stream
    from repro.store import RecoveryManager

    if not 0.0 <= args.tail < 1.0:
        print("error: --tail must be in [0, 1)", file=sys.stderr)
        return 2
    manager = RecoveryManager(args.out, segment_size=args.segment_size)
    if manager.snapshots.exists() or manager.log.segments():
        # Appending a second stream to an old log while the offset counter
        # restarts would leave an unrestorable directory; refuse instead.
        print(
            f"error: {args.out}/ already holds a checkpoint or event log; "
            "pick a fresh --out directory",
            file=sys.stderr,
        )
        return 2
    session = _make_session(
        args, engine="live", micro_batch_size=args.batch_size, live_preload=False
    )
    log = scenario_event_stream(
        session.scenario,
        update_fraction=args.update,
        withdraw_fraction=args.withdraw,
        seed=args.seed,
    )
    ordered = log.replay_order()
    cut = len(ordered) - int(len(ordered) * args.tail)
    manager.record(ordered)
    session.replay(ordered[:cut])
    checkpoint = manager.checkpoint(session)
    segments = len(manager.log.segments())
    print(f"event log             : {len(ordered)} events in {segments} segments")
    print(f"checkpoint offset     : {checkpoint.log_offset} (tail of {len(ordered) - cut} events)")
    print(
        f"snapshot              : {checkpoint.manifest['offer_count']} offers + "
        f"{checkpoint.manifest['aggregate_count']} aggregates"
    )
    if args.compact:
        dropped = manager.compact()
        print(f"compaction            : dropped {dropped} dead events from closed segments")
    print(f"wrote checkpoint to {args.out}/")
    return 0


def _command_restore(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.errors import ReproError
    from repro.live.engine import canonical_form
    from repro.store import RecoveryManager

    manager = RecoveryManager(args.source)
    try:
        session = manager.restore()
    except ReproError as exc:
        # Not just StoreError: a corrupt or mismatched log surfaces as e.g. a
        # LiveEngineError from the tail replay, and deserves the same exit.
        print(f"restore failed: {exc}", file=sys.stderr)
        return 1
    report = manager.last_restore
    print(report.describe())
    if not args.smoke:
        return 0
    # The recovery contract, end to end: the restored engine must equal the
    # batch pipeline over the surviving offers AND a cold replay from seq 0.
    try:
        manager.verify(session)
    except ReproError as exc:
        print(f"restore smoke FAILED: {exc}", file=sys.stderr)
        return 1
    # Cold replay over the *checkpoint's* scenario and aggregation parameters
    # (the restored session carries both), not whatever --prosumers/--seed
    # happen to be — a different grouping grid would falsely fail the smoke.
    cold = FlexSession(
        session.scenario,
        engine="live",
        parameters=session.parameters,
        live_preload=False,
    )
    cold.replay(list(manager.log.events()))
    cold.engine.refresh()
    session.engine.refresh()
    restored_state = Counter(
        canonical_form(o) for o in session.engine.engine.aggregated_offers()
    )
    cold_state = Counter(canonical_form(o) for o in cold.engine.engine.aggregated_offers())
    ok = restored_state == cold_state
    print(
        f"{'ok ' if ok else 'FAIL'} restore ≡ cold replay "
        f"({sum(restored_state.values())} outputs vs {sum(cold_state.values())})"
    )
    if not ok:
        print("restore smoke FAILED: snapshot+tail diverges from cold replay", file=sys.stderr)
        return 1
    print("restore smoke OK: snapshot + log tail ≡ full replay ≡ batch rebuild")
    return 0


#: Stages the latency table must cover; ``--smoke`` fails when any recorded
#: nothing.
_REQUIRED_STAGES: tuple[str, ...] = (
    "repro.live.commit.seconds",
    "repro.aggregation.kernel.scalar.seconds",
    "repro.session.query.seconds",
    # The versioned read path: snapshot publication on commit, cache-fronted
    # snapshot reads (every default-consistency query records a lookup).
    "repro.readpath.snapshot.build.seconds",
    "repro.readpath.cache.lookup.seconds",
    "repro.store.checkpoint.seconds",
    "repro.store.restore.seconds",
)


def _print_stage_table(registry) -> list[str]:
    """Print one row per latency histogram with data; returns the names printed."""
    from repro.obs.metrics import Histogram

    header = (
        f"{'stage':<34} {'count':>7} {'mean ms':>10} {'p50 ms':>10} "
        f"{'p95 ms':>10} {'max ms':>10}"
    )
    print(header)
    print("-" * len(header))
    printed = []
    for instrument in registry.instruments():
        if not isinstance(instrument, Histogram):
            continue
        if not instrument.name.endswith(".seconds") or not instrument.count:
            continue
        stage = instrument.name.removeprefix("repro.").removesuffix(".seconds")
        print(
            f"{stage:<34} {instrument.count:>7} "
            f"{instrument.mean * 1000:>10.3f} "
            f"{instrument.quantile(0.5) * 1000:>10.3f} "
            f"{instrument.quantile(0.95) * 1000:>10.3f} "
            f"{instrument.snapshot()['max'] * 1000:>10.3f}"
        )
        printed.append(instrument.name)
    return printed


def _command_stats(args: argparse.Namespace) -> int:
    """Replay + query + checkpoint/restore under observability, then report.

    One run exercises every instrumented stage: the event stream drives the
    commit and kernel paths, two queries the select/aggregate split, and a
    scratch-directory checkpoint/compact/restore cycle the durability path.
    The table is computed from the same registry ``--export-*`` dumps, so
    what the operator reads is exactly what a scrape would ship.
    """
    import tempfile

    from repro import obs
    from repro.live.replay import scenario_event_stream
    from repro.store import RecoveryManager

    if args.batch_size < 0:
        print("error: --batch-size must be >= 0", file=sys.stderr)
        return 2
    if args.sample < 0:
        print("error: --sample must be >= 0 (0 = record every trace)", file=sys.stderr)
        return 2
    obs.reset()
    obs.enable()
    if args.sample:
        obs.set_sampler(obs.Sampler(default_rate=args.sample))
        print(f"trace sampling        : head-sampling roots 1-in-{args.sample}")
    try:
        session = _make_session(
            args, engine="live", micro_batch_size=args.batch_size, live_preload=False
        )
        log = scenario_event_stream(
            session.scenario,
            update_fraction=args.update,
            withdraw_fraction=args.withdraw,
            seed=args.seed,
        )
        ordered = log.replay_order()
        report = session.replay(ordered)
        print(report.describe())
        # The query path: one filtered read, one full aggregation.
        session.offers().where(state="assigned").fetch()
        session.offers().aggregate().fetch()
        # The durability path, in a scratch directory.
        with tempfile.TemporaryDirectory(prefix="flexviz-stats-") as scratch:
            manager = RecoveryManager(scratch)
            manager.record(ordered)
            manager.checkpoint(session)
            manager.compact()
            manager.restore(scenario=session.scenario)
        print()
        registry = obs.get_registry()
        recorded = set(_print_stage_table(registry))
        summary = session.summary()
        print()
        print(
            f"backlog               : pending={summary.get('pending_events', 0)} "
            f"dirty_cells={summary.get('dirty_cells', 0)}"
        )
        print(f"tracing spans         : {len(obs.get_tracer().finished())} finished")
        if args.export_jsonl:
            lines = obs.export_jsonl(args.export_jsonl, registry, obs.get_tracer())
            print(f"wrote {lines} JSONL records to {args.export_jsonl}")
        if args.export_prom:
            from pathlib import Path

            Path(args.export_prom).write_text(
                obs.to_prometheus_text(registry), encoding="utf-8"
            )
            print(f"wrote Prometheus text format to {args.export_prom}")
        if args.flame:
            events = obs.export_chrome_trace(args.flame, obs.get_tracer().finished())
            print(f"wrote {events} span events (Chrome trace_event JSON) to {args.flame}")
        if args.folded:
            stacks = obs.write_folded(args.folded, obs.get_tracer().finished())
            print(f"wrote {stacks} folded stack lines to {args.folded}")
        if args.smoke:
            missing = [name for name in _REQUIRED_STAGES if name not in recorded]
            if missing:
                print(
                    "stats smoke FAILED: no observations for: " + "; ".join(missing),
                    file=sys.stderr,
                )
                return 1
            print("stats smoke OK: every required stage recorded observations")
        return 0
    finally:
        obs.disable()


def _command_trace(args: argparse.Namespace) -> int:
    """Print one trace (or a summary of all of them) from a JSONL dump.

    Works offline on the artifact ``flexviz stats --export-jsonl`` wrote —
    the tracer in *this* process has recorded nothing.
    """
    from repro import obs

    try:
        _, spans = obs.read_jsonl_export(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    summaries = obs.trace_summaries(spans)
    if args.list:
        if not summaries:
            print(f"no traces in {args.input}")
            return 0
        header = f"{'trace':>8} {'spans':>6} {'duration ms':>12}  root"
        print(header)
        print("-" * len(header))
        for row in summaries:
            print(
                f"{row['trace_id']:>8} {row['spans']:>6} "
                f"{row['duration'] * 1000:>12.3f}  {row['root']}"
            )
        return 0
    if args.trace_id == "latest":
        if not summaries:
            print(f"error: no traces in {args.input}", file=sys.stderr)
            return 1
        trace_id = summaries[-1]["trace_id"]
    else:
        try:
            trace_id = int(args.trace_id)
        except ValueError:
            print(
                f"error: trace_id must be an integer or 'latest', got {args.trace_id!r}",
                file=sys.stderr,
            )
            return 2
    if not any(row["trace_id"] == trace_id for row in summaries):
        print(f"error: trace {trace_id} is not in {args.input}", file=sys.stderr)
        return 1
    print(obs.format_trace(spans, trace_id))
    return 0


def _command_views(args: argparse.Namespace) -> int:
    if not args.materialized:
        for name in _VIEW_NAMES:
            print(name)
        print(f"{len(_VIEW_NAMES)} registered views")
        return 0
    from repro.live.replay import scenario_event_stream
    from repro.session.spec import QuerySpec

    session = _make_session(
        args, engine="live", live_preload=False, micro_batch_size=_VIEWS_COMMIT_EVERY
    )
    regions = sorted({offer.region for offer in session.scenario.flex_offers})
    specs = {
        "all-aggregated": QuerySpec.build(parameters=session.parameters),
        "assigned": QuerySpec.build(state="assigned"),
    }
    if regions:
        specs[f"region-{regions[0].lower()}"] = QuerySpec.build(region=regions[0])
    for name, spec in specs.items():
        session.materialize(spec, name=name)
    unreadable: list[int] = []

    def check_readable(delta) -> None:
        # Runs inside the commit: read the published snapshot without
        # committing, to check the notified commit is already readable.
        if session.query(QuerySpec(), consistency="latest").version != delta.version:
            unreadable.append(delta.version)

    session.subscribe(QuerySpec(), check_readable, name="readable")
    log = scenario_event_stream(
        session.scenario,
        update_fraction=args.update,
        withdraw_fraction=args.withdraw,
        seed=args.seed,
    )
    report = session.replay(log)
    session.engine.refresh()
    print(report.describe())
    header = (
        f"{'view':<18} {'version':>8} {'rows':>6} {'deltas':>7} "
        f"{'skipped':>8} {'stale':>6} {'maint ms':>9}  fresh"
    )
    print(header)
    print("-" * len(header))
    stale = False
    for view in session.materialized_views:
        stats = view.stats()
        fresh = session.query(view.spec, consistency="live").matches(view.result)
        stale = stale or not fresh or stats["staleness"] != 0
        print(
            f"{stats['name']:<18} {stats['version']:>8} {stats['rows']:>6} "
            f"{stats['deltas_applied']:>7} {stats['commits_skipped']:>8} "
            f"{stats['staleness']:>6} {stats['maintenance_seconds'] * 1000:>9.3f}  "
            f"{'ok' if fresh else 'DIVERGED'}"
        )
    if unreadable:
        print(
            f"subscribers were notified before these commits were readable: {unreadable}",
            file=sys.stderr,
        )
    if stale:
        print(
            "materialized views diverged from a from-scratch query", file=sys.stderr
        )
    return 1 if stale or unreadable else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "figures": _command_figures,
        "render": _command_render,
        "warehouse": _command_warehouse,
        "plan": _command_plan,
        "mdx": _command_mdx,
        "session": _command_session,
        "live": _command_live,
        "checkpoint": _command_checkpoint,
        "restore": _command_restore,
        "stats": _command_stats,
        "trace": _command_trace,
        "views": _command_views,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
