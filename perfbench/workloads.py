"""The three closed-loop workloads: ``stream``, ``explore`` and ``recover``.

Each workload drives one ``FlexSession`` on the ``live`` engine from the main
thread, one client, one operation at a time.  A workload exposes:

* ``setup()`` — build fresh state for one round (what ``setup_s`` times)
  after ``close()`` dropped the previous round's state;
* ``step()`` — one unit of work, returning a :class:`Unit`, or ``None`` once
  the round's inputs are used up; the first ``warmup_units`` of a round are
  the untimed warm-up prefix;
* ``after(unit)`` — untimed bookkeeping and the oracle checks of that unit,
  returning the failures found;
* ``finish()`` — the oracle checks at the end of a round;
* ``counters()`` — cumulative work counters the traced run reports as deltas.
"""

from __future__ import annotations

import gc
import itertools
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.session import FlexSession, QuerySpec
from repro.errors import StoreError
from repro.store import RecoveryManager
from repro.views.framework import ViewKind

from perfbench.inputs import EXPLORE_WARMUP_ACTIONS, STREAM_WARMUP_BATCHES, Action, Inputs
from perfbench.oracle import Population, aggregated, canonical

#: Analyst action kind -> the registered view its result is shown in.
VIEW_OF = {
    "filter": "basic",
    "node": "basic",
    "entity": "basic",
    "cold": "pivot",
    "hot": "dashboard",
    "retune": "profile",
}


@dataclass
class Unit:
    """One timed unit: ``ops`` operations in ``busy`` seconds."""

    kind: str
    ops: int
    busy: float
    #: Per-operation latencies in milliseconds (empty for writer commits).
    latencies_ms: list[float] = field(default_factory=list)
    payload: object = None


CACHE_COUNTERS = ("hits", "misses", "invalidations", "evictions", "carried")


def cache_counters(session: FlexSession) -> dict[str, int]:
    stats = session.live.readpath.cache.stats()
    return {f"cache.{name}": stats[name] for name in CACHE_COUNTERS}


def directory_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


class Workload:
    name = ""
    #: Untimed units run after set-up, before the timed phase.
    warmup_units = 0
    #: Whether every round warms up, or only the first.
    warm_every_round = True

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.parameters = inputs.parameters
        self.session: FlexSession | None = None
        #: Oracle comparisons made so far (failed ones included).
        self.checks = 0

    def expect(self, ok: bool, failure: str) -> list[str]:
        """Count one oracle comparison; returns its failure, if any."""
        self.checks += 1
        return [] if ok else [failure]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def fresh_directory(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))

    def counters(self) -> dict[str, float]:
        return {}

    def checkpoint_bytes(self) -> int:
        return 0

    def finish(self) -> list[str]:
        return []


class Stream(Workload):
    """Lifecycle events in batches of 64: log append, ingest, commit, two views."""

    name = "stream"
    warmup_units = STREAM_WARMUP_BATCHES

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        super().__init__(inputs, workdir)
        self.streams = iter(inputs.stream)

    def setup(self) -> None:
        inputs = self.inputs
        self.session = session = FlexSession(
            inputs.scenario, engine="live", parameters=self.parameters
        )
        self.dashboard_spec = QuerySpec.build(parameters=self.parameters)
        self.region_spec = QuerySpec.build(regions=(inputs.stream_region,))
        self.tab = session.framework().open_materialized_tab(
            self.dashboard_spec, kind=ViewKind.DASHBOARD, name="dashboard"
        )
        self.region = session.materialize(self.region_spec, name="region")
        self.log_directory = self.fresh_directory()
        self.log = RecoveryManager(self.log_directory)
        self.batches = iter(next(self.streams))
        self.population = Population(inputs.scenario.flex_offers)

    def step(self) -> Unit | None:
        batch = next(self.batches, None)
        if batch is None:
            return None
        session = self.session
        clock = time.perf_counter
        ingested = []
        started = clock()
        self.log.record(batch.events)
        for event in batch.events:
            ingested.append(clock())
            session.ingest(event)
        commit = session.commit()
        self.tab.sync()
        shown = self.region.result
        visible = clock()
        return Unit(
            kind="batch",
            ops=len(batch),
            busy=visible - started,
            latencies_ms=[(visible - moment) * 1000.0 for moment in ingested],
            payload=(batch, commit.sequence, shown.version),
        )

    def close(self) -> None:
        # The views reach the session: drop them too, so that the session is
        # collected before the next round's set-up builds another one.
        self.tab = self.region = None
        super().close()

    def after(self, unit: Unit, timed: bool) -> list[str]:
        batch, sequence, region_version = unit.payload
        self.population.apply(batch)
        return self.expect(
            region_version == sequence and self.tab.version == sequence,
            f"views lag commit {sequence}",
        )

    def finish(self) -> list[str]:
        """Both standing views ≡ a from-scratch query ≡ the batch pipeline."""
        session = self.session
        failures = []
        expected = aggregated(self.population.sorted(), self.parameters)
        fresh = session.query(self.dashboard_spec)
        for label, shown in (
            ("dashboard tab", canonical(self.tab.offers)),
            ("dashboard view", self.tab.source.result.canonical()),
            ("dashboard query", fresh.canonical()),
        ):
            failures += self.expect(shown == expected, f"{label} diverged from the batch pipeline")
        region = self.population.select({"regions": (self.inputs.stream_region,)})
        # The raw view is checked against the warehouse mirror's own answer.
        mirrored = session.query(self.region_spec, consistency="live")
        for label, shown in (
            ("region view", self.region.result.offers),
            ("region query", mirrored.offers),
        ):
            failures += self.expect(
                list(shown) == region, f"{label} diverged from the generator's record"
            )
        return failures

    def counters(self) -> dict[str, float]:
        views = (self.tab.source, self.region)
        return {
            **cache_counters(self.session),
            "maintenance_s": sum(view.maintenance_seconds for view in views),
            "deltas_applied": sum(view.deltas_applied for view in views),
            "commits_skipped": sum(view.commits_skipped for view in views),
            "log_bytes": directory_bytes(self.log_directory),
        }


class Explore(Workload):
    """The analyst's read script, with a hot-region writer every 25 actions.

    Every round replays the script's first ``warmup_units`` entries as its
    warm-up, and its timed phase carries on where the previous round's
    stopped, so the timed actions of a run are one stretch of the script.
    The writer's revisions replace whole offers, so they apply to a fresh
    session in any order; the oracle's record restarts with each round.
    """

    name = "explore"
    warmup_units = EXPLORE_WARMUP_ACTIONS
    #: Every this many analyst actions of one kind is re-checked by the oracle.
    check_every = 10

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        super().__init__(inputs, workdir)
        self.timed_script = iter(inputs.script[self.warmup_units :])
        self.seen: dict[str, int] = {}

    def setup(self) -> None:
        inputs = self.inputs
        self.session = session = FlexSession(
            inputs.scenario, engine="live", parameters=self.parameters
        )
        self.framework = session.framework()
        self.tab = self.framework.open_materialized_tab(
            QuerySpec.build(parameters=self.parameters), kind=ViewKind.DASHBOARD, name="dashboard"
        )
        self.script = itertools.chain(inputs.script[: self.warmup_units], self.timed_script)
        self.population = Population(inputs.scenario.flex_offers)

    def close(self) -> None:
        self.framework = self.tab = None
        super().close()

    def spec_of(self, action: Action) -> QuerySpec:
        arguments = dict(action.args)
        tolerances = arguments.pop("tolerances", None)
        if tolerances is not None:
            arguments["parameters"] = replace(
                self.parameters,
                est_tolerance_slots=tolerances[0],
                time_flexibility_tolerance_slots=tolerances[1],
            )
        elif action.kind in ("cold", "hot"):
            arguments["parameters"] = self.parameters
        return QuerySpec.build(**arguments)

    def step(self) -> Unit | None:
        action = next(self.script, None)
        if action is None:
            return None
        session = self.session
        clock = time.perf_counter
        started = clock()
        if action.kind == "write":
            session.ingest_many(action.batch.events)
            session.commit()
            return Unit(kind="write", ops=0, busy=clock() - started, payload=(action, None))
        if action.kind == "sync":
            self.tab.sync()
            answer = self.tab.offers
            svg = self.tab.view().to_svg()
        elif action.kind == "entity":
            entity, start, end = action.args
            grid = self.inputs.scenario.grid
            dataset = self.framework.loading.load_entity(
                entity, grid.to_datetime(start), grid.to_datetime(end)
            )
            answer = dataset.offers
            svg = session.view("basic", answer).to_svg()
        else:
            answer = session.query(self.spec_of(action))
            svg = session.view(VIEW_OF[action.kind], answer).to_svg()
        elapsed = clock() - started
        if not svg:
            raise RuntimeError(f"{action.kind} action rendered an empty SVG")
        return Unit(action.kind, 1, elapsed, [elapsed * 1000.0], payload=(action, answer))

    def after(self, unit: Unit, timed: bool) -> list[str]:
        action, answer = unit.payload
        if action.kind == "write":
            self.population.apply(action.batch)
            return []
        seen = self.seen[action.kind] = self.seen.get(action.kind, 0) + 1
        if not timed or seen % self.check_every:
            return []
        return self.check(action, answer)

    def check(self, action: Action, answer) -> list[str]:
        """One action's answer ≡ the batch pipeline over the same population version."""
        population = self.population
        if action.kind == "sync":
            ok = canonical(answer) == aggregated(population.sorted(), self.parameters)
        elif action.kind == "entity":
            entity, start, end = action.args
            expected = population.select({"prosumer_ids": (entity,)}, slots=(start, end))
            ok = sorted(answer, key=lambda offer: offer.id) == expected
        else:
            spec = self.spec_of(action)
            constraints = {
                name: getattr(spec, name)
                for name in ("regions", "districts", "grid_nodes", "states")
                if getattr(spec, name) is not None
            }
            selected = population.select(constraints)
            if spec.parameters is None:
                ok = answer.offers == selected
            else:
                ok = answer.canonical() == aggregated(selected, spec.parameters)
        return self.expect(ok, f"{action.kind} {action.args!r} diverged from the batch pipeline")

    def counters(self) -> dict[str, float]:
        view = self.tab.source
        return {
            **cache_counters(self.session),
            "maintenance_s": view.maintenance_seconds,
            "deltas_applied": view.deltas_applied,
            "commits_skipped": view.commits_skipped,
        }


class Recover(Workload):
    """Crash restarts: restore checkpoint + ~1k-event tail, then answer once."""

    name = "recover"
    warmup_units = 1
    #: Each restart starts cold; only the process's first one is warm-up.
    warm_every_round = False

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        super().__init__(inputs, workdir)
        self.answer_spec = QuerySpec.build(parameters=self.parameters)
        population = Population(inputs.scenario.flex_offers)
        population.apply(inputs.tail)
        self.expected_offers = population.sorted()
        self.expected_answer = aggregated(self.expected_offers, self.parameters)
        self.directory: Path | None = None
        self.timed_restarts = 0

    def setup(self) -> None:
        session = FlexSession(self.inputs.scenario, engine="live", parameters=self.parameters)
        self.directory = self.fresh_directory()
        manager = RecoveryManager(self.directory)
        manager.checkpoint(session, offset=0)
        manager.record(self.inputs.tail.events)
        session.close()

    def checkpoint_bytes(self) -> int:
        return directory_bytes(self.directory) - directory_bytes(self.directory / "events")

    def step(self) -> Unit | None:
        clock = time.perf_counter
        started = clock()
        self.session = FlexSession.restore(self.directory, scenario=self.inputs.scenario)
        answer = self.session.query(self.answer_spec)
        elapsed = clock() - started
        return Unit("restart", 1, elapsed, [elapsed * 1000.0], payload=answer)

    def after(self, unit: Unit, timed: bool) -> list[str]:
        try:
            failures = self.expect(
                unit.payload.canonical() == self.expected_answer,
                "first answer diverged from the batch pipeline",
            ) + self.expect(
                self.session.live.offers() == self.expected_offers,
                "restored population diverged from the generator's record",
            )
            if timed:
                self.timed_restarts += 1
                if self.timed_restarts == 1:
                    failures += self.verify()
            return failures
        finally:
            # A crashed process restarts without the previous session's
            # heap: its garbage is collected here, outside the timing.
            self.close()
            gc.collect()

    def verify(self) -> list[str]:
        """``RecoveryManager.verify`` on the restored session.

        It costs several restarts' time at 10k offers, so it runs on the
        first timed restart only; ``after``'s checks, which compare the same
        answer and population with the generator's record, run on every
        restart.
        """
        self.checks += 1
        try:
            RecoveryManager(self.directory).verify(self.session)
        except StoreError:
            return [traceback.format_exc(limit=3)]
        return []

    def counters(self) -> dict[str, float]:
        """The restored session's result-cache counters (zeros between restarts)."""
        if self.session is None:
            return {f"cache.{name}": 0 for name in CACHE_COUNTERS}
        return cache_counters(self.session)


WORKLOADS = {workload.name: workload for workload in (Stream, Explore, Recover)}
