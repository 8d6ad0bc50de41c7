"""``FlexSession`` — the one front door to the flex-offer system.

A session owns a scenario, its engines and the view registry, and exposes
every workflow the scattered entry points used to cover:

>>> session = FlexSession.from_config(prosumers=120, seed=7)
>>> frame = session.offers().where(state="assigned", region="Capital").to_frame()
>>> view = session.offers().aggregate().to_view("pivot")
>>> live = session.use_engine("live")          # same scenario, event-driven
>>> session.subscribe(session.offers().where(region="Capital").spec, callback)

Engines are pluggable behind the
:class:`~repro.session.engines.AggregationBackend` protocol: ``"batch"`` is a
read-only snapshot of the scenario, ``"live"`` the event-driven incremental
subsystem and ``"async"`` the same engine behind a bounded-queue
background-commit worker (live-family engines are preloaded with the
scenario's offers so all engines start interchangeable).  Engines
are kept per session, so switching back and forth is free after first use;
downstream backends register through the same :data:`ENGINE_FACTORIES`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.aggregation.parameters import AggregationParameters
from repro.errors import SessionError
from repro.flexoffer.model import FlexOffer
from repro.live.events import EventLog, OfferEvent
from repro.live.replay import ReplayReport, replay, scenario_event_stream
from repro.session.engines import (
    AggregationBackend,
    AsyncEngine,
    BatchEngine,
    LiveEngine,
    subscribe_spec,
)
from repro.session.materialize import MaterializedView, views_gauge
from repro.session.query import OfferQuery, execute
from repro.session.spec import QuerySpec, ResultSet
from repro.session.views import build_view, registered_views

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.scenarios import Scenario
    from repro.live.engine import CommitResult
    from repro.live.subscriptions import Subscription
    from repro.olap.cube import FlexOfferCube
    from repro.views.base import FlexOfferView
    from repro.views.framework import VisualAnalysisFramework

#: Engine factories by name; sessions instantiate lazily and cache.  Factories
#: that subclass :class:`LiveEngine` receive the session's stream options
#: (``micro_batch_size``, ``preload``); anything else gets (scenario, parameters).
ENGINE_FACTORIES: dict[str, Callable[..., AggregationBackend]] = {
    "batch": BatchEngine,
    "live": LiveEngine,
    "async": AsyncEngine,
}


class FlexSession:
    """The unified facade over scenario, engines and views."""

    def __init__(
        self,
        scenario: "Scenario",
        engine: str = "batch",
        parameters: AggregationParameters | None = None,
        micro_batch_size: int = 0,
        live_preload: bool = True,
    ) -> None:
        self.scenario = scenario
        self.grid = scenario.grid
        self.parameters = parameters or AggregationParameters()
        self.micro_batch_size = micro_batch_size
        self.live_preload = live_preload
        self._engines: dict[str, AggregationBackend] = {}
        self._active = ""
        #: Standing state that must survive engine swaps: every subscription
        #: handed out by :meth:`subscribe` and every materialized view, both
        #: re-attached to the new backend's hub by :meth:`use_engine`.
        self._subscriptions: list["Subscription"] = []
        self._materialized: dict[str, MaterializedView] = {}
        self.use_engine(engine)

    @classmethod
    def from_config(
        cls,
        prosumers: int = 200,
        seed: int = 42,
        engine: str = "batch",
        **session_options: Any,
    ) -> "FlexSession":
        """Generate a synthetic scenario and open a session over it."""
        from repro.datagen.scenarios import ScenarioConfig, generate_scenario

        scenario = generate_scenario(ScenarioConfig(prosumer_count=prosumers, seed=seed))
        return cls(scenario, engine=engine, **session_options)

    # ------------------------------------------------------------------
    # Engine management
    # ------------------------------------------------------------------
    @property
    def engine(self) -> AggregationBackend:
        """The active backend."""
        return self._engines[self._active]

    @property
    def engine_name(self) -> str:
        return self._active

    def _create_backend(self, name: str) -> AggregationBackend:
        """Instantiate (or fetch the cached) backend without activating it."""
        if name not in ENGINE_FACTORIES:
            raise SessionError(
                f"unknown engine {name!r}; available: {sorted(ENGINE_FACTORIES)}"
            )
        if name not in self._engines:
            factory = ENGINE_FACTORIES[name]
            if isinstance(factory, type) and issubclass(factory, LiveEngine):
                backend = factory(
                    self.scenario,
                    self.parameters,
                    micro_batch_size=self.micro_batch_size,
                    preload=self.live_preload,
                )
            else:
                backend = factory(self.scenario, self.parameters)
            self._engines[name] = backend
        return self._engines[name]

    def use_engine(self, name: str) -> AggregationBackend:
        """Switch the active engine, creating it on first use.

        Each live-family backend owns its own :class:`SubscriptionHub`, so a
        swap re-attaches every standing subscription and materialized view to
        the new backend's hub (and detaches them from the other cached
        live-family hubs) — ``session.subscribe(...)`` callbacks and
        ``session.materialize(...)`` views keep firing across
        ``use_engine()`` / ``replay(engine=...)`` switches.
        """
        backend = self._create_backend(name)
        self._active = name
        if isinstance(backend, LiveEngine):
            self._attach_standing(backend)
        return backend

    def _attach_standing(self, backend: LiveEngine) -> None:
        """Move standing subscriptions and materialized views onto ``backend``."""
        others = [
            cached
            for cached in self._engines.values()
            if isinstance(cached, LiveEngine) and cached is not backend
        ]
        for subscription in self._subscriptions:
            for other in others:
                other.hub.unsubscribe(subscription)
            backend.hub.adopt(subscription)
        for view in self._materialized.values():
            view.attach(backend)

    def close(self) -> None:
        """Release every cached engine's resources (the async worker thread).

        The async engine owns a worker thread; sessions that create it should
        be closed (or used as a context manager) instead of relying on process
        exit.  Closed engines stay cached — the live-family ones rebuild their
        inner engine on :meth:`~repro.session.engines.LiveEngine.reset`, but
        the usual pattern is one close at the end of the session's life.
        """
        for backend in self._engines.values():
            close_backend = getattr(backend, "close", None)
            if close_backend is not None:
                close_backend()

    def __enter__(self) -> "FlexSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> BatchEngine:
        """Rebuild the batch snapshot from the active live engine's *surviving* offers.

        The batch backend is otherwise frozen at the scenario the session was
        opened over: events ingested through a live-family engine never reach
        it.  ``snapshot()`` re-reads the live population (passthrough
        aggregates included), rebuilds the batch engine over it and replaces
        the cached backend, so the next ``use_engine("batch")`` — and every
        batch query after it — sees exactly the offers that survived the
        stream.  Called with a batch-family engine active it simply rebuilds
        from the original scenario.  The active engine is not switched.
        """
        backend = self.engine
        if isinstance(backend, LiveEngine):
            backend.refresh()
            scenario = self.scenario.replace_offers(backend.offers())
        else:
            scenario = self.scenario
        fresh = BatchEngine(scenario, self.parameters)
        self._engines["batch"] = fresh
        return fresh

    @property
    def live(self) -> LiveEngine:
        """The live backend (created on demand), without switching to it.

        Deliberately does *not* re-attach standing subscriptions or
        materialized views — they follow the active engine, and this accessor
        must not move them onto a backend that is not committing.
        """
        backend = self._create_backend("live")
        assert isinstance(backend, LiveEngine)
        return backend

    # ------------------------------------------------------------------
    # The query front door
    # ------------------------------------------------------------------
    def offers(self) -> OfferQuery:
        """Start a fluent query over the active engine's offers."""
        return OfferQuery(self)

    def query(
        self,
        spec: QuerySpec,
        *,
        at_version: int | None = None,
        consistency: str = "snapshot",
    ) -> ResultSet:
        """Execute one explicit spec against the active engine.

        Live-family engines answer through the versioned read path (see
        :mod:`repro.readpath`): an immutable snapshot of the committed state,
        fronted by a spec-keyed result cache.  ``consistency`` picks the
        snapshot discipline:

        * ``"snapshot"`` (default) — flush pending writes, then read the
          newest snapshot: read-your-writes, same answers as before.
        * ``"latest"`` — read the newest *published* snapshot without
          flushing: lock-free, never blocks on the writer (concurrent
          readers' bread and butter).
        * ``"live"`` — flush, then read a snapshot captured fresh from the
          committed engine state, bypassing the published snapshots and the
          result cache: the reference the read path is checked against.

        ``at_version=`` pins the read to one retained historical snapshot
        (overrides ``consistency``); the batch engine is an unversioned
        snapshot, so it only supports the default direct path.
        """
        backend = self.engine
        readpath = getattr(backend, "readpath", None)
        if at_version is not None:
            if readpath is None:
                raise SessionError(
                    "at_version= needs a live-family engine; the batch engine "
                    "is an unversioned snapshot"
                )
            return readpath.read(readpath.manager.get(at_version), spec)
        if consistency not in ("snapshot", "latest", "live"):
            raise SessionError(
                f"unknown consistency {consistency!r}; expected 'snapshot', "
                "'latest' or 'live'"
            )
        if readpath is None:
            return execute(backend, self.grid, spec)
        if consistency == "live":
            return execute(backend.capture_snapshot(), self.grid, spec)
        if consistency == "snapshot":
            backend.refresh()
        return readpath.read(readpath.manager.latest(), spec)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(
        self, name: str, result: ResultSet | Iterable[FlexOffer] | None = None, **options: Any
    ) -> "FlexOfferView":
        """Open a registered view over a result set (or the whole population)."""
        if result is None:
            offers: Iterable[FlexOffer] = self.engine.offers()
        elif isinstance(result, ResultSet):
            offers = result.offers
        else:
            offers = result
        return build_view(name, list(offers), self, **options)

    @property
    def view_names(self) -> tuple[str, ...]:
        """The names ``view``/``to_view`` accept."""
        return registered_views()

    def framework(self) -> "VisualAnalysisFramework":
        """The tabbed main-window facade, bound to this session."""
        from repro.views.framework import VisualAnalysisFramework

        return VisualAnalysisFramework(self)

    # ------------------------------------------------------------------
    # Event ingestion and subscriptions (live engine)
    # ------------------------------------------------------------------
    def ingest(self, event: OfferEvent) -> "CommitResult | None":
        """Feed one lifecycle event to the active engine."""
        return self.engine.ingest(event)

    def ingest_many(self, events: Iterable[OfferEvent]) -> list["CommitResult"]:
        """Feed many events; returns any micro-batch commit results."""
        results = []
        for event in events:
            result = self.ingest(event)
            if result is not None:
                results.append(result)
        return results

    def commit(self) -> "CommitResult":
        """Commit pending events on the live engine."""
        backend = self.engine
        if not isinstance(backend, LiveEngine):
            raise SessionError("only the live engine commits; use_engine('live') first")
        return backend.commit()

    def subscribe(
        self, spec: QuerySpec | OfferQuery, callback: Callable, name: str = ""
    ) -> "Subscription":
        """Route commits matching ``spec`` to ``callback`` via the hub.

        Requires the live engine to be active — the batch snapshot never
        commits, so a subscription against it could never fire.
        """
        if isinstance(spec, OfferQuery):
            spec = spec.spec
        backend = self.engine
        if not isinstance(backend, LiveEngine):
            raise SessionError(
                "subscriptions need the live engine; call use_engine('live') first"
            )
        subscription = subscribe_spec(backend, spec, callback, name=name)
        # Session-level registry: the swap logic in use_engine() re-attaches
        # this handle to whichever live-family backend becomes active next.
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: "Subscription") -> bool:
        """Retire a subscription from every cached live-family hub.

        Returns whether any hub still held it.  Works regardless of which
        engine is active — the handle may have been moved by a swap since it
        was created.
        """
        removed = False
        for backend in self._engines.values():
            if isinstance(backend, LiveEngine):
                removed = backend.hub.unsubscribe(subscription) or removed
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)
        return removed

    # ------------------------------------------------------------------
    # Materialized views (see repro.session.materialize)
    # ------------------------------------------------------------------
    def materialize(
        self, spec: QuerySpec | OfferQuery, name: str = ""
    ) -> MaterializedView:
        """Register a standing spec maintained incrementally from commit deltas.

        The returned :class:`MaterializedView` holds a live
        :class:`~repro.session.spec.ResultSet` that the session keeps
        equivalent to ``session.query(spec)`` by applying each commit's
        insert/update/withdraw deltas — not by re-running the query.  The
        view follows the active engine across ``use_engine()`` /
        ``replay(engine=...)`` swaps and its ``version`` tracks the read
        path's snapshot versions.  Requires a live-family engine (the batch
        snapshot never commits, so there would be no deltas to maintain from).
        """
        if isinstance(spec, OfferQuery):
            spec = spec.spec
        backend = self.engine
        if not isinstance(backend, LiveEngine):
            raise SessionError(
                "materialized views need a live-family engine; "
                "call use_engine('live') first"
            )
        name = name or f"view-{len(self._materialized) + 1}"
        if name in self._materialized:
            raise SessionError(f"materialized view {name!r} already registered")
        view = MaterializedView(spec, name=name, grid=self.grid)
        view.attach(backend)
        self._materialized[name] = view
        views_gauge(len(self._materialized))
        return view

    def materialized(self, name: str) -> MaterializedView:
        """Fetch one registered materialized view by name."""
        try:
            return self._materialized[name]
        except KeyError:
            raise SessionError(
                f"no materialized view {name!r}; registered: "
                f"{sorted(self._materialized)}"
            ) from None

    @property
    def materialized_views(self) -> tuple[MaterializedView, ...]:
        """Every registered materialized view, in registration order."""
        return tuple(self._materialized.values())

    def drop_materialized(self, name: str) -> MaterializedView:
        """Deregister a view and detach it from its hub; the result stays readable."""
        view = self.materialized(name)
        view.detach()
        del self._materialized[name]
        views_gauge(len(self._materialized))
        return view

    def replay(
        self,
        events: EventLog | Iterable[OfferEvent] | None = None,
        update_fraction: float = 0.0,
        withdraw_fraction: float = 0.0,
        seed: int = 0,
        reset: bool | None = None,
        engine: str | None = None,
        resume_from: int = 0,
    ) -> ReplayReport:
        """Replay an event stream through a live-family engine.

        With ``events=None`` the session's scenario is reconstructed as a
        timestamped stream first (see
        :func:`~repro.live.replay.scenario_event_stream`).  ``reset``
        controls whether the live state is dropped first (hub subscriptions
        survive a reset); the default (``None``) resets exactly when the
        stream is the synthesized scenario one — it re-adds every offer, so
        replaying it over the preloaded state would collide.  An explicit
        ``events`` stream is treated as a *continuation* of the current live
        state; pass ``reset=True`` when it is a from-scratch log (e.g. the
        full scenario stream against a preloaded engine).  ``engine`` picks
        the replaying backend (``"live"``/``"async"``); the
        default keeps the active engine when it is a live-family one and
        falls back to ``"live"`` otherwise.  The chosen engine is created if
        needed and becomes the active engine.  ``resume_from`` skips that many
        events at the head of the ordered stream — the continuation entry
        point for engines restored from a checkpoint (see
        :meth:`FlexSession.restore`).
        """
        if engine is None:
            engine = self._active if isinstance(self.engine, LiveEngine) else "live"
        backend = self.use_engine(engine)
        if not isinstance(backend, LiveEngine):
            raise SessionError(f"engine {engine!r} cannot replay events; it never commits")
        should_reset = reset if reset is not None else events is None
        if should_reset and len(backend.engine.offers()):
            backend.reset()
            # A reset keeps the hub (subscriptions survive) but drops the
            # committed state the materialized mirrors were built from; a
            # full recompute re-bases each view on the emptied engine.
            for view in self._materialized.values():
                if view.attached:
                    view.refresh()
        if events is None:
            events = scenario_event_stream(
                self.scenario,
                update_fraction=update_fraction,
                withdraw_fraction=withdraw_fraction,
                seed=seed,
            )
        report = replay(events, backend, resume_from=resume_from)
        # The replay loop feeds the inner engine directly; keep the backend's
        # event-offset counter (what checkpoints record) in step.
        backend.note_ingested(report.events)
        return report

    # ------------------------------------------------------------------
    # Durability (the repro.store subsystem)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, offset: int | None = None):
        """Write a checkpoint of the active live-family engine to ``path``.

        Serializes the committed engine state (surviving offers, aggregate
        outputs, aggregate-id allocator) and the event-log offset (``offset``
        or the backend's own ingested-event counter) into a versioned
        checkpoint directory.  Returns the loaded-back
        :class:`~repro.store.snapshot.Checkpoint`.
        """
        from repro.store.recovery import RecoveryManager

        return RecoveryManager(path).checkpoint(self, offset=offset)

    @classmethod
    def restore(
        cls,
        path: str,
        engine: str | None = None,
        scenario: "Scenario | None" = None,
        **session_options: Any,
    ) -> "FlexSession":
        """Rebuild a session from a checkpoint directory plus its log tail.

        ``engine`` picks any live-family backend (default: the family that
        wrote the checkpoint); events recorded past the checkpoint's offset
        are replayed through it, so the restored session is observably
        equivalent to one that consumed the whole stream (the recovery
        contract, enforced by ``tests/test_store_recovery.py`` and
        ``flexviz restore --smoke``).
        """
        from repro.store.recovery import RecoveryManager

        return RecoveryManager(path).restore(
            engine=engine, scenario=scenario, **session_options
        )

    # ------------------------------------------------------------------
    # Shared read-side conveniences
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """The active engine's star schema.

        On a live-family engine it is derived on demand — the batch loader
        run over the latest snapshot's offers — and cached until the next
        commit publishes a new snapshot.
        """
        return self.engine.schema

    @property
    def repository(self):
        """The index-backed repository over :attr:`schema`."""
        return self.engine.repository

    def cube(self) -> "FlexOfferCube":
        """An OLAP cube over the active engine's current offers."""
        from repro.olap.cube import FlexOfferCube

        return FlexOfferCube(
            self.engine.offers(), self.grid, topology=self.scenario.topology
        )

    def summary(self) -> dict[str, Any]:
        """Warehouse row counts and state distribution, plus session facts.

        The counts come from :attr:`repository`, so on a live-family engine
        the first summary after a commit derives the star schema.

        Live-family backends also contribute their backlog depth — pending
        events, dirty cells/chunks, and on the async engine the ingest queue
        depth — read before :attr:`repository` commits the backlog.  The
        figures are pushed through the :mod:`repro.obs` gauges on the way
        out, so this summary and a metrics scrape can never disagree.
        """
        depth_stats = getattr(self.engine, "depth_stats", None)
        backlog = depth_stats() if depth_stats is not None else {}
        summary = self.repository.summary()
        summary["engine"] = self.engine_name
        summary["views"] = list(self.view_names)
        if isinstance(self.engine, LiveEngine):
            # Chunk-granularity instrumentation of the live-family backends:
            # how much work the dirty ledger actually did vs skipped.  Summed
            # over *every* live-family backend this session created, so
            # ``use_engine()``/``replay(engine=...)`` swaps never silently
            # reset the session-level totals.
            live_backends = [
                backend
                for backend in self._engines.values()
                if isinstance(backend, LiveEngine)
            ]
            summary["events_ingested"] = sum(
                backend.events_ingested for backend in live_backends
            )
            summary["chunks_reaggregated"] = sum(
                backend.chunk_stats["chunks_reaggregated"] for backend in live_backends
            )
            summary["chunks_skipped"] = sum(
                backend.chunk_stats["chunks_skipped"] for backend in live_backends
            )
        readpath = getattr(self.engine, "readpath", None)
        if readpath is not None:
            summary["snapshot_version"] = readpath.manager.latest_version
            summary["result_cache"] = readpath.cache.stats()
        if self._materialized:
            summary["materialized_views"] = [
                view.stats() for view in self._materialized.values()
            ]
        summary.update(backlog)
        return summary

    # ------------------------------------------------------------------
    # Observability (the repro.obs subsystem)
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, dict[str, Any]]:
        """Snapshot of the process-global metrics registry (see :mod:`repro.obs`).

        Always readable; while observability is disabled the instruments are
        registered but unmoving (counters at zero, histograms empty).  Call
        ``repro.obs.enable()`` before the work you want measured.
        """
        from repro.obs import get_registry

        return get_registry().snapshot()

    def trace(self, limit: int | None = None, name: str | None = None):
        """The most recent finished tracing spans, oldest first.

        ``name`` filters to one stage (``"live.commit.drain"``); ``limit``
        keeps the newest N after filtering.  Spans only accumulate while
        observability is enabled.
        """
        from repro.obs import get_tracer

        return get_tracer().finished(limit=limit, name=name)

    def describe(self) -> str:
        """One-line session description."""
        return (
            f"FlexSession(engine={self.engine_name}, "
            f"offers={len(self.engine.offers())}, views={len(self.view_names)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return self.describe()
