"""Outside-in layer tracing for the traced benchmark run.

Nothing under ``src/`` is instrumented for this: :class:`LayerTracer` wraps
each layer's public entry points from the benchmark's own files, patching
every wrapper in at the name its caller resolves (a module global such as
``repro.live.engine.aggregate_group`` or a class attribute such as
``LiveAggregationEngine.commit``), and removes them again on
:meth:`LayerTracer.uninstall`.  ``repro.obs`` stays disabled throughout, so
no number depends on spans the program itself records.

Each wrapped call is a span on one stack (the benchmark runs on the main
thread only).  A span's *self* time is its duration minus the spans nested
in it; spans with no parent are *top-level*, and their summed duration is
the part of a timed phase the trace covers.  Garbage-collection pauses are
a layer of their own (``gc``): a pause is taken out of the self time of the
span it interrupted, so no layer is charged for a collection that its
allocations merely happened to trigger.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

#: (layer, "module" or "module:Class", attribute) — one row per call site.
#: Several rows share a layer where callers reach the same code by
#: different names (``aggregate_group`` is imported into three modules).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("live.apply", "repro.live.engine:LiveAggregationEngine", "apply"),
    ("live.commit", "repro.live.engine:LiveAggregationEngine", "commit"),
    ("live.hub", "repro.live.subscriptions:SubscriptionHub", "publish"),
    ("mirror.apply", "repro.live.warehouse:LiveWarehouse", "apply"),
    ("mirror.apply_commit", "repro.live.warehouse:LiveWarehouse", "apply_commit"),
    ("aggregation.group", "repro.live.engine", "aggregate_group"),
    ("aggregation.group", "repro.session.materialize", "aggregate_group"),
    ("aggregation.group", "repro.aggregation.aggregate", "aggregate_group"),
    ("aggregation.kernel", "repro.aggregation.aggregate", "profile_bounds"),
    ("aggregation.batch", "repro.aggregation.aggregate", "aggregate"),
    ("aggregation.batch", "repro.readpath.snapshot", "batch_aggregate"),
    ("aggregation.batch", "repro.session.engines", "aggregate"),
    ("readpath.publish", "repro.readpath.publisher:ReadPath", "on_commit"),
    ("readpath.snapshot_advance", "repro.readpath.snapshot:AggregateSnapshot", "advance"),
    ("readpath.cache_advance", "repro.readpath.cache:ResultCache", "advance"),
    ("readpath.read", "repro.readpath.publisher:ReadPath", "read"),
    ("session.execute", "repro.readpath.publisher", "execute"),
    ("session.execute", "repro.session.facade", "execute"),
    ("views.sync", "repro.views.framework:MaterializedViewTab", "sync"),
    ("views.build", "repro.session.facade", "build_view"),
    ("views.build", "repro.views.framework:ViewTab", "view"),
    ("views.build", "repro.views.base:FlexOfferView", "scene"),
    ("views.loading", "repro.views.loading:LoadingWorkflow", "load_entity"),
    ("render.svg", "repro.views.base", "render_svg"),
    ("warehouse.repository", "repro.warehouse.query:FlexOfferRepository", "load"),
    ("warehouse.repository", "repro.warehouse.query:FlexOfferRepository", "load_for_entity"),
    ("store.append", "repro.store.segments:SegmentStore", "extend"),
    ("store.checkpoint", "repro.store.recovery:RecoveryManager", "checkpoint"),
    ("store.restore", "repro.store.recovery:RecoveryManager", "restore"),
    ("store.load", "repro.store.snapshot:SnapshotStore", "load"),
    ("store.state_restore", "repro.store.recovery", "restore_engine_state"),
    ("store.tail_replay", "repro.store.recovery", "replay"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Call site whose ``aggregate_group`` time belongs to materialized-view
#: maintenance (subtracted from the views' ``maintenance_seconds``).
MATERIALIZE_SITE = "repro.session.materialize.aggregate_group"


def _count(key: str, value: Callable[[tuple, Any], float]) -> Callable:
    def hook(tracer: "LayerTracer", args: tuple, result: Any) -> None:
        tracer.counts[key] += value(args, result)

    return hook


def _commit_hook(tracer: "LayerTracer", args: tuple, result: Any) -> None:
    tracer.counts["chunks_reaggregated"] += result.chunks_reaggregated
    tracer.counts["chunks_skipped"] += result.chunks_skipped


def _execute_hook(tracer: "LayerTracer", args: tuple, result: Any) -> None:
    tracer.counts["rows_scanned"] += result.scanned_rows
    tracer.counts["rows_matched"] += result.matched_rows


def _sync_hook(tracer: "LayerTracer", args: tuple, result: Any) -> None:
    changed, removed = result
    tracer.counts["redrawn"] += len(changed) + len(removed)
    tracer.counts["shown"] += len(args[0].offers)


_members = _count("members", lambda args, result: len(args[0]))

#: Work counts read off a wrapped call's arguments or result, by call site.
HOOKS: dict[tuple[str, str], Callable] = {
    ("repro.live.engine:LiveAggregationEngine", "commit"): _commit_hook,
    ("repro.live.warehouse:LiveWarehouse", "apply_commit"): _count(
        "rows_touched", lambda args, result: result
    ),
    ("repro.live.engine", "aggregate_group"): _members,
    ("repro.session.materialize", "aggregate_group"): _members,
    ("repro.aggregation.aggregate", "aggregate_group"): _members,
    ("repro.readpath.publisher", "execute"): _execute_hook,
    ("repro.views.framework:MaterializedViewTab", "sync"): _sync_hook,
    ("repro.views.base", "render_svg"): _count("svg_bytes", lambda args, result: len(result)),
    ("repro.warehouse.query:FlexOfferRepository", "load"): _count(
        "repository_scanned", lambda args, result: result.scanned_rows
    ),
    ("repro.store.segments:SegmentStore", "extend"): _count(
        "appended", lambda args, result: result
    ),
    ("repro.store.snapshot:SnapshotStore", "load"): _count(
        "loaded_offers", lambda args, result: len(result.state.offers)
    ),
    ("repro.store.recovery", "replay"): _count("tail_events", lambda args, result: result.events),
}


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0


class LayerTracer:
    """Span stack, per-layer self time and work counts of wrapped calls."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        #: Duration of spans by (parent layer, layer) and by call site.
        self.nested_s: dict[tuple[str, str], float] = defaultdict(float)
        self.site_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        #: Collection pauses by the layer whose span they interrupted.
        self.gc_in: dict[str, float] = defaultdict(float)
        self._gc_started = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for layer, owner_path, attribute in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            hook = HOOKS.get((owner_path, attribute))
            site = f"{module_name}.{attribute}"
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(layer, site, original.__func__, hook))
            else:
                patched = self._wrap(layer, site, original, hook)
            setattr(owner, attribute, patched)
            self._patches.append((owner, attribute, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_started
        self.gc_s += elapsed
        self.gc_collections += 1
        if self._stack:
            frame = self._stack[-1]
            frame[1] += elapsed
            self.gc_in[frame[0]] += elapsed

    def _wrap(self, layer: str, site: str, function: Callable, hook: Callable | None) -> Callable:
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - started
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                self.site_s[site] += elapsed
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    self.nested_s[(parent[0], layer)] += elapsed
                else:
                    self.top_level_s += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return traced
