"""Materialized views: standing ``QuerySpec``s maintained from commit deltas.

``session.materialize(spec, name=...)`` registers a spec whose result the
session keeps *fresh* instead of re-running it: the view subscribes to the
live backend's :class:`~repro.live.subscriptions.SubscriptionHub` (with
``deliver_empty=True`` so no commit can slip past unnoticed) and applies each
commit's insert/update/withdraw deltas to its held rows and aggregate
profiles.  The cost of keeping a view current therefore tracks the offers
the commit touched — the paper's incremental-visualization claim — not the
population size.

A view whose spec *is* the engine's own aggregation (``QuerySpec(parameters=
<the engine's parameters>)``: no filter, interval, ``only_aggregates`` or
limit) keeps no rows or groups at all.  The engine has just aggregated
exactly that, chunk by chunk, so the view serves the engine's committed
outputs, provenance and ids — aggregating them a second time would only
repeat work the commit already did.  Which of the two kinds a view is
follows from its spec alone, decided again whenever the view re-bases on an
engine (attach, :meth:`MaterializedView.refresh`, engine swap, replay
reset) — the same test :meth:`AggregateSnapshot.aggregate
<repro.readpath.snapshot.AggregateSnapshot.aggregate>` applies to queries.

Every other spec is maintained from the one delta the read path trusts too
(see :mod:`repro.readpath.cache`): a commit's
:attr:`~repro.live.engine.CommitResult.touched` map names each offer an event
touched, with its committed version (``None`` once withdrawn).  A view row
is affected if and only if it held a touched id or a touched offer now
matches the spec, so the view tests exactly those offers against its held
rows and re-aggregates only the spec-level groups whose membership moved.
Passthrough aggregates are rows like any other; they join no group and
follow the group outputs in id order, the batch pipeline's layout.  Commits
that touch none of the view's rows only advance its ``version`` — the
analogue of a cache carry.

Version stamping is consistent with the read path: an applied commit stamps
the view (and its :class:`~repro.session.spec.ResultSet`) with the commit's
``sequence``, which is exactly the snapshot version
:mod:`repro.readpath` publishes for the same commit — so a materialized
view and a ``session.query(spec)`` at the same version describe the same
state.

The differential contract (``tests/test_materialize.py``): at every commit
point, on every live-family engine, a materialized view's result is
equivalent to a from-scratch ``session.query(spec)`` — raw ids exactly,
aggregate profiles bit-for-bit modulo
:func:`~repro.live.engine.canonical_form`, provenance per aggregate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.aggregation.aggregate import aggregate_group
from repro.aggregation.grouping import GroupKey, chunk_group, group_key
from repro.errors import SessionError
from repro.obs import get_registry, get_tracer
from repro.session.spec import QuerySpec, ResultSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flexoffer.model import FlexOffer
    from repro.live.engine import CommitResult, LiveAggregationEngine
    from repro.live.subscriptions import CommitNotification, Subscription
    from repro.session.engines import LiveEngine

# ----------------------------------------------------------------------
# Observability: staleness and maintenance cost of the standing views (the
# cost is the session.materialize.apply span).  Totals over every view —
# per-view figures ride MaterializedView.stats().
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_DELTAS = _OBS.counter(
    "repro.session.materialize.deltas", "commit deltas applied to materialized views"
)
_SKIPPED = _OBS.counter(
    "repro.session.materialize.skipped", "commits that touched no materialized row"
)
_REFRESHES = _OBS.counter(
    "repro.session.materialize.refreshes", "full recomputes (refresh / re-attach)"
)
_STALENESS = _OBS.gauge(
    "repro.session.materialize.staleness",
    "commits the engine is ahead of the most recently maintained view",
)
_VIEWS = _OBS.gauge(
    "repro.session.materialize.views", "materialized views currently registered"
)


@dataclass(frozen=True)
class MaterializedDelta:
    """What one applied commit changed in a view's output offers."""

    version: int
    changed_ids: tuple[int, ...]
    removed_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.changed_ids) + len(self.removed_ids)


class MaterializedView:
    """One standing spec with a live, delta-maintained :class:`ResultSet`.

    Created through :meth:`~repro.session.facade.FlexSession.materialize`;
    not useful free-standing (it needs a live-family backend's hub and
    committed state to attach to).  Thread-safe: the async backend applies
    deltas on its worker thread while readers take :attr:`result` on theirs.

    When the spec is the attached engine's own aggregation, :attr:`result`
    holds the engine's committed output objects and ids (an unchanged chunk
    keeps its object from commit to commit) and :attr:`last_delta` is the
    commit's own changed/removed outputs; every other spec is maintained
    from its own mirror of rows and spec-level groups, updated from each
    commit's ``touched`` offers alone.
    """

    def __init__(self, spec: QuerySpec, name: str, grid) -> None:
        self.spec = spec
        self.name = name
        self.grid = grid
        self._lock = threading.Lock()
        self._backend: "LiveEngine | None" = None
        self._subscription: "Subscription | None" = None
        #: Matching rows by id, passthrough aggregates included — the view's
        #: held selection (pre-limit).
        self._rows: dict[int, "FlexOffer"] = {}
        #: For aggregation specs: matching raw row ids per *spec* group key,
        #: the committed output offers per group and their provenance.
        self._groups: dict[GroupKey, set[int]] = {}
        self._outputs: dict[GroupKey, list["FlexOffer"]] = {}
        self._constituents: dict[GroupKey, dict[int, list["FlexOffer"]]] = {}
        #: Stable aggregate id per (group, chunk) — same discipline as the
        #: live engine, so an unchanged chunk keeps its output identity.
        self._chunk_ids: dict[tuple[GroupKey, int], int] = {}
        self._next_id = 1_000_000
        #: Whether the spec is the attached engine's own aggregation (decided
        #: at every reseed); such a view holds no mirror and serves the
        #: engine's committed outputs.
        self._follows_engine = False
        self._result: ResultSet | None = None
        self.version = 0
        self.last_delta: MaterializedDelta | None = None
        # Plain counters (always maintained, observability on or off).
        self.deltas_applied = 0
        self.commits_skipped = 0
        self.refreshes = 0
        self.maintenance_seconds = 0.0

    # ------------------------------------------------------------------
    # Attachment (the facade drives this on materialize / engine swap)
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._backend is not None

    def attach(self, backend: "LiveEngine") -> None:
        """(Re)wire the view to ``backend``'s hub and rebuild from its state.

        Re-attaching to the already-attached backend is a no-op when the
        subscription is still registered there; anything else (an engine
        swap, a reset that rebuilt the state) detaches from the old hub,
        subscribes on the new one and reseeds the mirror — atomically with
        respect to commits (the async backend's commit lock is taken).
        """
        if (
            backend is self._backend
            and self._subscription is not None
            and backend.hub.unsubscribe(self._subscription)
        ):
            # Still attached; re-adopt the handle we just popped for the check.
            backend.hub.adopt(self._subscription)
            return
        self.detach()
        backend.refresh()
        lock = getattr(backend.engine, "_lock", None)
        if lock is not None:
            with lock:
                self._wire(backend)
        else:
            self._wire(backend)

    def _wire(self, backend: "LiveEngine") -> None:
        self._backend = backend
        # No predicate: the view reads the commit's touched offers, never the
        # hub's slice, and every commit must move its version.
        self._subscription = backend.hub.subscribe(
            self._on_commit, name=f"materialize:{self.name}", deliver_empty=True
        )
        self._reseed()

    def detach(self) -> None:
        """Drop the hub subscription; the held result stays readable."""
        if self._backend is not None and self._subscription is not None:
            self._backend.hub.unsubscribe(self._subscription)
        self._backend = None
        self._subscription = None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def result(self) -> ResultSet:
        """The current materialized result (never ``None`` once attached)."""
        result = self._result
        if result is None:
            raise SessionError(f"materialized view {self.name!r} was never attached")
        return result

    @property
    def rows(self) -> int:
        """Matching rows (raw + passthrough, pre-limit): the result's ``matched_rows``."""
        result = self._result
        return 0 if result is None else result.matched_rows

    @property
    def staleness(self) -> int:
        """Commits the attached engine is ahead of this view (0 when fresh)."""
        if self._backend is None:
            return 0
        return max(0, self._backend._state_engine.commit_count - self.version)

    def stats(self) -> dict[str, Any]:
        """Maintenance counters (always maintained, like the result cache's)."""
        return {
            "name": self.name,
            "spec": self.spec.describe() or "all flex-offers",
            "version": self.version,
            "rows": self.rows,
            "deltas_applied": self.deltas_applied,
            "commits_skipped": self.commits_skipped,
            "refreshes": self.refreshes,
            "maintenance_seconds": self.maintenance_seconds,
            "staleness": self.staleness,
        }

    def describe(self) -> str:
        return (
            f"{self.name}: {self.spec.describe() or 'all flex-offers'} @v{self.version} "
            f"({self.rows} rows, {self.deltas_applied} deltas applied, "
            f"{self.commits_skipped} skipped)"
        )

    # ------------------------------------------------------------------
    # Full recompute
    # ------------------------------------------------------------------
    def refresh(self) -> ResultSet:
        """Force a full recompute from the engine's committed state.

        The escape hatch the differential tests compare against — delta
        maintenance must make this call unnecessary, never wrong.
        """
        backend = self._backend
        if backend is None:
            raise SessionError(
                f"materialized view {self.name!r} is detached; re-materialize it "
                "on a live-family engine first"
            )
        backend.refresh()
        lock = getattr(backend.engine, "_lock", None)
        if lock is not None:
            with lock:
                self._reseed()
        else:
            self._reseed()
        self.refreshes += 1
        _REFRESHES.inc()
        return self.result

    def _reseed(self) -> None:
        """Rebuild the mirror from the attached engine's committed state."""
        backend = self._backend
        assert backend is not None
        state = backend._state_engine
        spec = self.spec
        grid = self.grid
        with self._lock:
            self._rows.clear()
            self._groups.clear()
            self._outputs.clear()
            self._constituents.clear()
            self._follows_engine = spec == QuerySpec(parameters=state.parameters)
            if self._follows_engine:
                self._finish(state, state.commit_count, engine_name=backend.name)
                return
            for offer in state.offers():
                if spec.matches(offer, grid):
                    self._rows[offer.id] = offer
                    key = self._group_of(offer)
                    if key is not None:
                        self._groups.setdefault(key, set()).add(offer.id)
            for key in list(self._groups):
                self._recompute_group(key)
            self._finish(state, state.commit_count, engine_name=backend.name)

    # ------------------------------------------------------------------
    # Delta maintenance (runs on whichever thread committed)
    # ------------------------------------------------------------------
    def _on_commit(self, notification: "CommitNotification") -> None:
        started = time.perf_counter()
        with _TRACER.span("session.materialize.apply"):
            mutated = self._apply(notification.commit)
        self.maintenance_seconds += time.perf_counter() - started
        if mutated:
            self.deltas_applied += 1
        else:
            self.commits_skipped += 1
        (_DELTAS if mutated else _SKIPPED).inc()
        if _OBS.enabled:
            _STALENESS.set(self.staleness)

    def _apply(self, commit: "CommitResult") -> bool:
        """Apply one commit's touched offers to the held rows; returns whether any moved."""
        backend = self._backend
        if backend is None:  # a racing detach; nothing to maintain
            return False
        state = backend._state_engine
        spec = self.spec
        grid = self.grid
        with self._lock:
            if self._follows_engine:
                return self._follow(commit, state, backend.name)
            rows = self._rows
            groups = self._groups
            changed_groups: set[GroupKey] = set()
            changed: list[int] = []
            removed: list[int] = []
            for offer_id, offer in commit.touched.items():
                if offer is not None and not spec.matches(offer, grid):
                    offer = None
                old = rows.get(offer_id)
                if old is offer:
                    continue  # outside the spec before and after, or unchanged
                old_key = self._group_of(old)
                new_key = self._group_of(offer)
                if old_key is not None:
                    groups[old_key].discard(offer_id)
                    changed_groups.add(old_key)
                if offer is None:
                    del rows[offer_id]
                else:
                    rows[offer_id] = offer
                if new_key is not None:
                    groups.setdefault(new_key, set()).add(offer_id)
                    changed_groups.add(new_key)
                # A row without a group is an output itself.
                if offer is not None and new_key is None:
                    changed.append(offer_id)
                elif old is not None and old_key is None:
                    removed.append(offer_id)
            if not (changed_groups or changed or removed):
                # Provably untouched: only the version moves (a cache carry).
                self._carry(commit.sequence)
                return False
            for key in changed_groups:
                old_out, new_out = self._recompute_group(key)
                new_by_id = {offer.id: offer for offer in new_out}
                for offer in old_out:
                    if offer.id not in new_by_id:
                        removed.append(offer.id)
                old_by_id = {offer.id: offer for offer in old_out}
                for offer_id, offer in new_by_id.items():
                    if old_by_id.get(offer_id) != offer:
                        changed.append(offer_id)
            self._finish(state, commit.sequence, engine_name=backend.name)
            self.last_delta = MaterializedDelta(
                version=commit.sequence,
                changed_ids=tuple(changed),
                removed_ids=tuple(removed),
            )
            return True

    def _follow(
        self, commit: "CommitResult", state: "LiveAggregationEngine", engine_name: str
    ) -> bool:
        """Adopt one commit of the engine-own spec: its outputs, not a re-aggregation."""
        # Provenance can move without any output changing: a member's state
        # change re-aggregates an equal aggregate, so ``commit.changed`` stays
        # empty while the constituents differ.  Only a commit that applied no
        # event and dirtied no cell leaves the committed state as it was.
        if not (commit.events_applied or commit.dirty_cells):
            self._carry(commit.sequence)
            return False
        self._finish(state, commit.sequence, engine_name=engine_name)
        self.last_delta = MaterializedDelta(
            version=commit.sequence,
            changed_ids=commit.changed_ids,
            removed_ids=commit.removed_ids,
        )
        return True

    def _carry(self, version: int) -> None:
        """Advance the version of a result the commit provably left alone."""
        self.version = version
        if self._result is not None:
            self._result.version = version

    # ------------------------------------------------------------------
    # Group bookkeeping (aggregation specs without a limit)
    # ------------------------------------------------------------------
    def _maintains_groups(self) -> bool:
        return self.spec.parameters is not None and self.spec.limit is None

    def _group_of(self, offer: "FlexOffer | None") -> GroupKey | None:
        """The spec-level group a held row joins (``None``: it is an output itself).

        Passthrough aggregates never join a group, exactly as in the batch
        pipeline; nor does any row of a spec without group maintenance.
        """
        if offer is None or offer.is_aggregate or not self._maintains_groups():
            return None
        return group_key(offer, self.spec.parameters)

    def _recompute_group(
        self, key: GroupKey
    ) -> tuple[list["FlexOffer"], list["FlexOffer"]]:
        """Re-aggregate one spec-level group; returns (old outputs, new outputs).

        Chunking and singleton passthrough follow the batch pipeline exactly
        (:func:`~repro.aggregation.aggregate.aggregate`), so concatenating
        per-group outputs is bit-identical to a from-scratch aggregation of
        the whole selection — profiles included, ids modulo canonical form.
        """
        parameters = self.spec.parameters
        assert parameters is not None
        old = self._outputs.pop(key, [])
        self._constituents.pop(key, None)
        member_ids = self._groups.get(key, ())
        members = sorted(
            (self._rows[offer_id] for offer_id in member_ids),
            key=lambda offer: offer.id,
        )
        if not members:
            self._groups.pop(key, None)
            return old, []
        outputs: list["FlexOffer"] = []
        constituents: dict[int, list["FlexOffer"]] = {}
        for index, chunk in enumerate(chunk_group(members, parameters.max_group_size)):
            if len(chunk) == 1:
                outputs.append(chunk[0])
                continue
            aggregate_id = self._chunk_ids.get((key, index))
            if aggregate_id is None:
                aggregate_id = self._next_id
                self._next_id += 1
                self._chunk_ids[(key, index)] = aggregate_id
            combined = aggregate_group(chunk, aggregate_id)
            outputs.append(combined)
            constituents[aggregate_id] = list(chunk)
        self._outputs[key] = outputs
        if constituents:
            self._constituents[key] = constituents
        return old, outputs

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _finish(
        self, state: "LiveAggregationEngine", version: int, engine_name: str
    ) -> None:
        """Rebuild the :class:`ResultSet` envelope from the mirror (or the engine)."""
        spec = self.spec
        selected = sorted(self._rows.values(), key=lambda offer: offer.id)
        matched = len(selected)
        constituents: dict[int, list["FlexOffer"]] = {}
        if self._follows_engine:  # the mirror is empty: serve the engine's outputs
            offers = state.aggregated_offers()
            matched = len(state)
            # A copy: the engine's map is live and its next commit mutates
            # it, while readers on other threads hold this result.
            constituents = dict(state.constituent_map())
        elif spec.parameters is None:
            offers = selected[: spec.limit] if spec.limit is not None else selected
        elif spec.limit is not None:
            # Limit + aggregation: the cap is global over the sorted selection,
            # so group-local maintenance cannot apply — re-aggregate the capped
            # mirror (still no scan: the selection itself is delta-maintained).
            from repro.aggregation.aggregate import aggregate as batch_aggregate

            computed = batch_aggregate(
                selected[: spec.limit], spec.parameters, id_offset=self._next_id
            )
            offers = list(computed.offers)
            constituents = {
                aggregate_id: list(group)
                for aggregate_id, group in computed.constituents.items()
            }
        else:
            offers = []
            for key in sorted(self._outputs):
                offers.extend(self._outputs[key])
            # The batch pipeline's layout: group outputs, then passthroughs.
            offers.extend(offer for offer in selected if offer.is_aggregate)
            for per_group in self._constituents.values():
                for aggregate_id, group in per_group.items():
                    constituents[aggregate_id] = list(group)
        self._result = ResultSet(
            offers=offers,
            spec=spec,
            engine=engine_name,
            scanned_rows=0,  # maintained from deltas, never scanned
            matched_rows=matched,
            constituents=constituents,
            version=version,
        )
        self.version = version


def views_gauge(count: int) -> None:
    """Refresh the registered-views gauge (unconditional; registration is rare)."""
    _VIEWS.set(count)
