"""The incremental (dirty-group) flex-offer aggregation engine.

The batch pipeline (:func:`repro.aggregation.aggregate.aggregate`) re-groups
and re-aggregates *every* offer on every call.  The live engine instead keeps
the grouping grid of :mod:`repro.aggregation.grouping` as a persistent index:
each applied event touches at most two grid cells (the offer's old and new
cell), only those cells are marked *dirty*, and :meth:`LiveAggregationEngine.commit`
re-aggregates just the dirty cells.  The cost of a commit is therefore
proportional to the number of touched offers, not the population size —
recomputation is replaced by incremental maintenance, the classic move of
incremental view maintenance and integrity checking.

Equivalence with the batch path is part of the contract: after any event
stream, :meth:`LiveAggregationEngine.aggregated_offers` equals the batch
aggregation of the surviving offers bit-for-bit on profiles (ids may differ —
the engine allocates stable per-cell aggregate ids).  ``canonical_form`` is
the id-insensitive normal form the equivalence tests compare under.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.aggregation.aggregate import (
    AGGREGATE_INPUTS,
    AggregationResult,
    aggregate_group,
    mean_price,
)
from repro.aggregation.grouping import GroupKey, chunk_count, chunks_from, group_key
from repro.aggregation.parameters import AggregationParameters
from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import COUNT_BUCKETS
from repro.live.events import (
    OfferAdded,
    OfferEvent,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.live.subscriptions import SubscriptionHub


# ----------------------------------------------------------------------
# Observability: the commit stages are spans (each times itself into its
# repro.<stage>.seconds histogram); the chunk split and batch size ride
# counters and a count histogram.  See repro.obs.
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_COMMIT_EVENTS = _OBS.histogram(
    "repro.live.commit.events", "events drained per commit", COUNT_BUCKETS
)
_CHUNKS_REAGGREGATED = _OBS.counter(
    "repro.live.chunks.reaggregated", "perturbed chunks settled by commits"
)
_CHUNKS_SKIPPED = _OBS.counter(
    "repro.live.chunks.skipped", "chunks in dirty cells reused untouched"
)


#: A member's aggregate inputs but its price: when these are equal before and
#: after an in-place revision, its chunk's output needs at most a new price.
_unpriced_inputs = attrgetter(*(name for name in AGGREGATE_INPUTS if name != "price_per_kwh"))


def cell_key_string(key: GroupKey) -> str:
    """Stable string form of a grouping-grid cell key (for warehouse columns)."""
    return f"{key[0]}|{key[1]}|{key[2]}"


def canonical_form(offer: FlexOffer) -> FlexOffer:
    """Id-insensitive normal form used to compare aggregation outputs.

    Raw offers are returned unchanged (their ids are ground truth);
    aggregates get id 0 and sorted constituent ids, so two aggregates built
    from the same group compare equal regardless of which engine allocated
    their ids or in which order provenance was recorded.
    """
    if not offer.is_aggregate:
        return offer
    return replace(offer, id=0, constituent_ids=tuple(sorted(offer.constituent_ids)))


class _CellDirt:
    """Per-cell dirt accumulated between commits — the chunk-granular ledger.

    Two kinds of dirt, resolved to chunk indices at commit time against the
    cell's sorted membership:

    * ``touched`` — member ids revised *in place* (price, state, profile;
      same grid cell), each perturbing exactly the chunk containing it;
    * ``structural_from`` — the smallest id inserted into or withdrawn from
      the cell; ranks shift from that id onwards, so every chunk from the one
      containing its insertion point to the end changes membership, while
      chunks before it keep their exact member list (the stability rule).
    """

    __slots__ = ("touched", "structural_from")

    def __init__(self) -> None:
        self.touched: set[int] = set()
        self.structural_from: int | None = None

    def note_structural(self, offer_id: int) -> None:
        if self.structural_from is None or offer_id < self.structural_from:
            self.structural_from = offer_id


@dataclass(frozen=True)
class ChunkStats:
    """Chunk-granularity instrumentation of one commit drain."""

    #: Perturbed chunks the commit settled (kept, refolded or re-aggregated).
    reaggregated: int = 0
    #: Chunks inside dirty cells that were proven clean and reused untouched.
    skipped: int = 0


@dataclass
class CommitResult:
    """Outcome of one engine commit: what changed, and how long it took."""

    #: Monotonically increasing commit number (1 for the first commit).
    sequence: int
    #: Number of events applied since the previous commit.
    events_applied: int
    #: Grid cells the commit examined (any dirt; a cell can appear here with
    #: zero re-aggregated chunks, e.g. a withdrawal that only retired a chunk).
    dirty_cells: tuple[GroupKey, ...]
    #: Output offers that are new or changed (aggregates and passthroughs).
    changed: list[FlexOffer] = field(default_factory=list)
    #: Output offers retired by this commit (kept as objects so consumers can
    #: tell retired aggregates from raw offers that were folded away).
    removed: list[FlexOffer] = field(default_factory=list)
    #: Wall-clock seconds the commit took.
    elapsed_seconds: float = 0.0
    #: Perturbed chunks this commit settled (granularity instrumentation):
    #: every chunk its dirt reached, whether the chunk kept its output (its
    #: touched members changed no aggregate input), refolded only the mean
    #: price, or re-ran :func:`aggregate_group`.
    chunks_reaggregated: int = 0
    #: Chunks in dirty cells reused untouched (the chunk ledger's savings).
    chunks_skipped: int = 0
    #: Every offer id an event named since the previous commit, mapped to the
    #: offer's committed version, or to ``None`` once it is no longer live
    #: (passthrough aggregates included).  Readers derive their whole delta
    #: from this one map: an answer can only change if it held a touched id
    #: or a touched offer now matches it.
    touched: dict[int, FlexOffer | None] = field(default_factory=dict)

    @property
    def changed_ids(self) -> tuple[int, ...]:
        return tuple(offer.id for offer in self.changed)

    @property
    def removed_ids(self) -> tuple[int, ...]:
        return tuple(offer.id for offer in self.removed)

    def __len__(self) -> int:
        return len(self.changed) + len(self.removed)


class LiveAggregationEngine:
    """Keeps flex-offer aggregates fresh under a stream of lifecycle events.

    Parameters
    ----------
    parameters:
        The grouping/aggregation parameters (shared with the batch path).
    micro_batch_size:
        ``0`` (default) commits only when :meth:`commit` is called; a positive
        value auto-commits after that many applied events, trading commit
        latency against per-event overhead.
    id_offset:
        First aggregate id; ids are allocated once per (cell, chunk) and are
        stable across commits, so a re-aggregated group keeps its identity.
    hub:
        Optional :class:`~repro.live.subscriptions.SubscriptionHub`; every
        commit result is published to it.
    """

    def __init__(
        self,
        parameters: AggregationParameters | None = None,
        micro_batch_size: int = 0,
        id_offset: int = 1_000_000,
        hub: "SubscriptionHub | None" = None,
    ) -> None:
        if micro_batch_size < 0:
            raise LiveEngineError("micro_batch_size must be >= 0")
        self.parameters = parameters or AggregationParameters()
        self.micro_batch_size = micro_batch_size
        self.id_offset = id_offset
        self.hub = hub
        #: Raw (non-aggregate) offers by id — the ground truth.
        self._offers: dict[int, FlexOffer] = {}
        #: Input offers that are already aggregates pass through untouched.
        self._passthrough: dict[int, FlexOffer] = {}
        #: Passthrough versions as of the last commit (no-op change suppression).
        self._committed_passthrough: dict[int, FlexOffer] = {}
        #: The persistent grouping grid: cell -> member offer ids, ascending
        #: (chunk order), kept sorted by bisection on insert and withdrawal.
        self._cells: dict[GroupKey, list[int]] = {}
        self._cell_of: dict[int, GroupKey] = {}
        #: The chunk-granular dirty ledger: cell -> accumulated dirt, resolved
        #: to the perturbed chunk indices at commit time.
        self._dirty: dict[GroupKey, _CellDirt] = {}
        self._dirty_passthrough: set[int] = set()
        self._removed_passthrough: dict[int, FlexOffer] = {}
        #: Ids the events applied since the last commit named (the source of
        #: :attr:`CommitResult.touched`).
        self._named: set[int] = set()
        #: Committed aggregation output per cell.
        self._outputs: dict[GroupKey, list[FlexOffer]] = {}
        self._constituents: dict[int, list[FlexOffer]] = {}
        #: Stable aggregate id per (cell, chunk index).
        self._aggregate_ids: dict[tuple[GroupKey, int], int] = {}
        #: Every id ever handed to an engine aggregate (stable, never reused).
        self._reserved_ids: set[int] = set()
        self._next_id = id_offset
        self._pending_events = 0
        self._commit_count = 0
        #: Called with every :class:`CommitResult` right after the commit is
        #: final (sequence assigned) and *before* the hub is notified — on
        #: whatever thread committed.  This is the one hook that sees every
        #: commit path: session ingest/commit, direct replay-driven commits,
        #: and the async worker's background commits.  The session backends
        #: hang snapshot publication and cumulative chunk accounting here
        #: (see :mod:`repro.readpath`), so a subscriber already reads the
        #: commit it is notified of, and a subscriber that raises cannot
        #: keep the read path from seeing it.
        self.commit_listener: "Callable[[CommitResult], None] | None" = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live raw offers (passthrough aggregates included)."""
        return len(self._offers) + len(self._passthrough)

    @property
    def pending_events(self) -> int:
        """Events applied since the last commit."""
        return self._pending_events

    @property
    def dirty_cell_count(self) -> int:
        return len(self._dirty)

    @property
    def dirty_chunk_count(self) -> int:
        """Chunks the next commit would settle (resolved on demand)."""
        return sum(
            len(self._dirty_chunks(dirt, self._cells.get(cell, [])))
            for cell, dirt in self._dirty.items()
        )

    @property
    def has_pending_changes(self) -> bool:
        """Whether a commit would find anything to re-aggregate or retire."""
        return bool(self._dirty or self._dirty_passthrough or self._removed_passthrough)

    @property
    def cell_count(self) -> int:
        """Number of non-empty grouping-grid cells."""
        return len(self._cells)

    def owns_aggregate_id(self, offer_id: int) -> bool:
        """Whether ``offer_id`` was ever allocated to one of this engine's aggregates."""
        return offer_id in self._reserved_ids

    @property
    def commit_count(self) -> int:
        """Commits performed so far — the snapshot version sequence."""
        return self._commit_count

    def cells(self) -> list[GroupKey]:
        """Every non-empty grid cell (the snapshot capture walk)."""
        return list(self._cells)

    def cell_members(self, cell: GroupKey) -> list[FlexOffer]:
        """One cell's surviving raw members, sorted by id (chunk order)."""
        return [self._offers[offer_id] for offer_id in self._cells.get(cell, ())]

    def outputs_of_cell(self, cell: GroupKey) -> list[FlexOffer]:
        """One cell's committed aggregation outputs (copied, safe to keep)."""
        return list(self._outputs.get(cell, ()))

    def cell_outputs(self) -> dict[GroupKey, list[FlexOffer]]:
        """Committed outputs per grid cell (a live view — do not mutate)."""
        return self._outputs

    def passthrough_offers(self) -> list[FlexOffer]:
        """The live passthrough aggregates, sorted by id."""
        return [self._passthrough[offer_id] for offer_id in sorted(self._passthrough)]

    def constituent_map(self) -> dict[int, list[FlexOffer]]:
        """Provenance of every committed aggregate (a live view — do not mutate)."""
        return self._constituents

    def offers(self) -> list[FlexOffer]:
        """The surviving raw offers, sorted by id (batch-pipeline input order)."""
        combined = list(self._offers.values()) + list(self._passthrough.values())
        return sorted(combined, key=lambda offer: offer.id)

    def offer(self, offer_id: int) -> FlexOffer:
        """One raw offer by id; raises :class:`LiveEngineError` when unknown."""
        try:
            return self._offers.get(offer_id) or self._passthrough[offer_id]
        except KeyError as exc:
            raise LiveEngineError(f"unknown offer id {offer_id}") from exc

    def cell_of(self, offer_id: int) -> GroupKey | None:
        """The grid cell an offer currently sits in (``None`` for passthroughs)."""
        return self._cell_of.get(offer_id)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: OfferEvent) -> CommitResult | None:
        """Apply one event; returns a commit result when micro-batching fired."""
        if isinstance(event, OfferAdded):
            handle, argument = self._insert, event.offer
        elif isinstance(event, OfferUpdated):
            handle, argument = self._update, event.offer
        elif isinstance(event, OfferWithdrawn):
            handle, argument = self._remove, event.offer_id
        elif isinstance(event, OfferStateChanged):
            handle, argument = self._change_state, event
        else:
            raise LiveEngineError(f"unknown event type {type(event).__name__}")
        # Named before the handler runs, so an event that fails half-way is
        # still reported; naming an unchanged offer only costs a reader a
        # conservative invalidation.
        self._named.add(event.subject_id)
        handle(argument)
        self._pending_events += 1
        if self.micro_batch_size and self._pending_events >= self.micro_batch_size:
            return self.commit()
        return None

    def apply_many(self, events: Iterable[OfferEvent]) -> list[CommitResult]:
        """Apply a batch of events; returns any micro-batch commit results."""
        results = []
        for event in events:
            result = self.apply(event)
            if result is not None:
                results.append(result)
        return results

    def _mark_structural(self, cell: GroupKey, offer_id: int) -> None:
        """Record a membership change (insert/withdraw) of ``offer_id`` in ``cell``."""
        self._dirty.setdefault(cell, _CellDirt()).note_structural(offer_id)

    def _mark_touched(self, cell: GroupKey, offer_id: int) -> None:
        """Record an in-place revision of ``offer_id`` (cell membership unchanged)."""
        self._dirty.setdefault(cell, _CellDirt()).touched.add(offer_id)

    def _insert(self, offer: FlexOffer, cell: GroupKey | None = None) -> None:
        if offer.id in self._offers or offer.id in self._passthrough:
            raise LiveEngineError(f"offer id {offer.id} is already live; use OfferUpdated")
        if offer.id in self._reserved_ids:
            raise LiveEngineError(
                f"offer id {offer.id} collides with an engine-allocated aggregate id"
            )
        # Never allocate an aggregate id an input already occupies (e.g. batch
        # aggregates fed back in as passthroughs carry ids >= id_offset).
        self._next_id = max(self._next_id, offer.id + 1)
        if offer.is_aggregate:
            self._passthrough[offer.id] = offer
            self._dirty_passthrough.add(offer.id)
            self._removed_passthrough.pop(offer.id, None)
            return
        if cell is None:
            cell = group_key(offer, self.parameters)
        self._offers[offer.id] = offer
        insort(self._cells.setdefault(cell, []), offer.id)
        self._cell_of[offer.id] = cell
        self._mark_structural(cell, offer.id)

    def _update(self, offer: FlexOffer, cell: GroupKey | None = None) -> None:
        """Apply a revision: in place when the grid cell is unchanged.

        A revision that keeps the offer in its cell leaves the membership —
        and therefore the chunk layout — untouched, so only the one chunk
        containing the offer needs re-aggregation.  Anything else (cell
        migration, passthrough, unknown id) falls back to remove + insert.
        """
        if not offer.is_aggregate and offer.id in self._offers:
            if cell is None:
                cell = group_key(offer, self.parameters)
            if self._cell_of[offer.id] == cell:
                self._offers[offer.id] = offer
                self._mark_touched(cell, offer.id)
                return
        self._remove(offer.id)
        self._insert(offer, cell)

    def _remove(self, offer_id: int) -> None:
        if offer_id in self._passthrough:
            self._removed_passthrough[offer_id] = self._passthrough.pop(offer_id)
            self._dirty_passthrough.discard(offer_id)
            return
        if offer_id not in self._offers:
            raise LiveEngineError(f"unknown offer id {offer_id}")
        cell = self._cell_of.pop(offer_id)
        members = self._cells[cell]
        del members[bisect_left(members, offer_id)]
        if not members:
            del self._cells[cell]
        del self._offers[offer_id]
        self._mark_structural(cell, offer_id)

    def _change_state(self, event: OfferStateChanged) -> None:
        offer = self.offer(event.offer_id)
        transitioned = apply_transition(offer, event.state, event.schedule)
        if offer.is_aggregate:
            self._passthrough[offer.id] = transitioned
            self._dirty_passthrough.add(offer.id)
            return
        # State does not enter the grouping key, so the cell — and with it the
        # chunk layout — stays put; only the offer's own chunk is perturbed
        # (its aggregate's metadata may change).
        self._offers[offer.id] = transitioned
        self._mark_touched(self._cell_of[offer.id], offer.id)

    # ------------------------------------------------------------------
    # Commit: re-aggregate only the dirty cells
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        self._reserved_ids.add(allocated)
        return allocated

    def commit(self) -> CommitResult:
        """Re-aggregate the dirty cells and return what changed.

        The cost is proportional to the dirty membership, not the population:
        clean cells keep their committed output objects untouched.

        Instrumented: the commit and its drain and publish are spans
        (``live.commit``, ``live.commit.drain``, ``live.commit.publish``),
        and the chunk split feeds the reaggregated/skipped counters.
        """
        started = time.perf_counter()
        events_applied = self._pending_events
        with _TRACER.span("live.commit"):
            with _TRACER.span("live.commit.drain"):
                dirty, changed, removed, stats = self._drain()
            _CHUNKS_REAGGREGATED.inc(stats.reaggregated)
            _CHUNKS_SKIPPED.inc(stats.skipped)
            # A raw offer migrating between cells in one commit leaves its old
            # cell (removed) and enters its new one (changed); it is still
            # live, so it must not be reported as removed or mirrors would
            # drop it.
            changed_ids = {offer.id for offer in changed}
            removed = [offer for offer in removed if offer.id not in changed_ids]
            offers, passthrough = self._offers, self._passthrough
            touched = {
                offer_id: offers.get(offer_id) or passthrough.get(offer_id)
                for offer_id in self._named
            }
            self._named.clear()
            self._commit_count += 1
            result = CommitResult(
                sequence=self._commit_count,
                events_applied=events_applied,
                dirty_cells=dirty,
                changed=changed,
                removed=removed,
                elapsed_seconds=time.perf_counter() - started,
                chunks_reaggregated=stats.reaggregated,
                chunks_skipped=stats.skipped,
                touched=touched,
            )
            # Inside the commit span on purpose: the listener is the read
            # path's snapshot publication + cache advance, causally part of
            # this commit — its spans belong in this trace.  It runs before
            # the hub, so subscribers read the commit they are told about.
            if self.commit_listener is not None:
                self.commit_listener(result)
            if self.hub is not None:
                with _TRACER.span("live.commit.publish"):
                    self.hub.publish(result)
        _COMMIT_EVENTS.observe(events_applied)
        return result

    def _dirty_chunks(self, dirt: _CellDirt, member_ids: list[int]) -> dict[int, list[int] | None]:
        """Resolve one cell's accumulated dirt to the perturbed chunk indices.

        ``member_ids`` is the *surviving* sorted membership.  Structural dirt
        perturbs every chunk from the smallest inserted/withdrawn id's
        insertion point onwards (:func:`chunks_from`; in an unbounded cell
        that is its only chunk); such a *shifted* chunk maps to ``None``.  An
        in-place touch perturbs exactly the chunk containing the member
        (:func:`chunk_assignment`); a chunk before the shifted range keeps its
        committed member ids, and maps to the ranks of its touched members.
        Touched ids that were later withdrawn are covered by the structural
        range and skipped here.
        """
        max_group_size = self.parameters.max_group_size
        shifted: range | tuple[()] = ()
        if dirt.structural_from is not None:
            shifted = chunks_from(member_ids, dirt.structural_from, max_group_size)
        dirty_chunks: dict[int, list[int] | None] = dict.fromkeys(shifted)
        for offer_id in dirt.touched:
            # One bisect does both jobs: membership check and chunk rank
            # (the rank is chunk_assignment's formula inlined).
            index = bisect_left(member_ids, offer_id)
            if index < len(member_ids) and member_ids[index] == offer_id:
                chunk_index = index // max_group_size if max_group_size > 0 else 0
                if chunk_index not in shifted:
                    dirty_chunks.setdefault(chunk_index, []).append(index)
        return dirty_chunks

    def _settle_in_place(
        self, previous: FlexOffer, start: int, ranks: list[int], member_ids: list[int]
    ) -> FlexOffer | None:
        """Settle an aggregate chunk whose members were only revised in place.

        Compares each touched member's recorded constituent version with its
        current one on :data:`AGGREGATE_INPUTS`.  When none changed, the
        chunk keeps ``previous``; when only prices changed, it gets
        ``previous`` with a new mean price (the profile tuple shared).  Either
        way its constituents move to the current member versions.  Returns
        ``None`` when any other input changed: the chunk needs the full fold.
        """
        constituents = list(self._constituents[previous.id])
        repriced = False
        for rank in ranks:
            recorded = constituents[rank - start]
            current = constituents[rank - start] = self._offers[member_ids[rank]]
            if _unpriced_inputs(recorded) != _unpriced_inputs(current):
                return None
            repriced = repriced or recorded.price_per_kwh != current.price_per_kwh
        self._constituents[previous.id] = constituents
        if repriced:
            return replace(previous, price_per_kwh=mean_price(constituents))
        return previous

    def _drain(
        self,
    ) -> tuple[tuple[GroupKey, ...], list[FlexOffer], list[FlexOffer], ChunkStats]:
        """Drain the dirty state; returns ``(dirty_cells, changed, removed, stats)``.

        Within each dirty cell only the *perturbed* chunks are settled; a
        clean chunk's committed output object is reused untouched — its
        member list is provably identical (see :class:`_CellDirt`).  A
        perturbed aggregate chunk that kept its member ids pays only for what
        its touched members changed (:meth:`_settle_in_place`); a shifted or
        new chunk re-runs :func:`aggregate_group`.
        ``removed`` is unfiltered — an offer that migrated cells appears in
        both lists; :meth:`commit` applies the changed-wins rule.  Resets the
        dirty ledger and the pending-event counter.
        """
        changed: list[FlexOffer] = []
        removed: list[FlexOffer] = []
        reaggregated = 0
        skipped = 0
        max_group_size = self.parameters.max_group_size
        offers = self._offers
        dirty = tuple(sorted(self._dirty))
        for cell in dirty:
            old_outputs = self._outputs.get(cell, [])
            member_ids = self._cells.get(cell, [])
            dirty_chunks = self._dirty_chunks(self._dirty[cell], member_ids)
            # Chunks are consecutive runs of the sorted ids (chunk_group's
            # cut); only dirty chunks materialize their members.
            size = max_group_size or len(member_ids)
            new_outputs: list[FlexOffer] = []
            for chunk_index in range(chunk_count(len(member_ids), max_group_size)):
                if chunk_index not in dirty_chunks and chunk_index < len(old_outputs):
                    # Clean chunk: the stability rule guarantees its member
                    # list is exactly the committed one — reuse the output.
                    new_outputs.append(old_outputs[chunk_index])
                    skipped += 1
                    continue
                reaggregated += 1
                start = chunk_index * size
                ranks = dirty_chunks.get(chunk_index)
                if ranks is not None and old_outputs[chunk_index].is_aggregate:
                    settled = self._settle_in_place(
                        old_outputs[chunk_index], start, ranks, member_ids
                    )
                    if settled is not None:
                        new_outputs.append(settled)
                        continue
                group = [offers[i] for i in member_ids[start : start + size]]
                if len(group) == 1:
                    # Mirror the batch pipeline: 1-offer groups pass through raw.
                    new_outputs.append(group[0])
                    continue
                key = (cell, chunk_index)
                if key not in self._aggregate_ids:
                    self._aggregate_ids[key] = self._allocate_id()
                combined = aggregate_group(group, self._aggregate_ids[key])
                self._constituents[combined.id] = group
                new_outputs.append(combined)
            old_by_id = {offer.id: offer for offer in old_outputs}
            new_by_id = {offer.id: offer for offer in new_outputs}
            for offer_id, offer in new_by_id.items():
                previous = old_by_id.get(offer_id)
                if previous is not offer and previous != offer:
                    changed.append(offer)
            for offer_id, offer in old_by_id.items():
                if offer_id not in new_by_id:
                    removed.append(offer)
                    self._constituents.pop(offer_id, None)
            if new_outputs:
                self._outputs[cell] = new_outputs
            else:
                self._outputs.pop(cell, None)
        for offer_id in sorted(self._dirty_passthrough):
            offer = self._passthrough[offer_id]
            # Mirror the raw-cell path: suppress no-op outputs (e.g. a state
            # event that left the offer identical) so listeners stay asleep.
            if self._committed_passthrough.get(offer_id) != offer:
                changed.append(offer)
                self._committed_passthrough[offer_id] = offer
        for offer_id in sorted(self._removed_passthrough):
            removed.append(self._removed_passthrough[offer_id])
            self._committed_passthrough.pop(offer_id, None)
        self._dirty.clear()
        self._dirty_passthrough.clear()
        self._removed_passthrough.clear()
        self._pending_events = 0
        return dirty, changed, removed, ChunkStats(reaggregated, skipped)

    # ------------------------------------------------------------------
    # Aggregated state
    # ------------------------------------------------------------------
    def aggregated_offers(self) -> list[FlexOffer]:
        """The committed aggregation output (batch-equivalent offer list).

        Cells appear in sorted key order, passthrough aggregates last — the
        same layout :func:`repro.aggregation.aggregate.aggregate` produces.
        Uncommitted events are not reflected; call :meth:`commit` first.
        """
        output: list[FlexOffer] = []
        for cell in sorted(self._outputs):
            output.extend(self._outputs[cell])
        output.extend(self._passthrough[offer_id] for offer_id in sorted(self._passthrough))
        return output

    def constituents_of(self, aggregate_id: int) -> list[FlexOffer]:
        """Provenance of one committed aggregate (empty when unknown)."""
        return list(self._constituents.get(aggregate_id, ()))

    def result(self) -> AggregationResult:
        """The committed state as a batch-compatible :class:`AggregationResult`."""
        result = AggregationResult()
        result.offers = self.aggregated_offers()
        result.constituents = {key: list(value) for key, value in self._constituents.items()}
        return result

    def batch_equivalent(self) -> AggregationResult:
        """Run the *batch* pipeline over the surviving offers (for equivalence checks)."""
        from repro.aggregation.aggregate import aggregate

        return aggregate(self.offers(), self.parameters, id_offset=self.id_offset)


def assert_batch_equivalent(engine: LiveAggregationEngine) -> None:
    """Raise :class:`LiveEngineError` unless engine state equals the batch result.

    Equality is bit-for-bit on profiles and every attribute except aggregate
    ids (compared under :func:`canonical_form`, as a multiset).
    """
    from collections import Counter

    live = Counter(canonical_form(offer) for offer in engine.aggregated_offers())
    batch = Counter(canonical_form(offer) for offer in engine.batch_equivalent().offers)
    if live != batch:
        raise LiveEngineError(
            "live aggregation state diverged from the batch pipeline: "
            f"{len(live)} live outputs vs {len(batch)} batch outputs"
        )
