"""Engine state capture and restore — the snapshot side of durability.

A committed live-family engine is fully determined by surprisingly little
data: the aggregation parameters, the surviving offers, the committed
aggregate outputs (with their grid cell, chunk index and stable id) and the
aggregate-id allocator's high-water mark.  Everything else — the grouping
grid, per-cell membership, constituent provenance, the no-op-suppression
mirrors — is a pure function of those, because grouping
(:func:`~repro.aggregation.grouping.group_key` /
:func:`~repro.aggregation.grouping.chunk_group`) is deterministic.

This module is a deliberate *friend* of the engine classes: it reaches into
their private bookkeeping rather than adding persistence methods to them,
which keeps the engines durability-agnostic and avoids a store↔live import
cycle.  The coupling is guarded twice — restores re-derive and cross-check
every structure (inconsistency raises), and ``tests/test_store_recovery.py``
round-trips both engines, so an engine-internal refactor that breaks the
mapping fails loudly.

:func:`capture_engine_state` extracts that data from a clean (committed)
:class:`~repro.live.engine.LiveAggregationEngine` or
:class:`~repro.live.asynccommit.AsyncCommitEngine`;
:func:`restore_engine_state` rebuilds either from it — including across
engine families (a checkpoint taken from the live engine restores into an
async one and vice versa).  Restores *verify* as they rebuild: a recorded
aggregate whose constituents disagree with the offer population, or a
multi-offer chunk with no recorded aggregate, raises
:class:`~repro.errors.StoreError` instead of silently diverging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.aggregation.grouping import GroupKey, chunk_group, group_key
from repro.aggregation.parameters import AggregationParameters
from repro.errors import StoreError
from repro.flexoffer.model import FlexOffer
from repro.flexoffer.serialization import flex_offer_from_dict
from repro.live.asynccommit import AsyncCommitEngine
from repro.live.engine import LiveAggregationEngine


@dataclass(frozen=True)
class AggregateRecord:
    """One committed aggregate output: its grid cell, chunk index and offer."""

    cell: GroupKey
    chunk: int
    offer: FlexOffer

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AggregateRecord":
        """Rebuild a record from a version-1 checkpoint line."""
        est, tft, direction = payload["cell"]
        return cls(
            cell=(int(est), int(tft), str(direction)),
            chunk=int(payload["chunk"]),
            offer=flex_offer_from_dict(payload["offer"]),
        )


@dataclass
class EngineState:
    """The minimal consistent description of a committed engine."""

    #: Which engine family produced the state ("live" / "async").
    engine: str
    parameters: AggregationParameters
    id_offset: int
    #: Surviving offers — raw and passthrough aggregates — in id order.
    offers: list[FlexOffer]
    #: Committed multi-offer aggregates with their (cell, chunk) identity.
    aggregates: list[AggregateRecord]
    #: Aggregate-id allocator high-water mark.
    next_id: int
    #: Every id ever handed to an engine aggregate (collision fencing).
    reserved_ids: tuple[int, ...] = ()
    commit_count: int = 0


def _require_clean(engine) -> None:
    if engine.pending_events or engine.has_pending_changes:
        raise StoreError(
            "cannot capture a dirty engine; commit (or flush) it first so the "
            "snapshot describes a consistent committed state"
        )


def capture_engine_state(engine) -> EngineState:
    """Extract the durable state of a clean (committed) incremental engine."""
    if isinstance(engine, AsyncCommitEngine):
        with engine._lock:
            _require_clean(engine)
            state = capture_engine_state(engine.inner)
        state.engine = "async"
        return state
    if not isinstance(engine, LiveAggregationEngine):
        raise StoreError(f"cannot capture state of {type(engine).__name__}")
    _require_clean(engine)
    chunk_of = {aid: key for key, aid in engine._aggregate_ids.items()}
    records: list[AggregateRecord] = []
    for cell, outputs in engine.cell_outputs().items():
        for offer in outputs:
            if not offer.is_aggregate:
                continue
            key = chunk_of.get(offer.id)
            if key is None or key[0] != cell:
                raise StoreError(
                    f"aggregate {offer.id} has no allocator entry for cell {cell}"
                )
            records.append(AggregateRecord(cell=cell, chunk=key[1], offer=offer))
    return EngineState(
        engine="live",
        parameters=engine.parameters,
        id_offset=engine.id_offset,
        offers=engine.offers(),
        aggregates=records,
        next_id=engine._next_id,
        reserved_ids=tuple(sorted(engine._reserved_ids)),
        commit_count=engine._commit_count,
    )


def restore_engine_state(engine, state: EngineState) -> None:
    """Rebuild an incremental engine from a captured :class:`EngineState`.

    Works across engine families; the only hard requirement is that the
    target's aggregation parameters equal the snapshot's (they define the
    grouping grid the state describes).
    """
    if isinstance(engine, AsyncCommitEngine):
        with engine._lock:
            restore_engine_state(engine.inner, state)
        return
    if not isinstance(engine, LiveAggregationEngine):
        raise StoreError(f"cannot restore state into {type(engine).__name__}")
    if engine.parameters != state.parameters:
        raise StoreError(
            f"engine parameters {engine.parameters} do not match the "
            f"snapshot's {state.parameters}; the grouping grids would disagree"
        )
    engine._offers.clear()
    engine._passthrough.clear()
    engine._committed_passthrough.clear()
    engine._cells.clear()
    engine._cell_of.clear()
    # The chunk-granular dirty ledger and the named-id ledger restore
    # *clean*: the snapshot describes a committed state, so the first
    # post-restore commit must re-aggregate only what the replayed tail
    # actually perturbs — never the whole grid — and name only its offers.
    engine._dirty.clear()
    engine._dirty_passthrough.clear()
    engine._removed_passthrough.clear()
    engine._named.clear()
    engine._outputs.clear()
    engine._constituents.clear()
    engine._aggregate_ids.clear()
    for offer in state.offers:
        if offer.is_aggregate:
            engine._passthrough[offer.id] = offer
            engine._committed_passthrough[offer.id] = offer
            continue
        cell = group_key(offer, engine.parameters)
        engine._offers[offer.id] = offer
        engine._cells.setdefault(cell, set()).add(offer.id)
        engine._cell_of[offer.id] = cell
    recorded = {(record.cell, record.chunk): record.offer for record in state.aggregates}
    used: set[tuple[GroupKey, int]] = set()
    for cell, member_ids in engine._cells.items():
        members = [engine._offers[i] for i in sorted(member_ids)]
        outputs: list[FlexOffer] = []
        for chunk_index, group in enumerate(
            chunk_group(members, engine.parameters.max_group_size)
        ):
            if len(group) == 1:
                outputs.append(group[0])
                continue
            key = (cell, chunk_index)
            aggregate = recorded.get(key)
            if aggregate is None:
                raise StoreError(
                    f"snapshot misses the aggregate for cell {cell} chunk {chunk_index}"
                )
            if tuple(sorted(aggregate.constituent_ids)) != tuple(o.id for o in group):
                raise StoreError(
                    f"aggregate {aggregate.id} constituents disagree with the "
                    f"snapshot's offer population in cell {cell}"
                )
            engine._aggregate_ids[key] = aggregate.id
            engine._constituents[aggregate.id] = list(group)
            outputs.append(aggregate)
            used.add(key)
        # ``outputs`` is chunk-index aligned — the invariant the engine's
        # clean-chunk reuse (``commit``) depends on.
        engine._outputs[cell] = outputs
    stale = set(recorded) - used
    if stale:
        raise StoreError(
            f"snapshot records {len(stale)} aggregate(s) no surviving chunk produces"
        )
    top = max((offer.id + 1 for offer in state.offers), default=0)
    engine._next_id = max(state.next_id, engine.id_offset, top)
    engine._reserved_ids = set(state.reserved_ids)
    engine._pending_events = 0
    engine._commit_count = state.commit_count

