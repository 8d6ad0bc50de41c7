"""Immutable, versioned aggregate snapshots of a live engine's committed state.

An :class:`AggregateSnapshot` is the read-side twin of one committed engine
state: the surviving raw offers per grid cell, the committed aggregation
outputs per cell, the passthrough aggregates and the provenance map — all
plain tuples and dicts, never mutated after construction, so any number of
reader threads can serve queries from it while the engine commits the next
version underneath.

Two constructors mirror the two ways versions are born:

* :meth:`AggregateSnapshot.capture` walks the whole committed state — used to
  seed version 0 at engine construction and to re-seed from a restored
  checkpoint (the version then continues the checkpoint's commit sequence).
* :meth:`AggregateSnapshot.advance` **shares structure** with the previous
  snapshot: only the cells a commit actually dirtied are re-read from the
  engine; every clean cell keeps the previous version's tuples.  Snapshot
  cost therefore tracks dirtiness — the same contract the chunk ledger gives
  commits — not table size.

Reads are index-backed: the first query constraining a value field builds a
per-field inverted index over the raw offers (lazily, once per snapshot,
under a snapshot-local lock), so ``scanned_rows`` reflects candidate pruning
exactly like the warehouse repository's hash indexes do.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.aggregation.aggregate import AggregationResult
from repro.aggregation.aggregate import aggregate as batch_aggregate
from repro.aggregation.parameters import AggregationParameters
from repro.flexoffer.model import FlexOffer
from repro.session.spec import VALUE_FIELDS, VALUE_GETTERS, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.engine import CommitResult
    from repro.timeseries.grid import TimeGrid


class AggregateSnapshot:
    """One immutable, versioned view of a live engine's committed state.

    The offer/output containers are tuples shared freely between versions;
    the only mutable state is the lazily built read index, guarded by its own
    lock and itself write-once per field.
    """

    __slots__ = (
        "version",
        "name",
        "parameters",
        "grid",
        "id_offset",
        "offers_by_cell",
        "outputs_by_cell",
        "passthrough",
        "constituents",
        "_index_lock",
        "_indexes",
        "_raw",
        "_population_ids",
    )

    def __init__(
        self,
        version: int,
        name: str,
        parameters: AggregationParameters,
        grid: "TimeGrid",
        id_offset: int,
        offers_by_cell: dict[Any, tuple[FlexOffer, ...]],
        outputs_by_cell: dict[Any, tuple[FlexOffer, ...]],
        passthrough: dict[int, FlexOffer],
        constituents: dict[int, tuple[FlexOffer, ...]],
    ) -> None:
        self.version = version
        self.name = name
        self.parameters = parameters
        self.grid = grid
        self.id_offset = id_offset
        self.offers_by_cell = offers_by_cell
        self.outputs_by_cell = outputs_by_cell
        self.passthrough = passthrough
        self.constituents = constituents
        self._index_lock = threading.Lock()
        self._indexes: dict[str, dict[Any, list[FlexOffer]]] = {}
        self._raw: tuple[FlexOffer, ...] | None = None
        self._population_ids: frozenset[int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, engine, grid: "TimeGrid", name: str, version: int | None = None):
        """Full build from a live engine's committed state.

        ``version`` defaults to the engine's own commit sequence, so a
        snapshot seeded from a restored checkpoint continues the sequence the
        checkpoint recorded.
        """
        offers_by_cell: dict[Any, tuple[FlexOffer, ...]] = {}
        outputs_by_cell: dict[Any, tuple[FlexOffer, ...]] = {}
        for cell in engine.cells():
            members = engine.cell_members(cell)
            if members:
                offers_by_cell[cell] = tuple(members)
            outputs = engine.outputs_of_cell(cell)
            if outputs:
                outputs_by_cell[cell] = tuple(outputs)
        return cls(
            version=engine.commit_count if version is None else version,
            name=name,
            parameters=engine.parameters,
            grid=grid,
            id_offset=engine.id_offset,
            offers_by_cell=offers_by_cell,
            outputs_by_cell=outputs_by_cell,
            passthrough={offer.id: offer for offer in engine.passthrough_offers()},
            constituents={
                aggregate_id: tuple(group)
                for aggregate_id, group in engine.constituent_map().items()
            },
        )

    @classmethod
    def advance(cls, previous: "AggregateSnapshot", engine, result: "CommitResult"):
        """Delta build over ``previous``: re-read only the dirty cells.

        Clean cells share the previous snapshot's tuples untouched, so the
        build cost is proportional to the commit's dirty membership.  The
        passthrough dict is rebuilt whole — passthrough populations are tiny
        (input aggregates fed back in) and carry no cell structure to diff.
        """
        offers_by_cell = dict(previous.offers_by_cell)
        outputs_by_cell = dict(previous.outputs_by_cell)
        constituents = dict(previous.constituents)
        for cell in result.dirty_cells:
            for stale in outputs_by_cell.pop(cell, ()):
                constituents.pop(stale.id, None)
            members = engine.cell_members(cell)
            if members:
                offers_by_cell[cell] = tuple(members)
            else:
                offers_by_cell.pop(cell, None)
            outputs = engine.outputs_of_cell(cell)
            if outputs:
                outputs_by_cell[cell] = tuple(outputs)
                for offer in outputs:
                    group = engine.constituents_of(offer.id)
                    if group:
                        constituents[offer.id] = tuple(group)
        return cls(
            version=result.sequence,
            name=previous.name,
            parameters=previous.parameters,
            grid=previous.grid,
            id_offset=previous.id_offset,
            offers_by_cell=offers_by_cell,
            outputs_by_cell=outputs_by_cell,
            passthrough={offer.id: offer for offer in engine.passthrough_offers()},
            constituents=constituents,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def raw_offers(self) -> tuple[FlexOffer, ...]:
        """The surviving raw (non-aggregate) offers, sorted by id (cached)."""
        raw = self._raw
        if raw is None:
            with self._index_lock:
                raw = self._raw
                if raw is None:
                    combined = [
                        offer
                        for members in self.offers_by_cell.values()
                        for offer in members
                    ]
                    combined.sort(key=lambda offer: offer.id)
                    raw = self._raw = tuple(combined)
        return raw

    def offers(self) -> list[FlexOffer]:
        """The surviving population (passthrough aggregates included), id order."""
        combined = list(self.raw_offers()) + list(self.passthrough.values())
        return sorted(combined, key=lambda offer: offer.id)

    def population_ids(self) -> frozenset[int]:
        """Ids of the whole surviving population (cached)."""
        ids = self._population_ids
        if ids is None:
            ids = self._population_ids = frozenset(
                offer.id for offer in self.raw_offers()
            ) | frozenset(self.passthrough)
        return ids

    def aggregated_offers(self) -> list[FlexOffer]:
        """The committed aggregation output in the batch pipeline's layout:
        cells in sorted key order, passthrough aggregates last."""
        output: list[FlexOffer] = []
        for cell in sorted(self.outputs_by_cell):
            output.extend(self.outputs_by_cell[cell])
        output.extend(
            self.passthrough[offer_id] for offer_id in sorted(self.passthrough)
        )
        return output

    # ------------------------------------------------------------------
    # The backend read surface (select / aggregate / name), as execute() uses
    # ------------------------------------------------------------------
    def _index_for(self, field: str) -> dict[Any, list[FlexOffer]]:
        """The inverted index of one value field (built on first use)."""
        index = self._indexes.get(field)
        if index is None:
            # Resolve the raw tuple *before* taking the lock: raw_offers()
            # acquires the same (non-reentrant) lock on its cold path.
            raw = self.raw_offers()
            with self._index_lock:
                index = self._indexes.get(field)
                if index is None:
                    getter = VALUE_GETTERS[field]
                    index = {}
                    for offer in raw:
                        index.setdefault(getter(offer), []).append(offer)
                    self._indexes[field] = index
        return index

    def select(self, spec: QuerySpec) -> tuple[list[FlexOffer], int]:
        """Spec filter over this version, with index-backed candidate pruning.

        The most selective constrained value field supplies the candidate
        list (``scanned_rows`` counts it), candidates are verified with the
        spec's full in-memory predicate, and passthrough aggregates are
        matched separately.  This is the only select the live engine has.
        """
        constrained = [
            (field, allowed)
            for field in VALUE_FIELDS
            if (allowed := getattr(spec, field)) is not None
        ]
        if constrained:
            best: list[FlexOffer] | None = None
            for field, allowed in constrained:
                index = self._index_for(field)
                hits: list[FlexOffer] = []
                for value in allowed:
                    hits.extend(index.get(value, ()))
                if best is None or len(hits) < len(best):
                    best = hits
            candidates = best or []
        else:
            candidates = list(self.raw_offers())
        scanned = len(candidates)
        offers = [offer for offer in candidates if spec.matches(offer, self.grid)]
        passthroughs = [
            self.passthrough[offer_id] for offer_id in sorted(self.passthrough)
        ]
        scanned += len(passthroughs)
        offers.extend(
            offer for offer in passthroughs if spec.matches(offer, self.grid)
        )
        return offers, scanned

    def aggregate(
        self, offers: list[FlexOffer], parameters: AggregationParameters
    ) -> AggregationResult:
        """Serve aggregation from the committed outputs when possible.

        The engine's own parameters over the whole surviving population
        return the committed outputs without recomputation; anything else
        runs the shared batch pipeline over the selection (with the engine's
        id offset, so chunking is identical).
        """
        if parameters == self.parameters and {
            offer.id for offer in offers
        } == self.population_ids():
            result = AggregationResult()
            result.offers = self.aggregated_offers()
            result.constituents = {
                aggregate_id: list(group)
                for aggregate_id, group in self.constituents.items()
            }
            return result
        return batch_aggregate(offers, parameters, id_offset=self.id_offset)


class SnapshotReader:
    """A per-query backend adapter over one snapshot.

    Satisfies the three calls :func:`repro.session.query.execute` makes —
    ``select``, ``aggregate``, ``name`` — and records the matched offer ids
    on the way through, which is exactly what the result cache tests each
    commit's touched ids against.  One instance per query, so recording is
    thread-safe without locks.
    """

    __slots__ = ("snapshot", "name", "selected_ids")

    def __init__(self, snapshot: AggregateSnapshot, name: str | None = None) -> None:
        self.snapshot = snapshot
        self.name = name or snapshot.name
        self.selected_ids: frozenset[int] = frozenset()

    def select(self, spec: QuerySpec) -> tuple[list[FlexOffer], int]:
        offers, scanned = self.snapshot.select(spec)
        self.selected_ids = frozenset(offer.id for offer in offers)
        return offers, scanned

    def aggregate(
        self, offers: list[FlexOffer], parameters: AggregationParameters
    ) -> AggregationResult:
        return self.snapshot.aggregate(offers, parameters)
