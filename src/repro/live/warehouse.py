"""The live warehouse: offer events applied to the star schema via upsert/delete.

The batch workflow rebuilds the whole star schema per scenario
(:func:`repro.warehouse.loader.load_scenario`).  :class:`LiveWarehouse`
instead *maintains* an already-loaded schema under the same event stream the
aggregation engine consumes: added/updated offers upsert their fact and slice
rows, withdrawals delete them, and committed aggregates are mirrored as
derived fact rows — so :class:`~repro.warehouse.query.FlexOfferRepository`
queries stay fresh without any reload.  Each fact row also records the
offer's grouping-grid cell (``group_cell``), making dirty-cell lookups index
hits.
"""

from __future__ import annotations

from repro.aggregation.grouping import GroupKey, cell_for, group_key
from repro.aggregation.parameters import AggregationParameters
from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer
from repro.live.engine import CommitResult, cell_key_string
from repro.live.events import (
    OfferAdded,
    OfferEvent,
    OfferStateChanged,
    OfferUpdated,
    OfferWithdrawn,
    apply_transition,
)
from repro.timeseries.grid import TimeGrid
from repro.warehouse.loader import RENEWABLE_TYPES, geography_ids, load_flex_offer
from repro.warehouse.query import FlexOfferRepository
from repro.warehouse.schema import StarSchema


class LiveWarehouse:
    """Applies offer lifecycle events to a star schema in place."""

    def __init__(
        self,
        schema: StarSchema,
        grid: TimeGrid,
        parameters: AggregationParameters | None = None,
    ) -> None:
        self.schema = schema
        self.grid = grid
        self.parameters = parameters or AggregationParameters()
        #: Read-side API over the same (mutating) schema; constructing it also
        #: declares the hash indexes the write path relies on.
        self.repository = FlexOfferRepository(schema, grid)
        self._geo_ids = geography_ids(schema)
        schema.table("fact_flexoffer_slice").create_index("offer_id")
        self._known_energy_types = set(schema.table("dim_energy_type").values("energy_type"))
        self._known_appliance_types = set(schema.table("dim_appliance").values("appliance_type"))
        self._assign_group_cells()

    def _group_cell(self, offer: FlexOffer) -> str:
        if offer.is_aggregate:
            return ""
        return cell_key_string(group_key(offer, self.parameters))

    def _assign_group_cells(self) -> None:
        """Backfill ``group_cell`` for rows loaded by the batch loader.

        The batch loader leaves the column empty; the live path needs it so
        per-cell lookups hit the index.  Cell keys are derived from the fact
        columns alone — no payload parsing.
        """
        fact = self.schema.table("fact_flexoffer")
        cells = fact.column("group_cell")
        earliest = fact.column("earliest_start_slot")
        flexibility = fact.column("time_flexibility_slots")
        direction = fact.column("direction")
        is_aggregate = fact.column("is_aggregate")
        for position in fact.live_positions():
            if cells[position] or is_aggregate[position]:
                continue
            fact.set_value(
                "group_cell",
                position,
                cell_key_string(
                    cell_for(
                        int(earliest[position]),
                        int(flexibility[position]),
                        direction[position],
                        self.parameters,
                    )
                ),
            )

    # ------------------------------------------------------------------
    # Event write path
    # ------------------------------------------------------------------
    def apply(self, event: OfferEvent) -> None:
        """Apply one lifecycle event to the fact tables."""
        if isinstance(event, (OfferAdded, OfferUpdated)):
            self.upsert_offer(event.offer)
        elif isinstance(event, OfferWithdrawn):
            self.remove_offer(event.offer_id)
        elif isinstance(event, OfferStateChanged):
            current = self.repository.load_by_offer_ids([event.offer_id])
            if not current:
                # Passthrough aggregates live in the derived table; the
                # offer_id index makes this a dict hit, not a table scan.
                table = self.schema.table("fact_flexoffer_aggregate")
                payloads = table.column("payload")
                current = self.repository.offers_from_payloads(
                    payloads[position] for position in table.lookup("offer_id", event.offer_id)
                )
            if not current:
                raise LiveEngineError(f"warehouse has no offer {event.offer_id}")
            self.upsert_offer(apply_transition(current[0], event.state, event.schedule))
        else:
            raise LiveEngineError(f"unknown event type {type(event).__name__}")

    def _ensure_dimensions(self, offer: FlexOffer) -> None:
        """Add dimension rows for types the batch ETL has not seen.

        The batch loader derives ``dim_energy_type``/``dim_appliance`` from
        the initially loaded offers; streamed offers can introduce new types
        (or arrive into a schema seeded without offers), so the dimensions are
        maintained here to keep joins and pick lists complete.
        """
        if offer.energy_type and offer.energy_type not in self._known_energy_types:
            self._known_energy_types.add(offer.energy_type)
            self.schema.table("dim_energy_type").append(
                {"energy_type": offer.energy_type, "renewable": offer.energy_type in RENEWABLE_TYPES}
            )
        if offer.appliance_type and offer.appliance_type not in self._known_appliance_types:
            self._known_appliance_types.add(offer.appliance_type)
            self.schema.table("dim_appliance").append(
                {
                    "appliance_type": offer.appliance_type,
                    "direction": offer.direction.value,
                    "energy_type": offer.energy_type,
                }
            )

    def upsert_offer(self, offer: FlexOffer) -> None:
        """Insert or replace one raw offer's fact and slice rows.

        Derived aggregates go through :meth:`apply_commit` into the separate
        ``fact_flexoffer_aggregate`` table — never into ``fact_flexoffer`` —
        so raw-offer queries cannot double-count energy.
        """
        if offer.is_aggregate:
            self._upsert_aggregate(offer)
            return
        self._ensure_dimensions(offer)
        self.remove_offer(offer.id, missing_ok=True)
        load_flex_offer(self.schema, offer, self._geo_ids, group_cell=self._group_cell(offer))

    def remove_offer(self, offer_id: int, missing_ok: bool = False) -> None:
        """Delete one offer's fact and slice rows (index hit on ``offer_id``).

        Both the raw and the derived-aggregate fact table are cleared, so
        withdrawing a passthrough aggregate works through the same path.
        """
        deleted = self.schema.table("fact_flexoffer").delete_where("offer_id", offer_id)
        deleted += self.schema.table("fact_flexoffer_aggregate").delete_where("offer_id", offer_id)
        self.schema.table("fact_flexoffer_slice").delete_where("offer_id", offer_id)
        if not deleted and not missing_ok:
            raise LiveEngineError(f"warehouse has no offer {offer_id}")

    # ------------------------------------------------------------------
    # Aggregate mirror (subscribe this to the engine's hub)
    # ------------------------------------------------------------------
    def _upsert_aggregate(self, offer: FlexOffer) -> None:
        self.schema.table("fact_flexoffer_aggregate").delete_where("offer_id", offer.id)
        self.schema.table("fact_flexoffer_slice").delete_where("offer_id", offer.id)
        load_flex_offer(
            self.schema, offer, self._geo_ids, fact_table="fact_flexoffer_aggregate"
        )

    def apply_commit(self, commit: CommitResult) -> int:
        """Mirror one engine commit's aggregates into ``fact_flexoffer_aggregate``.

        Raw offers in the commit are skipped — the event write path is their
        source of truth; only derived aggregate rows are upserted/deleted.
        Returns the number of fact rows touched.
        """
        aggregates = self.schema.table("fact_flexoffer_aggregate")
        slices = self.schema.table("fact_flexoffer_slice")
        touched = 0
        for offer in commit.changed:
            if offer.is_aggregate:
                self._upsert_aggregate(offer)
                touched += 1
        for offer in commit.removed:
            if offer.is_aggregate:
                touched += aggregates.delete_where("offer_id", offer.id)
                slices.delete_where("offer_id", offer.id)
        return touched

    def notification_listener(self):
        """A hub listener mirroring aggregate changes (for ``hub.subscribe``)."""

        def listener(notification) -> None:
            self.apply_commit(notification.commit)

        return listener

    # ------------------------------------------------------------------
    # Cell drill-down (index hit on group_cell)
    # ------------------------------------------------------------------
    def offers_in_cell(self, cell: GroupKey | str) -> list[FlexOffer]:
        """The raw offers currently stored in one grouping-grid cell.

        Subscribers drill into a commit's ``dirty_cells`` with this: the
        lookup is a ``group_cell`` index hit, not a fact-table scan.
        """
        key = cell if isinstance(cell, str) else cell_key_string(cell)
        fact = self.schema.table("fact_flexoffer")
        payloads = fact.column("payload")
        return self.repository.offers_from_payloads(
            payloads[position] for position in fact.lookup("group_cell", key)
        )

    # ------------------------------------------------------------------
    # Freshness checks
    # ------------------------------------------------------------------
    def offer_count(self) -> int:
        """Raw offer rows currently in ``fact_flexoffer``."""
        return len(self.schema.table("fact_flexoffer"))

    def aggregate_count(self) -> int:
        """Derived aggregate rows currently in ``fact_flexoffer_aggregate``."""
        return len(self.schema.table("fact_flexoffer_aggregate"))
