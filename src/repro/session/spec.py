"""Typed query envelopes shared by every engine behind the session facade.

The batch pipeline and the live engine used to speak different dialects:
repository keyword filters on one side, engine state plus commit results on
the other.  :class:`QuerySpec` is the single request shape both understand —
a frozen, hashable description of *which* offers to read and *how* (if at
all) to aggregate them — and :class:`ResultSet` is the single response shape
both produce.  Because a spec is plain data it can be executed against the
:class:`~repro.session.engines.BatchEngine`, executed against the
:class:`~repro.session.engines.LiveEngine`, or registered as a standing
subscription, with contractually interchangeable results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterator

from repro.aggregation.parameters import AggregationParameters
from repro.errors import SessionError
from repro.flexoffer.model import FlexOffer, FlexOfferState
from repro.live.engine import canonical_form
from repro.timeseries.grid import TimeGrid
from repro.warehouse.query import FlexOfferFilter

#: Singular keyword aliases the fluent builder accepts (``state="assigned"``)
#: mapped to the underlying plural spec field.
FIELD_ALIASES = {
    "prosumer_id": "prosumer_ids",
    "region": "regions",
    "city": "cities",
    "district": "districts",
    "grid_node": "grid_nodes",
    "energy_type": "energy_types",
    "prosumer_type": "prosumer_types",
    "appliance_type": "appliance_types",
    "state": "states",
}

#: Each value-set field of a spec with the offer value it constrains, in
#: description order.
VALUE_GETTERS: dict[str, Callable[[FlexOffer], Any]] = {
    "prosumer_ids": attrgetter("prosumer_id"),
    "regions": attrgetter("region"),
    "cities": attrgetter("city"),
    "districts": attrgetter("district"),
    "grid_nodes": attrgetter("grid_node"),
    "energy_types": attrgetter("energy_type"),
    "prosumer_types": attrgetter("prosumer_type"),
    "appliance_types": attrgetter("appliance_type"),
    "states": attrgetter("state.value"),
}

#: The value-set fields of a spec, in description order.
VALUE_FIELDS = tuple(VALUE_GETTERS)


def _normalize(field_name: str, value: Any) -> tuple | None:
    """Coerce a scalar or iterable filter value into a sorted tuple.

    An *empty* iterable stays an empty tuple — "match nothing", exactly as
    :class:`~repro.warehouse.query.FlexOfferFilter` treats it — rather than
    collapsing to ``None`` ("unconstrained"), so a data-driven filter that
    ends up empty cannot silently return the whole population.
    """
    if value is None:
        return None
    if isinstance(value, FlexOfferState):
        value = value.value
    if isinstance(value, (str, int)):
        value = (value,)
    items = []
    for item in value:
        if isinstance(item, FlexOfferState):
            item = item.value
        items.append(item)
    return tuple(sorted(set(items)))


@dataclass(frozen=True)
class QuerySpec:
    """One offer query both engines understand: filter + optional aggregation.

    All value-set fields are conjunctive and ``None`` means "do not
    constrain", mirroring :class:`~repro.warehouse.query.FlexOfferFilter`.
    ``parameters`` switches the query from a raw read to an aggregation
    (grouping/aggregating the matching offers with those parameters), and
    ``limit`` caps the matched raw offers (applied in id order, before
    aggregation, so both engines cap identically).
    """

    prosumer_ids: tuple[int, ...] | None = None
    regions: tuple[str, ...] | None = None
    cities: tuple[str, ...] | None = None
    districts: tuple[str, ...] | None = None
    grid_nodes: tuple[str, ...] | None = None
    energy_types: tuple[str, ...] | None = None
    prosumer_types: tuple[str, ...] | None = None
    appliance_types: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    interval_start: datetime | None = None
    interval_end: datetime | None = None
    only_aggregates: bool | None = None
    parameters: AggregationParameters | None = None
    limit: int | None = None

    @classmethod
    def build(cls, **filters: Any) -> "QuerySpec":
        """Build a spec from loose keyword filters.

        Accepts both the plural field names and their singular aliases
        (``state=...`` for ``states=...``); scalar values are wrapped into
        one-element tuples and :class:`FlexOfferState` members are converted
        to their string values.
        """
        known = set(VALUE_FIELDS) | {
            "interval_start",
            "interval_end",
            "only_aggregates",
            "parameters",
            "limit",
        }
        resolved: dict[str, Any] = {}
        for key, value in filters.items():
            target = FIELD_ALIASES.get(key, key)
            if target not in known:
                raise SessionError(
                    f"unknown query filter {key!r}; known filters: "
                    f"{sorted(known | set(FIELD_ALIASES))}"
                )
            if target in resolved:
                raise SessionError(f"query filter {target!r} given twice")
            resolved[target] = _normalize(target, value) if target in VALUE_FIELDS else value
        return cls(**resolved)

    def merged(self, **filters: Any) -> "QuerySpec":
        """A copy with additional filters applied (later values replace)."""
        fresh = QuerySpec.build(**filters)
        updates = {
            name: getattr(fresh, name)
            for name in fresh.__dataclass_fields__
            if getattr(fresh, name) != getattr(QuerySpec(), name)
        }
        return replace(self, **updates)

    # ------------------------------------------------------------------
    # Interop with the warehouse repository
    # ------------------------------------------------------------------
    def to_filter(self) -> FlexOfferFilter:
        """The repository-level filter of this spec (index-backed planning)."""
        return FlexOfferFilter(
            prosumer_ids=self.prosumer_ids,
            regions=self.regions,
            cities=self.cities,
            districts=self.districts,
            grid_nodes=self.grid_nodes,
            energy_types=self.energy_types,
            prosumer_types=self.prosumer_types,
            appliance_types=self.appliance_types,
            states=self.states,
            interval_start=self.interval_start,
            interval_end=self.interval_end,
            only_aggregates=self.only_aggregates,
        )

    # ------------------------------------------------------------------
    # In-memory predicate (subscriptions, passthrough aggregates)
    # ------------------------------------------------------------------
    @cached_property
    def _value_tests(self) -> tuple[tuple[Callable[[FlexOffer], Any], tuple], ...]:
        """(offer attribute getter, allowed values) for each constrained value set."""
        return tuple(
            (value_of, allowed)
            for name, value_of in VALUE_GETTERS.items()
            if (allowed := getattr(self, name)) is not None
        )

    def matches(self, offer: FlexOffer, grid: TimeGrid) -> bool:
        """Whether one in-memory offer satisfies the filter part of the spec.

        Mirrors the repository's row semantics: conjunctive value sets and
        feasible-span overlap for the time interval.  Only the value sets the
        spec constrains are tested.
        """
        for value_of, allowed in self._value_tests:
            if value_of(offer) not in allowed:
                return False
        if self.only_aggregates is not None and offer.is_aggregate != self.only_aggregates:
            return False
        if self.interval_start is not None or self.interval_end is not None:
            earliest = grid.to_datetime(offer.earliest_start_slot)
            latest_end = grid.to_datetime(offer.latest_end_slot)
            if self.interval_end is not None and earliest >= self.interval_end:
                return False
            if self.interval_start is not None and latest_end <= self.interval_start:
                return False
        return True

    def describe(self) -> str:
        """Human-readable one-liner (view tab titles, subscription names)."""
        parts = []
        base = self.to_filter().describe()
        if base != "all flex-offers" or self.parameters is None:
            parts.append(base)
        if self.parameters is not None:
            parts.append(
                "aggregate(est_tol={0.est_tolerance_slots}, tft_tol="
                "{0.time_flexibility_tolerance_slots})".format(self.parameters)
            )
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return ", ".join(parts)


#: Columns of the tabular projection :meth:`ResultSet.to_frame` emits.
FRAME_COLUMNS = (
    "id",
    "prosumer_id",
    "state",
    "direction",
    "region",
    "city",
    "district",
    "grid_node",
    "energy_type",
    "prosumer_type",
    "appliance_type",
    "earliest_start_slot",
    "latest_start_slot",
    "time_flexibility_slots",
    "min_total_energy",
    "max_total_energy",
    "scheduled_energy",
    "is_aggregate",
)


@dataclass
class ResultSet:
    """The single response envelope every engine produces for a spec.

    ``offers`` is the final output (raw offers, or aggregation outputs when
    the spec carried parameters); ``matched_rows`` counts the raw offers the
    filter matched before aggregation and ``scanned_rows`` how many candidate
    rows the engine examined (index-backed plans scan fewer).
    """

    offers: list[FlexOffer]
    spec: QuerySpec
    engine: str
    scanned_rows: int
    matched_rows: int
    constituents: dict[int, list[FlexOffer]] = field(default_factory=dict)
    #: The snapshot version this result was served from (``None`` for direct
    #: live/batch reads that bypassed the versioned read path).
    version: int | None = None

    def __len__(self) -> int:
        return len(self.offers)

    def __iter__(self) -> Iterator[FlexOffer]:
        return iter(self.offers)

    def __getitem__(self, index: int) -> FlexOffer:
        return self.offers[index]

    @property
    def aggregates(self) -> list[FlexOffer]:
        """Only the true aggregates among the output offers."""
        return [offer for offer in self.offers if offer.is_aggregate]

    @property
    def raw_offers(self) -> list[FlexOffer]:
        """Only the non-aggregate output offers."""
        return [offer for offer in self.offers if not offer.is_aggregate]

    def constituents_of(self, aggregate_id: int) -> list[FlexOffer]:
        """Provenance of one output aggregate (empty when unknown)."""
        return list(self.constituents.get(aggregate_id, ()))

    def to_frame(self) -> list[dict[str, Any]]:
        """A tabular projection: one plain dict per offer, :data:`FRAME_COLUMNS` each.

        This replaces the per-module result shapes (repository rows, engine
        offer lists) with one frame any consumer — CLI tables, tests,
        external tooling — can take without knowing which engine answered.
        """
        frame = []
        for offer in self.offers:
            frame.append(
                {
                    "id": offer.id,
                    "prosumer_id": offer.prosumer_id,
                    "state": offer.state.value,
                    "direction": offer.direction.value,
                    "region": offer.region,
                    "city": offer.city,
                    "district": offer.district,
                    "grid_node": offer.grid_node,
                    "energy_type": offer.energy_type,
                    "prosumer_type": offer.prosumer_type,
                    "appliance_type": offer.appliance_type,
                    "earliest_start_slot": offer.earliest_start_slot,
                    "latest_start_slot": offer.latest_start_slot,
                    "time_flexibility_slots": offer.time_flexibility_slots,
                    "min_total_energy": offer.min_total_energy,
                    "max_total_energy": offer.max_total_energy,
                    "scheduled_energy": offer.scheduled_energy,
                    "is_aggregate": offer.is_aggregate,
                }
            )
        return frame

    def canonical(self) -> Counter:
        """Id-insensitive multiset of the outputs (the equivalence normal form).

        Aggregate ids are allocator details (the live engine hands out stable
        per-cell ids, the batch pipeline sequential ones); everything else —
        profiles bit-for-bit included — must agree between engines.
        """
        return Counter(canonical_form(offer) for offer in self.offers)

    def matches(self, other: "ResultSet") -> bool:
        """Whether two result sets are equivalent under :meth:`canonical`."""
        return self.canonical() == other.canonical()

    def describe(self) -> str:
        """One-line summary: engine, matched/scanned counts, output size."""
        return (
            f"[{self.engine}] {self.spec.describe() or 'all flex-offers'} -> "
            f"{len(self.offers)} offers ({self.matched_rows} matched, "
            f"{self.scanned_rows} scanned)"
        )
