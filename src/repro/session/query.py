"""The fluent, index-aware offer query builder.

``session.offers()`` returns an :class:`OfferQuery`; each chained call
(``.where(...)``, ``.between(...)``, ``.aggregate(...)``) returns a *new*
builder with a refined :class:`~repro.session.spec.QuerySpec`, so partial
queries can be shared and reused.  Terminal operations (``.fetch()``,
``.to_frame()``, ``.to_view(...)``, ``.count()``, ``.subscribe(...)``) hand
the frozen spec to the session's active engine — batch or live — which plans
it against its hash indexes; the resulting
:class:`~repro.session.spec.ResultSet` is engine-agnostic.
"""

from __future__ import annotations

from datetime import datetime
from typing import TYPE_CHECKING, Any, Callable

from repro.aggregation.parameters import AggregationParameters
from repro.errors import SessionError
from repro.flexoffer.model import FlexOffer
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import COUNT_BUCKETS
from repro.session.spec import QuerySpec, ResultSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.facade import FlexSession
    from repro.session.materialize import MaterializedView
    from repro.views.base import FlexOfferView

# ----------------------------------------------------------------------
# Observability: the ``session.query`` span splits into *select* (index
# planning + scan inside the backend) and *aggregate* (the optional
# aggregation of the selection); the scan width gets its own series.
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_QUERY_ROWS_SCANNED = _OBS.histogram(
    "repro.session.query.rows_scanned", "rows scanned per query", COUNT_BUCKETS
)


def execute(backend, grid, spec: QuerySpec) -> ResultSet:
    """Run one spec against one read surface; the only execution path there is.

    ``backend`` provides ``name``, ``select`` and ``aggregate``: the batch
    engine, or a live engine's :class:`~repro.readpath.snapshot.AggregateSnapshot`
    (directly or through a :class:`~repro.readpath.snapshot.SnapshotReader`).
    The selection is sorted by offer id before limiting and aggregating so
    that both chunk groups identically — this is what makes result sets
    interchangeable down to aggregate profiles.
    """
    with _TRACER.span("session.query"):
        with _TRACER.span("session.query.select"):
            selected, scanned = backend.select(spec)
            selected = sorted(selected, key=lambda offer: offer.id)
        matched = len(selected)
        if spec.limit is not None:
            selected = selected[: spec.limit]
        constituents: dict[int, list[FlexOffer]] = {}
        offers = selected
        if spec.parameters is not None:
            with _TRACER.span("session.query.aggregate"):
                result = backend.aggregate(selected, spec.parameters)
            offers = list(result.offers)
            constituents = {key: list(value) for key, value in result.constituents.items()}
    _QUERY_ROWS_SCANNED.observe(scanned)
    return ResultSet(
        offers=offers,
        spec=spec,
        engine=backend.name,
        scanned_rows=scanned,
        matched_rows=matched,
        constituents=constituents,
    )


class OfferQuery:
    """An immutable fluent builder over one session's offers."""

    def __init__(self, session: "FlexSession", spec: QuerySpec | None = None) -> None:
        self._session = session
        self._spec = spec or QuerySpec()

    @property
    def spec(self) -> QuerySpec:
        """The frozen spec the builder has accumulated so far."""
        return self._spec

    def _derive(self, spec: QuerySpec) -> "OfferQuery":
        return OfferQuery(self._session, spec)

    # ------------------------------------------------------------------
    # Refinement steps (each returns a new builder)
    # ------------------------------------------------------------------
    def where(self, **filters: Any) -> "OfferQuery":
        """Constrain by attribute values; scalars and iterables both work.

        Accepts the spec's plural fields (``states=("assigned", "accepted")``)
        and singular aliases (``state="assigned"``, ``region="Capital"``,
        ``grid_node=...``).  Later calls replace earlier values of the same
        field.
        """
        return self._derive(self._spec.merged(**filters))

    def between(self, start: datetime | None, end: datetime | None) -> "OfferQuery":
        """Constrain to offers whose feasible span overlaps [start, end)."""
        return self._derive(self._spec.merged(interval_start=start, interval_end=end))

    def only_aggregates(self, flag: bool = True) -> "OfferQuery":
        """Keep only aggregates (or, with ``flag=False``, only raw offers)."""
        return self._derive(self._spec.merged(only_aggregates=flag))

    def limit(self, count: int) -> "OfferQuery":
        """Cap the matched raw offers (id order, applied before aggregation)."""
        if count < 0:
            raise SessionError("limit must be >= 0")
        return self._derive(self._spec.merged(limit=count))

    def aggregate(
        self, parameters: AggregationParameters | None = None, **tolerances: Any
    ) -> "OfferQuery":
        """Turn the query into an aggregation with the given parameters.

        Pass an :class:`AggregationParameters` or its keyword fields
        (``est_tolerance_slots=8``).  With neither, the session's default
        parameters apply — on the live engine that selection is served from
        the committed incremental state, not recomputed.
        """
        if parameters is not None and tolerances:
            raise SessionError("pass AggregationParameters or keyword tolerances, not both")
        if parameters is None:
            parameters = (
                AggregationParameters(**tolerances)
                if tolerances
                else self._session.parameters
            )
        return self._derive(self._spec.merged(parameters=parameters))

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------
    def fetch(self) -> ResultSet:
        """Execute against the session's active engine."""
        return self._session.query(self._spec)

    def count(self) -> int:
        """Number of output offers the spec produces."""
        return len(self.fetch())

    def to_frame(self) -> list[dict[str, Any]]:
        """Execute and project to the shared tabular shape."""
        return self.fetch().to_frame()

    def to_view(self, name: str, **options: Any) -> "FlexOfferView":
        """Execute and open the result in a registered view."""
        return self._session.view(name, self.fetch(), **options)

    def subscribe(self, callback: Callable, name: str = "") -> "MaterializedView":
        """Materialize this spec with ``callback`` as its listener (``FlexSession.subscribe``)."""
        return self._session.subscribe(self._spec, callback, name=name)

    def describe(self) -> str:
        """The accumulated spec as a one-liner."""
        return self._spec.describe() or "all flex-offers"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"OfferQuery({self.describe()})"
