"""The visual analysis framework facade.

Section 4 describes the tool's main window: a loading tab plus one tab per
read operation, where each tab shows a set of flex-offers in the basic or the
profile view and offers the aggregation tools, selection and on-the-fly
details.  :class:`VisualAnalysisFramework` is the headless facade over all of
that: it reads through a session, opens tabs, switches views, applies
aggregation and exports any open view to SVG/ASCII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from repro.aggregation.parameters import AggregationParameters
from repro.errors import ViewError
from repro.flexoffer.model import FlexOffer
from repro.timeseries.grid import TimeGrid
from repro.views.aggregation_panel import AggregationPanel
from repro.views.base import FlexOfferView
from repro.views.basic import BasicView
from repro.views.dashboard import DashboardView
from repro.views.loading import LoadedDataset, LoadingWorkflow
from repro.views.map_view import MapView
from repro.views.pivot_view import PivotView
from repro.views.profile_view import ProfileView
from repro.views.schematic import SchematicView
from repro.views.selection import SelectionModel
from repro.views.tooltip import FlexOfferDetails, describe

if TYPE_CHECKING:  # pragma: no cover - typing only (datagen is numpy-native;
    # the framework just holds a scenario reference for its tabs)
    from repro.datagen.scenarios import Scenario


class ViewKind(str, Enum):
    """The view types a tab can show."""

    BASIC = "basic"
    PROFILE = "profile"
    MAP = "map"
    SCHEMATIC = "schematic"
    PIVOT = "pivot"
    DASHBOARD = "dashboard"


@dataclass
class ViewTab:
    """One tab of the main window: a dataset plus its current view and selection."""

    title: str
    offers: list[FlexOffer]
    grid: TimeGrid
    kind: ViewKind = ViewKind.BASIC
    selection: SelectionModel = field(init=False)
    _scenario: Scenario | None = None

    def __post_init__(self) -> None:
        self.selection = SelectionModel(self.offers)

    def view(self, **options) -> FlexOfferView:
        """Build the tab's current view object."""
        if self.kind is ViewKind.BASIC:
            return BasicView(self.offers, self.grid, options=options.get("basic"))
        if self.kind is ViewKind.PROFILE:
            return ProfileView(self.offers, self.grid, options=options.get("profile"))
        if self.kind is ViewKind.DASHBOARD:
            return DashboardView(self.offers, self.grid, options=options.get("dashboard"))
        if self.kind is ViewKind.PIVOT:
            return PivotView(self.offers, self.grid, options=options.get("pivot"))
        if self._scenario is None:
            raise ViewError(f"{self.kind.value} view needs scenario master data (geography/topology)")
        if self.kind is ViewKind.MAP:
            return MapView(self.offers, self._scenario.geography, self.grid, options=options.get("map"))
        if self.kind is ViewKind.SCHEMATIC:
            return SchematicView(self.offers, self._scenario.topology, self.grid, options=options.get("schematic"))
        raise ViewError(f"unsupported view kind {self.kind}")

    def switch_view(self, kind: ViewKind) -> None:
        """Change which view the tab shows."""
        self.kind = kind

    def details_of(self, offer_id: int) -> FlexOfferDetails:
        """The on-the-fly details of one offer in the tab (Figure 10)."""
        for offer in self.offers:
            if offer.id == offer_id:
                return describe(offer, self.grid)
        raise ViewError(f"tab {self.title!r} has no flex-offer {offer_id}")

    def aggregation_panel(self, parameters: AggregationParameters | None = None) -> AggregationPanel:
        """The Figure 11 aggregation tools bound to this tab's offers."""
        return AggregationPanel(self.offers, self.grid, parameters)

    def apply_aggregation(self, parameters: AggregationParameters | None = None) -> "ViewTab":
        """Replace the tab's offers with their aggregation (what the Apply button does)."""
        panel = self.aggregation_panel(parameters)
        self.offers = panel.aggregated_offers()
        self.selection = SelectionModel(self.offers)
        return self

    def extract_selection(self, title: str | None = None) -> "ViewTab":
        """Open the current selection as a new tab (the "show on different tab" action)."""
        selected = self.selection.extract_to_new_tab()
        tab = ViewTab(
            title=title or f"{self.title} (selection)",
            offers=selected,
            grid=self.grid,
            kind=self.kind,
            _scenario=self._scenario,
        )
        return tab

    def remove_selection(self) -> None:
        """Remove the selected offers from the tab (the "remove from view" action)."""
        self.offers = self.selection.remove_from_view()
        self.selection = SelectionModel(self.offers)


@dataclass
class MaterializedViewTab(ViewTab):
    """A tab backed by a materialized view: redraws only changed aggregates.

    The paper's incremental-rendering claim, closed end to end: the session
    maintains the standing spec from commit deltas (see
    :mod:`repro.session.materialize`), and :meth:`sync` diffs the view's
    current result against the tab's mirror *by object identity* — offers the
    deltas never touched are the same objects, so only aggregates that
    actually changed come back for redraw.  Over the engine's own
    aggregation the view holds the engine's output objects, so a redraw is
    exactly the chunks the engine re-aggregated.  ``self.offers`` is
    refreshed in place, so the ordinary :meth:`ViewTab.view` renders the
    current state, and the analyst's selection keeps every offer still shown.
    """

    #: The delta-maintained view this tab mirrors (None only transiently
    #: during dataclass init; set by open_materialized_tab).
    source: "object | None" = None

    def sync(self) -> tuple[list[FlexOffer], list[int]]:
        """Pull the view's current result; returns (changed offers, removed ids).

        Cheap when nothing moved: the maintained result holds the *same*
        offer objects for untouched aggregates, so the identity diff returns
        two empty lists and the renderer has nothing to redraw.
        """
        if self.source is None:
            raise ViewError(f"tab {self.title!r} has no materialized view attached")
        mirror = {offer.id: offer for offer in self.offers}
        current = self.source.result.offers
        changed = [
            offer for offer in current if mirror.get(offer.id) is not offer
        ]
        current_ids = {offer.id for offer in current}
        removed = [offer_id for offer_id in mirror if offer_id not in current_ids]
        if changed or removed:
            selected = self.selection.selected_ids
            self.offers = list(current)
            self.selection = SelectionModel(self.offers)
            self.selection.select(selected)  # drops the ids no longer shown
        return changed, removed

    @property
    def version(self) -> int:
        """The view's maintained version (the read path's snapshot version)."""
        if self.source is None:
            raise ViewError(f"tab {self.title!r} has no materialized view attached")
        return self.source.version


class VisualAnalysisFramework:
    """The main-window facade: the loading tab plus view tabs.

    The framework is a thin shell over a
    :class:`~repro.session.facade.FlexSession` — the session owns the engines
    and the schema; the framework adds the tab workflow on top.  The loading
    tab reads through the session's *active* engine, so tabs opened after a
    ``use_engine()`` swap or a replay see the current state.  Constructing it
    from a bare :class:`Scenario` still works (a batch session is opened
    internally), so pre-session callers are unaffected.
    """

    def __init__(self, source) -> None:
        from repro.session.facade import FlexSession

        if isinstance(source, FlexSession):
            self.session = source
        else:
            self.session = FlexSession(source)
        self.scenario = self.session.scenario
        self.loading = LoadingWorkflow(self.session)
        self.tabs: list[ViewTab] = []

    @classmethod
    def from_session(cls, session) -> "VisualAnalysisFramework":
        """Open the main window over an existing session."""
        return cls(session)

    @property
    def schema(self):
        """The session's star schema (derived on demand on a live session)."""
        return self.session.schema

    @property
    def repository(self):
        """The repository over :attr:`schema` (kept for pre-session callers)."""
        return self.session.repository

    # ------------------------------------------------------------------
    # Tab management (the Figure 7/8 workflow)
    # ------------------------------------------------------------------
    def open_tab_for_entity(
        self,
        entity_id: int,
        interval_start: datetime | None = None,
        interval_end: datetime | None = None,
        kind: ViewKind = ViewKind.BASIC,
    ) -> ViewTab:
        """Read one legal entity's flex-offers and open them in a new tab."""
        dataset = self.loading.load_entity(entity_id, interval_start, interval_end)
        return self._open_tab(dataset, kind)

    def open_tab_for_all(self, kind: ViewKind = ViewKind.BASIC) -> ViewTab:
        """Read every flex-offer and open one tab over them."""
        dataset = self.loading.load_all()
        return self._open_tab(dataset, kind)

    def open_tab_for_query(self, query, kind: ViewKind = ViewKind.BASIC, title: str | None = None) -> ViewTab:
        """Execute a fluent query (or bare spec) and open the result as a tab.

        ``query`` is an :class:`~repro.session.query.OfferQuery` or a
        :class:`~repro.session.spec.QuerySpec`; the tab title defaults to the
        spec's one-line description — the same text the loading tab shows.
        """
        from repro.session.query import OfferQuery
        from repro.session.spec import QuerySpec

        if isinstance(query, QuerySpec):
            query = OfferQuery(self.session, query)
        result = query.fetch()
        return self.open_tab_for_offers(
            result.offers, title=title or (result.spec.describe() or "all flex-offers"), kind=kind
        )

    def open_materialized_tab(
        self,
        query,
        kind: ViewKind = ViewKind.DASHBOARD,
        title: str | None = None,
        name: str = "",
    ) -> MaterializedViewTab:
        """Open a tab over a delta-maintained materialized view of ``query``.

        ``query`` is an :class:`~repro.session.query.OfferQuery`, a
        :class:`~repro.session.spec.QuerySpec`, or an already-registered
        :class:`~repro.session.materialize.MaterializedView`.  The tab's
        :meth:`~MaterializedViewTab.sync` then redraws only the aggregates
        each commit actually changed — no warehouse reload, no re-query.
        """
        from repro.session.materialize import MaterializedView

        if isinstance(query, MaterializedView):
            view = query
        else:
            view = self.session.materialize(query, name=name)
        tab = MaterializedViewTab(
            title=title or f"{view.name} (materialized)",
            offers=list(view.result.offers),
            grid=self.scenario.grid,
            kind=kind,
            _scenario=self.scenario,
            source=view,
        )
        self.tabs.append(tab)
        return tab

    def open_tab_for_offers(
        self, offers: Sequence[FlexOffer], title: str, kind: ViewKind = ViewKind.BASIC
    ) -> ViewTab:
        """Open a tab over an explicit offer list (e.g. a selection or an aggregation result)."""
        tab = ViewTab(title=title, offers=list(offers), grid=self.scenario.grid, kind=kind, _scenario=self.scenario)
        self.tabs.append(tab)
        return tab

    def _open_tab(self, dataset: LoadedDataset, kind: ViewKind) -> ViewTab:
        tab = ViewTab(
            title=dataset.title,
            offers=dataset.offers,
            grid=dataset.grid,
            kind=kind,
            _scenario=self.scenario,
        )
        self.tabs.append(tab)
        return tab

    def close_tab(self, tab: ViewTab) -> None:
        """Close a tab."""
        if tab in self.tabs:
            self.tabs.remove(tab)

    @property
    def tab_titles(self) -> list[str]:
        """Titles of the open tabs (what the tab bar shows)."""
        return [tab.title for tab in self.tabs]
