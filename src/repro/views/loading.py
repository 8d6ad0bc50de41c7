"""The flex-offer loading workflow (Figure 7).

Figure 7 shows the loading tab of the main window: the analyst connects to the
data warehouse, chooses a *legal entity* (prosumer) and an *absolute time
interval*, and reading the matching flex-offers opens a new view tab.  The
headless counterpart reads through a :class:`~repro.session.FlexSession` —
whichever engine is active when the read happens, so on a live session every
read is a snapshot read — and returns :class:`LoadedDataset` objects that the
framework turns into tabs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Any

from repro.errors import ViewError
from repro.flexoffer.model import FlexOffer
from repro.session.spec import QuerySpec
from repro.timeseries.grid import TimeGrid
from repro.warehouse.loader import legal_entity_row
from repro.warehouse.query import FlexOfferFilter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.facade import FlexSession


@dataclass
class LoadedDataset:
    """One successful read operation, ready to be shown on a view tab."""

    title: str
    offers: list[FlexOffer]
    spec: QuerySpec
    scanned_rows: int
    grid: TimeGrid

    def __len__(self) -> int:
        return len(self.offers)


class LoadingWorkflow:
    """The loading tab's state: the session it reads through, and its history."""

    def __init__(self, session: "FlexSession") -> None:
        self.session = session
        self.grid = session.grid
        self.history: list[LoadedDataset] = []
        self._entity_ids = frozenset(prosumer.id for prosumer in session.scenario.prosumers)

    # ------------------------------------------------------------------
    # What the combo boxes of the loading tab offer
    # ------------------------------------------------------------------
    def available_entities(self) -> list[dict[str, Any]]:
        """Legal entities the analyst can choose from (the ``dim_legal_entity`` rows)."""
        return [legal_entity_row(prosumer) for prosumer in self.session.scenario.prosumers]

    def available_states(self) -> list[str]:
        """Distinct flex-offer states among the active engine's offers."""
        return sorted({offer.state.value for offer in self.session.query(QuerySpec()).offers})

    def warehouse_summary(self) -> dict[str, Any]:
        """Row counts etc. shown next to the connection settings."""
        return self.session.repository.summary()

    # ------------------------------------------------------------------
    # The read operations
    # ------------------------------------------------------------------
    def _load(self, spec: QuerySpec, title: str) -> LoadedDataset:
        result = self.session.query(spec)
        dataset = LoadedDataset(
            title=title,
            offers=list(result.offers),
            spec=spec,
            scanned_rows=result.scanned_rows,
            grid=self.grid,
        )
        self.history.append(dataset)
        return dataset

    def load_entity(
        self,
        entity_id: int,
        interval_start: datetime | None = None,
        interval_end: datetime | None = None,
    ) -> LoadedDataset:
        """Read the flex-offers of one legal entity within an absolute interval."""
        if entity_id not in self._entity_ids:
            raise ViewError(f"unknown legal entity {entity_id}")
        title = f"entity {entity_id}"
        if interval_start or interval_end:
            title += f" [{interval_start:%Y-%m-%d %H:%M} .. {interval_end:%Y-%m-%d %H:%M}]" if interval_start and interval_end else " (interval)"
        spec = QuerySpec.build(
            prosumer_ids=entity_id, interval_start=interval_start, interval_end=interval_end
        )
        return self._load(spec, title)

    def load_filtered(self, query: FlexOfferFilter, title: str | None = None) -> LoadedDataset:
        """Read flex-offers matching an arbitrary attribute filter."""
        return self._load(QuerySpec.build(**vars(query)), title or query.describe())

    def load_all(self) -> LoadedDataset:
        """Read every flex-offer the active engine holds."""
        return self.load_filtered(FlexOfferFilter(), title="all flex-offers")
