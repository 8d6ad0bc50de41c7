"""The integrated planning-and-control monitoring platform.

The paper's future-work section sketches a platform that couples SCADA/ERP,
planning and bidding data, surfaces qualitative alerts and lets the operator
drill down to the underlying flex-offers.  :class:`MonitoringPlatform` is that
layer for this reproduction: it runs all alert rules over a scenario (and,
optionally, a finished planning cycle), groups alerts per region, and converts
any alert into the drill-down artefacts the views understand — the affected
flex-offers, a warehouse filter and a ready-to-render basic view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.enterprise.planning import PlanningReport
from repro.flexoffer.model import FlexOffer
from repro.monitoring.alerts import Alert, AlertKind, AlertMonitor, AlertSeverity, AlertThresholds
from repro.views.basic import BasicView
from repro.warehouse.query import FlexOfferFilter

if TYPE_CHECKING:  # pragma: no cover - typing only (datagen is numpy-native;
    # the platform just reads the scenario's series and offers)
    from repro.datagen.scenarios import Scenario


@dataclass
class MonitoringReport:
    """All alerts of one monitoring pass, with convenience accessors."""

    alerts: list[Alert] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.alerts)

    def by_kind(self, kind: AlertKind) -> list[Alert]:
        """Alerts of one kind."""
        return [alert for alert in self.alerts if alert.kind is kind]

    def by_severity(self, severity: AlertSeverity) -> list[Alert]:
        """Alerts of one severity."""
        return [alert for alert in self.alerts if alert.severity is severity]

    def worst(self) -> Alert | None:
        """The most severe (then most energetic) alert, or ``None``."""
        if not self.alerts:
            return None
        order = {AlertSeverity.CRITICAL: 2, AlertSeverity.WARNING: 1, AlertSeverity.INFO: 0}
        return max(self.alerts, key=lambda alert: (order[alert.severity], alert.energy_kwh))

    def summary_lines(self) -> list[str]:
        """One line per alert, most severe first (the operator's alert list)."""
        order = {AlertSeverity.CRITICAL: 2, AlertSeverity.WARNING: 1, AlertSeverity.INFO: 0}
        ordered = sorted(self.alerts, key=lambda alert: (order[alert.severity], alert.energy_kwh), reverse=True)
        return [alert.describe() for alert in ordered]


class MonitoringPlatform:
    """Runs the alert rules over a scenario and offers drill-down into the views."""

    def __init__(self, scenario: Scenario, thresholds: AlertThresholds | None = None) -> None:
        self.scenario = scenario
        self.monitor = AlertMonitor(scenario.grid, thresholds)

    # ------------------------------------------------------------------
    # Monitoring passes
    # ------------------------------------------------------------------
    def scan(self, per_region: bool = False) -> MonitoringReport:
        """Scan the scenario's forecasted situation for shortages and over-capacities.

        With ``per_region`` the demand and RES series are split proportionally
        to the regional share of flex-offers, producing regional alerts an
        operator can drill into on the map view.
        """
        report = MonitoringReport()
        offers = self.scenario.flex_offers
        report.alerts.extend(
            self.monitor.shortage_alerts(self.scenario.base_demand, self.scenario.res_production, offers)
        )
        report.alerts.extend(
            self.monitor.over_capacity_alerts(self.scenario.base_demand, self.scenario.res_production, offers)
        )
        report.alerts.extend(self.monitor.low_flexibility_alerts(offers))

        if per_region:
            total = max(len(offers), 1)
            for region in sorted({offer.region for offer in offers if offer.region}):
                regional_offers = [offer for offer in offers if offer.region == region]
                share = len(regional_offers) / total
                regional_demand = self.scenario.base_demand * share
                regional_res = self.scenario.res_production * share
                report.alerts.extend(
                    self.monitor.shortage_alerts(regional_demand, regional_res, regional_offers, region=region)
                )
                report.alerts.extend(
                    self.monitor.over_capacity_alerts(regional_demand, regional_res, regional_offers, region=region)
                )
        return report

    def scan_plan(self, plan: PlanningReport) -> MonitoringReport:
        """Scan a finished planning cycle: residual imbalances plus settlement deviations."""
        report = MonitoringReport()
        offers = plan.all_offers
        report.alerts.extend(
            self.monitor.shortage_alerts(
                self.scenario.base_demand + plan.planned_load, self.scenario.res_production, offers
            )
        )
        report.alerts.extend(
            self.monitor.plan_deviation_alerts(
                plan.settlement.planned_series, plan.settlement.realized_series, offers
            )
        )
        return report

    # ------------------------------------------------------------------
    # Live operation
    # ------------------------------------------------------------------
    def attach_live(self, hub, engine) -> "LiveAlertFeed":
        """Subscribe this platform's alert rules to a live engine's commits.

        Returns the :class:`~repro.live.subscriptions.LiveAlertFeed` that
        re-evaluates the rules over the fresh aggregate state after every
        commit that changed or removed an output (the hub hands the feed
        every commit; it returns early on the others); the operator reads
        ``feed.current_alerts`` instead of re-running :meth:`scan` over a
        reloaded scenario.

        The hub must be the one the engine publishes to; an engine without a
        hub is adopted onto ``hub`` so the feed cannot be silently dead.
        """
        from repro.errors import LiveEngineError
        from repro.live.subscriptions import LiveAlertFeed

        if engine.hub is None:
            engine.hub = hub
        elif engine.hub is not hub:
            raise LiveEngineError(
                "attach_live: hub is not the engine's publishing hub; "
                "the alert feed would never be notified"
            )
        feed = LiveAlertFeed(self.monitor, engine)
        hub.subscribe(feed, name="monitoring-platform")
        return feed

    # ------------------------------------------------------------------
    # Drill-down (the "find out the reason behind it" part of the future work)
    # ------------------------------------------------------------------
    def offers_for(self, alert: Alert) -> list[FlexOffer]:
        """The flex-offers attached to an alert, resolved to full objects."""
        wanted = set(alert.offer_ids)
        return [offer for offer in self.scenario.flex_offers if offer.id in wanted]

    def warehouse_filter_for(self, alert: Alert) -> FlexOfferFilter:
        """A warehouse filter reproducing the alert's scope (region + time window)."""
        return FlexOfferFilter(
            regions=(alert.region,) if alert.region else None,
            interval_start=alert.start,
            interval_end=alert.end,
        )

    def drill_down_view(self, alert: Alert) -> BasicView:
        """A basic view over the alert's flex-offers (what the operator opens first)."""
        return BasicView(self.offers_for(alert), self.scenario.grid)
