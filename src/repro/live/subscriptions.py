"""Commit fan-out: views and alert rules listen to the live engine.

After every :meth:`~repro.live.engine.LiveAggregationEngine.commit`, the
:class:`SubscriptionHub` hands the :class:`~repro.live.engine.CommitResult`
itself to every registered listener, empty commits included.  The hub does
no filtering: a listener that wants one spec's answer registers a
:class:`~repro.session.materialize.MaterializedView` (what
``session.subscribe(spec, callback)`` does), which derives its own delta from
the commit's ``touched`` offers.  The hub runs after the engine's commit
listener (the read path), so a listener always reads the commit it is
handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import LiveEngineError
from repro.live.engine import CommitResult, LiveAggregationEngine
from repro.monitoring.alerts import Alert, AlertMonitor

Listener = Callable[[CommitResult], None]


@dataclass
class Subscription:
    """One registered listener: the handle :meth:`SubscriptionHub.unsubscribe` takes."""

    name: str
    listener: Listener


class SubscriptionHub:
    """Registers listeners and hands each of them every commit result."""

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        self.published_commits = 0

    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscribe(self, listener: Listener, name: str = "") -> Subscription:
        """Register ``listener``; returns the subscription handle."""
        if not callable(listener):
            raise LiveEngineError("subscription listener must be callable")
        subscription = Subscription(
            name=name or f"subscription-{len(self._subscriptions) + 1}", listener=listener
        )
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Remove a subscription; returns whether it was registered."""
        try:
            self._subscriptions.remove(subscription)
            return True
        except ValueError:
            return False

    def publish(self, commit: CommitResult) -> None:
        """Hand one commit to every listener.

        A listener that raises does not silence the ones after it: every
        listener runs first, then the first error re-raises to the
        committer.  The commit itself is final and already readable by then
        (the engine runs its commit listener before the hub).
        """
        self.published_commits += 1
        error: Exception | None = None
        for subscription in list(self._subscriptions):
            try:
                subscription.listener(commit)
            except Exception as exc:  # re-raised once every listener ran
                error = error or exc
        if error is not None:
            raise error


class LiveAlertFeed:
    """Runs monitoring alert rules over the live state after each commit.

    The feed keeps the latest alerts (currently the low-flexibility rule,
    which needs no demand forecast) and a log of every alert ever raised, so
    a :class:`~repro.monitoring.platform.MonitoringPlatform` operator sees
    degradations the moment the triggering event commits.

    The low-flexibility rule is global, so each evaluation scans the whole
    aggregated population; a commit that changed and removed no output
    returns early, so no-op commits don't pay that scan.
    """

    def __init__(self, monitor: AlertMonitor, engine: LiveAggregationEngine) -> None:
        self.monitor = monitor
        self.engine = engine
        self.current_alerts: list[Alert] = []
        self.history: list[tuple[int, Alert]] = []

    def __call__(self, commit: CommitResult) -> None:
        if not (commit.changed or commit.removed):
            return
        offers = self.engine.aggregated_offers()
        previous = set(self.current_alerts)
        self.current_alerts = list(self.monitor.low_flexibility_alerts(offers))
        # Only newly raised alerts enter the history; an alert standing across
        # many commits is attributed to the commit that first raised it.
        for alert in self.current_alerts:
            if alert not in previous:
                self.history.append((commit.sequence, alert))

    def alerts_for(self, commit_sequence: int) -> list[Alert]:
        """Alerts first raised by one specific commit."""
        return [alert for sequence, alert in self.history if sequence == commit_sequence]
