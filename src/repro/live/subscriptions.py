"""Commit notifications: views and alert rules subscribe to the live engine.

After every :meth:`~repro.live.engine.LiveAggregationEngine.commit`, the
:class:`SubscriptionHub` fans the commit result out to registered listeners.
A subscription narrows its interest with a predicate over output offers, so
a view showing one region is only woken when one of *its* aggregates changed
— the push-based counterpart of the tool's "reload the warehouse and redraw"
workflow.  The hub runs after the engine's commit listener (the read path),
so a listener always reads the commit it is notified of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer
from repro.live.engine import CommitResult, LiveAggregationEngine
from repro.monitoring.alerts import Alert, AlertMonitor


@dataclass(frozen=True)
class CommitNotification:
    """What one listener receives: the commit plus its slice of the changes."""

    commit: CommitResult
    #: Changed output offers matching the subscription's interest.
    changed: tuple[FlexOffer, ...]
    #: Offers the subscriber must drop: retired outputs that matched the
    #: interest, plus outputs that changed *out of* the interest (e.g. an
    #: aggregate whose region became "mixed" when a cross-region offer joined
    #: its group) — without the latter, a filtered view would mirror the
    #: retired variant forever.
    removed: tuple[FlexOffer, ...]

    def __len__(self) -> int:
        return len(self.changed) + len(self.removed)


Listener = Callable[[CommitNotification], None]


@dataclass
class Subscription:
    """One registered listener with its interest filter.

    Interest is the optional ``predicate`` over output offers — the hook the
    session layer uses to subscribe arbitrary ``QuerySpec`` predicates
    without duplicating the mirror bookkeeping below.
    """

    name: str
    listener: Listener
    #: Interest predicate over the output offer (``None`` = every offer).
    predicate: Callable[[FlexOffer], bool] | None = None
    #: Deliver empty notifications too (heartbeat listeners want every commit).
    deliver_empty: bool = False
    notified: int = field(default=0, repr=False)
    #: Ids this subscription has been handed as changed and not yet removed —
    #: what the listener's mirror can contain.
    mirrored: set[int] = field(default_factory=set, repr=False)

    def _interested(self, offer: FlexOffer) -> bool:
        return self.predicate is None or self.predicate(offer)

    def slice_of(self, commit: CommitResult) -> CommitNotification:
        """The commit narrowed to this subscription's interest.

        An offer that changed *out of* the interest (e.g. an aggregate whose
        region became "mixed") is delivered as a removal — but only when this
        subscription was previously handed it, so foreign changes never wake
        the listener.  Updates ``mirrored`` as a side effect; call once per
        published commit.
        """
        changed = tuple(offer for offer in commit.changed if self._interested(offer))
        exited = tuple(
            offer
            for offer in commit.changed
            if not self._interested(offer) and offer.id in self.mirrored
        )
        removed = (
            tuple(offer for offer in commit.removed if offer.id in self.mirrored) + exited
        )
        self.mirrored.update(offer.id for offer in changed)
        self.mirrored.difference_update(offer.id for offer in removed)
        return CommitNotification(commit=commit, changed=changed, removed=removed)


class SubscriptionHub:
    """Registers listeners and fans commit results out to them."""

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        self.published_commits = 0

    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscribe(
        self,
        listener: Listener,
        name: str = "",
        predicate: Callable[[FlexOffer], bool] | None = None,
        deliver_empty: bool = False,
    ) -> Subscription:
        """Register ``listener``; returns the subscription handle."""
        if not callable(listener):
            raise LiveEngineError("subscription listener must be callable")
        subscription = Subscription(
            name=name or f"subscription-{len(self._subscriptions) + 1}",
            listener=listener,
            predicate=predicate,
            deliver_empty=deliver_empty,
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

    def publish(self, commit: CommitResult) -> int:
        """Notify interested listeners of one commit; returns how many were.

        A listener that raises does not silence the ones after it: every
        subscription is notified first, then the first error re-raises to
        the committer.  The commit itself is final and already readable by
        then (the engine runs its commit listener before the hub).
        """
        self.published_commits += 1
        notified = 0
        error: Exception | None = None
        for subscription in list(self._subscriptions):
            notification = subscription.slice_of(commit)
            if len(notification) == 0 and not subscription.deliver_empty:
                continue
            try:
                subscription.listener(notification)
            except Exception as exc:  # re-raised once every listener ran
                error = error or exc
                continue
            subscription.notified += 1
            notified += 1
        if error is not None:
            raise error
        return notified


class ChangeCollector:
    """A minimal live "view model": mirrors the changed aggregates by id.

    Views subscribe one of these and re-render only ``offers`` instead of
    reloading the warehouse; tests use it to observe notification flow.
    """

    def __init__(self) -> None:
        self.offers: dict[int, FlexOffer] = {}
        self.notifications: list[CommitNotification] = []

    def __call__(self, notification: CommitNotification) -> None:
        self.notifications.append(notification)
        for offer in notification.changed:
            self.offers[offer.id] = offer
        for offer in notification.removed:
            self.offers.pop(offer.id, None)


class LiveAlertFeed:
    """Runs monitoring alert rules over the live state after each commit.

    The feed keeps the latest alerts (currently the low-flexibility rule,
    which needs no demand forecast) and a log of every alert ever raised, so
    a :class:`~repro.monitoring.platform.MonitoringPlatform` operator sees
    degradations the moment the triggering event commits.

    The low-flexibility rule is global, so each evaluation scans the whole
    aggregated population; subscribe without ``deliver_empty`` (the
    :meth:`~repro.monitoring.platform.MonitoringPlatform.attach_live`
    default) so no-op commits don't pay that scan.
    """

    def __init__(self, monitor: AlertMonitor, engine: LiveAggregationEngine) -> None:
        self.monitor = monitor
        self.engine = engine
        self.current_alerts: list[Alert] = []
        self.history: list[tuple[int, Alert]] = []

    def __call__(self, notification: CommitNotification) -> None:
        offers = self.engine.aggregated_offers()
        previous = set(self.current_alerts)
        self.current_alerts = list(self.monitor.low_flexibility_alerts(offers))
        # Only newly raised alerts enter the history; an alert standing across
        # many commits is attributed to the commit that first raised it.
        for alert in self.current_alerts:
            if alert not in previous:
                self.history.append((notification.commit.sequence, alert))

    def alerts_for(self, commit_sequence: int) -> list[Alert]:
        """Alerts first raised by one specific commit."""
        return [alert for sequence, alert in self.history if sequence == commit_sequence]
