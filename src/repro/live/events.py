"""Typed flex-offer lifecycle events and the append-only :class:`EventLog`.

In production the MIRABEL enterprise does not receive its flex-offers as a
finished dataset: they arrive as a *stream* of lifecycle events — an offer is
created, corrected by the prosumer, accepted/assigned/rejected by the
enterprise, or withdrawn.  This module is the vocabulary of that stream.  The
rest of the live subsystem (:mod:`repro.live.engine`,
:mod:`repro.live.warehouse`) consumes these events; the batch pipeline keeps
working on plain offer lists.

Events are immutable and JSON-serializable (via the flex-offer serialization
helpers): :func:`event_to_dict` / :func:`event_from_dict` round-trip them
losslessly, and the segment log of :mod:`repro.store` persists them as JSON
Lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Iterator

from dataclasses import replace as _replace

from repro.errors import LiveEngineError
from repro.flexoffer.model import FlexOffer, FlexOfferState, Schedule
from repro.flexoffer.serialization import flex_offer_from_dict, flex_offer_to_dict


@dataclass(frozen=True)
class OfferEvent:
    """Base class of all offer lifecycle events."""

    timestamp: datetime

    @property
    def subject_id(self) -> int:
        """Id of the flex-offer the event concerns."""
        raise NotImplementedError


@dataclass(frozen=True)
class OfferAdded(OfferEvent):
    """A new flex-offer entered the system (freshly offered by a prosumer)."""

    offer: FlexOffer

    @property
    def subject_id(self) -> int:
        return self.offer.id


@dataclass(frozen=True)
class OfferUpdated(OfferEvent):
    """The prosumer revised an existing offer; ``offer`` is the full new version."""

    offer: FlexOffer

    @property
    def subject_id(self) -> int:
        return self.offer.id


@dataclass(frozen=True)
class OfferWithdrawn(OfferEvent):
    """The prosumer withdrew the offer; it leaves every derived state."""

    offer_id: int

    @property
    def subject_id(self) -> int:
        return self.offer_id


@dataclass(frozen=True)
class OfferStateChanged(OfferEvent):
    """The enterprise moved the offer through its lifecycle.

    ``schedule`` must accompany a transition to *assigned* (and may accompany
    *executed*); other transitions leave the schedule handling to the
    lifecycle rules of :class:`~repro.flexoffer.model.FlexOffer`.
    """

    offer_id: int
    state: FlexOfferState
    schedule: Schedule | None = None

    @property
    def subject_id(self) -> int:
        return self.offer_id


def apply_transition(
    offer: FlexOffer, state: FlexOfferState, schedule: Schedule | None = None
) -> FlexOffer:
    """Apply an :class:`OfferStateChanged` transition to ``offer``.

    Shared by the live engine and the live warehouse so both interpret state
    events identically.  Uses the flex-offer lifecycle methods (so e.g. a
    rejection drops the schedule); raises :class:`LiveEngineError` for
    infeasible transitions such as assigning without a schedule.
    """
    try:
        if state is FlexOfferState.ACCEPTED:
            return offer.accept()
        if state is FlexOfferState.REJECTED:
            return offer.reject()
        if state is FlexOfferState.ASSIGNED:
            target = schedule if schedule is not None else offer.schedule
            if target is None:
                raise LiveEngineError(f"offer {offer.id}: cannot assign without a schedule")
            return offer.assign(target)
        if state is FlexOfferState.EXECUTED:
            if schedule is not None:
                offer = offer.assign(schedule)
            return offer.execute()
        return _replace(offer, state=state)
    except LiveEngineError:
        raise
    except Exception as exc:
        raise LiveEngineError(f"offer {offer.id}: infeasible state change: {exc}") from exc


def event_to_dict(event: OfferEvent) -> dict[str, Any]:
    """Convert an event into a JSON-serializable dictionary."""
    # isoformat keeps sub-second precision, so the round trip is lossless.
    payload: dict[str, Any] = {"timestamp": event.timestamp.isoformat()}
    if isinstance(event, OfferAdded):
        payload["type"] = "added"
        payload["offer"] = flex_offer_to_dict(event.offer)
    elif isinstance(event, OfferUpdated):
        payload["type"] = "updated"
        payload["offer"] = flex_offer_to_dict(event.offer)
    elif isinstance(event, OfferWithdrawn):
        payload["type"] = "withdrawn"
        payload["offer_id"] = event.offer_id
    elif isinstance(event, OfferStateChanged):
        payload["type"] = "state_changed"
        payload["offer_id"] = event.offer_id
        payload["state"] = event.state.value
        if event.schedule is not None:
            payload["schedule"] = {
                "start_slot": event.schedule.start_slot,
                "energy_per_slice": list(event.schedule.energy_per_slice),
            }
    else:
        raise LiveEngineError(f"unknown event type {type(event).__name__}")
    return payload


def event_from_dict(payload: dict[str, Any]) -> OfferEvent:
    """Rebuild an event from :func:`event_to_dict` output."""
    try:
        timestamp = datetime.fromisoformat(payload["timestamp"])
        kind = payload["type"]
        if kind == "added":
            return OfferAdded(timestamp, flex_offer_from_dict(payload["offer"]))
        if kind == "updated":
            return OfferUpdated(timestamp, flex_offer_from_dict(payload["offer"]))
        if kind == "withdrawn":
            return OfferWithdrawn(timestamp, int(payload["offer_id"]))
        if kind == "state_changed":
            schedule = None
            if payload.get("schedule") is not None:
                schedule = Schedule(
                    start_slot=int(payload["schedule"]["start_slot"]),
                    energy_per_slice=tuple(float(v) for v in payload["schedule"]["energy_per_slice"]),
                )
            return OfferStateChanged(
                timestamp, int(payload["offer_id"]), FlexOfferState(payload["state"]), schedule
            )
        raise LiveEngineError(f"unknown event type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise LiveEngineError(f"malformed event payload: {exc}") from exc


class EventLog:
    """An append-only, sequence-numbered log of offer events.

    The log records arrival order (the *sequence*); :meth:`replay_order`
    yields events sorted by timestamp with the sequence as tie-breaker, which
    is the order the live engine consumes them in.
    """

    def __init__(self, events: Iterable[OfferEvent] = ()) -> None:
        self._events: list[OfferEvent] = []
        for event in events:
            self.append(event)

    def append(self, event: OfferEvent) -> int:
        """Append one event; returns its sequence number."""
        if not isinstance(event, OfferEvent):
            raise LiveEngineError(f"EventLog only stores OfferEvent, got {type(event).__name__}")
        self._events.append(event)
        return len(self._events) - 1

    def extend(self, events: Iterable[OfferEvent]) -> None:
        """Append many events."""
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[OfferEvent]:
        return iter(self._events)

    def __getitem__(self, sequence: int) -> OfferEvent:
        return self._events[sequence]

    def since(self, sequence: int) -> list[OfferEvent]:
        """Events appended at or after ``sequence`` (for catch-up consumers)."""
        return self._events[sequence:]

    def replay_order(self) -> list[OfferEvent]:
        """All events sorted by timestamp, arrival sequence breaking ties."""
        order = sorted(range(len(self._events)), key=lambda i: (self._events[i].timestamp, i))
        return [self._events[i] for i in order]

    def subjects(self) -> set[int]:
        """Ids of every offer the log ever mentioned."""
        return {event.subject_id for event in self._events}


def write_jsonl(path: str | Path, payloads: Iterable[dict[str, Any]]) -> int:
    """Write one JSON document per line, keys sorted; returns the line count.

    The segment log of :mod:`repro.store` writes with it — the payloads
    stream through, so writing a large file never holds it in memory.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for payload in payloads:
            handle.write(json.dumps(payload, sort_keys=True))
            handle.write("\n")
            count += 1
    return count
