"""(De)serialization of flex-offers to plain dictionaries, positional rows, JSON and CSV.

The MIRABEL tool loads flex-offers from the MIRABEL DW (PostgreSQL); this
reproduction's warehouse substitute and the examples exchange flex-offers as
dictionaries / JSON lines / CSV rows instead.  Checkpoints store them as
*positional rows* (:func:`flex_offer_to_row`): one JSON array per offer in the
fixed order of :data:`ROW_FIELDS`, about half the bytes of a dictionary and
decoded without building one.  Round-tripping is lossless for every field of
:class:`~repro.flexoffer.model.FlexOffer` in every format.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime
from typing import Any, Iterable, Sequence

from repro.errors import ValidationError
from repro.flexoffer.model import Direction, FlexOffer, FlexOfferState, ProfileSlice, Schedule


def _format_time(value: datetime) -> str:
    # isoformat keeps sub-second precision and any UTC offset, so the round
    # trip is lossless; a naive whole-second time reads YYYY-MM-DDTHH:MM:SS.
    return value.isoformat()


def _parse_time(value: str) -> datetime:
    # The C-level fromisoformat is ~10x faster than strptime — offer parsing
    # is the hot path of snapshot restores and event-log replays.
    return datetime.fromisoformat(value)


def flex_offer_to_dict(offer: FlexOffer) -> dict[str, Any]:
    """Convert a flex-offer into a JSON-serializable dictionary."""
    payload: dict[str, Any] = {
        "id": offer.id,
        "prosumer_id": offer.prosumer_id,
        "profile": [
            {"min_energy": s.min_energy, "max_energy": s.max_energy, "duration_slots": s.duration_slots}
            for s in offer.profile
        ],
        "earliest_start_slot": offer.earliest_start_slot,
        "latest_start_slot": offer.latest_start_slot,
        "creation_time": _format_time(offer.creation_time),
        "acceptance_deadline": _format_time(offer.acceptance_deadline),
        "assignment_deadline": _format_time(offer.assignment_deadline),
        "direction": offer.direction.value,
        "state": offer.state.value,
        "region": offer.region,
        "city": offer.city,
        "district": offer.district,
        "grid_node": offer.grid_node,
        "energy_type": offer.energy_type,
        "prosumer_type": offer.prosumer_type,
        "appliance_type": offer.appliance_type,
        "price_per_kwh": offer.price_per_kwh,
        "is_aggregate": offer.is_aggregate,
        "constituent_ids": list(offer.constituent_ids),
    }
    if offer.schedule is not None:
        payload["schedule"] = {
            "start_slot": offer.schedule.start_slot,
            "energy_per_slice": list(offer.schedule.energy_per_slice),
        }
    return payload


def flex_offer_from_dict(payload: dict[str, Any]) -> FlexOffer:
    """Rebuild a flex-offer from :func:`flex_offer_to_dict` output."""
    try:
        schedule = None
        if payload.get("schedule") is not None:
            schedule = Schedule(
                start_slot=int(payload["schedule"]["start_slot"]),
                energy_per_slice=tuple(float(v) for v in payload["schedule"]["energy_per_slice"]),
            )
        return FlexOffer(
            id=int(payload["id"]),
            prosumer_id=int(payload["prosumer_id"]),
            profile=tuple(
                ProfileSlice(
                    min_energy=float(s["min_energy"]),
                    max_energy=float(s["max_energy"]),
                    duration_slots=int(s.get("duration_slots", 1)),
                )
                for s in payload["profile"]
            ),
            earliest_start_slot=int(payload["earliest_start_slot"]),
            latest_start_slot=int(payload["latest_start_slot"]),
            creation_time=_parse_time(payload["creation_time"]),
            acceptance_deadline=_parse_time(payload["acceptance_deadline"]),
            assignment_deadline=_parse_time(payload["assignment_deadline"]),
            direction=Direction(payload.get("direction", Direction.CONSUMPTION.value)),
            state=FlexOfferState(payload.get("state", FlexOfferState.OFFERED.value)),
            schedule=schedule,
            region=payload.get("region", ""),
            city=payload.get("city", ""),
            district=payload.get("district", ""),
            grid_node=payload.get("grid_node", ""),
            energy_type=payload.get("energy_type", ""),
            prosumer_type=payload.get("prosumer_type", ""),
            appliance_type=payload.get("appliance_type", ""),
            price_per_kwh=float(payload.get("price_per_kwh", 0.0)),
            is_aggregate=bool(payload.get("is_aggregate", False)),
            constituent_ids=tuple(int(i) for i in payload.get("constituent_ids", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed flex-offer payload: {exc}") from exc


# ----------------------------------------------------------------------
# Positional rows (checkpoints): one JSON array per flex-offer
# ----------------------------------------------------------------------
#: The fields of a positional row, in row order (the names of the dictionary
#: codec).  ``profile`` is a list of ``[min_energy, max_energy,
#: duration_slots]`` triples, ``schedule`` is ``null`` or ``[start_slot,
#: [energy, ...]]``, times are ISO text and the two enums are their values.
ROW_FIELDS = (
    "id",
    "prosumer_id",
    "profile",
    "earliest_start_slot",
    "latest_start_slot",
    "creation_time",
    "acceptance_deadline",
    "assignment_deadline",
    "direction",
    "state",
    "schedule",
    "region",
    "city",
    "district",
    "grid_node",
    "energy_type",
    "prosumer_type",
    "appliance_type",
    "price_per_kwh",
    "is_aggregate",
    "constituent_ids",
)

_DIRECTIONS = {member.value: member for member in Direction}
_STATES = {member.value: member for member in FlexOfferState}


class TimeCache(dict):
    """ISO text -> ``datetime``, parsing each distinct text once.

    A population shares few distinct instants (409 among the 29,982 times of
    a 9,994-offer scenario), so a checkpoint load keeps one cache for all of
    its rows.
    """

    def __missing__(self, text: str) -> datetime:
        value = self[text] = _parse_time(text)
        return value


class TextCache(dict):
    """Text -> the first equal string decoded, so equal texts share one object.

    ``json`` builds a new string for every value it decodes, but the seven
    dimension attributes of a 9,994-offer scenario hold 154 distinct texts
    among their 69,958 values.  Sharing them keeps a loaded population about
    a fifth smaller (15.1 against 19.1 MiB).
    """

    def __missing__(self, text: str) -> str:
        self[text] = text
        return text


def flex_offer_to_row(offer: FlexOffer) -> list[Any]:
    """Convert a flex-offer into a positional row (see :data:`ROW_FIELDS`)."""
    schedule = offer.schedule
    return [
        offer.id,
        offer.prosumer_id,
        [[s.min_energy, s.max_energy, s.duration_slots] for s in offer.profile],
        offer.earliest_start_slot,
        offer.latest_start_slot,
        _format_time(offer.creation_time),
        _format_time(offer.acceptance_deadline),
        _format_time(offer.assignment_deadline),
        offer.direction.value,
        offer.state.value,
        None if schedule is None else [schedule.start_slot, list(schedule.energy_per_slice)],
        offer.region,
        offer.city,
        offer.district,
        offer.grid_node,
        offer.energy_type,
        offer.prosumer_type,
        offer.appliance_type,
        offer.price_per_kwh,
        offer.is_aggregate,
        list(offer.constituent_ids),
    ]


def flex_offer_from_row(
    row: list[Any], times: TimeCache | None = None, texts: TextCache | None = None
) -> FlexOffer:
    """Rebuild a flex-offer from :func:`flex_offer_to_row` output.

    Every field is coerced as :func:`flex_offer_from_dict` coerces it, and the
    model validates as always.  ``times`` shares parsed instants and
    ``texts`` the dimension strings across the rows of one load.
    """
    if type(row) is not list or len(row) != len(ROW_FIELDS):
        raise ValidationError(
            f"a flex-offer row is a JSON array of {len(ROW_FIELDS)} fields, "
            f"got {type(row).__name__} {row!r:.80}"
        )
    if times is None:
        times = TimeCache()
    if texts is None:
        texts = TextCache()
    (
        offer_id,
        prosumer_id,
        profile,
        earliest_start_slot,
        latest_start_slot,
        creation_time,
        acceptance_deadline,
        assignment_deadline,
        direction,
        state,
        schedule,
        region,
        city,
        district,
        grid_node,
        energy_type,
        prosumer_type,
        appliance_type,
        price_per_kwh,
        is_aggregate,
        constituent_ids,
    ) = row
    try:
        if schedule is not None:
            start_slot, energies = schedule
            schedule = Schedule(int(start_slot), tuple([float(v) for v in energies]))
        return FlexOffer(
            int(offer_id),
            int(prosumer_id),
            tuple([ProfileSlice(float(lo), float(hi), int(slots)) for lo, hi, slots in profile]),
            int(earliest_start_slot),
            int(latest_start_slot),
            times[creation_time],
            times[acceptance_deadline],
            times[assignment_deadline],
            _DIRECTIONS[direction],
            _STATES[state],
            schedule,
            texts[region],
            texts[city],
            texts[district],
            texts[grid_node],
            texts[energy_type],
            texts[prosumer_type],
            texts[appliance_type],
            float(price_per_kwh),
            bool(is_aggregate),
            tuple([int(i) for i in constituent_ids]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed flex-offer row: {exc!r}") from exc


def to_json(offers: Iterable[FlexOffer]) -> str:
    """Serialize flex-offers to a JSON array string."""
    return json.dumps([flex_offer_to_dict(offer) for offer in offers], indent=2)


def from_json(text: str) -> list[FlexOffer]:
    """Parse flex-offers from a JSON array string."""
    try:
        payloads = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid flex-offer JSON: {exc}") from exc
    if not isinstance(payloads, list):
        raise ValidationError("flex-offer JSON must contain a list")
    return [flex_offer_from_dict(payload) for payload in payloads]


# ----------------------------------------------------------------------
# CSV (one row per flex-offer; profile and schedule encoded as JSON cells)
# ----------------------------------------------------------------------
_CSV_FIELDS = [
    "id",
    "prosumer_id",
    "earliest_start_slot",
    "latest_start_slot",
    "creation_time",
    "acceptance_deadline",
    "assignment_deadline",
    "direction",
    "state",
    "region",
    "city",
    "district",
    "grid_node",
    "energy_type",
    "prosumer_type",
    "appliance_type",
    "price_per_kwh",
    "is_aggregate",
    "constituent_ids",
    "profile",
    "schedule",
]


def to_csv(offers: Sequence[FlexOffer]) -> str:
    """Serialize flex-offers to a CSV string (one row per offer)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for offer in offers:
        payload = flex_offer_to_dict(offer)
        row = {key: payload.get(key, "") for key in _CSV_FIELDS}
        row["profile"] = json.dumps(payload["profile"])
        row["schedule"] = json.dumps(payload.get("schedule")) if payload.get("schedule") else ""
        row["constituent_ids"] = json.dumps(payload["constituent_ids"])
        writer.writerow(row)
    return buffer.getvalue()


def from_csv(text: str) -> list[FlexOffer]:
    """Parse flex-offers from :func:`to_csv` output."""
    reader = csv.DictReader(io.StringIO(text))
    offers = []
    for row in reader:
        payload: dict[str, Any] = dict(row)
        payload["profile"] = json.loads(row["profile"])
        payload["schedule"] = json.loads(row["schedule"]) if row.get("schedule") else None
        payload["constituent_ids"] = json.loads(row["constituent_ids"]) if row.get("constituent_ids") else []
        payload["is_aggregate"] = row.get("is_aggregate", "").strip().lower() in {"true", "1"}
        offers.append(flex_offer_from_dict(payload))
    return offers
