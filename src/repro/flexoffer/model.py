"""The flex-offer data model.

A *flex-offer* (Figure 2 of the paper) captures a prosumer's intent or
capability to consume or produce energy with two kinds of flexibility:

* **time flexibility** — the appliance may start anywhere between an earliest
  and a latest start time, and
* **energy flexibility** — every profile slice specifies a minimum and a
  maximum amount of energy.

After the enterprise plans, the flex-offer additionally carries a
:class:`Schedule` fixing the start time and the per-slice energy amounts, and
its lifecycle :class:`FlexOfferState` records whether it was accepted,
assigned, rejected or executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ValidationError
from repro.timeseries.grid import TimeGrid

if TYPE_CHECKING:  # pragma: no cover - typing only.  The series helpers
    # import lazily at call time: TimeSeries is numpy-native, and the model
    # itself must stay importable in the no-numpy fallback configuration.
    from repro.timeseries.series import TimeSeries


class FlexOfferState(str, Enum):
    """Lifecycle of a flex-offer inside the MIRABEL enterprise."""

    #: Received from the prosumer, no decision taken yet.
    OFFERED = "offered"
    #: The enterprise promised (before the acceptance deadline) to use the offer.
    ACCEPTED = "accepted"
    #: A concrete schedule was sent back to the prosumer (before the assignment deadline).
    ASSIGNED = "assigned"
    #: The enterprise declined the offer.
    REJECTED = "rejected"
    #: The schedule was physically realized (metered).
    EXECUTED = "executed"


class Direction(str, Enum):
    """Whether the flex-offer consumes or produces energy."""

    CONSUMPTION = "consumption"
    PRODUCTION = "production"

    @property
    def sign(self) -> int:
        """+1 for consumption, -1 for production (grid-load convention)."""
        return 1 if self is Direction.CONSUMPTION else -1


@dataclass(frozen=True, slots=True)
class ProfileSlice:
    """One interval of a flex-offer's energy profile.

    Parameters
    ----------
    min_energy:
        Lower bound of the energy (kWh) required/offered during the slice.
    max_energy:
        Upper bound of the energy (kWh); must be >= ``min_energy``.
    duration_slots:
        How many grid slots the slice spans (defaults to one).
    """

    min_energy: float
    max_energy: float
    duration_slots: int = 1

    def __post_init__(self) -> None:
        if self.duration_slots < 1:
            raise ValidationError(f"slice duration must be >= 1 slot, got {self.duration_slots}")
        if self.min_energy < 0 or self.max_energy < 0:
            raise ValidationError("slice energy bounds must be non-negative")
        if self.max_energy + 1e-12 < self.min_energy:
            raise ValidationError(
                f"slice max energy {self.max_energy} is below min energy {self.min_energy}"
            )

    @property
    def energy_flexibility(self) -> float:
        """Width of the energy band of this slice (kWh)."""
        return self.max_energy - self.min_energy

    def scale(self, factor: float) -> "ProfileSlice":
        """Return a copy with both bounds multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValidationError("scale factor must be non-negative")
        return ProfileSlice(self.min_energy * factor, self.max_energy * factor, self.duration_slots)


@dataclass(frozen=True)
class Schedule:
    """The planning outcome for one flex-offer.

    ``start_slot`` fixes when the appliance starts; ``energy_per_slice`` fixes
    the energy amount of every profile slice (within its bounds).
    """

    start_slot: int
    energy_per_slice: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(value < 0 for value in self.energy_per_slice):
            raise ValidationError("scheduled energy amounts must be non-negative")

    @property
    def total_energy(self) -> float:
        """Total scheduled energy (kWh)."""
        return float(sum(self.energy_per_slice))


@dataclass(frozen=True)
class FlexOffer:
    """A flexible energy planning object (the paper's central concept).

    Time quantities are expressed as slot indices on a shared
    :class:`~repro.timeseries.grid.TimeGrid`; absolute deadlines are kept as
    ``datetime`` values because they are instants rather than slots.
    """

    id: int
    prosumer_id: int
    profile: tuple[ProfileSlice, ...]
    earliest_start_slot: int
    latest_start_slot: int
    creation_time: datetime
    acceptance_deadline: datetime
    assignment_deadline: datetime
    direction: Direction = Direction.CONSUMPTION
    state: FlexOfferState = FlexOfferState.OFFERED
    schedule: Schedule | None = None
    # Dimensional attributes used for OLAP filtering / grouping (Section 3).
    region: str = ""
    city: str = ""
    district: str = ""
    grid_node: str = ""
    energy_type: str = ""
    prosumer_type: str = ""
    appliance_type: str = ""
    price_per_kwh: float = 0.0
    # Aggregation provenance (Figure 10's red dashed links).
    is_aggregate: bool = False
    constituent_ids: tuple[int, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.profile:
            raise ValidationError(f"flex-offer {self.id} has an empty profile")
        if self.latest_start_slot < self.earliest_start_slot:
            raise ValidationError(
                f"flex-offer {self.id}: latest start slot {self.latest_start_slot} precedes "
                f"earliest start slot {self.earliest_start_slot}"
            )
        if self.assignment_deadline < self.acceptance_deadline:
            raise ValidationError(
                f"flex-offer {self.id}: assignment deadline precedes acceptance deadline"
            )
        if self.schedule is not None:
            self._validate_schedule(self.schedule)

    def _validate_schedule(self, schedule: Schedule) -> None:
        if not (self.earliest_start_slot <= schedule.start_slot <= self.latest_start_slot):
            raise ValidationError(
                f"flex-offer {self.id}: scheduled start {schedule.start_slot} outside "
                f"[{self.earliest_start_slot}, {self.latest_start_slot}]"
            )
        if len(schedule.energy_per_slice) != len(self.profile):
            raise ValidationError(
                f"flex-offer {self.id}: schedule has {len(schedule.energy_per_slice)} slices, "
                f"profile has {len(self.profile)}"
            )
        for index, (amount, piece) in enumerate(zip(schedule.energy_per_slice, self.profile)):
            if amount < piece.min_energy - 1e-9 or amount > piece.max_energy + 1e-9:
                raise ValidationError(
                    f"flex-offer {self.id}: scheduled energy {amount} of slice {index} outside "
                    f"[{piece.min_energy}, {piece.max_energy}]"
                )

    # ------------------------------------------------------------------
    # Derived temporal quantities
    # ------------------------------------------------------------------
    @property
    def profile_duration_slots(self) -> int:
        """Number of slots the energy profile spans."""
        return sum(piece.duration_slots for piece in self.profile)

    @property
    def time_flexibility_slots(self) -> int:
        """Start-time flexibility: how many slots the start can be shifted."""
        return self.latest_start_slot - self.earliest_start_slot

    @property
    def latest_end_slot(self) -> int:
        """Latest slot (exclusive) at which the profile can end."""
        return self.latest_start_slot + self.profile_duration_slots

    @property
    def earliest_end_slot(self) -> int:
        """Earliest slot (exclusive) at which the profile can end."""
        return self.earliest_start_slot + self.profile_duration_slots

    @property
    def span_slots(self) -> range:
        """Half-open range of slots the flex-offer can possibly occupy."""
        return range(self.earliest_start_slot, self.latest_end_slot)

    # ------------------------------------------------------------------
    # Derived energy quantities
    # ------------------------------------------------------------------
    @property
    def min_total_energy(self) -> float:
        """Sum of slice minimum energies (kWh)."""
        return float(sum(piece.min_energy for piece in self.profile))

    @property
    def max_total_energy(self) -> float:
        """Sum of slice maximum energies (kWh)."""
        return float(sum(piece.max_energy for piece in self.profile))

    @property
    def energy_flexibility(self) -> float:
        """Total width of the energy band across all slices (kWh)."""
        return self.max_total_energy - self.min_total_energy

    @property
    def scheduled_energy(self) -> float:
        """Total scheduled energy, or 0.0 when not scheduled."""
        return self.schedule.total_energy if self.schedule is not None else 0.0

    @property
    def signed_scheduled_energy(self) -> float:
        """Scheduled energy with the grid-load sign (+consumption / -production)."""
        return self.direction.sign * self.scheduled_energy

    # ------------------------------------------------------------------
    # Lifecycle transitions (functional: each returns a new object)
    # ------------------------------------------------------------------
    def accept(self) -> "FlexOffer":
        """Mark the flex-offer as accepted by the enterprise."""
        return replace(self, state=FlexOfferState.ACCEPTED)

    def reject(self) -> "FlexOffer":
        """Mark the flex-offer as rejected; any schedule is discarded."""
        return replace(self, state=FlexOfferState.REJECTED, schedule=None)

    def assign(self, schedule: Schedule) -> "FlexOffer":
        """Attach ``schedule`` and mark the flex-offer as assigned.

        Raises :class:`~repro.errors.ValidationError` if the schedule violates
        the offered flexibility.
        """
        self._validate_schedule(schedule)
        return replace(self, state=FlexOfferState.ASSIGNED, schedule=schedule)

    def execute(self) -> "FlexOffer":
        """Mark an assigned flex-offer as physically executed."""
        if self.schedule is None:
            raise ValidationError(f"flex-offer {self.id} cannot execute without a schedule")
        return replace(self, state=FlexOfferState.EXECUTED)

    def with_default_schedule(self) -> "FlexOffer":
        """Assign the earliest-start / minimum-energy schedule (a common baseline)."""
        schedule = Schedule(
            start_slot=self.earliest_start_slot,
            energy_per_slice=tuple(piece.min_energy for piece in self.profile),
        )
        return self.assign(schedule)

    # ------------------------------------------------------------------
    # Conversion to time series
    # ------------------------------------------------------------------
    def _slice_start_offsets(self) -> list[int]:
        offsets = []
        offset = 0
        for piece in self.profile:
            offsets.append(offset)
            offset += piece.duration_slots
        return offsets

    def scheduled_series(self, grid: TimeGrid) -> TimeSeries:
        """Return the scheduled energy as a per-slot time series (kWh per slot).

        Slices spanning several slots spread their energy evenly.  The series
        is empty when the flex-offer has no schedule.
        """
        from repro.timeseries.series import TimeSeries

        if self.schedule is None:
            return TimeSeries.zeros(grid, self.earliest_start_slot, 0, name=f"fo-{self.id}", unit="kWh")
        pairs: list[tuple[int, float]] = []
        start = self.schedule.start_slot
        for offset, piece, amount in zip(
            self._slice_start_offsets(), self.profile, self.schedule.energy_per_slice
        ):
            share = amount / piece.duration_slots
            for extra in range(piece.duration_slots):
                pairs.append((start + offset + extra, self.direction.sign * share))
        series = TimeSeries.from_pairs(grid, pairs, name=f"fo-{self.id}", unit="kWh")
        return series

    def bound_series(self, grid: TimeGrid, start_slot: int | None = None) -> tuple[TimeSeries, TimeSeries]:
        """Return ``(min, max)`` per-slot energy bound series for a given start.

        ``start_slot`` defaults to the scheduled start when available and the
        earliest start otherwise.
        """
        from repro.timeseries.series import TimeSeries

        if start_slot is None:
            start_slot = (
                self.schedule.start_slot if self.schedule is not None else self.earliest_start_slot
            )
        lo_pairs: list[tuple[int, float]] = []
        hi_pairs: list[tuple[int, float]] = []
        for offset, piece in zip(self._slice_start_offsets(), self.profile):
            for extra in range(piece.duration_slots):
                slot = start_slot + offset + extra
                lo_pairs.append((slot, piece.min_energy / piece.duration_slots))
                hi_pairs.append((slot, piece.max_energy / piece.duration_slots))
        low = TimeSeries.from_pairs(grid, lo_pairs, name=f"fo-{self.id}-min", unit="kWh")
        high = TimeSeries.from_pairs(grid, hi_pairs, name=f"fo-{self.id}-max", unit="kWh")
        return low, high


def total_scheduled_series(
    flex_offers: Iterable[FlexOffer], grid: TimeGrid, name: str = "scheduled"
) -> TimeSeries:
    """Sum the scheduled series of many flex-offers into one plan series."""
    from repro.timeseries.series import TimeSeries

    total: TimeSeries | None = None
    for offer in flex_offers:
        series = offer.scheduled_series(grid)
        if len(series) == 0:
            continue
        total = series if total is None else total + series
    if total is None:
        return TimeSeries.zeros(grid, 0, 0, name=name, unit="kWh")
    total.name = name
    return total


def count_by_state(flex_offers: Sequence[FlexOffer]) -> dict[FlexOfferState, int]:
    """Return the number of flex-offers in each lifecycle state."""
    counts = {state: 0 for state in FlexOfferState}
    for offer in flex_offers:
        counts[offer.state] += 1
    return counts
