"""Shared fixtures for the test suite.

The numpy-native layers (datagen, time series) are imported lazily inside
their fixtures: the no-numpy CI leg runs the pure-Python fallback suites with
numpy uninstalled, and any test that genuinely needs a generated scenario or
a ``TimeSeries`` skips there instead of failing collection.
"""

from __future__ import annotations

import os
from datetime import timedelta
from typing import TYPE_CHECKING

import pytest
from hypothesis import settings as hypothesis_settings

from repro import obs
from repro.aggregation.kernel import profile_bounds_scalar
from repro.flexoffer.model import Direction, FlexOffer, ProfileSlice, Schedule
from repro.timeseries.grid import TimeGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.scenarios import Scenario
    from repro.timeseries.series import TimeSeries

# Property-test example budgets, selected via HYPOTHESIS_PROFILE: "dev" keeps
# the local suite fast, "ci" is the default pull-request budget, "extended" is
# the scheduled CI job's raised budget for the equivalence contract.
hypothesis_settings.register_profile("dev", max_examples=25, deadline=None)
hypothesis_settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis_settings.register_profile("extended", max_examples=300, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def grid() -> TimeGrid:
    """The default 15-minute grid anchored at 2012-02-01."""
    return TimeGrid()


@pytest.fixture(scope="session")
def hour_grid() -> TimeGrid:
    """An hourly grid sharing the default origin."""
    return TimeGrid(resolution=timedelta(hours=1))


def make_offer(
    offer_id: int = 1,
    earliest_start: int = 40,
    time_flexibility: int = 8,
    profile=((1.0, 2.0), (1.5, 3.0), (0.5, 0.5)),
    direction: Direction = Direction.CONSUMPTION,
    schedule: Schedule | None = None,
    **attributes,
) -> FlexOffer:
    """Build a small, valid flex-offer for tests."""
    grid = TimeGrid()
    start_time = grid.to_datetime(earliest_start)
    return FlexOffer(
        id=offer_id,
        prosumer_id=attributes.pop("prosumer_id", 7),
        profile=tuple(ProfileSlice(low, high) for low, high in profile),
        earliest_start_slot=earliest_start,
        latest_start_slot=earliest_start + time_flexibility,
        creation_time=start_time - timedelta(hours=4),
        acceptance_deadline=start_time - timedelta(hours=2),
        assignment_deadline=start_time - timedelta(hours=1),
        direction=direction,
        schedule=schedule,
        region=attributes.pop("region", "Capital"),
        city=attributes.pop("city", "Copenhagen"),
        district=attributes.pop("district", "Copenhagen Centrum"),
        grid_node=attributes.pop("grid_node", "F Copenhagen Centrum"),
        energy_type=attributes.pop("energy_type", "grid"),
        prosumer_type=attributes.pop("prosumer_type", "household"),
        appliance_type=attributes.pop("appliance_type", "electric_vehicle"),
        **attributes,
    )


def seed_loop_bounds(group, offsets) -> tuple[list[float], list[float]]:
    """``profile_bounds`` computed by the seed loops, at the seed's length.

    The independent reference the kernel tests and the differential
    harness's batch oracle patch in for
    ``repro.aggregation.aggregate.profile_bounds``.
    """
    length = max(
        offset + offer.profile_duration_slots for offset, offer in zip(offsets, group)
    )
    return profile_bounds_scalar(group, offsets, length)


@pytest.fixture
def sample_offer() -> FlexOffer:
    """One plain flex-offer."""
    return make_offer()


@pytest.fixture
def scheduled_offer() -> FlexOffer:
    """A flex-offer with a valid schedule attached."""
    offer = make_offer(offer_id=2)
    return offer.assign(Schedule(start_slot=42, energy_per_slice=(1.5, 2.0, 0.5)))


@pytest.fixture
def offer_batch() -> list[FlexOffer]:
    """A small, diverse batch of flex-offers spanning several attributes."""
    offers = []
    regions = ["Capital", "Zealand", "North Jutland"]
    appliances = ["electric_vehicle", "heat_pump", "dishwasher"]
    for index in range(12):
        offer = make_offer(
            offer_id=index + 1,
            earliest_start=30 + 4 * index,
            time_flexibility=4 + (index % 5),
            region=regions[index % 3],
            city=["Copenhagen", "Roskilde", "Aalborg"][index % 3],
            appliance_type=appliances[index % 3],
            prosumer_type=["household", "commercial"][index % 2],
            prosumer_id=index % 4 + 1,
        )
        if index % 3 == 0:
            offer = offer.assign(
                Schedule(
                    start_slot=offer.earliest_start_slot + 1,
                    energy_per_slice=tuple(piece.min_energy for piece in offer.profile),
                )
            )
        elif index % 3 == 1:
            offer = offer.accept()
        else:
            offer = offer.reject()
        offers.append(offer)
    return offers


@pytest.fixture
def global_obs():
    """The process-global registry, guaranteed disabled + zeroed afterwards."""
    obs.reset()
    try:
        yield obs.get_registry()
    finally:
        obs.disable()
        obs.reset()


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    """A small but complete synthetic scenario (shared across the session)."""
    scenarios = pytest.importorskip(
        "repro.datagen.scenarios", reason="scenario generation needs numpy", exc_type=ImportError
    )
    return scenarios.generate_scenario(
        scenarios.ScenarioConfig(prosumer_count=60, offers_per_prosumer=1.4, seed=5)
    )


@pytest.fixture(scope="session")
def large_scenario() -> Scenario:
    """A larger scenario for integration-style tests."""
    scenarios = pytest.importorskip(
        "repro.datagen.scenarios", reason="scenario generation needs numpy", exc_type=ImportError
    )
    return scenarios.generate_scenario(scenarios.ScenarioConfig(prosumer_count=150, seed=9))


@pytest.fixture
def ramp_series(grid: TimeGrid) -> TimeSeries:
    """A simple increasing series 0..23 over 24 slots."""
    series = pytest.importorskip(
        "repro.timeseries.series", reason="TimeSeries needs numpy", exc_type=ImportError
    )
    return series.TimeSeries(grid, 0, list(range(24)), name="ramp", unit="kWh")
