"""Tests for flex-offer aggregation, disaggregation and their metrics."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.aggregation.aggregate import AGGREGATE_INPUTS, aggregate, aggregate_group
from repro.aggregation.disaggregate import disaggregate, disaggregation_error
from repro.aggregation.grouping import group_key, group_offers, reduction_ratio
from repro.aggregation.metrics import evaluate
from repro.aggregation.parameters import AggregationParameters
from repro.errors import AggregationError, DisaggregationError
from repro.flexoffer.model import Direction, FlexOffer, FlexOfferState, Schedule
from tests.conftest import make_offer


class TestParameters:
    def test_defaults_are_valid(self):
        parameters = AggregationParameters()
        assert parameters.est_tolerance_slots >= 1

    def test_invalid_tolerances_rejected(self):
        with pytest.raises(AggregationError):
            AggregationParameters(est_tolerance_slots=0)
        with pytest.raises(AggregationError):
            AggregationParameters(time_flexibility_tolerance_slots=0)
        with pytest.raises(AggregationError):
            AggregationParameters(max_group_size=-1)


class TestGrouping:
    def test_similar_offers_share_a_group(self):
        parameters = AggregationParameters(est_tolerance_slots=4, time_flexibility_tolerance_slots=4)
        a = make_offer(offer_id=1, earliest_start=40, time_flexibility=5)
        b = make_offer(offer_id=2, earliest_start=41, time_flexibility=6)
        assert group_key(a, parameters) == group_key(b, parameters)

    def test_distant_offers_are_separated(self):
        parameters = AggregationParameters(est_tolerance_slots=4)
        a = make_offer(offer_id=1, earliest_start=40)
        b = make_offer(offer_id=2, earliest_start=60)
        assert group_key(a, parameters) != group_key(b, parameters)

    def test_directions_kept_apart_by_default(self):
        parameters = AggregationParameters()
        a = make_offer(offer_id=1)
        b = make_offer(offer_id=2, direction=Direction.PRODUCTION)
        assert group_key(a, parameters) != group_key(b, parameters)

    def test_directions_merged_when_disabled(self):
        parameters = AggregationParameters(separate_directions=False)
        a = make_offer(offer_id=1)
        b = make_offer(offer_id=2, direction=Direction.PRODUCTION)
        assert group_key(a, parameters)[:2] == group_key(b, parameters)[:2]

    def test_groups_cover_all_offers(self, offer_batch):
        groups = group_offers(offer_batch)
        flattened = [offer.id for group in groups for offer in group]
        assert sorted(flattened) == sorted(offer.id for offer in offer_batch)

    def test_max_group_size_chunks(self):
        offers = [make_offer(offer_id=i, earliest_start=40, time_flexibility=4) for i in range(1, 11)]
        groups = group_offers(offers, AggregationParameters(max_group_size=3))
        assert all(len(group) <= 3 for group in groups)

    def test_existing_aggregates_stay_alone(self):
        from dataclasses import replace

        aggregate_offer = replace(make_offer(offer_id=99), is_aggregate=True, constituent_ids=(1, 2))
        groups = group_offers([aggregate_offer, make_offer(offer_id=1)])
        assert [aggregate_offer] in groups

    def test_reduction_ratio(self):
        assert reduction_ratio(100, 25) == 4.0
        assert reduction_ratio(0, 0) == 0.0
        assert reduction_ratio(10, 0) == 10.0


class TestAggregateGroup:
    def test_empty_group_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_group([], 1)

    def test_mixed_directions_rejected(self):
        group = [make_offer(offer_id=1), make_offer(offer_id=2, direction=Direction.PRODUCTION)]
        with pytest.raises(AggregationError):
            aggregate_group(group, 10)

    def test_singleton_gets_aggregate_identity(self):
        offer = make_offer()
        combined = aggregate_group([offer], 10)
        assert combined.id == 10
        assert combined.is_aggregate
        assert combined.constituent_ids == (offer.id,)
        assert combined.prosumer_id == offer.prosumer_id
        assert combined.min_total_energy == pytest.approx(offer.min_total_energy)
        assert combined.max_total_energy == pytest.approx(offer.max_total_energy)
        assert combined.time_flexibility_slots == offer.time_flexibility_slots
        assert combined.earliest_start_slot == offer.earliest_start_slot

    def test_batch_aggregate_still_passes_singleton_groups_through(self):
        # A lone offer in its own grid cell stays a raw offer in aggregate().
        offer = make_offer(offer_id=5)
        result = aggregate([offer])
        assert result.offers == [offer]
        assert result.aggregates == []

    def test_energy_bounds_are_summed(self):
        group = [make_offer(offer_id=1, earliest_start=40), make_offer(offer_id=2, earliest_start=40)]
        combined = aggregate_group(group, 10)
        assert combined.min_total_energy == pytest.approx(sum(o.min_total_energy for o in group))
        assert combined.max_total_energy == pytest.approx(sum(o.max_total_energy for o in group))

    def test_time_flexibility_is_group_minimum(self):
        group = [
            make_offer(offer_id=1, time_flexibility=4),
            make_offer(offer_id=2, time_flexibility=10),
        ]
        combined = aggregate_group(group, 10)
        assert combined.time_flexibility_slots == 4

    def test_anchor_is_minimum_earliest_start(self):
        group = [
            make_offer(offer_id=1, earliest_start=42),
            make_offer(offer_id=2, earliest_start=40),
        ]
        combined = aggregate_group(group, 10)
        assert combined.earliest_start_slot == 40

    def test_profile_length_covers_latest_offset(self):
        group = [
            make_offer(offer_id=1, earliest_start=40),
            make_offer(offer_id=2, earliest_start=44),
        ]
        combined = aggregate_group(group, 10)
        assert len(combined.profile) == (44 - 40) + 3

    def test_provenance_recorded(self):
        group = [make_offer(offer_id=1, earliest_start=40), make_offer(offer_id=2, earliest_start=40)]
        combined = aggregate_group(group, 77)
        assert combined.id == 77
        assert combined.is_aggregate
        assert combined.constituent_ids == (1, 2)

    def test_mixed_attributes_become_mixed(self):
        group = [
            make_offer(offer_id=1, earliest_start=40, region="Capital"),
            make_offer(offer_id=2, earliest_start=40, region="Zealand"),
        ]
        assert aggregate_group(group, 10).region == "mixed"

    def test_uniform_attributes_are_kept(self):
        group = [
            make_offer(offer_id=1, earliest_start=40),
            make_offer(offer_id=2, earliest_start=40),
        ]
        assert aggregate_group(group, 10).region == "Capital"

    @pytest.mark.parametrize("size", (1, 3))
    def test_fields_outside_the_aggregate_inputs_leave_the_aggregate_equal(self, size):
        """The live engine keeps a chunk's output on this (AGGREGATE_INPUTS)."""
        group = [
            make_offer(offer_id=index, earliest_start=40 + index, price_per_kwh=0.1 * index)
            for index in range(1, size + 1)
        ]
        member = group[-1]
        perturbations = {
            "state": FlexOfferState.REJECTED,
            "schedule": Schedule(
                member.earliest_start_slot, tuple(piece.min_energy for piece in member.profile)
            ),
            "is_aggregate": True,
            "constituent_ids": (99, 100),
        }
        # A new FlexOffer field must be classed: an aggregate input, or here.
        outside = {field.name for field in fields(FlexOffer)} - set(AGGREGATE_INPUTS) - {"id"}
        assert outside == set(perturbations)
        expected = aggregate_group(group, 10)
        for name, value in perturbations.items():
            perturbed = group[:-1] + [replace(member, **{name: value})]
            assert aggregate_group(perturbed, 10) == expected, name


class TestAggregateMany:
    def test_reduces_count(self, scenario):
        result = aggregate(scenario.flex_offers, AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8))
        assert len(result.offers) < len(scenario.flex_offers)

    def test_energy_is_preserved(self, scenario):
        result = aggregate(scenario.flex_offers)
        assert sum(o.max_total_energy for o in result.offers) == pytest.approx(
            sum(o.max_total_energy for o in scenario.flex_offers), rel=1e-9
        )

    def test_constituent_lookup(self, scenario):
        result = aggregate(scenario.flex_offers)
        for combined in result.aggregates:
            constituents = result.constituents_of(combined.id)
            assert {offer.id for offer in constituents} == set(combined.constituent_ids)

    def test_aggregate_ids_do_not_clash(self, scenario):
        result = aggregate(scenario.flex_offers, id_offset=10_000)
        original_ids = {offer.id for offer in scenario.flex_offers}
        for combined in result.aggregates:
            assert combined.id not in original_ids

    def test_larger_tolerance_aggregates_more(self, scenario):
        tight = aggregate(scenario.flex_offers, AggregationParameters(est_tolerance_slots=1, time_flexibility_tolerance_slots=1))
        loose = aggregate(scenario.flex_offers, AggregationParameters(est_tolerance_slots=16, time_flexibility_tolerance_slots=16))
        assert len(loose.offers) <= len(tight.offers)


class TestDisaggregate:
    def _aggregate_pair(self):
        group = [
            make_offer(offer_id=1, earliest_start=40, time_flexibility=6),
            make_offer(offer_id=2, earliest_start=42, time_flexibility=8),
        ]
        combined = aggregate_group(group, 100)
        return group, combined

    def test_requires_schedule(self):
        group, combined = self._aggregate_pair()
        with pytest.raises(DisaggregationError):
            disaggregate(combined, group)

    def test_constituents_must_match_provenance(self):
        group, combined = self._aggregate_pair()
        scheduled = combined.with_default_schedule()
        with pytest.raises(DisaggregationError):
            disaggregate(scheduled, [make_offer(offer_id=9)])

    def test_start_shift_propagates(self):
        group, combined = self._aggregate_pair()
        shift = 3
        schedule = Schedule(
            start_slot=combined.earliest_start_slot + shift,
            energy_per_slice=tuple(p.min_energy for p in combined.profile),
        )
        assigned = disaggregate(combined, group, schedule)
        for original, result in zip(group, assigned):
            assert result.schedule.start_slot == original.earliest_start_slot + shift
            assert result.state is FlexOfferState.ASSIGNED

    def test_schedules_respect_constituent_bounds(self):
        group, combined = self._aggregate_pair()
        schedule = Schedule(
            start_slot=combined.earliest_start_slot,
            energy_per_slice=tuple(p.max_energy for p in combined.profile),
        )
        assigned = disaggregate(combined, group, schedule)
        for offer in assigned:
            for piece, amount in zip(offer.profile, offer.schedule.energy_per_slice):
                assert piece.min_energy - 1e-9 <= amount <= piece.max_energy + 1e-9

    def test_minimum_schedule_distributes_minimums(self):
        group, combined = self._aggregate_pair()
        scheduled = combined.with_default_schedule()
        assigned = disaggregate(scheduled, group)
        total = sum(offer.scheduled_energy for offer in assigned)
        assert total == pytest.approx(sum(o.min_total_energy for o in group), rel=1e-6)

    def test_disaggregation_error_is_small(self):
        group, combined = self._aggregate_pair()
        schedule = Schedule(
            start_slot=combined.earliest_start_slot + 1,
            energy_per_slice=tuple((p.min_energy + p.max_energy) / 2 for p in combined.profile),
        )
        scheduled = combined.assign(schedule)
        assigned = disaggregate(scheduled, group)
        assert disaggregation_error(scheduled, assigned) < 0.2 * scheduled.scheduled_energy


class TestMetrics:
    def test_reduction_and_flexibility_loss(self, scenario):
        parameters = AggregationParameters(est_tolerance_slots=8, time_flexibility_tolerance_slots=8)
        result = aggregate(scenario.flex_offers, parameters)
        metrics = evaluate(scenario.flex_offers, result)
        assert metrics.original_count == len(scenario.flex_offers)
        assert metrics.aggregated_count == len(result.offers)
        assert metrics.reduction_ratio >= 1.0
        assert 0.0 <= metrics.time_flexibility_loss_ratio <= 1.0
        assert metrics.aggregated_energy == pytest.approx(metrics.original_energy, rel=1e-9)

    def test_no_aggregation_means_no_loss(self, offer_batch):
        parameters = AggregationParameters(est_tolerance_slots=1, time_flexibility_tolerance_slots=1, max_group_size=1)
        result = aggregate(offer_batch, parameters)
        metrics = evaluate(offer_batch, result)
        assert metrics.aggregated_count == metrics.original_count
        assert metrics.time_flexibility_loss_ratio == 0.0


class TestKernel:
    """The unit-slice kernel ≡ the seed loops, bit for bit.

    ``profile_bounds_scalar`` (the seed code) is the independent reference:
    both sides are compared on raw IEEE-754 bits, since float equality
    hides signed zeros.
    """

    def _adversarial_groups(self):
        """Groups built to stress the kernel: empty-band slices, singletons,
        multi-slot slices before and after unit slices, ragged profile
        lengths, int-valued bounds and signed zeros."""
        from dataclasses import replace as dc_replace

        from repro.flexoffer.model import ProfileSlice

        zero_band = dc_replace(
            make_offer(offer_id=1, earliest_start=40, time_flexibility=6),
            profile=(ProfileSlice(0.0, 0.0), ProfileSlice(0.0, 2.5)),
        )
        misaligned = dc_replace(
            make_offer(offer_id=2, earliest_start=41, time_flexibility=7),
            profile=(ProfileSlice(1.0, 2.0, 3), ProfileSlice(0.7, 0.9)),
        )
        long_tail = dc_replace(
            make_offer(offer_id=3, earliest_start=40, time_flexibility=9),
            profile=tuple(
                ProfileSlice(0.1 * i, 0.1 * i + 1e-9, 1 + i % 4) for i in range(12)
            ),
        )
        plain = make_offer(offer_id=4, earliest_start=42, time_flexibility=8)
        integral = dc_replace(
            make_offer(offer_id=5, earliest_start=43, time_flexibility=5),
            profile=(ProfileSlice(3, 7), ProfileSlice(0, 2), ProfileSlice(1, 1)),
        )
        signed_zero = dc_replace(
            make_offer(offer_id=6, earliest_start=40, time_flexibility=5),
            profile=(ProfileSlice(-0.0, -0.0), ProfileSlice(-0.0, 0.0)),
        )
        unit_then_wide = dc_replace(
            make_offer(offer_id=7, earliest_start=44, time_flexibility=6),
            profile=(ProfileSlice(0.7, 0.9), ProfileSlice(1, 3, 4), ProfileSlice(0.3, 0.4)),
        )
        two_slot = dc_replace(
            make_offer(offer_id=8, earliest_start=41, time_flexibility=5),
            profile=(ProfileSlice(0.4, 0.6), ProfileSlice(2, 5, 2)),
        )
        return [
            [zero_band],
            [signed_zero],
            [signed_zero, dc_replace(signed_zero, id=16)],
            [plain, misaligned],
            [plain, unit_then_wide],
            [two_slot, plain],
            [integral, plain, signed_zero],
            [integral, unit_then_wide, signed_zero],
            [zero_band, misaligned, long_tail, plain],
            [make_offer(offer_id=i, earliest_start=40 + i % 3, time_flexibility=5)
             for i in range(10, 60)],
        ]

    def test_numpy_and_scalar_are_bit_identical(self):
        import struct
        from unittest import mock

        from tests.conftest import seed_loop_bounds

        for group in self._adversarial_groups():
            actual = aggregate_group(group, 77)
            with mock.patch("repro.aggregation.aggregate.profile_bounds", seed_loop_bounds):
                expected = aggregate_group(group, 77)
            assert actual == expected
            assert len(actual.profile) == len(expected.profile)
            for ours, theirs in zip(actual.profile, expected.profile):
                assert struct.pack("<dd", ours.min_energy, ours.max_energy) == struct.pack(
                    "<dd", theirs.min_energy, theirs.max_energy
                )

    def test_profile_bounds_property_bit_identity(self):
        import struct

        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        from dataclasses import replace as dc_replace

        from repro.aggregation import kernel
        from repro.flexoffer.model import ProfileSlice
        from tests.conftest import seed_loop_bounds

        energies = st.one_of(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.integers(min_value=0, max_value=50),
            st.sampled_from((-0.0, 0.0)),
        )
        slices = st.tuples(energies, energies, st.integers(min_value=1, max_value=4))

        def bits(values):
            return [struct.pack("<d", value) for value in values]

        @given(
            profiles=st.lists(st.lists(slices, min_size=1, max_size=6), min_size=1, max_size=8),
            starts=st.lists(st.integers(min_value=40, max_value=47), min_size=8, max_size=8),
            unit_only=st.booleans(),
        )
        # Two-offer groups whose only wide slice spans exactly 2 slots, wide
        # slice first and last: the narrowest input on which a kernel that
        # took 2-slot slices for unit slices would still be wrong.
        @example(
            profiles=[[(1.0, 2.0, 2), (0.5, 0.7, 1)], [(0.3, 0.4, 1)]],
            starts=[40, 41, 40, 40, 40, 40, 40, 40],
            unit_only=False,
        )
        @example(
            profiles=[[(0.5, 0.7, 1), (1.0, 2.0, 2)], [(0.3, 0.4, 1)]],
            starts=[40, 41, 40, 40, 40, 40, 40, 40],
            unit_only=False,
        )
        @settings(deadline=None, max_examples=100)
        def check(profiles, starts, unit_only):
            group = []
            for index, pieces in enumerate(profiles):
                profile = tuple(
                    ProfileSlice(min(low, high), max(low, high), 1 if unit_only else duration)
                    for low, high, duration in pieces
                )
                group.append(
                    dc_replace(
                        make_offer(
                            offer_id=index + 1,
                            earliest_start=starts[index],
                            time_flexibility=5,
                        ),
                        profile=profile,
                    )
                )
            anchor = min(offer.earliest_start_slot for offer in group)
            offsets = [offer.earliest_start_slot - anchor for offer in group]
            reference_min, reference_max = seed_loop_bounds(group, offsets)
            kernel_min, kernel_max = kernel.profile_bounds(group, offsets)
            assert bits(kernel_min) == bits(reference_min)
            assert bits(kernel_max) == bits(reference_max)

        check()
