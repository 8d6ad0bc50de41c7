"""Tests for flex-offer serialization (dict / row / JSON / CSV round trips)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.flexoffer.model import Direction, FlexOfferState
from repro.flexoffer.serialization import (
    ROW_FIELDS,
    flex_offer_from_dict,
    flex_offer_to_dict,
    flex_offer_to_row,
    from_csv,
    from_json,
    to_csv,
    to_json,
)
from tests.conftest import make_offer


class TestDictRoundTrip:
    def test_roundtrip_plain_offer(self, sample_offer):
        rebuilt = flex_offer_from_dict(flex_offer_to_dict(sample_offer))
        assert rebuilt == sample_offer

    def test_roundtrip_scheduled_offer(self, scheduled_offer):
        rebuilt = flex_offer_from_dict(flex_offer_to_dict(scheduled_offer))
        assert rebuilt == scheduled_offer
        assert rebuilt.schedule == scheduled_offer.schedule

    def test_roundtrip_production_offer(self):
        offer = make_offer(direction=Direction.PRODUCTION)
        rebuilt = flex_offer_from_dict(flex_offer_to_dict(offer))
        assert rebuilt.direction is Direction.PRODUCTION

    def test_roundtrip_aggregate_provenance(self):
        from dataclasses import replace

        offer = replace(make_offer(), is_aggregate=True, constituent_ids=(5, 6, 7))
        rebuilt = flex_offer_from_dict(flex_offer_to_dict(offer))
        assert rebuilt.is_aggregate
        assert rebuilt.constituent_ids == (5, 6, 7)

    def test_roundtrip_preserves_state(self):
        offer = make_offer().accept()
        rebuilt = flex_offer_from_dict(flex_offer_to_dict(offer))
        assert rebuilt.state is FlexOfferState.ACCEPTED

    def test_malformed_payload_raises(self):
        with pytest.raises(ValidationError):
            flex_offer_from_dict({"id": 1})

    def test_payload_is_json_serializable(self, scheduled_offer):
        import json

        assert json.loads(json.dumps(flex_offer_to_dict(scheduled_offer)))["id"] == scheduled_offer.id


class TestRowLayout:
    def test_row_fields_name_the_dict_codec_values(self, scheduled_offer):
        """Each row position holds the value the dict codec writes under that
        name; the profile and schedule take their positional shapes."""
        payload = flex_offer_to_dict(scheduled_offer)
        row = dict(zip(ROW_FIELDS, flex_offer_to_row(scheduled_offer), strict=True))
        assert row.pop("profile") == [
            [piece["min_energy"], piece["max_energy"], piece["duration_slots"]]
            for piece in payload.pop("profile")
        ]
        schedule = payload.pop("schedule")
        assert row.pop("schedule") == [schedule["start_slot"], schedule["energy_per_slice"]]
        assert row == payload


class TestJsonRoundTrip:
    def test_roundtrip_many(self, offer_batch):
        rebuilt = from_json(to_json(offer_batch))
        assert rebuilt == offer_batch

    def test_invalid_json_raises(self):
        with pytest.raises(ValidationError):
            from_json("not json {")

    def test_non_list_json_raises(self):
        with pytest.raises(ValidationError):
            from_json('{"id": 1}')

    def test_empty_list(self):
        assert from_json(to_json([])) == []


class TestCsvRoundTrip:
    def test_roundtrip_many(self, offer_batch):
        rebuilt = from_csv(to_csv(offer_batch))
        assert rebuilt == offer_batch

    def test_header_contains_key_columns(self, offer_batch):
        header = to_csv(offer_batch).splitlines()[0]
        for column in ("id", "prosumer_id", "profile", "schedule", "state"):
            assert column in header

    def test_row_count_matches(self, offer_batch):
        text = to_csv(offer_batch)
        assert len(text.strip().splitlines()) == len(offer_batch) + 1
