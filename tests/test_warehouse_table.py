"""Tests for the columnar Table primitive."""

from __future__ import annotations

import pytest

from repro.errors import UnknownColumnError, WarehouseError
from repro.warehouse.table import Table


@pytest.fixture
def people() -> Table:
    table = Table("people", ["name", "city", "age"])
    table.extend(
        [
            {"name": "ana", "city": "Aalborg", "age": 30},
            {"name": "bo", "city": "Aarhus", "age": 25},
            {"name": "cia", "city": "Aalborg", "age": 40},
            {"name": "dan", "city": "Odense", "age": 35},
        ]
    )
    return table


def _numbers() -> Table:
    """Int, float and bool columns, as the star schema's fact tables hold them."""
    table = Table("facts", ["offer_id", "energy", "flag"])
    # ``i * 7 % 20`` permutes 0..19, so the energies arrive out of order and
    # span one- and two-digit values (a text sort would misplace 10.5).
    table.extend(
        {"offer_id": i, "energy": (i * 7 % 20) * 0.75, "flag": i % 2 == 0} for i in range(20)
    )
    return table


class TestBasics:
    def test_length(self, people):
        assert len(people) == 4

    def test_duplicate_columns_rejected(self):
        with pytest.raises(WarehouseError):
            Table("bad", ["a", "a"])

    def test_append_missing_column_rejected(self, people):
        with pytest.raises(UnknownColumnError):
            people.append({"name": "eve"})

    def test_column_access(self, people):
        assert people.column("city")[0] == "Aalborg"

    def test_unknown_column_raises(self, people):
        with pytest.raises(UnknownColumnError):
            people.column("height")

    def test_row_access(self, people):
        assert people.row(1)["name"] == "bo"

    def test_row_out_of_range(self, people):
        with pytest.raises(WarehouseError):
            people.row(10)

    def test_rows_iteration(self, people):
        assert [row["name"] for row in people.rows()] == ["ana", "bo", "cia", "dan"]

    def test_empty_table_length(self):
        assert len(Table("empty", ["a"])) == 0


class TestFiltering:
    def test_where_equality(self, people):
        assert len(people.where(city="Aalborg")) == 2
        # Python equality holds across numeric types: 7.0 matches 7, 0 matches False.
        numbers = _numbers()
        assert [row["offer_id"] for row in numbers.where(offer_id=7.0).rows()] == [7]
        assert len(numbers.where(flag=0)) == 10

    def test_where_unknown_column(self, people):
        with pytest.raises(UnknownColumnError):
            people.where(country="DK")

    def test_where_in(self, people):
        assert len(people.where_in("city", ["Aalborg", "Odense"])) == 3

    def test_where_between(self, people):
        assert len(people.where_between("age", 30, 40)) == 3
        assert len(_numbers().where_between("energy", 1.0, 3.0)) == 3

    def test_filter_predicate(self, people):
        assert len(people.filter(lambda row: row["age"] > 30)) == 2

    def test_filter_returns_new_table(self, people):
        filtered = people.where(city="Aalborg")
        assert len(people) == 4
        assert filtered is not people


class TestProjectionAndSort:
    def test_select(self, people):
        projected = people.select(["name"])
        assert projected.columns == ("name",)
        assert len(projected) == 4

    def test_select_unknown_column(self, people):
        with pytest.raises(UnknownColumnError):
            people.select(["height"])

    def test_sort_by(self, people):
        assert people.sort_by("age").column("age") == [25, 30, 35, 40]
        assert _numbers().sort_by("energy").column("energy") == [i * 0.75 for i in range(20)]

    def test_sort_by_descending(self, people):
        assert people.sort_by("age", reverse=True).column("age")[0] == 40


class TestGroupByAndJoin:
    def test_group_by_count(self, people):
        grouped = people.group_by(["city"], {"count": len})
        counts = dict(zip(grouped.column("city"), grouped.column("count")))
        assert counts == {"Aalborg": 2, "Aarhus": 1, "Odense": 1}

    def test_group_by_custom_aggregation(self, people):
        grouped = people.group_by(["city"], {"max_age": lambda rows: max(r["age"] for r in rows)})
        ages = dict(zip(grouped.column("city"), grouped.column("max_age")))
        assert ages["Aalborg"] == 40

    def test_group_by_unknown_key(self, people):
        with pytest.raises(UnknownColumnError):
            people.group_by(["country"], {"count": len})

    def test_join(self, people):
        cities = Table("cities", ["city", "region"])
        cities.extend(
            [
                {"city": "Aalborg", "region": "North"},
                {"city": "Aarhus", "region": "Mid"},
            ]
        )
        joined = people.join(cities, on="city")
        assert "region" in joined.columns
        by_name = {row["name"]: row["region"] for row in joined.rows()}
        assert by_name["ana"] == "North"
        assert by_name["dan"] is None  # unmatched rows keep None

    def test_join_with_prefix(self, people):
        cities = Table("cities", ["city", "region"])
        cities.append({"city": "Aalborg", "region": "North"})
        joined = people.join(cities, on="city", prefix="geo_")
        assert "geo_region" in joined.columns


class TestIndexesAndMutation:
    def test_lookup_without_index_scans(self, people):
        assert people.lookup("city", "Aalborg") == [0, 2]

    def test_lookup_with_index_matches_scan(self, people):
        scan = people.lookup("city", "Aalborg")
        people.create_index("city")
        assert people.lookup("city", "Aalborg") == scan
        assert people.lookup("city", "Nowhere") == []

    def test_create_index_unknown_column(self, people):
        with pytest.raises(UnknownColumnError):
            people.create_index("height")

    def test_index_maintained_on_append(self, people):
        people.create_index("city")
        people.lookup("city", "Aalborg")  # force the lazy build
        people.append({"name": "eve", "city": "Aalborg", "age": 22})
        assert people.lookup("city", "Aalborg") == [0, 2, 4]
        # A bulk load replaces every column, None cells included, and the
        # index rebuilds from the new contents.
        people.install_columns(
            {"name": ["fay", "gus"], "city": ["Odense", "Aalborg"], "age": [None, 50]}
        )
        assert people.lookup("city", "Aalborg") == [1]
        assert people.column("age") == [None, 50]

    def test_where_uses_index_and_agrees_with_scan(self, people):
        expected = [row["name"] for row in people.where(city="Aalborg", age=40).rows()]
        people.create_index("city")
        actual = [row["name"] for row in people.where(city="Aalborg", age=40).rows()]
        assert actual == expected == ["cia"]

    def test_delete_where(self, people):
        assert people.delete_where("city", "Aalborg") == 2
        assert len(people) == 2
        assert list(people.values("name")) == ["bo", "dan"]
        assert people.delete_where("city", "Aalborg") == 0

    def test_delete_tombstones_keep_positions_stable(self, people):
        people.create_index("city")
        people.lookup("city", "Odense")
        people.delete_where("name", "ana")
        # The delete is a tombstone: physical positions do not shift until a
        # compaction, so index hits stay valid without a rebuild.
        assert people.lookup("city", "Odense") == [3]
        assert people.tombstone_count == 1
        assert [row["name"] for row in people.rows()] == ["bo", "cia", "dan"]
        # Compaction physically removes the dead row; positions shift now.
        assert people.compact() == 1
        assert people.tombstone_count == 0
        assert people.lookup("city", "Odense") == [2]

    def test_deleted_rows_skipped_everywhere(self, people):
        people.create_index("city")
        people.delete_where("city", "Aalborg")
        assert len(people.where(city="Aalborg")) == 0
        assert [row["name"] for row in people.sort_by("age").rows()] == ["bo", "dan"]
        assert list(people.select(["name"]).values("name")) == ["bo", "dan"]
        assert "ana" not in people.to_csv()
        with pytest.raises(WarehouseError):
            people.row(0)  # tombstoned physical position

    def test_auto_compaction_amortizes_deletes(self):
        table = Table("facts", ["offer_id", "value"])
        table.create_index("offer_id")
        table.extend({"offer_id": i, "value": i * 2} for i in range(200))
        threshold = max(Table.COMPACT_MIN_TOMBSTONES, 200 * Table.COMPACT_FRACTION)
        for offer_id in range(150):
            table.delete_where("offer_id", offer_id)
            assert table.tombstone_count < threshold + 1
        assert len(table) == 50
        assert list(table.values("offer_id")) == list(range(150, 200))

    def test_set_value_updates_cell_and_index(self, people):
        people.create_index("city")
        people.lookup("city", "Aalborg")  # force the lazy build
        people.set_value("city", 0, "Esbjerg")
        assert people.lookup("city", "Aalborg") == [2]
        assert people.lookup("city", "Esbjerg") == [0]

    def test_set_value_validates(self, people):
        with pytest.raises(UnknownColumnError):
            people.set_value("height", 0, 1)
        with pytest.raises(WarehouseError):
            people.set_value("city", 99, "x")

    def test_indexed_columns_listing(self, people):
        assert people.indexed_columns == ()
        people.create_index("city")
        assert people.indexed_columns == ("city",)


class TestCsv:
    def test_roundtrip(self, people):
        rebuilt = Table.from_csv("people", people.to_csv())
        assert len(rebuilt) == 4
        assert rebuilt.column("name") == people.column("name")

    def test_from_empty_csv_raises(self):
        with pytest.raises(WarehouseError):
            Table.from_csv("x", "")

