"""Tests for the record / dataset model."""

import pytest

from repro.datagen.records import (
    CompanyRecord,
    Dataset,
    ProductRecord,
    SecurityRecord,
)


def make_company(record_id, source, entity, name="Acme"):
    return CompanyRecord(
        record_id=record_id, source=source, entity_id=entity, name=name
    )


class TestRecords:
    def test_company_attributes(self):
        record = CompanyRecord(
            record_id="r1", source="S1", entity_id="e1",
            name="Acme", city="Zurich", country_code="CHE",
        )
        attrs = record.attributes()
        assert attrs["name"] == "Acme"
        assert attrs["city"] == "Zurich"
        assert "record_id" not in attrs

    def test_security_identifier_values(self):
        record = SecurityRecord(
            record_id="s1", source="S1", entity_id="e1",
            name="Acme stock", isin="US1", cusip=None, sedol="SED", valor=None,
        )
        ids = record.identifier_values()
        assert ids == {"isin": "US1", "cusip": None, "sedol": "SED", "valor": None}

    def test_product_attributes(self):
        record = ProductRecord(
            record_id="p1", source="shop1", entity_id="e1", title="USB Drive 64GB",
        )
        assert record.attributes()["title"] == "USB Drive 64GB"

    def test_copy_with(self):
        record = make_company("r1", "S1", "e1")
        clone = record.copy_with(name="Acme Corp")
        assert clone.name == "Acme Corp"
        assert record.name == "Acme"
        assert clone.record_id == record.record_id

    def test_to_dict_round_trip_fields(self):
        record = make_company("r1", "S1", "e1")
        data = record.to_dict()
        assert data["record_id"] == "r1"
        assert data["source"] == "S1"
        assert "name" in data


class TestDataset:
    def build(self):
        return Dataset("test", [
            make_company("r1", "S1", "e1"),
            make_company("r2", "S2", "e1"),
            make_company("r3", "S1", "e2"),
            make_company("r4", "S3", "e1"),
        ])

    def test_len_and_iteration(self):
        dataset = self.build()
        assert len(dataset) == 4
        assert {record.record_id for record in dataset} == {"r1", "r2", "r3", "r4"}

    def test_duplicate_record_id_rejected(self):
        with pytest.raises(ValueError):
            Dataset("dup", [make_company("r1", "S1", "e1"), make_company("r1", "S2", "e1")])

    def test_add_record_rejects_duplicates(self):
        dataset = self.build()
        with pytest.raises(ValueError):
            dataset.add_record(make_company("r1", "S4", "e9"))

    def test_record_lookup(self):
        dataset = self.build()
        assert dataset.record("r3").entity_id == "e2"
        assert "r3" in dataset
        assert "missing" not in dataset

    def test_sources(self):
        assert self.build().sources == ["S1", "S2", "S3"]

    def test_records_by_source(self):
        by_source = self.build().records_by_source()
        assert {r.record_id for r in by_source["S1"]} == {"r1", "r3"}

    def test_entity_groups(self):
        groups = self.build().entity_groups()
        assert groups["e1"] == ["r1", "r2", "r4"]
        assert groups["e2"] == ["r3"]

    def test_true_matches(self):
        matches = self.build().true_matches()
        assert matches == {("r1", "r2"), ("r1", "r4"), ("r2", "r4")}

    def test_true_matches_are_canonical_pairs(self):
        # Ids are added out of order; every pair still comes sorted.
        dataset = Dataset("unordered", [
            make_company("r9", "S1", "e1"),
            make_company("r10", "S2", "e1"),
            make_company("r2", "S3", "e1"),
            make_company("r5", "S1", "e2"),
            make_company("r1", "S2", "e2"),
        ])
        assert dataset.true_matches() == {
            ("r10", "r2"), ("r10", "r9"), ("r2", "r9"), ("r1", "r5"),
        }

    def test_true_matches_count_every_pair_of_each_entity(self):
        dataset = Dataset("sizes", [
            make_company(f"r{i}", f"S{i}", f"e{i % 3}") for i in range(10)
        ])
        sizes = [len(ids) for ids in dataset.entity_groups().values()]
        assert len(dataset.true_matches()) == sum(n * (n - 1) // 2 for n in sizes)

    def test_is_true_match(self):
        dataset = self.build()
        assert dataset.is_true_match("r1", "r2")
        assert not dataset.is_true_match("r1", "r3")

    def test_entity_of(self):
        assert self.build().entity_of("r4") == "e1"

    def test_subset_by_entities(self):
        subset = self.build().subset_by_entities(["e2"])
        assert len(subset) == 1
        assert subset.record("r3").entity_id == "e2"

    def test_subset_by_records(self):
        subset = self.build().subset_by_records(["r1", "r2"], name="small")
        assert subset.name == "small"
        assert len(subset) == 2
        assert subset.true_matches() == {("r1", "r2")}
