"""Tests for dataset statistics, CSV persistence, the WDC generator and the
Figure 2 example dataset."""

import pytest

from repro.datagen import (
    dataset_statistics,
    figure2_dataset,
    generate_benchmark,
    generate_wdc_products,
)
from repro.datagen.config import GenerationConfig
from repro.datagen.io import read_dataset_csv, write_dataset_csv
from repro.datagen.records import CompanyRecord, Dataset, ProductRecord, SecurityRecord
from repro.datagen.wdc import WdcConfig, WdcProductsGenerator


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_benchmark(GenerationConfig(num_entities=40, seed=3))


class TestStatistics:
    def test_companies_statistics(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.companies)
        assert stats.num_records == len(small_benchmark.companies)
        assert stats.num_entities == len(small_benchmark.companies.entity_groups())
        assert stats.num_matches == len(small_benchmark.companies.true_matches())
        assert stats.pct_records_with_description is not None
        assert 0 <= stats.pct_records_with_description <= 100

    def test_avg_matches_consistent(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.companies)
        assert stats.avg_matches_per_entity == pytest.approx(
            stats.num_matches / stats.num_entities
        )

    def test_securities_have_no_description_share(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.securities)
        assert stats.pct_records_with_description is None

    def test_as_row_keys(self, small_benchmark):
        row = dataset_statistics(small_benchmark.companies).as_row()
        assert "# of Records" in row
        assert "# of Matches" in row


class TestCsvRoundTrip:
    def test_companies_round_trip(self, small_benchmark, tmp_path):
        path = write_dataset_csv(small_benchmark.companies, tmp_path / "companies.csv")
        loaded = read_dataset_csv(path)
        assert len(loaded) == len(small_benchmark.companies)
        original = small_benchmark.companies.records[0]
        restored = loaded.record(original.record_id)
        assert restored.name == original.name
        assert restored.entity_id == original.entity_id
        assert restored.security_isins == original.security_isins

    def test_securities_round_trip(self, small_benchmark, tmp_path):
        path = write_dataset_csv(small_benchmark.securities, tmp_path / "securities.csv")
        loaded = read_dataset_csv(path, name="sec")
        assert loaded.name == "sec"
        assert loaded.true_matches() == small_benchmark.securities.true_matches()

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset_csv(Dataset("empty", []), tmp_path / "empty.csv")

    def test_every_record_family_round_trips_exactly(self, tmp_path):
        # Optional fields left None read back as None, string fields left
        # empty read back as "", and an empty tuple field reads back empty;
        # in one file or in a mixed one.
        families = [
            [
                CompanyRecord("c1", "S0", "E1", name="Acme Inc", city="Zurich",
                              security_isins=("CH0001", "CH0002")),
                CompanyRecord("c2", "S1", "E1"),
            ],
            [
                SecurityRecord("s1", "S0", "E2", name="Acme share", issuer_name="Acme Inc",
                               issuer_record_id="c1", isin="CH0001", ticker="ACM"),
                SecurityRecord("s2", "S1", "E2", security_type=""),
            ],
            [
                ProductRecord("p1", "S0", "E3", title="Phone X", brand="Nova", price="9.99"),
                ProductRecord("p2", "S2", "E3"),
            ],
        ]
        for index, records in enumerate(families):
            path = write_dataset_csv(Dataset("family", records), tmp_path / f"f{index}.csv")
            assert read_dataset_csv(path).records == records
        mixed = [record for records in families for record in records]
        path = write_dataset_csv(Dataset("mixed", mixed), tmp_path / "mixed.csv")
        assert read_dataset_csv(path).records == mixed

    def test_an_unknown_record_type_is_a_named_error(self, tmp_path):
        path = write_dataset_csv(
            Dataset("one", [CompanyRecord("c1", "S0", "E1", name="Acme")]), tmp_path / "one.csv"
        )
        path.write_text(path.read_text().replace("company,", "vendor,", 1))
        with pytest.raises(ValueError, match=r"unknown record_type 'vendor' in .*one\.csv"):
            read_dataset_csv(path)


class TestWdcGenerator:
    def test_generation_counts(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=50, seed=1))
        # corner cases add 80% more entities
        assert len(dataset.entity_groups()) <= 90
        assert len(dataset) >= 50

    def test_heterogeneous_group_sizes(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=100, seed=2))
        sizes = {len(ids) for ids in dataset.entity_groups().values()}
        assert len(sizes) > 1

    def test_corner_cases_share_tokens(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=80, corner_case_rate=1.0, seed=3))
        titles = [record.title for record in dataset]
        # With 100% corner cases many titles repeat most of their tokens.
        token_sets = [frozenset(title.lower().split()) for title in titles]
        overlapping = 0
        for i, tokens in enumerate(token_sets[:100]):
            for other in token_sets[i + 1:100]:
                union = tokens | other
                if union and len(tokens & other) / len(union) > 0.6:
                    overlapping += 1
                    break
        assert overlapping > 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WdcConfig(num_entities=0)
        with pytest.raises(ValueError):
            WdcConfig(corner_case_rate=2.0)

    def test_deterministic(self):
        first = WdcProductsGenerator(WdcConfig(num_entities=30, seed=9)).generate()
        second = WdcProductsGenerator(WdcConfig(num_entities=30, seed=9)).generate()
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


class TestFigure2Example:
    def test_structure(self):
        companies, securities = figure2_dataset()
        assert len(companies) == 15
        assert len(securities) == 13
        assert "crowdstrike" in companies.entity_groups()
        assert "crowdstreet" in companies.entity_groups()

    def test_crowdstrike_group(self):
        companies, _ = figure2_dataset()
        assert set(companies.entity_groups()["crowdstrike"]) == {"#12", "#22", "#31", "#40"}

    def test_acquisition_is_match_merger_is_not(self):
        companies, _ = figure2_dataset()
        # Herotel + Hearst records form one group (acquisition).
        assert companies.is_true_match("#11", "#33")
        # lastminute.com and Travix are not matches (merger).
        assert not companies.is_true_match("#30", "#42")

    def test_security_identifier_contamination_present(self):
        _, securities = figure2_dataset()
        herotel_security = securities.record("#S21")
        hearst_security = securities.record("#S33")
        assert herotel_security.isin == hearst_security.isin
        assert herotel_security.entity_id == hearst_security.entity_id
        lastminute_security = securities.record("#S30")
        travix_security = securities.record("#S42")
        assert lastminute_security.isin == travix_security.isin
        assert lastminute_security.entity_id != travix_security.entity_id
