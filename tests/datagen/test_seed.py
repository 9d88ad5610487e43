"""Tests for the procedural seed-company corpus."""

import pytest

from repro.datagen.seed import iter_seed_companies


class TestSeedGeneration:
    def test_count(self):
        assert len(list(iter_seed_companies(50, seed=1))) == 50

    def test_zero(self):
        assert list(iter_seed_companies(0)) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(iter_seed_companies(-1))

    def test_invalid_description_probability(self):
        with pytest.raises(ValueError):
            list(iter_seed_companies(1, description_probability=1.5))

    def test_deterministic(self):
        first = list(iter_seed_companies(30, seed=7))
        second = list(iter_seed_companies(30, seed=7))
        assert first == second

    def test_different_seeds_differ(self):
        assert list(iter_seed_companies(30, seed=1)) != list(iter_seed_companies(30, seed=2))

    def test_names_are_unique(self):
        companies = list(iter_seed_companies(500, seed=3))
        names = [company.name.lower() for company in companies]
        assert len(names) == len(set(names))

    def test_entity_ids_are_unique_and_ordered(self):
        companies = list(iter_seed_companies(10, seed=0))
        assert [c.entity_id for c in companies] == [f"E{i:06d}" for i in range(10)]

    def test_attributes_populated(self):
        company = list(iter_seed_companies(1, seed=5))[0]
        assert company.name
        assert company.city
        assert company.region
        assert len(company.country_code) == 3
        assert company.industry

    def test_description_probability_controls_share(self):
        all_descriptions = list(iter_seed_companies(200, seed=1, description_probability=1.0))
        none_descriptions = list(iter_seed_companies(200, seed=1, description_probability=0.0))
        assert all(company.description for company in all_descriptions)
        assert not any(company.description for company in none_descriptions)

    def test_description_share_roughly_matches_probability(self):
        companies = list(iter_seed_companies(1000, seed=2, description_probability=0.32))
        share = sum(1 for c in companies if c.description) / len(companies)
        assert 0.22 <= share <= 0.42

    def test_iterator_is_lazy(self):
        iterator = iter_seed_companies(1_000_000, seed=0)
        first = next(iterator)
        assert first.entity_id == "E000000"

    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self):
        assert list(iter_seed_companies(5, seed=4)) == list(iter_seed_companies(20, seed=4))[:5]

    def test_as_attributes(self):
        company = list(iter_seed_companies(1, seed=5))[0]
        attrs = company.as_attributes()
        assert attrs["name"] == company.name
        assert set(attrs) == {
            "name", "city", "region", "country_code", "description", "industry",
        }
