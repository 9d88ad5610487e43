"""Tests for the blocking strategies."""

import pytest

from repro.blocking import (
    CombinedBlocking,
    IdOverlapBlocking,
    IssuerMatchBlocking,
    TokenOverlapBlocking,
)
from repro.blocking.base import dedupe_pairs, recall_of_blocking
from repro.datagen import GenerationConfig, figure2_dataset, generate_benchmark


@pytest.fixture(scope="module")
def blocking_benchmark():
    return generate_benchmark(
        GenerationConfig(num_entities=60, num_sources=4, seed=41,
                         acquisition_rate=0.04, merger_rate=0.04)
    )


class TestIdOverlapBlocking:
    def test_figure2_securities(self):
        _, securities = figure2_dataset()
        pairs = IdOverlapBlocking().candidate_pairs(securities)
        keys = {pair.key for pair in pairs}
        # Records with the same ISIN must be candidates (Crowdstrike listings).
        assert ("#S12", "#S31") in keys
        assert ("#S22", "#S40") in keys
        # The merger contamination creates a *false* candidate.
        assert ("#S30", "#S42") in keys
        # Different ISINs, no candidate from this blocking.
        assert ("#S12", "#S22") not in keys

    def test_figure2_companies_via_security_isins(self):
        companies, _ = figure2_dataset()
        pairs = IdOverlapBlocking().candidate_pairs(companies)
        keys = {pair.key for pair in pairs}
        assert ("#12", "#31") in keys
        assert ("#13", "#23") in keys

    def test_cross_source_only_flag(self):
        _, securities = figure2_dataset()
        unrestricted = IdOverlapBlocking(cross_source_only=False).candidate_pairs(securities)
        restricted = IdOverlapBlocking(cross_source_only=True).candidate_pairs(securities)
        assert len(unrestricted) >= len(restricted)

    def test_pairs_are_tagged(self):
        _, securities = figure2_dataset()
        pairs = IdOverlapBlocking().candidate_pairs(securities)
        assert all(pair.blocking == "id_overlap" for pair in pairs)

    def test_recall_on_generated_securities(self, blocking_benchmark):
        securities = blocking_benchmark.securities
        pairs = IdOverlapBlocking().candidate_pairs(securities)
        recall = recall_of_blocking(pairs, securities)
        # Most securities keep overlapping identifiers; NoIdOverlaps and
        # acquisitions remove some, so recall is high but not 1.
        assert recall > 0.6


class TestTokenOverlapBlocking:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenOverlapBlocking(top_n=0)
        with pytest.raises(ValueError):
            TokenOverlapBlocking(max_token_frequency=0.0)

    @pytest.mark.parametrize("value", [2.5, -1, 0, "2", True, None])
    def test_min_token_length_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError) as excinfo:
            TokenOverlapBlocking(min_token_length=value)
        assert str(excinfo.value) == (
            f"min_token_length must be an integer >= 1, got {value!r}"
        )

    def test_min_token_length_accepts_positive_integers(self):
        assert TokenOverlapBlocking(min_token_length=1).min_token_length == 1

    def test_finds_crowdstrike_name_variants(self):
        companies, _ = figure2_dataset()
        pairs = TokenOverlapBlocking(top_n=5).candidate_pairs(companies)
        keys = {pair.key for pair in pairs}
        assert ("#12", "#31") in keys or ("#31", "#40") in keys

    def test_cross_source_only(self):
        companies, _ = figure2_dataset()
        pairs = TokenOverlapBlocking(top_n=5).candidate_pairs(companies)
        for pair in pairs:
            left = companies.record(pair.left_id)
            right = companies.record(pair.right_id)
            assert left.source != right.source

    def test_top_n_bounds_candidates(self, blocking_benchmark):
        companies = blocking_benchmark.companies
        small = TokenOverlapBlocking(top_n=1).candidate_pairs(companies)
        large = TokenOverlapBlocking(top_n=5).candidate_pairs(companies)
        assert len(small) <= len(large)
        assert len(large) <= len(companies) * 5

    def test_tokenless_records_do_not_dilute_the_idf(self):
        # Records without a single token can never become candidates, so
        # they must not count in the IDF denominator or the frequency
        # cutoff: padding a dataset with empty-name records must leave the
        # candidates untouched.  (Counting them raises the cutoff, which
        # can re-admit quadratic-blowup tokens like "inc".)
        from repro.datagen.records import CompanyRecord, Dataset

        names = [
            "Crowdstrike Holdings", "Crowdstreet Holdings",
            "Nimbus Holdings Analytics", "Quantum Forge Labs",
        ]
        records = [
            CompanyRecord(record_id=f"#{i}", source=f"S{i % 2}",
                          entity_id=f"E{i}", name=name)
            for i, name in enumerate(names)
        ]
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=0.5)
        baseline = blocking.candidate_pairs(Dataset("base", records))

        padded_records = records + [
            CompanyRecord(record_id=f"#pad{i}", source="S0",
                          entity_id=f"Epad{i}", name="")
            for i in range(4)
        ]
        padded = blocking.candidate_pairs(Dataset("padded", padded_records))
        assert padded == baseline
        # "holdings" appears in 3 of the 4 tokenised records — above the
        # 0.5 cutoff, so it stays excluded.  Counting the four token-less
        # pad records would lift the cutoff to 4 and re-admit it, creating
        # a spurious Crowdstrike–Crowdstreet candidate.
        shared = blocking.prepare(Dataset("padded", padded_records))
        assert shared.num_tokenised == 4
        assert not shared.survives[shared.token_of["holdings"]]

    def test_improves_recall_over_id_blocking(self, blocking_benchmark):
        companies = blocking_benchmark.companies
        id_recall = recall_of_blocking(
            IdOverlapBlocking().candidate_pairs(companies), companies
        )
        combined_recall = recall_of_blocking(
            CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=5)]
            ).candidate_pairs(companies),
            companies,
        )
        assert combined_recall >= id_recall


class TestIssuerMatchBlocking:
    def test_requires_groups(self):
        with pytest.raises(ValueError):
            IssuerMatchBlocking()

    def test_from_ground_truth_issuers(self):
        companies, securities = figure2_dataset()
        blocking = IssuerMatchBlocking.from_ground_truth(companies)
        pairs = blocking.candidate_pairs(securities)
        keys = {pair.key for pair in pairs}
        # The two Crowdstrike listings with different ISINs become candidates
        # through their matched issuers — the whole point of this blocking.
        assert ("#S12", "#S22") in keys or ("#S12", "#S40") in keys

    def test_from_company_groups(self):
        companies, securities = figure2_dataset()
        groups = list(companies.entity_groups().values())
        blocking = IssuerMatchBlocking.from_company_groups(groups)
        assert blocking.candidate_pairs(securities)

    def test_unknown_issuers_ignored(self):
        _, securities = figure2_dataset()
        blocking = IssuerMatchBlocking(issuer_groups=[["unknown-company"]])
        assert blocking.candidate_pairs(securities) == []


class TestCombinedBlocking:
    def test_requires_blockings(self):
        with pytest.raises(ValueError):
            CombinedBlocking([])

    def test_union_deduplicates(self):
        companies, _ = figure2_dataset()
        combined = CombinedBlocking([IdOverlapBlocking(), IdOverlapBlocking()])
        single = IdOverlapBlocking().candidate_pairs(companies)
        assert len(combined.candidate_pairs(companies)) == len(single)

    def test_first_blocking_wins_tag(self):
        companies, _ = figure2_dataset()
        combined = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=5)])
        pairs = combined.candidate_pairs(companies)
        id_keys = {p.key for p in IdOverlapBlocking().candidate_pairs(companies)}
        for pair in pairs:
            if pair.key in id_keys:
                assert pair.blocking == "id_overlap"

    def test_pairs_by_blocking_counts(self, blocking_benchmark):
        companies = blocking_benchmark.companies
        combined = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
        counts = combined.pairs_by_blocking(companies)
        assert set(counts) <= {"id_overlap", "token_overlap"}
        assert sum(counts.values()) == len(combined.candidate_pairs(companies))

    def test_pairs_by_blocking_accepts_precomputed_pairs(self, blocking_benchmark):
        # Counting from already-computed candidates must not re-run the
        # member blockings — stats reporting should not double blocking cost.
        companies = blocking_benchmark.companies
        calls = {"count": 0}

        class CountingIdOverlap(IdOverlapBlocking):
            def prepare(self, dataset):
                calls["count"] += 1
                return super().prepare(dataset)

        combined = CombinedBlocking([CountingIdOverlap(), TokenOverlapBlocking(top_n=3)])
        pairs = combined.candidate_pairs(companies)
        assert calls["count"] == 1
        counts = combined.pairs_by_blocking(pairs=pairs)
        assert calls["count"] == 1
        assert counts == combined.pairs_by_blocking(companies)

    def test_pairs_by_blocking_requires_dataset_or_pairs(self):
        combined = CombinedBlocking([IdOverlapBlocking()])
        with pytest.raises(ValueError, match="dataset or pairs"):
            combined.pairs_by_blocking()


class TestCrossSourceOnlyValidation:
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    @pytest.mark.parametrize(
        "make",
        [
            IdOverlapBlocking,
            lambda **kw: IssuerMatchBlocking(issuer_groups=[["#1"]], **kw),
        ],
        ids=["id_overlap", "issuer_match"],
    )
    def test_non_bool_is_rejected_by_name(self, make, value):
        with pytest.raises(ValueError) as excinfo:
            make(cross_source_only=value)
        assert str(excinfo.value) == (
            f"cross_source_only must be a bool, got {value!r}"
        )

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("id_overlap", {"cross_source_only": "false"}, "cross_source_only"),
            ("token_overlap", {"min_token_length": "2"}, "min_token_length"),
        ],
    )
    def test_spec_parameters_fail_by_name(self, name, params, message):
        from repro.specs import ComponentSpec, PipelineSpec

        spec = PipelineSpec(blocking=(ComponentSpec(name, params),))
        with pytest.raises(ValueError, match=f"^{message} must be"):
            spec.build_blocking()


class TestHelpers:
    def test_dedupe_pairs(self):
        from repro.blocking.base import CandidatePair

        pairs = [
            CandidatePair("a", "b", "x"),
            CandidatePair("a", "b", "y"),
            CandidatePair("b", "c", "x"),
        ]
        unique = dedupe_pairs(pairs)
        assert len(unique) == 2
        assert unique[0].blocking == "x"

    def test_recall_of_blocking_empty_truth(self):
        from repro.datagen.records import CompanyRecord, Dataset

        dataset = Dataset("one", [CompanyRecord(record_id="r", source="S1", entity_id="e", name="A")])
        assert recall_of_blocking([], dataset) == 1.0
