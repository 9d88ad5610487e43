"""Dirty-component recleanup: untouched components provably skip clean-up.

The per-component memo must (a) invoke the clean-up strategy only for
components whose edge set changed — asserted by *counting the actual
clean-up calls* through a monkeypatched seam — and (b) still produce output
identical to re-cleaning the whole graph from scratch.
"""

import pytest

import repro.incremental.matcher as incremental_matcher
from repro.core.cleanup import gralmatch_cleanup
from repro.incremental import IncrementalMatcher
from repro.registry import CLEANUPS, RegistryError


@pytest.fixture
def counting_cleanup(monkeypatch):
    """Route every per-component clean-up call through a counter."""
    calls = []
    original = incremental_matcher._component_cleanup

    def counted(cleanup_fn, edges, config):
        calls.append(list(edges))
        return original(cleanup_fn, edges, config)

    monkeypatch.setattr(incremental_matcher, "_component_cleanup", counted)
    return calls


def halves(records):
    half = len(records) // 2
    return records[:half], records[half:]


class TestCleanupCallCounting:
    def test_second_ingest_recleans_only_dirty_components(
        self, golden_setup, pipeline_factory, counting_cleanup
    ):
        companies, _ = golden_setup
        first, second = halves(companies.records)
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())

        matcher.ingest(first)
        first_report = matcher.last_report
        calls_first = len(counting_cleanup)
        assert calls_first == first_report.components_recleaned
        assert first_report.components_reused == 0

        counting_cleanup.clear()
        matcher.ingest(second)
        report = matcher.last_report
        # The proof: the strategy ran exactly once per dirty component and
        # not at all for spliced (memo-hit) components.
        assert len(counting_cleanup) == report.components_recleaned
        assert report.components_reused > 0
        assert (
            report.components_recleaned + report.components_reused
            == report.components_total
        )
        assert report.components_recleaned < report.components_total

    def test_empty_delta_recleans_nothing(
        self, golden_setup, pipeline_factory, counting_cleanup
    ):
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(companies.records)
        counting_cleanup.clear()
        report = matcher.ingest([])
        assert len(counting_cleanup) == 0
        assert report.components_recleaned == 0
        assert report.components_reused == report.components_total

    def test_spliced_output_matches_full_recleanup(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # The memoised, spliced clean-up must equal running the strategy on
        # the complete kept graph (which is what the batch pipeline does).
        companies, _ = golden_setup
        first, second = halves(companies.records)
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(first)
        matcher.ingest(second)

        kept = [
            edge
            for edge in (
                decision.pair
                for decision in matcher.decisions()
                if decision.is_match
            )
            if edge not in matcher.state.pre_cleanup_removed
        ]
        full_components, full_report = gralmatch_cleanup(
            kept, matcher.state.cleanup_config
        )
        incremental_groups = [
            group for group in matcher.groups.groups if len(group) > 1
        ]
        full_non_singletons = [
            frozenset(component)
            for component in full_components
            if len(component) > 1
        ]
        assert incremental_groups == full_non_singletons
        assert matcher.state.cleanup_report.removed_edges == full_report.removed_edges
        assert (
            matcher.state.cleanup_report.mincut_removals
            == full_report.mincut_removals
        )
        assert (
            matcher.state.cleanup_report.betweenness_removals
            == full_report.betweenness_removals
        )


def marked_gralmatch(edges, config):
    return gralmatch_cleanup(edges, config)


marked_gralmatch.component_local = True


def unmarked_gralmatch(edges, config):
    return gralmatch_cleanup(edges, config)


class TestStrategyValidation:
    @pytest.mark.parametrize(
        "strategy, replacement, error",
        [
            pytest.param(
                "unmarked_gralmatch", unmarked_gralmatch, ValueError,
                id="unmarked_gralmatch-ValueError",
            ),
            pytest.param("no_such_strategy", None, RegistryError, id="no_such_strategy-RegistryError"),
        ],
    )
    def test_a_strategy_ingest_cannot_clean_per_component_is_refused(
        self, golden_setup, pipeline_factory, tmp_path, strategy, replacement, error
    ):
        # Ingest re-cleans only the components a batch touches, so it
        # refuses a strategy without the component_local marker, and one
        # that is not registered, before it changes anything: the state
        # keeps its records and still saves.  The state is created and fed
        # under a marked strategy of that name, which is then unregistered
        # (and replaced by an unmarked one).
        companies, _ = golden_setup
        CLEANUPS.register(strategy)(marked_gralmatch)
        try:
            matcher = IncrementalMatcher.from_pipeline(
                pipeline_factory(cleanup_strategy=strategy)
            )
            matcher.ingest(companies.records[:50])
        finally:
            CLEANUPS.unregister(strategy)
        if replacement is not None:
            CLEANUPS.register(strategy)(replacement)
        try:
            with pytest.raises(error, match=strategy):
                matcher.ingest(companies.records[50:70])
        finally:
            if replacement is not None:
                CLEANUPS.unregister(strategy)
        assert len(matcher.state.records) == len(matcher.dataset) == 50
        assert matcher.last_report.num_records == 50
        state_dir = matcher.save(tmp_path / "state")
        assert len(IncrementalMatcher.load(state_dir).state.records) == 50

    def test_an_empty_batch_is_refused_too(self, pipeline_factory):
        # The strategy is checked before anything else, so even a batch
        # with nothing to add does not count as an ingest.
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(cleanup_strategy="no_such_strategy")
        )
        with pytest.raises(RegistryError, match="no_such_strategy"):
            matcher.ingest([])
        assert matcher.state.num_ingests == 0
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(cleanup_strategy="adaptive"))
        matcher.ingest([])
        assert matcher.state.num_ingests == 1
