"""Registry cross-checks: every registered component honours its protocol.

Components are auto-discovered through the registries, so a new blocking,
matcher or clean-up is covered the day it registers.
"""

from repro.blocking.base import Blocking
from repro.registry import BLOCKINGS, CLEANUPS, MATCHERS


def matcher_classes():
    """Every concrete matcher class reachable from the registered factories."""
    for name in MATCHERS.names():
        MATCHERS.get(name)  # force the factory's module (and classes) to load
    from repro.matching.base import PairwiseMatcher

    found = []
    stack = list(PairwiseMatcher.__subclasses__())
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestRegisteredBlockings:
    def test_every_blocking_is_two_phase_or_composite(self):
        # The engine, candidate_pairs and ingest all prepare each partition()
        # part and score it with candidates_for, so a blocking either
        # implements both phases or partitions into blockings that do.
        assert BLOCKINGS.names()  # auto-discovery must find something
        for name in BLOCKINGS.names():
            cls = BLOCKINGS.get(name)
            assert issubclass(cls, Blocking), name
            composite = cls.partition is not Blocking.partition
            two_phase = (
                cls.prepare is not Blocking.prepare
                and cls.candidates_for is not Blocking.candidates_for
            )
            assert composite or two_phase, (
                f"{name}: overrides neither partition() nor both prepare() "
                "and candidates_for()"
            )


class TestMatchers:
    def test_two_phase_methods_are_overridden_together(self):
        # score_profiled consumes what prepare_profiles builds, so a matcher
        # overrides both (its own profile store) or neither (the base-class
        # id -> record adapter) — never just one side of the pair.
        from repro.matching.base import PairwiseMatcher

        overriding = []
        for cls in matcher_classes():
            prepared = cls.prepare_profiles is not PairwiseMatcher.prepare_profiles
            scored = cls.score_profiled is not PairwiseMatcher.score_profiled
            assert prepared == scored, (
                f"{cls.__name__} overrides only one of prepare_profiles() / "
                "score_profiled()"
            )
            overriding.append(prepared)
        assert any(overriding) and not all(overriding)  # both kinds ship


class TestCleanupsResolve:
    def test_every_registered_cleanup_resolves(self):
        # The cross-check is that every name the registry-consistency rule
        # would accept actually resolves.
        assert CLEANUPS.names()
        for name in CLEANUPS.names():
            assert callable(CLEANUPS.get(name))

    def test_blocking_recipes_resolve_against_the_registry(self):
        from repro.specs.pipeline import BLOCKING_RECIPES

        for kind, specs in BLOCKING_RECIPES.items():
            for spec in specs:
                assert spec.name in BLOCKINGS, (
                    f"recipe {kind!r} references unregistered {spec.name!r}"
                )
