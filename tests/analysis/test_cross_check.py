"""Registry ↔ lint cross-check.

The protocol-conformance rule reasons about class bodies statically; the
execution engine reads the same flags at runtime.  This suite closes the
loop: for every *registered* component (auto-discovered, so new components
are covered the day they register), the AST-level declaration the linter
sees must agree with the runtime flag the engine dispatches on — the rule
is checking the real contract, not a parallel fiction.
"""

import ast
import inspect

from repro.analysis.rules.protocol import PROTOCOL_METHODS, analyze_class
from repro.registry import BLOCKINGS, CLEANUPS, MATCHERS


def info_for(cls):
    """The linter's view of ``cls``: analyze its real class-body AST."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            return analyze_class(node)
    raise AssertionError(f"class {cls.__name__} not found in its module source")


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


class TestBlockingFlags:
    def test_every_registered_blocking_restates_its_flags(self):
        assert BLOCKINGS.names()  # auto-discovery must find something
        for name in BLOCKINGS.names():
            cls = BLOCKINGS.get(name)
            info = info_for(cls)
            for flag in ("shardable", "delta_capable"):
                runtime = bool(getattr(cls, flag, False))
                declared = info.flags.get(flag)
                # Mirror the lint rule exactly: a capability in force must
                # be restated in the body (the linter cannot see inherited
                # flags); an inherited False default may stay implicit.  Any
                # restatement must be the truth.
                if runtime:
                    assert declared is True, (
                        f"{name}: {flag} is True at runtime but not "
                        "declared in the class body the linter checks"
                    )
                elif declared is not None:
                    assert declared == runtime, (
                        f"{name}: body declares {flag}={declared}, "
                        f"runtime says {runtime}"
                    )

    def test_true_flags_come_with_the_methods_the_engine_calls(self):
        for name in BLOCKINGS.names():
            cls = BLOCKINGS.get(name)
            info = info_for(cls)
            for flag, methods in (
                ("shardable", PROTOCOL_METHODS["shardable"]),
                ("delta_capable", PROTOCOL_METHODS["delta_capable"]),
            ):
                if not getattr(cls, flag, False):
                    continue
                for method in methods:
                    assert callable(getattr(cls, method, None)), (
                        f"{name}: {flag}=True but {method}() missing at runtime"
                    )
                    assert method in info.implemented, (
                        f"{name}: {flag}=True but {method}() is not "
                        "implemented in the class body the linter checks"
                    )


class TestMatchers:
    def test_matchers_declare_no_capability_flags(self):
        # Matchers have one engine route and no flag-gated protocol: the
        # linter's flags belong to the blocking family only.
        classes = matcher_classes()
        assert classes  # discovery through the registry must find matchers
        for cls in classes:
            assert not info_for(cls).flags, (
                f"{cls.__name__} declares protocol flags the engine ignores"
            )

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
        # Clean-ups carry no protocol flags; the cross-check is that every
        # name the registry-consistency rule would accept actually resolves.
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
