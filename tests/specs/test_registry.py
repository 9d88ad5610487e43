"""Tests for the component registries."""

import pytest

from repro.blocking import IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import gralmatch_cleanup
from repro.registry import (
    BLOCKINGS,
    CLEANUPS,
    MATCHERS,
    ComponentRegistry,
    RegistryError,
    register_blocking,
)


class TestBuiltinRegistrations:
    def test_blockings_are_registered(self):
        assert {"id_overlap", "token_overlap", "issuer_match", "combined"} <= set(
            BLOCKINGS.names()
        )

    def test_matcher_kinds_are_registered(self):
        assert {"transformer", "logistic", "id-overlap"} <= set(MATCHERS.names())

    def test_cleanup_strategies_are_registered(self):
        assert {"gralmatch", "bridge_removal", "adaptive"} <= set(CLEANUPS.names())

    def test_every_builtin_cleanup_strategy_is_component_local(self):
        # Incremental ingest accepts only marked strategies.
        for name in ("gralmatch", "bridge_removal", "adaptive"):
            assert CLEANUPS.get(name).component_local is True, name

    def test_lookup_returns_the_component_itself(self):
        assert BLOCKINGS.get("id_overlap") is IdOverlapBlocking
        assert CLEANUPS.get("gralmatch") is gralmatch_cleanup

    def test_create_passes_params(self):
        blocking = BLOCKINGS.create("token_overlap", top_n=7)
        assert isinstance(blocking, TokenOverlapBlocking)
        assert blocking.top_n == 7


class TestRegistryErrors:
    def test_unknown_name_lists_registered_names(self):
        with pytest.raises(RegistryError) as excinfo:
            BLOCKINGS.get("does_not_exist")  # repro-lint: disable=registry-consistency -- exercising the unknown-name error path
        message = str(excinfo.value)
        assert "unknown blocking 'does_not_exist'" in message
        for name in ("'id_overlap'", "'token_overlap'", "'issuer_match'"):
            assert name in message

    def test_duplicate_name_is_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):

            @register_blocking("id_overlap")
            class Shadow:  # pragma: no cover - never constructed
                pass

    def test_shadowing_a_builtin_fails_in_a_fresh_process(self):
        # register() loads the builtin modules before the duplicate check,
        # so shadowing fails at the offending registration even when
        # nothing else has touched the registry yet — not later from
        # inside an unrelated lookup.
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.registry import RegistryError, register_blocking\n"
            "try:\n"
            "    @register_blocking('token_overlap')\n"
            "    class Mine: pass\n"
            "except RegistryError:\n"
            "    print('REJECTED')\n"
        ) % src
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert "REJECTED" in result.stdout

    def test_invalid_params_mention_the_component(self):
        with pytest.raises(RegistryError, match="invalid params for blocking 'token_overlap'"):
            BLOCKINGS.create("token_overlap", not_a_param=1)

    def test_empty_name_is_rejected(self):
        registry = ComponentRegistry("widget")
        with pytest.raises(RegistryError, match="non-empty string"):
            registry.register("")


class TestRegisterAndUnregister:
    def test_register_create_unregister_round_trip(self):
        registry = ComponentRegistry("widget")

        @registry.register("custom")
        class Widget:
            def __init__(self, size: int = 1) -> None:
                self.size = size

        assert "custom" in registry
        assert registry.create("custom", size=3).size == 3
        registry.unregister("custom")
        assert "custom" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("custom")

    def test_custom_blocking_is_buildable_from_a_spec(self):
        from repro.specs import ComponentSpec, PipelineSpec

        @register_blocking("test_null_blocking")
        class NullBlocking:
            def candidate_pairs(self, dataset):
                return []

        try:
            spec = PipelineSpec(blocking=(ComponentSpec("test_null_blocking"),))
            blocking = spec.build_blocking()
            assert isinstance(blocking, NullBlocking)
        finally:
            BLOCKINGS.unregister("test_null_blocking")
