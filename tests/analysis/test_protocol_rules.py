"""Fixture suite for the protocol-conformance rule.

The first test is the acceptance fixture: ``shardable = True`` without
``candidates_for`` must be caught by name.
"""

from repro.analysis import resolve_rules, run_source

MODULE = "repro.blocking.fixture"
PROTOCOL = resolve_rules(select=["protocol-conformance"])


def findings_of(source, module=MODULE):
    return run_source(source, module=module, rules=PROTOCOL)


class TestFlagWithoutMethods:
    def test_shardable_without_candidates_for_is_caught(self):
        # The acceptance fixture: the flag promises the two-phase protocol,
        # the body ships only half of it.
        source = (
            "class HalfSharded:\n"
            "    shardable = True\n"
            "\n"
            "    def prepare(self, dataset):\n"
            "        return {}\n"
        )
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["protocol-conformance"]
        assert "candidates_for" in findings[0].message
        assert findings[0].line == 2  # reported at the flag assignment

    def test_delta_capable_without_delta_update_is_caught(self):
        source = "class D:\n    delta_capable = True\n"
        findings = findings_of(source)
        assert len(findings) == 1
        assert "delta_update" in findings[0].message

    def test_complete_protocol_is_clean(self):
        source = (
            "class Sharded:\n"
            "    shardable = True\n"
            "\n"
            "    def prepare(self, dataset):\n"
            "        return {}\n"
            "\n"
            "    def candidates_for(self, shared, records):\n"
            "        return []\n"
        )
        assert findings_of(source) == []

    def test_flag_false_without_methods_is_clean(self):
        source = "class Plain:\n    shardable = False\n"
        assert findings_of(source) == []

    def test_suppression_silences(self):
        source = (
            "class Inherits:\n"
            "    shardable = True  # repro-lint: disable=protocol-conformance -- methods inherited\n"
        )
        assert findings_of(source) == []


class TestMethodsWithoutFlag:
    def test_method_with_flag_false_is_contradictory(self):
        source = (
            "class Contradiction:\n"
            "    delta_capable = False\n"
            "\n"
            "    def delta_update(self, shared, dataset, new_records):\n"
            "        return shared\n"
        )
        findings = findings_of(source)
        assert len(findings) == 1
        assert "never call it" in findings[0].message

    def test_method_without_flag_on_a_blocking_base_warns(self):
        source = (
            "class MyBlocking(Blocking):\n"
            "    def delta_update(self, shared, dataset, new_records):\n"
            "        return shared\n"
        )
        findings = findings_of(source)
        assert len(findings) == 1
        assert "restate the flag" in findings[0].message

    def test_method_without_protocol_base_is_clean(self):
        # `prepare` is a common name; without a protocol-family base the
        # inverse check must not fire (e.g. a ProfileStore.prepare).
        source = (
            "class Store:\n"
            "    def prepare(self, dataset):\n"
            "        return {}\n"
        )
        assert findings_of(source) == []

    def test_stub_definitions_do_not_count_as_implementations(self):
        source = (
            "class Blocking:\n"
            "    shardable = False\n"
            "\n"
            "    def prepare(self, dataset):\n"
            '        """Protocol stub."""\n'
            "        raise NotImplementedError\n"
            "\n"
            "    def candidates_for(self, shared, records):\n"
            "        raise NotImplementedError\n"
        )
        assert findings_of(source) == []

    def test_matcher_two_phase_methods_are_not_a_flagged_protocol(self):
        # Every matcher rides the engine's one matching route through the
        # base-class defaults, so overriding them needs no capability flag.
        source = (
            "class M(PairwiseMatcher):\n"
            "    def prepare_profiles(self, records):\n"
            "        return {}\n"
            "\n"
            "    def score_profiled(self, profiles, id_pairs):\n"
            "        return profiles.score(id_pairs)\n"
        )
        assert findings_of(source, module="repro.matching.fixture") == []
