"""Fixture suite for the clock-discipline rule (``obs-clock-discipline``).

Timing must flow through :func:`repro.obs.clock.now` so every measured
interval can land on the trace timeline; raw ``time.perf_counter()`` /
``time.monotonic()`` calls are findings everywhere except the clock seam
itself (``repro.obs``).
"""

from repro.analysis import resolve_rules, run_source
from repro.analysis.rules.observability import ObsClockDisciplineRule

RULES = resolve_rules(select=["obs-clock-discipline"])

MATCHING = "repro.matching.fixture"


def rules_of(source, module=MATCHING):
    return [f.rule for f in run_source(source, module=module, rules=RULES)]


class TestRawClockCallsAreFindings:
    def test_perf_counter_in_library_code_is_caught(self):
        source = (
            "import time\n"
            "def train():\n"
            "    start = time.perf_counter()\n"
            "    return time.perf_counter() - start\n"
        )
        assert rules_of(source) == ["obs-clock-discipline"] * 2

    def test_monotonic_is_caught(self):
        source = "import time\ndef f():\n    return time.monotonic()\n"
        assert rules_of(source) == ["obs-clock-discipline"]

    def test_nanosecond_variants_are_caught(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter_ns(), time.monotonic_ns()\n"
        )
        assert rules_of(source) == ["obs-clock-discipline"] * 2

    def test_tests_and_benchmarks_are_in_scope(self):
        # packages=None: the rule runs on every module, not just repro.*.
        source = "import time\ndef f():\n    return time.perf_counter()\n"
        assert rules_of(source, module="benchmarks.bench_fixture") == [
            "obs-clock-discipline"
        ]
        assert rules_of(source, module="tests.fixture") == [
            "obs-clock-discipline"
        ]


class TestCleanCode:
    def test_clock_now_is_the_blessed_spelling(self):
        source = (
            "from repro.obs import clock\n"
            "def f():\n"
            "    start = clock.now()\n"
            "    return clock.now() - start\n"
        )
        assert rules_of(source) == []

    def test_other_time_functions_are_not_findings(self):
        # Wall-clock reads and sleeps are not *measurements*; they are out
        # of this rule's scope.
        source = (
            "import time\n"
            "def f():\n"
            "    time.sleep(0.1)\n"
            "    return time.time(), time.strftime('%Y')\n"
        )
        assert rules_of(source) == []

    def test_unrelated_perf_counter_attribute_is_not_a_finding(self):
        # Only the dotted `time.*` names match, not same-named methods on
        # other objects.
        source = "def f(metrics):\n    return metrics.perf_counter()\n"
        assert rules_of(source) == []


class TestExemptModules:
    def test_only_the_obs_package_is_exempt(self):
        assert ObsClockDisciplineRule.exclude_packages == ("repro.obs",)

    def test_the_clock_seam_itself_is_exempt(self):
        source = "import time\ndef now():\n    return time.perf_counter()\n"
        assert rules_of(source, module="repro.obs.clock") == []
        assert rules_of(source, module="repro.obs.trace") == []

    def test_other_runtime_modules_are_not_exempt(self):
        source = "import time\ndef f():\n    return time.perf_counter()\n"
        assert rules_of(source, module="repro.runtime.scheduler") == [
            "obs-clock-discipline"
        ]


class TestSuppression:
    def test_justified_suppression_silences_the_line(self):
        source = (
            "import time\n"
            "def bench():\n"
            "    return time.perf_counter()  "
            "# repro-lint: disable=obs-clock-discipline -- wall clock is the artefact\n"
        )
        assert rules_of(source) == []
