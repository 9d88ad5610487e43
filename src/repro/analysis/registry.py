"""The lint-rule registry: rules are named components, like everything else.

Rules register exactly the way blockings, matchers and clean-ups do
(:mod:`repro.registry`): a decorator, duplicate rejection, and unknown-name
errors that list what *is* registered.  ``repro lint --select`` /
``--ignore`` resolve names through this registry, so a typo'd rule name
fails with the full rule list instead of silently linting nothing.

Third-party rules plug in the same way built-ins do::

    from repro.analysis import LintRule, register_rule

    @register_rule("no-sleep")
    class NoSleepRule(LintRule):
        name = "no-sleep"
        description = "time.sleep() has no place in pipeline stages"

        def visit_Call(self, node): ...
"""

from __future__ import annotations

from repro.registry import ComponentRegistry, RegistryError

__all__ = ["RULES", "RegistryError", "register_rule", "rule_names"]

#: Lint rules by name (see :mod:`repro.analysis.rules`).  Built-in rule
#: modules are imported lazily on first lookup, mirroring the component
#: registries.
RULES = ComponentRegistry(
    "lint rule",
    builtins=(
        "repro.analysis.rules.determinism",
        "repro.analysis.rules.concurrency",
        "repro.analysis.rules.registry_refs",
        "repro.analysis.rules.hygiene",
        "repro.analysis.rules.observability",
    ),
)


def register_rule(name: str):
    """Register a :class:`~repro.analysis.engine.LintRule` subclass under ``name``."""
    return RULES.register(name)


def rule_names() -> list[str]:
    """Sorted names of every registered rule."""
    return RULES.names()
