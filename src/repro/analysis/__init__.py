"""``repro lint``: the project-contract static analyser.

An AST-based rule-plugin lint framework that mechanically enforces the
invariants every subsystem of this repository is built on — byte-identical
determinism, worker-pool payload picklability and lock coverage, registry
name resolution, library output discipline and the tracing clock.  The golden
suites prove these contracts *held on one run*; the linter proves the code
cannot quietly stop honouring them.

Entry points:

* CLI — ``repro lint [paths] [--select/--ignore] [--format text|json]``,
* library — :func:`run_paths` / :func:`run_source`,
* extension — subclass :class:`LintRule` and decorate with
  :func:`register_rule` (the rule registry mirrors :mod:`repro.registry`:
  duplicate names are rejected, unknown names list what is registered).

Findings are suppressed inline with ``# repro-lint: disable=<rule>`` on the
reported line — by convention followed by ``-- <justification>``.
"""

from repro.analysis.engine import (
    LintResult,
    LintRule,
    ModuleContext,
    iter_lintable_files,
    load_baseline,
    module_name_for,
    resolve_rules,
    run_paths,
    run_source,
    write_baseline,
)
from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import RULES, RegistryError, register_rule, rule_names

__all__ = [
    "ENGINE_RULE",
    "Finding",
    "LintResult",
    "LintRule",
    "ModuleContext",
    "RULES",
    "RegistryError",
    "iter_lintable_files",
    "load_baseline",
    "module_name_for",
    "register_rule",
    "resolve_rules",
    "rule_names",
    "run_paths",
    "run_source",
    "write_baseline",
]
