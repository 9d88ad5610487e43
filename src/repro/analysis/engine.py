"""The lint engine: one AST walk, many rules, explicit suppressions.

``repro lint`` enforces the contracts the rest of this repository only
states in docstrings — byte-identical determinism, pool-payload
picklability and lock coverage — at lint time instead of via golden
-suite archaeology.  The engine owns everything rule-agnostic:

* **visitor dispatch** — the module AST is walked exactly once; every node
  is offered to each active rule's ``visit_<NodeType>`` / ``leave_<NodeType>``
  hooks (the leave hook fires after the node's children, so rules can keep
  class/function/``with``-block stacks),
* **scoping** — a rule declares the dotted package prefixes it applies to
  (``packages`` / ``exclude_packages``); the engine computes each file's
  module name and instantiates only the rules in scope,
* **suppressions** — a ``# repro-lint: disable=rule-a,rule-b`` comment on
  the reported line silences those rules there (``disable=all`` silences
  every rule).  Comments are found with :mod:`tokenize`, so the marker
  inside a string literal is not a suppression.  Unknown rule names in a
  suppression are themselves reported (as ``lint-error``) — a typo'd
  suppression must not look like a fixed finding,
* **baselines** — ``--baseline`` filters findings recorded in a JSON file
  written by ``--write-baseline``, for adopting a rule before paying down
  its backlog.  Keys deliberately ignore line numbers (see
  :meth:`~repro.analysis.findings.Finding.baseline_key`),
* **data files** — rules with ``checks_data = True`` also receive ``.toml``
  / ``.json`` files (declarative specs) through :meth:`LintRule.check_data`.

Rules themselves live in :mod:`repro.analysis.rules` and register through
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Any

from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import RULES

#: Directories never descended into when a path argument is a directory.
_SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Comment marker grammar — the marker text, preceded by a hash, with an
#: optional free-form justification after ``--``.  (Spelled indirectly here
#: so this very comment does not register as a suppression.)
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


class LintRule:
    """Base class for lint rules.

    Subclasses set ``name`` (matching their registry name), ``description``
    and optionally the package scope, then implement any of:

    * ``visit_<NodeType>(node)`` / ``leave_<NodeType>(node)`` — called
      during the engine's single AST walk,
    * ``begin_module()`` / ``finish_module()`` — called around the walk
      (``finish_module`` is where whole-module analyses report),
    * ``check_data()`` — called instead of the AST hooks for ``.toml`` /
      ``.json`` inputs when ``checks_data`` is true.

    A fresh rule instance is created per module, so instance attributes are
    safe per-module state.  Findings are reported with :meth:`report`.
    """

    #: Registry name; also what suppression comments and ``--select`` use.
    name: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""
    #: Dotted module prefixes this rule runs on (``None`` = every module).
    packages: tuple[str, ...] | None = None
    #: Dotted module prefixes this rule skips even when ``packages`` match.
    exclude_packages: tuple[str, ...] = ()
    #: Whether the rule also checks ``.toml`` / ``.json`` data files.
    checks_data: bool = False

    def __init__(self) -> None:
        self.context: ModuleContext | None = None

    # -- scoping ------------------------------------------------------------

    @classmethod
    def applies_to(cls, module: str) -> bool:
        """Whether this rule is in scope for dotted module name ``module``."""
        if any(_prefix_match(module, prefix) for prefix in cls.exclude_packages):
            return False
        if cls.packages is None:
            return True
        return any(_prefix_match(module, prefix) for prefix in cls.packages)

    # -- reporting ----------------------------------------------------------

    def report(self, node: ast.AST, message: str) -> None:
        """Report a finding at ``node`` (honouring suppression comments)."""
        assert self.context is not None
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        self.context.add(self.name, line, column, message)

    # -- hooks (overridden by rules) ----------------------------------------

    def begin_module(self) -> None:  # pragma: no cover - trivial default
        pass

    def finish_module(self) -> None:  # pragma: no cover - trivial default
        pass

    def check_data(self) -> None:  # pragma: no cover - trivial default
        pass


def _prefix_match(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@dataclass
class ModuleContext:
    """Everything the engine knows about one file being linted."""

    path: str
    module: str
    source: str = ""
    tree: ast.AST | None = None
    #: Parsed data payload for ``.toml`` / ``.json`` inputs (else ``None``).
    data: Any = None
    findings: list[Finding] = field(default_factory=list)
    #: line number -> rule names silenced on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    suppressed_count: int = 0

    def add(self, rule: str, line: int, column: int, message: str) -> None:
        silenced = self.suppressions.get(line, ())
        if rule != ENGINE_RULE and ("all" in silenced or rule in silenced):
            self.suppressed_count += 1
            return
        self.findings.append(Finding(self.path, line, column, rule, message))


@dataclass
class LintResult:
    """Outcome of one :func:`run_paths` / :func:`run_source` invocation."""

    findings: list[Finding]
    files_checked: int = 0
    suppressed: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "count": len(self.findings),
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
        }


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path`` (used for rule scoping).

    Files under a ``src`` directory are named from the package root
    (``src/repro/graphs/graph.py`` → ``repro.graphs.graph``); other files
    are named from the working directory (``tests/analysis/test_rules.py``
    → ``tests.analysis.test_rules``).
    """
    resolved = path.resolve().with_suffix("")
    parts = list(resolved.parts)
    if "src" in parts:
        tail = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[tail + 1:]
    else:
        try:
            parts = list(resolved.relative_to(Path.cwd()).parts)
        except ValueError:
            parts = [resolved.name]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _parse_suppressions(
    source: str, context: ModuleContext, known_rules: Iterable[str]
) -> None:
    """Collect ``# repro-lint: disable=...`` comments into the context.

    Uses :mod:`tokenize` so markers inside string literals (e.g. lint-rule
    test fixtures) never register as suppressions.  Unknown rule names are
    reported as engine findings — silencing a rule that does not exist is a
    latent typo, not a clean file.
    """
    known = set(known_rules) | {"all"}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse failed
        return
    for line, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        names = {name.strip() for name in match.group(1).split(",") if name.strip()}
        unknown = sorted(names - known)
        if unknown:
            context.add(
                ENGINE_RULE,
                line,
                1,
                f"suppression names unknown rule(s) {', '.join(map(repr, unknown))}; "
                f"known rules: {', '.join(sorted(known - {'all'}))}",
            )
        context.suppressions.setdefault(line, set()).update(names & known)


class _Walker:
    """Single-pass AST walker dispatching to every active rule."""

    def __init__(self, rules: Sequence[LintRule]) -> None:
        self._visitors: list[tuple[LintRule, dict[str, Any], dict[str, Any]]] = []
        for rule in rules:
            visit = {}
            leave = {}
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    visit[attr[len("visit_"):]] = getattr(rule, attr)
                elif attr.startswith("leave_"):
                    leave[attr[len("leave_"):]] = getattr(rule, attr)
            self._visitors.append((rule, visit, leave))

    def walk(self, node: ast.AST) -> None:
        kind = type(node).__name__
        for _rule, visit, _leave in self._visitors:
            hook = visit.get(kind)
            if hook is not None:
                hook(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        for _rule, _visit, leave in self._visitors:
            hook = leave.get(kind)
            if hook is not None:
                hook(node)


def resolve_rules(
    select: Sequence[str] | None = None, ignore: Sequence[str] | None = None
) -> list[type[LintRule]]:
    """Resolve ``--select`` / ``--ignore`` names to rule classes.

    Unknown names raise :class:`~repro.registry.RegistryError` listing the
    registered rules, exactly like the component registries do.
    """
    names = list(select) if select else RULES.names()
    ignored = set(ignore or ())
    for name in ignored:
        RULES.get(name)  # validate: unknown names must not silently ignore nothing
    return [RULES.get(name) for name in names if name not in ignored]


def run_source(
    source: str,
    *,
    path: str = "<string>",
    module: str = "module",
    rules: Sequence[type[LintRule]] | None = None,
) -> list[Finding]:
    """Lint one Python source string (the per-rule fixture harness).

    ``module`` controls rule scoping, so tests can present a snippet as
    living in ``repro.graphs`` to trigger package-scoped rules.
    """
    context = ModuleContext(path=path, module=module, source=source)
    _lint_python(source, context, rules if rules is not None else resolve_rules())
    return sorted(context.findings)


def _lint_python(
    source: str, context: ModuleContext, rule_classes: Sequence[type[LintRule]]
) -> None:
    try:
        tree = ast.parse(source, filename=context.path)
    except SyntaxError as error:
        context.add(
            ENGINE_RULE, error.lineno or 1, (error.offset or 0) + 1,
            f"syntax error: {error.msg}",
        )
        return
    context.tree = tree
    _parse_suppressions(source, context, RULES.names())
    active: list[LintRule] = []
    for rule_class in rule_classes:
        if not rule_class.applies_to(context.module):
            continue
        rule = rule_class()
        rule.context = context
        active.append(rule)
    if not active:
        return
    for rule in active:
        rule.begin_module()
    _Walker(active).walk(tree)
    for rule in active:
        rule.finish_module()


def _lint_data(
    path: Path, context: ModuleContext, rule_classes: Sequence[type[LintRule]]
) -> None:
    """Run data-capable rules over a ``.toml`` / ``.json`` spec file."""
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            import tomllib

            context.data = tomllib.loads(text)
        else:
            context.data = json.loads(text)
    except (OSError, ValueError) as error:
        # Unreadable or malformed data files are only a lint concern when
        # they are spec-shaped; we cannot tell, so report — the suppression
        # story for stray files is "don't pass them".
        context.add(ENGINE_RULE, 1, 1, f"cannot parse data file: {error}")
        return
    for rule_class in rule_classes:
        if not rule_class.checks_data:
            continue
        rule = rule_class()
        rule.context = context
        rule.check_data()


def iter_lintable_files(paths: Sequence[Path]) -> list[Path]:
    """Expand path arguments to the sorted list of files to lint.

    Directories contribute every ``.py``, ``.toml`` and ``.json`` file
    beneath them (skipping caches); explicit file arguments are taken as
    given.  Missing paths raise ``FileNotFoundError``.
    """
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            for pattern in ("*.py", "*.toml", "*.json"):
                for found in path.rglob(pattern):
                    if not _SKIPPED_DIRS.intersection(found.parts):
                        files.append(found)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(set(files))


def run_paths(
    paths: Sequence[Path],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    baseline: Path | None = None,
) -> LintResult:
    """Lint files/directories and return the aggregate result.

    ``select`` / ``ignore`` resolve through the rule registry (unknown
    names raise, listing what is registered); ``baseline`` filters findings
    recorded by :func:`write_baseline`.
    """
    rule_classes = resolve_rules(select, ignore)
    findings: list[Finding] = []
    suppressed = 0
    files = iter_lintable_files(paths)
    for file_path in files:
        context = ModuleContext(path=str(file_path), module=module_name_for(file_path))
        if file_path.suffix == ".py":
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as error:  # pragma: no cover - unreadable file
                context.add(ENGINE_RULE, 1, 1, f"cannot read file: {error}")
            else:
                context.source = source
                _lint_python(source, context, rule_classes)
        else:
            _lint_data(file_path, context, rule_classes)
        findings.extend(context.findings)
        suppressed += context.suppressed_count
    findings.sort()
    if baseline is not None:
        known = load_baseline(baseline)
        findings = [f for f in findings if f.baseline_key() not in known]
    return LintResult(findings=findings, files_checked=len(files), suppressed=suppressed)


def write_baseline(findings: Sequence[Finding], path: Path) -> Path:
    """Record ``findings`` as the accepted baseline at ``path``."""
    keys = sorted({finding.baseline_key() for finding in findings})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"findings": keys}, indent=2) + "\n", encoding="utf-8")
    return path


def load_baseline(path: Path) -> frozenset[str]:
    """Load the baseline keys written by :func:`write_baseline`."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read lint baseline {path}: {error}") from error
    keys = data.get("findings") if isinstance(data, dict) else None
    if not isinstance(keys, list):
        raise ValueError(
            f"cannot read lint baseline {path}: expected a JSON object with "
            "a 'findings' list"
        )
    return frozenset(str(key) for key in keys)
