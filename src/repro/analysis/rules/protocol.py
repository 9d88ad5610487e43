"""Protocol-conformance rule: flags and methods must move together.

The execution engine dispatches on *class-level capability flags*:
``shardable`` gates the two-phase blocking protocol
(:meth:`~repro.blocking.base.Blocking.prepare` /
:meth:`~repro.blocking.base.Blocking.candidates_for`) and ``delta_capable``
gates incremental index updates
(:meth:`~repro.blocking.base.Blocking.delta_update`).  A flag set without
the methods fails at *fan-out time* deep inside a worker; methods
implemented without the flag silently never run.  Both drifts are
statically visible, so this rule catches them at lint time.

The module also exposes :func:`analyze_class` /
:class:`ClassProtocolInfo` — the same analysis the registry↔lint
cross-check test uses to compare AST-declared capabilities against the
runtime flags of every registered component.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import LintRule
from repro.analysis.registry import register_rule

#: flag -> methods the engine calls when the flag is truthy.
PROTOCOL_METHODS: dict[str, tuple[str, ...]] = {
    "shardable": ("prepare", "candidates_for"),
    "delta_capable": ("delta_update",),
}

#: method -> flag, for the inverse (method-without-flag) check.
_METHOD_TO_FLAG: dict[str, str] = {
    method: flag
    for flag, methods in PROTOCOL_METHODS.items()
    for method in methods
}

#: The inverse check only fires when a base-class name hints that the class
#: actually participates in the protocol family — ``prepare`` is a common
#: method name, and e.g. ``ProfileStore.prepare`` has nothing to do with the
#: shardable protocol.  Both protocols belong to the blocking family.
_PROTOCOL_BASE_HINT = "Blocking"


@dataclass
class ClassProtocolInfo:
    """What one class body statically declares about the protocols."""

    name: str
    node: ast.ClassDef
    #: flag -> value assigned in the class body (only literal True/False).
    flags: dict[str, bool] = field(default_factory=dict)
    #: flag -> the assignment node (for finding positions).
    flag_nodes: dict[str, ast.stmt] = field(default_factory=dict)
    #: Protocol methods with a real body defined directly in the class
    #: (stubs — docstring + raise / ``...`` — define, not implement).
    implemented: dict[str, ast.FunctionDef] = field(default_factory=dict)
    base_names: tuple[str, ...] = ()


def _is_stub(fn: ast.FunctionDef) -> bool:
    """A body that only raises / passes — the protocol's *definition*, not an
    implementation (``Blocking.prepare`` raising NotImplementedError)."""
    for decorator in fn.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else None
        )
        if name == "abstractmethod":
            return True
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # drop the docstring
    return all(
        isinstance(stmt, (ast.Raise, ast.Pass))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    ) if body else True


def analyze_class(node: ast.ClassDef) -> ClassProtocolInfo:
    """Extract the protocol declarations of one class body."""
    info = ClassProtocolInfo(name=node.name, node=node)
    info.base_names = tuple(
        base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        for base in node.bases
    )
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in PROTOCOL_METHODS
                and isinstance(value, ast.Constant)
                and isinstance(value.value, bool)
            ):
                info.flags[target.id] = value.value
                info.flag_nodes[target.id] = stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name in _METHOD_TO_FLAG and not _is_stub(stmt):
                info.implemented[stmt.name] = stmt
    return info


@register_rule("protocol-conformance")
class ProtocolConformanceRule(LintRule):
    """Capability flags and protocol methods must be declared together."""

    name = "protocol-conformance"
    description = (
        "a class setting shardable/delta_capable = True must implement the "
        "protocol's methods in its body, and vice versa"
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = analyze_class(node)
        self._check_flags_have_methods(info)
        self._check_methods_have_flags(info)

    def _check_flags_have_methods(self, info: ClassProtocolInfo) -> None:
        for flag, value in info.flags.items():
            if not value:
                continue
            required = PROTOCOL_METHODS[flag]
            missing = [m for m in required if m not in info.implemented]
            if missing:
                self.report(
                    info.flag_nodes[flag],
                    f"class {info.name} sets {flag} = True but does not "
                    f"implement {', '.join(m + '()' for m in missing)} — "
                    f"the {flag} protocol requires "
                    f"{', '.join(m + '()' for m in required)} in the class "
                    "body (inherited implementations are invisible to "
                    "static analysis; restate or suppress)",
                )

    def _check_methods_have_flags(self, info: ClassProtocolInfo) -> None:
        for method, fn in info.implemented.items():
            flag = _METHOD_TO_FLAG[method]
            declared = info.flags.get(flag)
            if declared is True:
                continue
            if declared is False:
                self.report(
                    fn,
                    f"class {info.name} implements {method}() but sets "
                    f"{flag} = False — the engine will never call it; set "
                    "the flag or drop the method",
                )
                continue
            if any(_PROTOCOL_BASE_HINT in base for base in info.base_names):
                self.report(
                    fn,
                    f"class {info.name} implements the {flag}-protocol "
                    f"method {method}() without setting {flag} = True in "
                    "its body — restate the flag so the declaration and "
                    "the implementation cannot drift (inherited flags are "
                    "invisible to static analysis)",
                )
