"""Built-in lint rules plus the small AST helpers they share.

Each sibling module groups the rules guarding one contract family:

* :mod:`~repro.analysis.rules.determinism` — byte-identical determinism
  (``unordered-iteration``, ``nondeterminism-sources``),
* :mod:`~repro.analysis.rules.concurrency` — worker-pool safety
  (``pool-payload-picklability``, ``lock-coverage``),
* :mod:`~repro.analysis.rules.registry_refs` — name resolution against the
  component registries (``registry-consistency``),
* :mod:`~repro.analysis.rules.hygiene` — library output discipline
  (``print-in-library``),
* :mod:`~repro.analysis.rules.observability` — clock discipline for the
  tracing layer (``obs-clock-discipline``).

Modules are imported lazily by the rule registry
(:data:`repro.analysis.registry.RULES`), so importing this package does not
register anything by itself.
"""

from __future__ import annotations

import ast

__all__ = ["dotted_name", "literal_str"]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def literal_str(node: ast.AST) -> str | None:
    """The value of a string-literal node, ``None`` otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
