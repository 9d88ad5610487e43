"""Determinism rules: the contracts behind the byte-identical guarantee.

Every golden suite in this repository pins byte-identical output across
serial/thread/process engines, worker counts and ingest partitions.  The two
rules here catch the two ways that guarantee has actually been broken (or
nearly broken) before:

* ``unordered-iteration`` — the PYTHONHASHSEED class of bug: iterating a
  ``set`` (hash order) or a dict view (insertion order, which is only as
  deterministic as the insertions) in a package whose outputs are pinned
  byte-for-byte.  The PR 2 clean-up nondeterminism was exactly an unsorted
  graph-adjacency iteration,
* ``nondeterminism-sources`` — wall-clock time, OS entropy, unseeded RNGs,
  ``hash()`` (salted per process for str/bytes) and ``id()``-as-key inside
  pipeline-stage code.  Seeded generators (``random.Random(seed)``,
  ``np.random.default_rng(seed)``) are the sanctioned spelling and pass.

Both rules are deliberately conservative: a site that is deterministic *by
construction* (an insertion-sorted dict, an order-insensitive reduction) is
suppressed inline with a justification comment, turning tribal knowledge
into a reviewable annotation.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintRule
from repro.analysis.registry import register_rule
from repro.analysis.rules import dotted_name

#: Packages whose outputs are pinned byte-identically by the golden suites.
DETERMINISM_CRITICAL_PACKAGES = (
    "repro.graphs",
    "repro.blocking",
    "repro.incremental",
    "repro.matching",
)

_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_SET_BUILTINS = frozenset({"set", "frozenset"})

#: Sinks whose result cannot depend on element order — iterating an
#: unordered collection into them is safe (``sum`` is *not* here: float
#: addition is order-sensitive at the last ULP).
_ORDER_FREE_SINKS = frozenset(
    {"any", "all", "len", "min", "max", "set", "frozenset", "sorted", "dict"}
)

#: Sinks that materialise or reduce their argument in iteration order.
_ORDER_SENSITIVE_SINKS = frozenset({"list", "tuple", "sum"})

_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _unordered_reason(node: ast.AST) -> str | None:
    """Why ``node`` evaluates to an unordered iterable (``None`` = ordered)."""
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # Set-algebra results are only unordered when the operands are sets;
        # integers use the same operators, so require one set-ish side.
        if _unordered_reason(node.left) or _unordered_reason(node.right):
            return "a set-operator result"
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
            return f"a {func.id}() result"
        if isinstance(func, ast.Attribute):
            if func.attr in _DICT_VIEW_METHODS:
                return f"a .{func.attr}() view"
            if func.attr in _SET_RETURNING_METHODS:
                return f"a set .{func.attr}() result"
    return None


@register_rule("unordered-iteration")
class UnorderedIterationRule(LintRule):
    """Unsorted iteration over sets/dict views in determinism-critical code."""

    name = "unordered-iteration"
    description = (
        "iteration over a set or dict view without sorted() in a "
        "determinism-critical package (repro.graphs/blocking/incremental/"
        "matching) risks hash- or insertion-order dependent output"
    )
    packages = DETERMINISM_CRITICAL_PACKAGES

    def __init__(self) -> None:
        super().__init__()
        #: Comprehensions appearing directly inside an order-free sink
        #: (``any(... for x in s)``) — their iteration order is immaterial.
        self._order_free: set[int] = set()

    # -- sinks --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Name):
            return
        if func.id in _ORDER_FREE_SINKS:
            for arg in node.args:
                if isinstance(arg, _COMP_NODES):
                    self._order_free.add(id(arg))
        elif func.id in _ORDER_SENSITIVE_SINKS:
            for arg in node.args:
                reason = _unordered_reason(arg)
                if reason is not None:
                    self.report(
                        arg,
                        f"{func.id}() materialises {reason} in iteration "
                        "order; sort first (or suppress with a "
                        "justification if the order is deterministic by "
                        "construction)",
                    )

    # -- iteration contexts -------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)

    def _visit_comp(self, node: ast.AST) -> None:
        if id(node) in self._order_free:
            return
        for generator in node.generators:
            self._check_iter(generator.iter)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _check_iter(self, iterable: ast.AST) -> None:
        reason = _unordered_reason(iterable)
        if reason is not None:
            self.report(
                iterable,
                f"iterating {reason} in a determinism-critical package; "
                "iterate sorted(...) instead (or suppress with a "
                "justification if the order is deterministic by "
                "construction)",
            )


#: Module-global entropy calls, by dotted name.
_BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "a host/time-derived UUID",
    "uuid.uuid4": "a random UUID",
}

#: ``random`` module functions that draw from the *global* (process-seeded)
#: generator.  ``random.Random(seed)`` instances are the sanctioned form.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "shuffle", "choice", "choices",
        "sample", "uniform", "getrandbits", "gauss", "normalvariate",
        "betavariate", "seed",
    }
)

#: ``numpy.random`` module-level functions backed by the legacy global state.
_GLOBAL_NP_RANDOM_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "choice", "shuffle",
        "permutation", "standard_normal", "seed",
    }
)


@register_rule("nondeterminism-sources")
class NondeterminismSourcesRule(LintRule):
    """Entropy and process-salted values inside pipeline-stage code."""

    name = "nondeterminism-sources"
    description = (
        "wall-clock time, OS entropy, unseeded RNGs, hash() or id()-as-key "
        "in pipeline-stage code breaks run-to-run reproducibility"
    )
    # Everything that computes pipeline results.  repro.datagen is excluded
    # on purpose: generators are seeded by construction and own their RNG
    # discipline; repro.cli only orchestrates.
    packages = ("repro",)
    exclude_packages = ("repro.datagen", "repro.cli", "repro.analysis")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            self._check_dotted_call(node, dotted)
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.report(
                node,
                "hash() is PYTHONHASHSEED-salted for str/bytes — derive "
                "keys from the value itself (or a stable digest)",
            )

    def _check_dotted_call(self, node: ast.Call, dotted: str) -> None:
        what = _BANNED_CALLS.get(dotted)
        if what is not None:
            self.report(
                node, f"{dotted}() injects {what} into pipeline-stage code"
            )
            return
        if dotted.startswith("secrets."):
            self.report(node, f"{dotted}() draws OS entropy; results cannot be replayed")
            return
        head, _, tail = dotted.rpartition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_FUNCS:
            self.report(
                node,
                f"random.{tail}() uses the process-global generator; use an "
                "explicitly seeded random.Random(seed) instance",
            )
            return
        if head.endswith("random") and head != "random" and tail in _GLOBAL_NP_RANDOM_FUNCS:
            self.report(
                node,
                f"{dotted}() uses numpy's legacy global state; use an "
                "explicitly seeded np.random.default_rng(seed)",
            )
            return
        if tail == "default_rng" and not node.args and not node.keywords:
            self.report(
                node,
                "default_rng() without a seed draws OS entropy; pass an "
                "explicit seed",
            )
            return
        if dotted == "random.Random" and not node.args and not node.keywords:
            self.report(
                node,
                "random.Random() without a seed draws OS entropy; pass an "
                "explicit seed",
            )

    # -- id()-as-key --------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self.report(
                node.slice,
                "id() as a mapping key ties results to memory layout; key "
                "by a stable identifier instead",
            )

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self.report(
                    key,
                    "id() as a dict key ties results to memory layout; key "
                    "by a stable identifier instead",
                )

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )
