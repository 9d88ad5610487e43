"""Declarative description of one entity-group-matching pipeline.

A :class:`PipelineSpec` is pure data: which blockings generate candidates,
which clean-up strategy runs with which thresholds, whether the pre-cleanup
rule is active, and how the execution engine is configured.  Components are
referenced *by name* and resolved through :mod:`repro.registry`, so a spec
written to JSON or TOML builds the exact same pipeline everywhere —
including components registered by third parties.

The Table 2 blocking recipes live here as data too
(:data:`BLOCKING_RECIPES`), replacing the hand-wired ``if kind == ...``
chains the experiment harness used to carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any

from repro.specs.errors import SpecValidationError
from repro.specs.serde import dumps_json, dumps_toml, loads_json, loads_toml

#: Sentinel accepted for ``cleanup.gamma``: disable the minimum-cut phase
#: (γ = ∞, the paper's BC-only sensitivity variant).  TOML has no null, so
#: the spec spells infinity as this string.
GAMMA_INFINITY = "inf"


@dataclass(frozen=True)
class ComponentSpec:
    """A registry component reference: a name plus constructor params."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str) -> "ComponentSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(table, {"name", "params"}, key)
        name = _expect_str(table.get("name"), f"{key}.name")
        params = table.get("params", {})
        if not isinstance(params, Mapping):
            raise SpecValidationError(f"{key}.params", "expected a table of parameters")
        return cls(name=name, params=dict(params))


@dataclass(frozen=True)
class CleanupSpec:
    """Graph clean-up strategy selection and Algorithm 1 thresholds.

    Unset thresholds (``None``) are derived at build time from the dataset's
    source count, exactly like the experiment harness always did:
    ``mu = #sources``, ``gamma = 5 * mu``.  ``gamma = "inf"`` disables the
    minimum-cut phase.
    """

    strategy: str = "gralmatch"
    gamma: int | str | None = None
    mu: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.gamma, str) and self.gamma != GAMMA_INFINITY:
            raise SpecValidationError(
                "cleanup.gamma", f'expected an integer or "{GAMMA_INFINITY}", got {self.gamma!r}'
            )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.strategy != "gralmatch":
            data["strategy"] = self.strategy
        if self.gamma is not None:
            data["gamma"] = self.gamma
        if self.mu is not None:
            data["mu"] = self.mu
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str) -> "CleanupSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(table, {"strategy", "gamma", "mu"}, key)
        strategy = _expect_str(table.get("strategy", "gralmatch"), f"{key}.strategy")
        gamma = table.get("gamma")
        if isinstance(gamma, str) and gamma != GAMMA_INFINITY:
            raise SpecValidationError(
                f"{key}.gamma",
                f'expected an integer or "{GAMMA_INFINITY}", got {gamma!r}',
            )
        if gamma is not None and gamma != GAMMA_INFINITY:
            gamma = _expect_int(gamma, f"{key}.gamma", minimum=1)
        mu = table.get("mu")
        if mu is not None:
            mu = _expect_int(mu, f"{key}.mu", minimum=1)
        return cls(strategy=strategy, gamma=gamma, mu=mu)


@dataclass(frozen=True)
class PreCleanupSpec:
    """The pre-cleanup rule (Section 4.2.1), or its kind-derived default.

    ``enabled = None`` defers the decision to the dataset kind (enabled for
    companies, disabled otherwise), matching the experiment harness.
    """

    enabled: bool | None = None
    max_component_size: int = 50
    target_blocking: str = "token_overlap"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.enabled is not None:
            data["enabled"] = self.enabled
        if self.max_component_size != 50:
            data["max_component_size"] = self.max_component_size
        if self.target_blocking != "token_overlap":
            data["target_blocking"] = self.target_blocking
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str) -> "PreCleanupSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(
            table, {"enabled", "max_component_size", "target_blocking"}, key
        )
        enabled = table.get("enabled")
        if enabled is not None and not isinstance(enabled, bool):
            raise SpecValidationError(f"{key}.enabled", f"expected a boolean, got {enabled!r}")
        return cls(
            enabled=enabled,
            max_component_size=_expect_int(
                table.get("max_component_size", 50), f"{key}.max_component_size", minimum=1
            ),
            target_blocking=_expect_str(
                table.get("target_blocking", "token_overlap"), f"{key}.target_blocking"
            ),
        )


@dataclass(frozen=True)
class RuntimeSpec:
    """Execution-engine settings (see :class:`repro.runtime.RuntimeConfig`)."""

    workers: int = 1
    batch_size: int = 2048
    executor: str = "process"
    trace: str | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.workers != 1:
            data["workers"] = self.workers
        if self.batch_size != 2048:
            data["batch_size"] = self.batch_size
        if self.executor != "process":
            data["executor"] = self.executor
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str) -> "RuntimeSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(table, {"workers", "batch_size", "executor", "trace"}, key)
        executor = _expect_str(table.get("executor", "process"), f"{key}.executor")
        trace = table.get("trace")
        if trace is not None:
            trace = _expect_str(trace, f"{key}.trace")
        from repro.runtime import EXECUTOR_KINDS

        if executor not in EXECUTOR_KINDS:
            raise SpecValidationError(
                f"{key}.executor", f"expected one of {list(EXECUTOR_KINDS)}, got {executor!r}"
            )
        return cls(
            workers=_expect_int(table.get("workers", 1), f"{key}.workers", minimum=1),
            batch_size=_expect_int(table.get("batch_size", 2048), f"{key}.batch_size", minimum=1),
            executor=executor,
            trace=trace,
        )

    def to_runtime_config(self):
        from repro.runtime import RuntimeConfig

        return RuntimeConfig(
            workers=self.workers,
            batch_size=self.batch_size,
            executor=self.executor,
            trace=self.trace,
        )


@dataclass(frozen=True)
class StateSpec:
    """Persistent-match-state settings (``[pipeline.state]``).

    ``dir`` names the state directory ``repro ingest`` uses when no
    ``--state`` flag is given; ``autosave`` controls whether every ingest
    persists the updated state back to that directory (on by default —
    switch off to batch several ingests per save).
    """

    dir: str | None = None
    autosave: bool = True

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.dir is not None:
            data["dir"] = self.dir
        if not self.autosave:
            data["autosave"] = False
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str) -> "StateSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(table, {"dir", "autosave"}, key)
        state_dir = table.get("dir")
        if state_dir is not None:
            state_dir = _expect_str(state_dir, f"{key}.dir")
        return cls(
            dir=state_dir,
            autosave=_expect_bool(table.get("autosave", True), f"{key}.autosave"),
        )


#: The Table 2 blocking recipes, as data.  ``token_overlap`` deliberately
#: carries no ``top_n`` here: the builder injects the experiment-level
#: ``token_top_n`` default, and explicit spec params always win.
BLOCKING_RECIPES: dict[str, tuple[ComponentSpec, ...]] = {
    "companies": (ComponentSpec("id_overlap"), ComponentSpec("token_overlap")),
    "securities": (ComponentSpec("id_overlap"), ComponentSpec("issuer_match")),
    "products": (ComponentSpec("token_overlap"),),
}


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative pipeline: blockings + clean-up + pre-cleanup + runtime."""

    blocking: tuple[ComponentSpec, ...] = ()
    cleanup: CleanupSpec = field(default_factory=CleanupSpec)
    pre_cleanup: PreCleanupSpec = field(default_factory=PreCleanupSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    state: StateSpec = field(default_factory=StateSpec)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.blocking:
            data["blocking"] = [component.to_dict() for component in self.blocking]
        for name, sub in (
            ("cleanup", self.cleanup.to_dict()),
            ("pre_cleanup", self.pre_cleanup.to_dict()),
            ("runtime", self.runtime.to_dict()),
            ("state", self.state.to_dict()),
        ):
            if sub:
                data[name] = sub
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], key: str = "pipeline") -> "PipelineSpec":
        table = _expect_table(data, key)
        _reject_unknown_keys(
            table, {"blocking", "cleanup", "pre_cleanup", "runtime", "state"}, key
        )
        raw_blocking = table.get("blocking", [])
        if not isinstance(raw_blocking, Sequence) or isinstance(raw_blocking, (str, bytes)):
            raise SpecValidationError(f"{key}.blocking", "expected an array of blocking tables")
        blocking = tuple(
            ComponentSpec.from_dict(item, f"{key}.blocking[{index}]")
            for index, item in enumerate(raw_blocking)
        )
        return cls(
            blocking=blocking,
            cleanup=CleanupSpec.from_dict(table.get("cleanup", {}), f"{key}.cleanup"),
            pre_cleanup=PreCleanupSpec.from_dict(
                table.get("pre_cleanup", {}), f"{key}.pre_cleanup"
            ),
            runtime=RuntimeSpec.from_dict(table.get("runtime", {}), f"{key}.runtime"),
            state=StateSpec.from_dict(table.get("state", {}), f"{key}.state"),
        )

    def to_json(self) -> str:
        return dumps_json({"pipeline": self.to_dict()})

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        data = loads_json(text)
        return cls.from_dict(data.get("pipeline", data), "pipeline")

    def to_toml(self) -> str:
        return dumps_toml({"pipeline": self.to_dict()})

    @classmethod
    def from_toml(cls, text: str) -> "PipelineSpec":
        data = loads_toml(text)
        return cls.from_dict(data.get("pipeline", data), "pipeline")

    # -- builders -----------------------------------------------------------

    def build_blocking(self, extra_params: Mapping[str, Mapping[str, Any]] | None = None):
        """Resolve the blocking list through the registry.

        ``extra_params`` injects per-blocking-name parameters the spec file
        cannot express (e.g. the ``issuer_match`` company-group mapping that
        only exists at run time); explicit spec params win over injected
        ones.  Multiple blockings are combined with first-blocking-wins
        de-duplication, exactly like Table 2.
        """
        if not self.blocking:
            raise SpecValidationError("pipeline.blocking", "at least one blocking is required")
        from repro.blocking.combine import CombinedBlocking
        from repro.registry import BLOCKINGS

        extra = extra_params or {}
        parts = []
        for component in self.blocking:
            params = {**extra.get(component.name, {}), **component.params}
            parts.append(BLOCKINGS.create(component.name, **params))
        if len(parts) == 1:
            return parts[0]
        return CombinedBlocking(parts)

    def build_cleanup_config(self, num_sources: int | None = None):
        """Concrete :class:`~repro.core.cleanup.CleanupConfig` for this spec.

        Unset ``mu`` falls back to ``num_sources`` (the paper's default) or
        the library default of 5; unset ``gamma`` falls back to ``5 * mu``.
        """
        from repro.core.cleanup import CleanupConfig

        mu = self.cleanup.mu if self.cleanup.mu is not None else (num_sources or 5)
        if self.cleanup.gamma == GAMMA_INFINITY:
            gamma: int | None = None
        elif self.cleanup.gamma is None:
            gamma = 5 * mu
        else:
            gamma = self.cleanup.gamma
        return CleanupConfig(gamma=gamma, mu=mu)

    def build_pre_cleanup_config(self, kind: str | None = None):
        """Concrete :class:`~repro.core.precleanup.PreCleanupConfig`.

        When ``enabled`` is unset, the rule is active exactly for the
        companies dataset kind (``kind=None`` counts as enabled, matching
        the library default).
        """
        from repro.core.precleanup import PreCleanupConfig

        enabled = self.pre_cleanup.enabled
        if enabled is None:
            enabled = True if kind is None else kind == "companies"
        return PreCleanupConfig(
            max_component_size=self.pre_cleanup.max_component_size,
            target_blocking=self.pre_cleanup.target_blocking,
            enabled=enabled,
        )


# -- validation helpers -----------------------------------------------------


def _expect_table(value: Any, key: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecValidationError(key, f"expected a table/object, got {type(value).__name__}")
    return value


def _expect_str(value: Any, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecValidationError(key, f"expected a non-empty string, got {value!r}")
    return value


def _expect_bool(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise SpecValidationError(key, f"expected a boolean, got {value!r}")
    return value


def _expect_int(value: Any, key: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecValidationError(key, f"expected an integer >= {minimum}, got {value}")
    return value


def _reject_unknown_keys(table: Mapping[str, Any], allowed: set[str], key: str) -> None:
    for unknown in table:
        if unknown not in allowed:
            raise SpecValidationError(
                f"{key}.{unknown}", f"unknown key; allowed: {sorted(allowed)}"
            )
