"""Declarative description of one end-to-end matching experiment.

An :class:`ExperimentSpec` is the config-file counterpart of
:class:`repro.evaluation.experiment.ExperimentConfig`: which dataset to
load, which model from the zoo to fine-tune, the fine-tuning protocol, and
an optional :class:`~repro.specs.pipeline.PipelineSpec` overriding the
Table 2 recipe derived from the dataset kind.

The canonical file layout (TOML; JSON mirrors it key for key)::

    [experiment]
    dataset = "data/companies.csv"
    kind = "companies"
    model = "logistic"
    epochs = 1
    seed = 0

    [[pipeline.blocking]]
    name = "id_overlap"

    [[pipeline.blocking]]
    name = "token_overlap"
    params = {top_n = 5}

    [pipeline.runtime]
    workers = 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from repro.specs.errors import SpecValidationError
from repro.specs.pipeline import (
    BLOCKING_RECIPES,
    PipelineSpec,
    _expect_int,
    _expect_str,
    _expect_table,
    _reject_unknown_keys,
)
from repro.specs.serde import dumps_json, dumps_toml, loads_json, loads_toml

_EXPERIMENT_KEYS = {
    "dataset",
    "kind",
    "model",
    "epochs",
    "seed",
    "negative_ratio",
    "token_top_n",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One Table 4 run as data: dataset + model + protocol + pipeline."""

    #: Path to the dataset CSV (``None`` when the caller passes a Dataset).
    dataset: str | None = None
    #: Dataset kind; selects the Table 2 recipe when ``pipeline`` is unset.
    kind: str = "companies"
    #: Named model spec from :data:`repro.matching.models.MODEL_SPECS`.
    model: str = "distilbert-128-all"
    epochs: int = 3
    seed: int = 0
    negative_ratio: int = 5
    #: Default ``top_n`` injected into ``token_overlap`` blockings that do
    #: not set it explicitly.
    token_top_n: int = 5
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)

    def __post_init__(self) -> None:
        if self.kind not in BLOCKING_RECIPES:
            raise SpecValidationError(
                "experiment.kind",
                f"expected one of {sorted(BLOCKING_RECIPES)}, got {self.kind!r}",
            )
        # The seed drives the split, the pair sampling and the matcher's
        # initial weights; numpy's generators refuse a negative one.
        if self.seed < 0:
            raise SpecValidationError(
                "experiment.seed", f"expected a non-negative integer, got {self.seed!r}"
            )
        # Validate the model name here so a typo fails as a named-key spec
        # error (everywhere: file loading and programmatic construction)
        # rather than a KeyError deep inside the fine-tuning run.  Imported
        # lazily: the model zoo pulls in numpy.
        from repro.matching.models import MODEL_SPECS

        if self.model not in MODEL_SPECS:
            raise SpecValidationError(
                "experiment.model",
                f"unknown model {self.model!r}; available: {sorted(MODEL_SPECS)}",
            )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        experiment: dict[str, Any] = {}
        if self.dataset is not None:
            experiment["dataset"] = self.dataset
        experiment["kind"] = self.kind
        experiment["model"] = self.model
        for name, value, default in (
            ("epochs", self.epochs, 3),
            ("seed", self.seed, 0),
            ("negative_ratio", self.negative_ratio, 5),
            ("token_top_n", self.token_top_n, 5),
        ):
            if value != default:
                experiment[name] = value
        data: dict[str, Any] = {"experiment": experiment}
        pipeline = self.pipeline.to_dict()
        if pipeline:
            data["pipeline"] = pipeline
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        document = _expect_table(data, "spec")
        _reject_unknown_keys(document, {"experiment", "pipeline"}, "spec")
        table = _expect_table(document.get("experiment", {}), "experiment")
        _reject_unknown_keys(table, _EXPERIMENT_KEYS, "experiment")

        dataset = table.get("dataset")
        if dataset is not None:
            dataset = _expect_str(dataset, "experiment.dataset")
        kind = _expect_str(table.get("kind", "companies"), "experiment.kind")
        if kind not in BLOCKING_RECIPES:
            raise SpecValidationError(
                "experiment.kind",
                f"expected one of {sorted(BLOCKING_RECIPES)}, got {kind!r}",
            )
        return cls(
            dataset=dataset,
            kind=kind,
            model=_expect_str(table.get("model", "distilbert-128-all"), "experiment.model"),
            epochs=_expect_int(table.get("epochs", 3), "experiment.epochs", minimum=1),
            seed=_expect_int(table.get("seed", 0), "experiment.seed"),
            negative_ratio=_expect_int(
                table.get("negative_ratio", 5), "experiment.negative_ratio", minimum=0
            ),
            token_top_n=_expect_int(
                table.get("token_top_n", 5), "experiment.token_top_n", minimum=1
            ),
            pipeline=PipelineSpec.from_dict(document.get("pipeline", {}), "pipeline"),
        )

    def to_json(self) -> str:
        return dumps_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(loads_json(text))

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(loads_toml(text))

    # -- bridges ------------------------------------------------------------

    @property
    def blocking_specs(self):
        """The effective blocking list: explicit pipeline, else the recipe."""
        if self.pipeline.blocking:
            return self.pipeline.blocking
        return BLOCKING_RECIPES[self.kind]

    def to_experiment_config(self):
        """Build the :class:`~repro.evaluation.experiment.ExperimentConfig`.

        Threshold fields left unset in the spec stay unset here too, so the
        experiment derives them from the dataset it actually loads (``mu``
        from the source count, ``gamma = 5 * mu``, pre-cleanup from the
        kind) — byte-identical to the pre-spec behaviour.
        """
        from repro.evaluation.experiment import ExperimentConfig

        cleanup_spec = self.pipeline.cleanup
        partial_cleanup = None
        if cleanup_spec.gamma is not None or cleanup_spec.mu is not None:
            partial_cleanup = cleanup_spec
        pre_cleanup = None
        if self.pipeline.pre_cleanup != type(self.pipeline.pre_cleanup)():
            pre_cleanup = self.pipeline.build_pre_cleanup_config(self.kind)
        return ExperimentConfig(
            model=self.model,
            dataset_kind=self.kind,
            cleanup_spec=partial_cleanup,
            pre_cleanup=pre_cleanup,
            token_top_n=self.token_top_n,
            negative_ratio=self.negative_ratio,
            num_epochs=self.epochs,
            seed=self.seed,
            blocking=self.pipeline.blocking or None,
            cleanup_strategy=cleanup_spec.strategy,
            runtime=self.pipeline.runtime.to_runtime_config(),
        )
