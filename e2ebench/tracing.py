"""Layer spans recorded from the benchmark's side of the library boundary.

A traced op is one ``run`` span (named ``op``) whose descendants include
``layer`` spans, one per call into a library layer: fine-tuning, each
pipeline stage, scoring, an ingest, a state save.  Set-up work that calls a
layer (the fine-tune of ``pipeline-2k``, the state open of
``ingest-stream``) sits under a ``setup`` run span instead, so it feeds the
layer's metrics without counting towards an op.

Counts a layer produces ride on its span as attributes; the per-layer
metrics are then computed from the finished trace alone
(:func:`layer_metrics`), and the same trace is written as a ``repro report``
JSONL file (:func:`write_trace`).
"""

from __future__ import annotations

import statistics
from pathlib import Path

from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.stages import PipelineContext, PipelineStage
from repro.evaluation.experiment import EntityGroupMatchingExperiment
from repro.matching.models import resolve_model_spec
from repro.matching.training import FineTuner
from repro.obs import NULL_RECORDER, JsonlSink, MemorySink, Span, Trace, TraceRecorder

#: Span kind of one call into a library layer.
LAYER = "layer"

#: Layer span name → per-layer metric holding its median seconds.
LAYER_SECONDS = {
    "finetune": "finetune.s",
    "blocking": "blocking.s",
    "pairwise_matching": "matching.s",
    "pre_cleanup": "pre_cleanup.s",
    "gralmatch_cleanup": "cleanup.s",
    "grouping": "grouping.s",
    "scoring": "scoring.s",
    "ingest": "ingest.s",
    "state.save": "state.save_s",
    "state.open": "state.open_s",
}


def new_recorder() -> tuple[TraceRecorder, MemorySink]:
    """A recorder that keeps every record in memory, and its record store."""
    memory = MemorySink()
    return TraceRecorder(sink=memory), memory


def write_trace(recorder: TraceRecorder, memory: MemorySink, path: Path) -> None:
    """Finish ``recorder`` and write its records as a JSONL trace file."""
    recorder.finish()
    sink = JsonlSink(path)
    for record in memory.records:
        sink.write(record)
    sink.close()


class TracedStage(PipelineStage):
    """A pipeline stage wrapped in a layer span, with the stage's counts."""

    def __init__(self, stage: PipelineStage, recorder: TraceRecorder) -> None:
        self.stage = stage
        self.name = stage.name
        self.timing_group = stage.timing_group
        self.recorder = recorder

    def run(self, context: PipelineContext) -> None:
        with self.recorder.span(self.name, kind=LAYER) as span:
            self.stage.run(context)
            span.attributes.update(_stage_counts(self.name, context))


def _stage_counts(name: str, context: PipelineContext) -> dict[str, int]:
    if name == "blocking":
        return {"candidates": len(context.candidates)}
    if name == "pairwise_matching":
        return {"pairs": len(context.decisions)}
    if name == "gralmatch_cleanup":
        report = context.cleanup_report
        is_match = context.dataset.is_true_match
        return {
            "mincut_removals": report.mincut_removals,
            "betweenness_removals": report.betweenness_removals,
            "largest_component": report.initial_largest_component,
            "removed": len(report.removed_edges),
            "removed_nonmatch": sum(
                not is_match(left, right) for left, right in report.removed_edges
            ),
        }
    return {}


def run_traced(pipeline: EntityGroupMatchingPipeline, dataset, recorder: TraceRecorder):
    """``pipeline.run(dataset)`` with every stage in a layer span."""
    original = pipeline.stages
    pipeline.stages = [TracedStage(stage, recorder) for stage in original]
    try:
        return pipeline.run(dataset)
    finally:
        pipeline.stages = original


def assemble_pipeline(
    experiment: EntityGroupMatchingExperiment, recorder=NULL_RECORDER
) -> EntityGroupMatchingPipeline:
    """Fine-tune and assemble exactly what ``experiment.build_pipeline()``
    does, with the fine-tune in its own layer span."""
    config = experiment.config
    tuner = FineTuner(
        negative_ratio=config.negative_ratio,
        num_epochs=config.num_epochs,
        seed=config.seed,
    )
    with recorder.span("finetune", kind=LAYER) as span:
        tuned = tuner.fine_tune(
            resolve_model_spec(config.model),
            experiment.dataset,
            train_entities=experiment.splits.train_entities,
            validation_entities=experiment.splits.validation_entities,
        )
        if span is not None:
            span.attributes["pairs"] = (
                tuned.num_training_pairs + tuned.num_validation_pairs
            )
    return EntityGroupMatchingPipeline(
        matcher=tuned.matcher,
        blocking=experiment.build_blocking(),
        cleanup_config=experiment.build_cleanup_config(),
        pre_cleanup_config=experiment.build_pre_cleanup_config(),
        runtime=config.runtime,
        cleanup_strategy=config.cleanup_strategy,
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Trace, overhead: float) -> dict[str, float]:
    """Every per-layer metric from a finished trace (0 where a layer never ran).

    ``overhead`` is the traced-over-untraced op time the workload measured.
    """
    by_name: dict[str, list[Span]] = {}
    for span in trace.walk():
        if span.kind == LAYER:
            by_name.setdefault(span.name, []).append(span)

    def median_seconds(name: str) -> float:
        spans = by_name.get(name, [])
        return statistics.median(span.duration for span in spans) if spans else 0.0

    def attribute_sum(name: str, key: str) -> int:
        return sum(int(span.attributes.get(key, 0)) for span in by_name.get(name, []))

    def per_span(name: str, key: str) -> float:
        spans = by_name.get(name, [])
        return attribute_sum(name, key) / len(spans) if spans else 0.0

    def throughput(name: str, key: str) -> float:
        spans = by_name.get(name, [])
        return _ratio(attribute_sum(name, key), sum(span.duration for span in spans))

    metrics = {metric: median_seconds(name) for name, metric in LAYER_SECONDS.items()}
    metrics.update({
        "finetune.pairs": per_span("finetune", "pairs"),
        "finetune.pairs_per_s": throughput("finetune", "pairs"),
        "cleanup.mincut_removals": per_span("gralmatch_cleanup", "mincut_removals"),
        "cleanup.betweenness_removals": per_span(
            "gralmatch_cleanup", "betweenness_removals"
        ),
        "cleanup.largest_component": per_span("gralmatch_cleanup", "largest_component"),
        "cleanup.removed_nonmatch_ratio": _ratio(
            attribute_sum("gralmatch_cleanup", "removed_nonmatch"),
            attribute_sum("gralmatch_cleanup", "removed"),
        ),
        "blocking.candidates": per_span("blocking", "candidates"),
        "matching.pairs_per_s": throughput("pairwise_matching", "pairs"),
        "ingest.records_rescored": per_span("ingest", "records_rescored"),
        "ingest.decision_cache_hit_ratio": _ratio(
            attribute_sum("ingest", "pairs_reused"),
            attribute_sum("ingest", "pairs_reused") + attribute_sum("ingest", "pairs_scored"),
        ),
        "ingest.cleanup_memo_hit_ratio": _ratio(
            attribute_sum("ingest", "components_reused"),
            attribute_sum("ingest", "components_reused")
            + attribute_sum("ingest", "components_recleaned"),
        ),
        "state.bytes": float(trace.gauges.get("state.bytes", 0.0)),
        "trace.overhead": overhead,
    })
    ops = [span for span in trace.spans if span.name == "op"]
    metrics["trace.coverage"] = (
        statistics.median(
            sum(span.duration for span in op.walk() if span.kind == LAYER) / op.duration
            for op in ops
        )
        if ops
        else 0.0
    )
    return metrics
