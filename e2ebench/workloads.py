"""The benchmark's workloads: inputs from a seed, set-up, timed ops, checks.

Every workload is a closed loop of serial ops from this one process.  A run
writes its generated corpora as CSV files (the program only ever sees those
inputs), sets up ``SETUPS`` times, runs one untimed warm-up op, then times
ops for about the requested seconds, each time scaled by a
:class:`SpeedGauge` reading.  Every op's groups are checked; an exception
or a mismatch counts as a failed op.  A traced run (``recorder`` enabled)
additionally repeats the op as a decomposition into layer spans
(:mod:`e2ebench.tracing`) and checks that it produces the same groups.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro import api
from repro.core.metrics import group_matching_scores, pairwise_scores
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import read_dataset_csv, write_dataset_csv
from repro.datagen.records import Dataset
from repro.evaluation.experiment import EntityGroupMatchingExperiment
from repro.obs.clock import now
from repro.obs.resources import peak_rss_bytes
from repro.specs import ExperimentSpec

from e2ebench.tracing import LAYER, assemble_pipeline, run_traced

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: The fixed training corpus of the workloads whose matcher is fitted in
#: set-up (300 entities, generator seed 0).  A seed-drawn training corpus
#: made the matcher's quality, and with it the group F1 and the cleanup
#: work, vary from seed to seed more than any useful bound.
TRAIN_ENTITIES = 300
TRAIN_SEED = 0

#: The speed gauge's kernel time at the reference speed, in seconds: about
#: its best time on the lightly loaded 2-core x86-64 VM the bounds were set on.
REFERENCE_KERNEL_S = 0.011
#: A gauge reading older than this is taken afresh before it is used.
GAUGE_MAX_AGE_S = 1.0


def speed_kernel() -> int:
    """Fixed pure-Python work shaped like the library's graph code: a random
    adjacency of a few thousand nodes built and walked depth-first."""
    rng = random.Random(0)
    nodes = 4_000
    adjacency: dict[int, list[int]] = {node: [] for node in range(nodes)}
    for _ in range(12_000):
        left, right = rng.randrange(nodes), rng.randrange(nodes)
        adjacency[left].append(right)
        adjacency[right].append(left)
    seen: set[int] = set()
    for start in range(nodes):
        stack = [start]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adjacency[node])
    return len(seen)


class SpeedGauge:
    """How much slower than the reference speed the machine runs right now.

    A shared machine's speed drifts: a fixed loop took between 0.24 s and
    0.39 s, in phases lasting seconds to minutes, which moved a run's median
    op time by 20% on identical inputs.  Dividing each wall time by the
    gauge read around it removes most of that drift; the wall times
    themselves are kept in the result file.
    """

    def __init__(self) -> None:
        self.taken_at: float | None = None
        self.slowness = 1.0

    def read(self) -> float:
        if self.taken_at is None or now() - self.taken_at > GAUGE_MAX_AGE_S:
            best = min(self._time_kernel() for _ in range(2))
            self.slowness = best / REFERENCE_KERNEL_S
            self.taken_at = now()
        return self.slowness

    @staticmethod
    def _time_kernel() -> float:
        start = now()
        speed_kernel()
        return now() - start


def reference_spec() -> ExperimentSpec:
    """The reference experiment: logistic matcher, one epoch, serial engine.

    Cleanup thresholds derive from the corpora's 4 sources (gamma 20, mu 4).
    """
    return ExperimentSpec.from_dict({
        "experiment": {"kind": "companies", "model": "logistic", "epochs": 1, "seed": 0},
        "pipeline": {"runtime": {"workers": 1}},
    })


def companies(entities: int, seed: int) -> Dataset:
    """A generated 4-source companies corpus."""
    config = GenerationConfig(num_entities=entities, num_sources=4, seed=seed)
    return generate_benchmark(config).companies


def head(dataset: Dataset, count: int) -> Dataset:
    return Dataset(dataset.name, dataset.records[:count])


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: Set-up and op times scaled to the reference speed (see SpeedGauge),
    #: and the wall times they were scaled from.
    setup_seconds: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    setup_wall_seconds: list[float] = field(default_factory=list)
    op_wall_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    group_f1: float = 0.0
    #: Corpora ``group_f1`` averages over.
    group_f1_corpora: int = 1
    peak_rss_bytes: int = 0
    #: Traced op time over untraced op time (traced runs only).
    overhead: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Workload:
    """Set-up, warm-up, timed loop and traced decomposition of one workload."""

    name = "workload"
    #: Ops per round.  A new round starts only while it is expected to end
    #: within the time budget, so every input gets the same number of ops.
    round_ops = 1
    #: Fewest timed ops per run, and the most (``None``: bounded by time only).
    min_ops = 1
    max_ops: int | None = None

    def __init__(self, seed: int, seconds: float, work: Path, recorder) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.recorder = recorder
        self.outcome = Outcome()
        self.gauge = SpeedGauge()

    def run(self) -> Outcome:
        """The whole run; the work directory is removed afterwards."""
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.make_inputs()
            for index in range(SETUPS):
                self.close()
                gc.collect()
                slowness = self.gauge.read()
                start = now()
                self.set_up(index)
                elapsed = now() - start
                slowness = (slowness + self.gauge.read()) / 2
                self.outcome.setup_wall_seconds.append(elapsed)
                self.outcome.setup_seconds.append(elapsed / slowness)
            self.warm_up()
            self.timed_loop()
            self.outcome.peak_rss_bytes = peak_rss_bytes() or 0
            self.finish()
        finally:
            self.close()
            shutil.rmtree(self.work, ignore_errors=True)
        return self.outcome

    def timed_loop(self) -> None:
        started = now()
        index = 0
        while self.max_ops is None or index < self.max_ops:
            if index >= self.min_ops and index % self.round_ops == 0:
                elapsed = now() - started
                if elapsed + elapsed / (index // self.round_ops) > self.seconds:
                    break
            self.attempt(f"op {index}", partial(self.op, index))
            index += 1
        self.ops_run = index

    def attempt(self, label: str, op: Callable[[], tuple[float, str | None]]) -> None:
        """Run one op; its time counts only if it raised nothing and checked out."""
        outcome = self.outcome
        gc.collect()
        outcome.attempted += 1
        slowness = self.gauge.read()
        try:
            elapsed, problem = op()
        except Exception as error:  # a failed op is counted and the run goes on
            outcome.fail(f"{label}: {error!r}")
            return
        if problem is not None:
            outcome.fail(f"{label}: {problem}")
        elif elapsed is not None:
            slowness = (slowness + self.gauge.read()) / 2
            outcome.op_wall_seconds.append(elapsed)
            outcome.op_seconds.append(elapsed / slowness)

    def write_corpus(self, name: str, dataset: Dataset) -> Path:
        return write_dataset_csv(dataset, self.work / f"{name}.csv")

    def make_inputs(self) -> None:
        raise NotImplementedError

    def set_up(self, index: int) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> tuple[float, str | None]:
        raise NotImplementedError

    def finish(self) -> None:
        """Traced decomposition and end-of-run checks."""

    def close(self) -> None:
        """Release what set-up opened."""


class BatchWorkload(Workload):
    """One op per corpus per round; a corpus's groups must repeat exactly.

    Corpus difficulty varies with the generator seed, so each run spreads
    its ops over ``round_ops`` corpora to steady its medians across seeds.
    """

    entities = 0
    #: Records in the reduced warm-up op's corpus.
    warm_up_records = 400
    #: Corpora that get a traced op in a traced run.
    traced_corpora = 3

    def make_inputs(self) -> None:
        count = self.round_ops
        self.csv_paths = [
            self.write_corpus(
                f"corpus-{index}", companies(self.entities, count * self.seed + index + 1)
            )
            for index in range(count)
        ]
        self.samples: list[list[float]] = [[] for _ in range(count)]
        self.groups: list[list | None] = [None] * count
        self.f1: list[float] = [0.0] * count

    def load_corpora(self) -> None:
        self.corpora = [read_dataset_csv(path) for path in self.csv_paths]

    def op(self, index: int) -> tuple[float, str | None]:
        corpus = index % self.round_ops
        elapsed, groups = self.timed_op(corpus)
        problem = self.check(corpus, groups)
        if problem is None:
            self.samples[corpus].append(elapsed)
        return elapsed, problem

    def check(self, corpus: int, groups) -> str | None:
        if self.groups[corpus] is None:
            self.groups[corpus] = groups.groups
            return None
        if groups.groups != self.groups[corpus]:
            return f"groups on corpus {corpus} differ from its first op"
        return None

    def finish(self) -> None:
        self.outcome.group_f1 = statistics.fmean(self.f1)
        self.outcome.group_f1_corpora = len(self.f1)
        if not self.recorder.enabled:
            return
        self.traced_seconds: dict[int, float] = {}
        for corpus in range(min(self.traced_corpora, self.round_ops)):
            self.attempt(f"traced op on corpus {corpus}", partial(self.traced_check, corpus))
        ratios = [
            seconds / statistics.median(self.samples[corpus])
            for corpus, seconds in self.traced_seconds.items()
            if self.samples[corpus]
        ]
        self.outcome.overhead = statistics.median(ratios) if ratios else 0.0

    def traced_check(self, corpus: int) -> tuple[None, str | None]:
        elapsed, groups = self.traced_op(corpus)
        self.traced_seconds[corpus] = elapsed
        return None, self.check(corpus, groups)

    def timed_op(self, corpus: int):
        raise NotImplementedError

    def traced_op(self, corpus: int):
        raise NotImplementedError


class Experiment1k(BatchWorkload):
    """``repro.api.run_experiment`` on ~1050 records (300 entities)."""

    name = "experiment-1k"
    entities = 300
    round_ops = min_ops = 8

    def set_up(self, index: int) -> None:
        self.spec = reference_spec()
        self.load_corpora()

    def warm_up(self) -> None:
        api.run_experiment(self.spec, dataset=head(self.corpora[0], self.warm_up_records))

    def timed_op(self, corpus: int):
        dataset = self.corpora[corpus]
        start = now()
        result = api.run_experiment(self.spec, dataset=dataset)
        elapsed = now() - start
        self.f1[corpus] = result.post_cleanup.f1
        return elapsed, result.pipeline_result.groups

    def traced_op(self, corpus: int):
        """``run_experiment`` decomposed: split, fine-tune, stages, scoring."""
        dataset = self.corpora[corpus]
        recorder = self.recorder
        with recorder.span("op", kind="run", workload=self.name, corpus=corpus) as op:
            with recorder.span("split", kind=LAYER):
                experiment = EntityGroupMatchingExperiment(
                    dataset, self.spec.to_experiment_config()
                )
            pipeline = assemble_pipeline(experiment, recorder)
            try:
                result = run_traced(pipeline, dataset, recorder)
            finally:
                pipeline.close()
            with recorder.span("scoring", kind=LAYER):
                truth = dataset.true_matches()
                pairwise_scores(result.positive_edges, truth)
                group_matching_scores(result.pre_cleanup_groups, truth)
                group_matching_scores(result.groups, truth)
        return op.duration, result.groups


class Pipeline2k(BatchWorkload):
    """``pipeline.run`` on ~2100 records (600 entities).

    The matcher is fitted once per set-up on the fixed training corpus, like
    a deployed model; the seed draws the corpora it matches.
    """

    name = "pipeline-2k"
    entities = 600
    round_ops = min_ops = 6
    pipeline = None

    def make_inputs(self) -> None:
        super().make_inputs()
        self.train_csv = self.write_corpus("train", companies(TRAIN_ENTITIES, TRAIN_SEED))
        self.truth: list[set | None] = [None] * self.round_ops

    def set_up(self, index: int) -> None:
        experiment = EntityGroupMatchingExperiment(
            read_dataset_csv(self.train_csv), reference_spec().to_experiment_config()
        )
        with self.recorder.span("setup", kind="run", workload=self.name):
            self.pipeline = assemble_pipeline(experiment, self.recorder)
        self.load_corpora()

    def warm_up(self) -> None:
        self.pipeline.run(head(self.corpora[0], self.warm_up_records))

    def timed_op(self, corpus: int):
        dataset = self.corpora[corpus]
        start = now()
        result = self.pipeline.run(dataset)
        elapsed = now() - start
        if self.truth[corpus] is None:
            self.truth[corpus] = dataset.true_matches()
            self.f1[corpus] = group_matching_scores(result.groups, self.truth[corpus]).f1
        return elapsed, result.groups

    def traced_op(self, corpus: int):
        recorder = self.recorder
        with recorder.span("op", kind="run", workload=self.name, corpus=corpus) as op:
            result = run_traced(self.pipeline, self.corpora[corpus], recorder)
        return op.duration, result.groups

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()


class IngestStream(Workload):
    """10-record ``repro.api.ingest(..., save=True)`` batches after a
    1000-record prefix, in a seed-shuffled record order; the state's matcher
    is fine-tuned on the fixed training corpus."""

    name = "ingest-stream"
    prefix_records = 1000
    batch_records = 10
    #: One warm-up batch, then exactly 100 timed batches: ten samples lie
    #: beyond the p90, and every run of a seed ingests the same records.
    min_ops = max_ops = 100
    #: Timed batches that also get a traced ingest in a traced run.
    traced_batches = 30
    entities = 700
    matcher = None
    shadow = None

    def make_inputs(self) -> None:
        self.train_csv = self.write_corpus("train", companies(TRAIN_ENTITIES, TRAIN_SEED))
        records = companies(self.entities, self.seed).records
        random.Random(self.seed).shuffle(records)
        size = self.batch_records
        needed = self.prefix_records + size * (1 + self.max_ops)
        if len(records) < needed:
            raise RuntimeError(f"stream corpus has {len(records)} records, needs {needed}")
        self.prefix = records[: self.prefix_records]
        self.batches = [
            records[start : start + size]
            for start in range(self.prefix_records, needed, size)
        ]

    def set_up(self, index: int) -> None:
        state_dir = self.work / f"state-{index}"
        self.matcher = api.open_state(
            state_dir, spec=reference_spec(), train_dataset=self.train_csv
        )
        api.ingest(self.matcher, self.prefix, save=True)

    def warm_up(self) -> None:
        api.ingest(self.matcher, self.batches[0], save=True)
        if self.recorder.enabled:
            self.open_shadow()

    def open_shadow(self) -> None:
        """A second state, copied from the warmed one, for the traced ops."""
        shadow_dir = self.work / "shadow"
        shutil.copytree(self.matcher.state_dir, shadow_dir)
        recorder = self.recorder
        for _ in range(SETUPS):
            if self.shadow is not None:
                self.shadow.close()
            with recorder.span("setup", kind="run", workload=self.name):
                with recorder.span("state.open", kind=LAYER):
                    self.shadow = api.open_state(shadow_dir)
        self.traced_seconds: list[float] = []

    def op(self, index: int) -> tuple[float, str | None]:
        batch = self.batches[1 + index]
        start = now()
        report = api.ingest(self.matcher, batch, save=True)
        elapsed = now() - start
        if report.num_new_records != len(batch):
            return elapsed, f"ingested {report.num_new_records} of {len(batch)} records"
        if self.recorder.enabled and index < self.traced_batches:
            self.attempt(f"traced op {index}", lambda: self.traced_op(batch))
        return elapsed, None

    def traced_op(self, batch) -> tuple[None, str | None]:
        """One ingest decomposed into the ingest proper and the state save."""
        recorder = self.recorder
        with recorder.span("op", kind="run", workload=self.name) as op:
            with recorder.span("ingest", kind=LAYER) as span:
                report = api.ingest(self.shadow, batch, save=False)
                span.attributes.update(
                    records_rescored=report.records_rescored,
                    pairs_reused=report.pairs_reused,
                    pairs_scored=report.pairs_scored,
                    components_reused=report.components_reused,
                    components_recleaned=report.components_recleaned,
                )
            with recorder.span("state.save", kind=LAYER):
                self.shadow.save()
        self.traced_seconds.append(op.duration)
        if self.shadow.groups.groups != self.matcher.groups.groups:
            return None, "traced ingest groups differ from the untraced ingest"
        return None, None

    def finish(self) -> None:
        """Check the stream's groups against one batch run over the same records."""
        records = list(self.prefix)
        for batch in self.batches[: 1 + self.ops_run]:
            records.extend(batch)
        stream = Dataset("stream", records)
        recorder = self.recorder
        with recorder.span("check", kind="run", workload=self.name):
            experiment = EntityGroupMatchingExperiment(
                read_dataset_csv(self.train_csv), reference_spec().to_experiment_config()
            )
            with assemble_pipeline(experiment, recorder) as pipeline:
                batch_result = pipeline.run(stream)
        if batch_result.groups.groups != self.matcher.groups.groups:
            self.outcome.fail("stream groups differ from the one-shot pipeline run")
        self.outcome.group_f1 = group_matching_scores(
            self.matcher.groups, stream.true_matches()
        ).f1
        if recorder.enabled and self.outcome.op_wall_seconds and self.traced_seconds:
            # The traced ingests shadow the first timed batches only.
            untraced = statistics.median(self.outcome.op_wall_seconds[: self.traced_batches])
            self.outcome.overhead = statistics.median(self.traced_seconds) / untraced
            recorder.metrics.gauge(
                "state.bytes",
                sum(path.stat().st_size for path in self.shadow.state_dir.rglob("*")
                    if path.is_file()),
            )

    def close(self) -> None:
        for matcher in (self.matcher, self.shadow):
            if matcher is not None:
                matcher.close()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Experiment1k, Pipeline2k, IngestStream)
}
