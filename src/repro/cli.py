"""Command-line interface.

A small operational front-end over the library, mirroring what the paper's
accompanying code exposes:

* ``repro generate`` — generate the synthetic companies / securities
  benchmark (optionally the WDC-Products-style dataset) and write CSVs,
* ``repro stats`` — print the Table 1 statistics of a dataset CSV,
* ``repro match`` — run the end-to-end entity group matching experiment on a
  generated dataset and print the three-stage scores (a Table 4 row),
* ``repro run`` — the same experiment driven by a declarative JSON/TOML
  spec file (see :mod:`repro.specs`); ``repro match`` is a thin shim that
  builds such a spec from its flags, so both commands share one code path,
* ``repro ingest`` — incremental ingestion: feed record-batch CSVs into a
  persistent match state directory (created from a spec on first use); the
  resulting groups are byte-identical to a one-shot ``repro run`` over the
  concatenated batches,
* ``repro state show`` — inspect a match state directory (and export its
  current groups),
* ``repro report`` — render a ``--trace`` JSONL run trace as a span tree
  with per-stage throughput and cache-hit summaries, or export it as Chrome
  ``trace_event`` JSON (``--chrome``) for flame-chart viewing,
* ``repro lint`` — the project-contract static analyser
  (:mod:`repro.analysis`): AST rules enforcing the determinism, two-phase
  protocol and pool-safety invariants, with ``--select``/``--ignore``,
  ``--format json``, baselines and inline suppressions.

Installed as ``repro`` (see ``pyproject.toml``) or runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from collections.abc import Sequence

from repro.datagen import GenerationConfig, dataset_statistics, generate_benchmark
from repro.datagen.io import read_dataset_csv, write_dataset_csv
from repro.datagen.records import Dataset
from repro.datagen.wdc import WdcConfig, generate_wdc_products
from repro.evaluation import format_table
from repro.runtime import EXECUTOR_KINDS
from repro.specs import (
    ExperimentSpec,
    PipelineSpec,
    RuntimeSpec,
    SpecValidationError,
)


def positive_int(text: str) -> int:
    """Argparse type for strictly positive integers (workers, batch sizes)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _require_dataset(path: Path) -> Dataset | None:
    """Load a dataset CSV, or report the missing file identically everywhere.

    Every dataset-consuming subcommand (``stats``, ``match``, ``run``) goes
    through this helper so the error text and exit behaviour never drift:
    on a missing file it prints ``error: dataset file not found: <path>`` to
    stderr and returns ``None`` (the caller exits 2).
    """
    if not path.exists():
        print(f"error: dataset file not found: {path}", file=sys.stderr)
        return None
    return read_dataset_csv(path)


#: The execution-engine flags shared by ``match`` and ``run``; each maps 1:1
#: onto a ``pipeline.runtime`` spec key.
_RUNTIME_FLAG_KEYS = ("workers", "batch_size", "executor", "trace")


def _add_runtime_flags(parser: argparse.ArgumentParser, *, overrides: bool) -> None:
    """Attach the runtime flags to a subcommand parser.

    With ``overrides=True`` (the ``run`` subcommand) every default is
    ``None`` so that only flags the user actually typed override the spec
    file — CLI beats spec, spec beats library default.
    """
    parser.add_argument("--workers", type=positive_int,
                        default=None if overrides else 1,
                        help="execution-engine worker slots, and record spans "
                             "each blocking is scored in (1 = serial engine)")
    parser.add_argument("--batch-size", type=positive_int,
                        default=None if overrides else 2048,
                        help="candidate pairs per pairwise-inference chunk")
    parser.add_argument("--executor", choices=list(EXECUTOR_KINDS),
                        default=None if overrides else "process",
                        help="worker pool flavour used when --workers > 1")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream a structured run trace (spans + metrics, "
                             "JSON Lines) to this file; inspect it with "
                             "'repro report' (tracing never changes outputs)")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraLMatch reproduction: entity group matching tooling",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="library log level on stderr: -v INFO, -vv DEBUG "
                             "(default: warnings only)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate the synthetic multi-source benchmark datasets"
    )
    generate.add_argument("--entities", type=positive_int, default=1_000,
                          help="number of company record groups to generate")
    generate.add_argument("--sources", type=positive_int, default=5,
                          help="number of data sources")
    generate.add_argument("--seed", type=int, default=0, help="generation seed")
    generate.add_argument("--wdc", action="store_true",
                          help="also generate the WDC-Products-style dataset")
    generate.add_argument("--output-dir", type=Path, default=Path("data"),
                          help="directory the CSV files are written to")

    stats = subparsers.add_parser(
        "stats", help="print Table 1 statistics for a dataset CSV"
    )
    stats.add_argument("dataset", type=Path, help="path to a dataset CSV")

    match = subparsers.add_parser(
        "match", help="run the end-to-end entity group matching experiment"
    )
    match.add_argument("dataset", type=Path, help="path to a dataset CSV")
    match.add_argument("--kind", choices=["companies", "securities", "products"],
                       default="companies", help="dataset kind (selects the blocking recipe)")
    match.add_argument("--model", default="distilbert-128-all",
                       help="model spec name (see repro.matching.models.MODEL_SPECS)")
    match.add_argument("--epochs", type=positive_int, default=3, help="fine-tuning epochs")
    match.add_argument("--seed", type=int, default=0, help="split / sampling seed")
    _add_runtime_flags(match, overrides=False)

    run = subparsers.add_parser(
        "run", help="run an experiment described by a declarative JSON/TOML spec"
    )
    run.add_argument("config", type=Path,
                     help="path to an experiment spec (.toml or .json)")
    run.add_argument("--dataset", type=Path, default=None,
                     help="dataset CSV overriding the spec's experiment.dataset path")
    run.add_argument("--groups-out", type=Path, default=None,
                     help="write the final entity groups to this JSON file "
                          "(canonically sorted, so equal partitions compare "
                          "byte-equal)")
    _add_runtime_flags(run, overrides=True)

    ingest = subparsers.add_parser(
        "ingest",
        help="ingest record-batch CSVs into a persistent match state "
             "(byte-identical groups to a one-shot run over all batches)",
    )
    ingest.add_argument("batches", type=Path, nargs="+",
                        help="record-batch CSV files, ingested in order")
    ingest.add_argument("--state", type=Path, default=None,
                        help="match state directory (defaults to the spec's "
                             "[pipeline.state] dir); created on first use")
    ingest.add_argument("--config", type=Path, default=None,
                        help="experiment spec used to initialise a fresh "
                             "state (required the first time)")
    ingest.add_argument("--train-dataset", type=Path, default=None,
                        help="dataset CSV the matcher is fine-tuned on at "
                             "state creation (defaults to the spec's "
                             "experiment.dataset; train on the full corpus "
                             "to reproduce a one-shot run exactly)")
    ingest.add_argument("--groups-out", type=Path, default=None,
                        help="write the post-ingest entity groups to this "
                             "JSON file (same canonical format as repro run)")
    ingest.add_argument("--no-save", action="store_true",
                        help="do not persist the updated state back to the "
                             "state directory")
    _add_runtime_flags(ingest, overrides=True)

    lint = subparsers.add_parser(
        "lint",
        help="statically check the determinism / protocol / pool-safety "
             "contracts (see repro.analysis)",
    )
    lint.add_argument("paths", type=Path, nargs="*",
                      help="files or directories to lint (default: src); "
                           ".toml/.json files are checked as spec data")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule names to run (default: all "
                           "registered rules; see --list-rules)")
    lint.add_argument("--ignore", default=None, metavar="RULES",
                      help="comma-separated rule names to skip")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      dest="output_format",
                      help="findings as human-readable lines or one JSON "
                           "document")
    lint.add_argument("--baseline", type=Path, default=None,
                      help="JSON baseline file; findings recorded in it are "
                           "filtered out (adopt a rule before paying down "
                           "its backlog)")
    lint.add_argument("--write-baseline", type=Path, default=None,
                      help="write the current findings to this baseline "
                           "file and exit 0")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")

    report = subparsers.add_parser(
        "report",
        help="render a --trace JSONL file as a span tree with per-stage "
             "throughput and cache-hit summaries",
    )
    report.add_argument("trace", type=Path, help="trace JSONL file written "
                        "by --trace on run/match/ingest")
    report.add_argument("--chrome", type=Path, default=None, metavar="OUT",
                        help="also export the trace as Chrome trace_event "
                             "JSON (load in chrome://tracing or Perfetto)")

    state = subparsers.add_parser(
        "state", help="inspect persistent match state directories"
    )
    state_sub = state.add_subparsers(dest="state_command", required=True)
    show = state_sub.add_parser(
        "show", help="print a match state's manifest summary"
    )
    show.add_argument("state_dir", type=Path, help="match state directory")
    show.add_argument("--groups-out", type=Path, default=None,
                      help="write the state's current entity groups to this "
                           "JSON file (same canonical format as repro run)")
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    config = GenerationConfig(
        num_entities=args.entities, num_sources=args.sources, seed=args.seed
    )
    benchmark = generate_benchmark(config)
    output_dir = args.output_dir
    companies_path = write_dataset_csv(benchmark.companies, output_dir / "companies.csv")
    securities_path = write_dataset_csv(benchmark.securities, output_dir / "securities.csv")
    print(f"wrote {len(benchmark.companies)} company records to {companies_path}")
    print(f"wrote {len(benchmark.securities)} security records to {securities_path}")
    if args.wdc:
        wdc = generate_wdc_products(WdcConfig(num_entities=max(args.entities // 2, 10),
                                              seed=args.seed))
        wdc_path = write_dataset_csv(wdc, output_dir / "wdc_products.csv")
        print(f"wrote {len(wdc)} product records to {wdc_path}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    dataset = _require_dataset(args.dataset)
    if dataset is None:
        return 2
    row = dataset_statistics(dataset).as_row()
    print(format_table([row], title=f"Dataset statistics — {dataset.name}"))
    return 0


def write_groups_json(groups, path: Path) -> Path:
    """Write entity groups to ``path`` in canonical JSON form.

    Groups are sorted record lists, sorted among themselves — a pure
    function of the *partition*, independent of internal group order — so
    two runs produce byte-equal files iff they produced the same groups.
    This is what the CI smoke diffs between ``repro run`` and ``repro
    ingest``.
    """
    canonical = sorted(sorted(group) for group in groups)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"groups": canonical}, indent=2) + "\n",
                    encoding="utf-8")
    return path


def _run_spec(spec: ExperimentSpec, dataset_path: Path,
              groups_out: Path | None = None) -> int:
    """Shared execution path of ``match`` and ``run``."""
    from repro.api import run_experiment
    from repro.matching.training import TrainingDataError

    dataset = _require_dataset(dataset_path)
    if dataset is None:
        return 2
    try:
        result = run_experiment(spec, dataset=dataset)
    except TrainingDataError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_table([result.as_row()], title="Entity group matching result"))
    if groups_out is not None:
        written = write_groups_json(result.pipeline_result.groups, groups_out)
        print(f"wrote {len(result.pipeline_result.groups)} groups to {written}")
    return 0


def _command_match(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            dataset=str(args.dataset),
            kind=args.kind,
            model=args.model,
            epochs=args.epochs,
            seed=args.seed,
            pipeline=PipelineSpec(
                runtime=RuntimeSpec(
                    workers=args.workers,
                    batch_size=args.batch_size,
                    executor=args.executor,
                    trace=args.trace,
                ),
            ),
        )
    except SpecValidationError as error:
        # Flags map 1:1 onto spec keys (e.g. --model -> experiment.model),
        # so the named-key message pinpoints the offending flag.
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _run_spec(spec, args.dataset)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The runtime flags the user explicitly typed (``None`` = untouched)."""
    return {
        key: value
        for key in _RUNTIME_FLAG_KEYS
        if (value := getattr(args, key)) is not None
    }


def _apply_runtime_overrides(
    spec: ExperimentSpec, args: argparse.Namespace
) -> ExperimentSpec:
    """Overlay explicitly-typed runtime flags on a loaded spec.

    Precedence: a flag the user passed beats the spec file's
    ``[pipeline.runtime]`` value, which beats the library default — flags
    left at their ``None`` default never touch the spec.
    """
    overrides = _flag_overrides(args)
    if not overrides:
        return spec
    runtime = replace(spec.pipeline.runtime, **overrides)
    return replace(spec, pipeline=replace(spec.pipeline, runtime=runtime))


def _command_run(args: argparse.Namespace) -> int:
    from repro.api import load_spec

    if not args.config.exists():
        print(f"error: spec file not found: {args.config}", file=sys.stderr)
        return 2
    try:
        spec = _apply_runtime_overrides(load_spec(args.config), args)
    except SpecValidationError as error:
        print(f"error: invalid spec {args.config}: {error}", file=sys.stderr)
        return 2
    dataset_path = args.dataset if args.dataset is not None else (
        Path(spec.dataset) if spec.dataset else None
    )
    if dataset_path is None:
        print(
            f"error: {args.config} sets no experiment.dataset and no "
            "--dataset was given",
            file=sys.stderr,
        )
        return 2
    return _run_spec(spec, dataset_path, groups_out=args.groups_out)


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.api import ingest, load_spec, open_state
    from repro.incremental import MatchStateError, is_state_dir
    from repro.registry import RegistryError

    spec = None
    if args.config is not None:
        if not args.config.exists():
            print(f"error: spec file not found: {args.config}", file=sys.stderr)
            return 2
        try:
            spec = _apply_runtime_overrides(load_spec(args.config), args)
        except SpecValidationError as error:
            print(f"error: invalid spec {args.config}: {error}", file=sys.stderr)
            return 2

    state_dir = args.state
    if state_dir is None and spec is not None and spec.pipeline.state.dir:
        state_dir = Path(spec.pipeline.state.dir)
    if state_dir is None:
        print(
            "error: no state directory: pass --state or set "
            "[pipeline.state] dir in the spec",
            file=sys.stderr,
        )
        return 2

    missing = [str(path) for path in args.batches if not path.exists()]
    if missing:
        print(f"error: dataset file not found: {missing[0]}", file=sys.stderr)
        return 2

    save = not args.no_save
    autosave = save and (spec is None or spec.pipeline.state.autosave)
    matcher = None
    try:
        if is_state_dir(state_dir):
            if args.train_dataset is not None:
                print(
                    f"error: {state_dir} is already initialised; "
                    "--train-dataset only applies when creating a state "
                    "(use a fresh --state directory to retrain)",
                    file=sys.stderr,
                )
                return 2
            matcher = open_state(state_dir)
            # Engine settings for this invocation (results never depend on
            # them): CLI flags beat the spec's [pipeline.runtime] (when
            # --config is given — note _apply_runtime_overrides already
            # folded the flags in), which beats the stored state's config.
            if spec is not None:
                print(
                    f"using the components stored in {state_dir} (a spec's "
                    "model/blocking sections apply only at state creation; "
                    "[pipeline.runtime] and [pipeline.state] are honoured)"
                )
                runtime = spec.pipeline.runtime.to_runtime_config()
            else:
                runtime = _runtime_override_config(matcher, args)
            if runtime is not None:
                from repro.runtime import PipelineRuntime

                matcher.runtime = PipelineRuntime(runtime)
        else:
            if spec is None:
                print(
                    f"error: {state_dir} is not an initialised match state; "
                    "pass --config to create one",
                    file=sys.stderr,
                )
                return 2
            matcher = open_state(
                state_dir,
                spec=spec,
                train_dataset=args.train_dataset,
                save=save,
            )
            print(
                f"initialised match state at {state_dir} "
                f"(matcher {type(matcher.state.matcher).__name__}, blocking "
                f"{[part.name for part in matcher.state.blocking.partition()]})"
            )
        for batch_path in args.batches:
            report = ingest(matcher, batch_path, save=False)
            print(
                f"ingested {batch_path}: +{report.num_new_records} records "
                f"(total {report.num_records}), scored "
                f"{report.pairs_scored}/{report.num_candidates} pairs "
                f"({report.pairs_reused} cached), recleaned "
                f"{report.components_recleaned}/{report.components_total} "
                f"components ({report.components_reused} untouched), "
                f"{len(matcher.groups)} groups"
            )
            if autosave:
                matcher.save(state_dir)
        if save and not autosave:
            matcher.save(state_dir)
    except (MatchStateError, SpecValidationError, RegistryError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # The warm pool deliberately stays live *across* the batch loop (the
        # whole point of this command's speed), released once here.
        if matcher is not None:
            matcher.close()
    if args.groups_out is not None:
        written = write_groups_json(matcher.groups, args.groups_out)
        print(f"wrote {len(matcher.groups)} groups to {written}")
    return 0


def _runtime_override_config(matcher, args: argparse.Namespace):
    """RuntimeConfig from explicitly-typed flags over the stored settings."""
    overrides = _flag_overrides(args)
    if not overrides:
        return None
    return replace(matcher.state.runtime_config, **overrides)


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        RULES,
        RegistryError,
        run_paths,
        rule_names,
        write_baseline,
    )

    if args.list_rules:
        for name in rule_names():
            print(f"{name}: {RULES.get(name).description}")
        return 0
    paths = list(args.paths) if args.paths else [Path("src")]
    select = [n.strip() for n in args.select.split(",") if n.strip()] if args.select else None
    ignore = [n.strip() for n in args.ignore.split(",") if n.strip()] if args.ignore else None
    try:
        result = run_paths(paths, select=select, ignore=ignore, baseline=args.baseline)
    except (RegistryError, FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        written = write_baseline(result.findings, args.write_baseline)
        print(f"wrote {len(result.findings)} finding(s) to baseline {written}")
        return 0
    if args.output_format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for finding in result.findings:
            print(finding.format_text())
        summary = (
            f"{len(result.findings)} finding(s) in {result.files_checked} "
            f"file(s) ({result.suppressed} suppressed)"
        )
        print(summary if result.findings else f"clean: {summary}")
    return 1 if result.findings else 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceFormatError,
        chrome_trace,
        read_trace_jsonl,
        render_trace_report,
    )

    if not args.trace.exists():
        print(f"error: trace file not found: {args.trace}", file=sys.stderr)
        return 2
    try:
        trace = read_trace_jsonl(args.trace)
    except TraceFormatError as error:
        print(f"error: invalid trace {args.trace}: {error}", file=sys.stderr)
        return 2
    print(render_trace_report(trace))
    if args.chrome is not None:
        args.chrome.parent.mkdir(parents=True, exist_ok=True)
        payload = chrome_trace(trace)
        args.chrome.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote {len(payload['traceEvents'])} trace events to {args.chrome}"
        )
    return 0


def _command_state(args: argparse.Namespace) -> int:
    from repro.incremental import MatchStateError, read_manifest

    if args.state_command == "show":
        try:
            manifest = read_manifest(args.state_dir)
        except MatchStateError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"Match state — {args.state_dir}")
        for key in (
            "format", "format_version", "name", "num_records", "num_ingests",
            "num_candidates", "num_decisions", "num_groups",
            "cleanup_strategy", "blocking_parts", "matcher_type",
        ):
            print(f"  {key}: {manifest.get(key)}")
        segments = manifest.get("segments", [])
        print(f"  base: {manifest.get('payload_dir')}, {manifest.get('base_bytes')} bytes")
        print(
            f"  journal: {len(segments)} segments, "
            f"{sum(segment['bytes'] for segment in segments)} bytes"
        )
        if args.groups_out is not None:
            from repro.incremental import IncrementalMatcher

            matcher = IncrementalMatcher.load(args.state_dir)
            written = write_groups_json(matcher.groups, args.groups_out)
            print(f"wrote {len(matcher.groups)} groups to {written}")
        return 0
    raise ValueError(f"unknown state subcommand: {args.state_command!r}")


_COMMANDS = {
    "generate": _command_generate,
    "stats": _command_stats,
    "match": _command_match,
    "run": _command_run,
    "ingest": _command_ingest,
    "lint": _command_lint,
    "report": _command_report,
    "state": _command_state,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs import configure_cli_logging

        configure_cli_logging(args.verbose)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
