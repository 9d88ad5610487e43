"""CLI surface of the observability layer: ``--trace``, ``repro report``,
``--chrome`` and the traced-equals-untraced contract at the command level.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import write_dataset_csv
from repro.obs import TRACE_FORMAT_VERSION, read_trace_jsonl


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-cli")
    companies = generate_benchmark(
        GenerationConfig(num_entities=30, num_sources=3, seed=7)
    ).companies
    return write_dataset_csv(companies, root / "companies.csv")


def run_match(dataset_csv, extra):
    return main([
        "match", str(dataset_csv), "--kind", "companies",
        "--model", "logistic", "--epochs", "1", *extra,
    ])


def without_last_column(output):
    """Every line of a ``repro match`` table with its last column cut off."""
    lines = []
    for line in output.splitlines():
        for separator in (" | ", "-+-"):
            if separator in line:
                line = line.rsplit(separator, 1)[0]
                break
        lines.append(line)
    return lines


class TestTraceFlag:
    def test_parser_accepts_trace_on_match_run_and_ingest(self):
        parser = build_parser()
        for argv in (
            ["match", "d.csv", "--trace", "out.jsonl"],
            ["run", "config.toml", "--trace", "out.jsonl"],
            ["ingest", "d.csv", "--trace", "out.jsonl"],
        ):
            assert parser.parse_args(argv).trace == "out.jsonl"
        assert parser.parse_args(["match", "d.csv"]).trace is None

    def test_match_writes_a_versioned_jsonl_trace(self, dataset_csv, tmp_path,
                                                  capsys):
        trace_path = tmp_path / "run.jsonl"
        assert run_match(dataset_csv, ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert first == {"type": "trace", "version": TRACE_FORMAT_VERSION}
        trace = read_trace_jsonl(trace_path)
        (run_span,) = trace.find("pipeline.run", kind="run")
        assert any(s.kind == "stage" for s in run_span.children)

    def test_traced_run_output_matches_untraced(self, dataset_csv, tmp_path,
                                                capsys):
        assert run_match(dataset_csv, []) == 0
        untraced = capsys.readouterr().out
        assert run_match(
            dataset_csv, ["--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        # The last column is wall-clock time rounded to 0.01 s, so two runs
        # may differ there; every result column before it must not.
        for output in (untraced, traced):
            header = next(line for line in output.splitlines() if " | " in line)
            assert header.split(" | ")[-1].strip() == "Inference (s)"
        assert without_last_column(traced) == without_last_column(untraced)


class TestReportCommand:
    @pytest.fixture(scope="class")
    def trace_file(self, dataset_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "run.jsonl"
        assert run_match(dataset_csv, ["--trace", str(path)]) == 0
        return path

    def test_renders_the_span_tree(self, trace_file, capsys):
        assert main(["report", str(trace_file)]) == 0
        output = capsys.readouterr().out
        assert "Trace" in output
        assert "pipeline.run [run]" in output
        assert "pairwise_matching [stage]" in output
        assert "chunks" in output  # the per-stage throughput rollup

    def test_chrome_export_is_valid_trace_event_json(self, trace_file,
                                                     tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["report", str(trace_file), "--chrome", str(out)]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"], "expected at least one trace event"
        assert all(e["ph"] in ("X", "i") for e in payload["traceEvents"])
        assert f"wrote {len(payload['traceEvents'])} trace events" in stdout

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost.jsonl")]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_invalid_trace_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert main(["report", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err


class TestVerboseFlag:
    def test_parser_counts_verbosity(self):
        parser = build_parser()
        assert parser.parse_args(["generate"]).verbose == 0
        assert parser.parse_args(["-v", "generate"]).verbose == 1
        assert parser.parse_args(["-vv", "generate"]).verbose == 2

    def test_verbose_routes_library_logs_to_stderr(self, tmp_path, capsys):
        # Logging is stderr-only: machine-readable stdout stays clean.
        assert main(["-v", "generate", "--entities", "5", "--sources", "2",
                     "--output-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "INFO" not in captured.out
