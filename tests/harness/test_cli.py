"""Tests for the command-line interface."""

import io
import json
import os
from pathlib import Path

import pytest

from repro.harness import experiments
from repro.harness.cli import FIGURES, build_parser, main


def _crash_worker(task):
    os._exit(3)  # breaks the pool: every task falls back to serial


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        # --benchmark is free-form (generated gen:<seed> handles are
        # legal), so rejection happens at command level, not argparse.
        code, text = run_cli(["run", "--benchmark", "nope"])
        assert code == 2
        assert "unknown benchmark" in text

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--benchmark", "gsmdecode"])
        # The machine is not pinned at parse time; the run command
        # resolves the paper's 4-core mesh when --machine is unset.
        assert args.machine is None
        assert args.strategy == "hybrid"


class TestCommands:
    def test_list(self):
        code, text = run_cli(["list"])
        assert code == 0
        assert "gsmdecode" in text and "179.art" in text
        assert len(text.strip().splitlines()) == 25

    def test_run_single_benchmark(self):
        code, text = run_cli(
            ["run", "--benchmark", "rawcaudio", "--machine", "2",
             "--strategy", "ilp", "--stalls"]
        )
        assert code == 0
        assert "speedup" in text
        assert "correct" in text

    def test_run_single_core_is_baseline(self):
        code, text = run_cli(
            ["run", "--benchmark", "rawcaudio", "--machine", "1"]
        )
        assert code == 0
        assert "strategy baseline" in text
        assert "speedup 1.00x" in text

    def test_figure_10_subset(self):
        code, text = run_cli(
            ["figure", "--figure", "10", "--benchmarks", "rawcaudio",
             "gsmdecode"]
        )
        assert code == 0
        assert "Figure 10" in text
        assert "rawcaudio" in text and "gsmdecode" in text

    def test_figure_14_subset(self):
        code, text = run_cli(
            ["figure", "--figure", "14", "--benchmarks", "rawcaudio"]
        )
        assert code == 0
        assert "coupled" in text and "%" in text


class TestGeneratedWorkloads:
    def test_list_with_generated_handles(self):
        code, text = run_cli(["list", "--generated", "3", "--gen-seed", "7"])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 28  # 25 named + 3 generated
        handles = [line for line in lines if line.startswith("gen:7")]
        assert len(handles) == 1
        assert any(line.startswith("gen:9") for line in lines)

    def test_run_generated_handle(self):
        from repro.workloads.generator import GenKnobs, make_handle

        handle = make_handle(11, GenKnobs(regions=(1, 2), trips=(8, 16)))
        code, text = run_cli(
            ["run", "--benchmark", handle, "--machine", "2",
             "--strategy", "tlp"]
        )
        assert code == 0
        assert "speedup" in text and "correct" in text

    def test_run_malformed_handle_is_exit_2(self):
        code, text = run_cli(["run", "--benchmark", "gen:notanumber"])
        assert code == 2
        assert "unknown benchmark" in text

    def test_run_unregistered_knobs_hash_is_exit_2(self):
        code, text = run_cli(["run", "--benchmark", "gen:1:deadbeef0000"])
        assert code == 2
        assert "unknown benchmark" in text

    def test_verify_generated_handle(self):
        from repro.workloads.generator import GenKnobs, make_handle

        handle = make_handle(12, GenKnobs(regions=(1, 1), trips=(8, 16)))
        code, text = run_cli(
            ["verify", "--benchmarks", handle, "--cores", "2",
             "--strategies", "hybrid"]
        )
        assert code == 0
        assert "0 with findings" in text


class TestSweepCommand:
    def test_sweep_generated_three_axes(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, text = run_cli(
            ["sweep", "--generated", "2", "--gen-seed", "31",
             "--strategies", "hybrid", "--machines", "2", "4",
             "--queue-depths", "4", "16",
             "--memory-latencies", "50", "200",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(out_path)]
        )
        assert code == 0
        assert "frontier [hybrid]" in text
        assert str(out_path) in text
        import json

        document = json.loads(out_path.read_text())
        assert document["varied_axes"] == [
            "cores", "queue_depth", "memory_latency",
        ]
        assert len(document["points"]) == 8

    def test_sweep_reports_a_crashed_pool(self, tmp_path, monkeypatch):
        # The serial fallback absorbs the crash; the sweep must still
        # say so, on stdout and in the document.
        monkeypatch.setattr(experiments, "_run_cells_worker", _crash_worker)
        out_path = tmp_path / "sweep.json"
        code, text = run_cli(
            ["sweep", "--workloads", "rawcaudio", "gsmdecode",
             "--strategies", "ilp", "--machines", "2", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(out_path)]
        )
        assert code == 0
        assert "worker crash(es)" in text
        assert "quarantined=0 in" in text
        document = json.loads(out_path.read_text())
        assert document["failures"]["worker_crashes"] >= 1
        assert document["failures"]["degraded"]
        assert document["cache"]["quarantined"] == 0

    def test_sweep_needs_workloads(self):
        code, text = run_cli(["sweep"])
        assert code == 2
        assert "workload" in text

    def test_sweep_rejects_faults(self):
        # sweep registers no fault flags, so argparse refuses them.
        with pytest.raises(SystemExit) as refused:
            run_cli(["sweep", "--workloads", "rawcaudio", "--faults"])
        assert refused.value.code == 2


GOLDEN_DIR = Path(__file__).parent / "golden"


class TestFigureGoldens:
    """Every figure's CLI stdout, pinned byte for byte.  Deliberate
    output changes regenerate the files with::

        PYTHONPATH=src python -m pytest tests/harness/test_cli.py --update-golden
    """

    @pytest.mark.parametrize("figure", FIGURES)
    def test_figure_output_matches_golden(self, figure, update_golden):
        code, text = run_cli(
            ["figure", "--figure", figure, "--benchmarks", "rawcaudio",
             "--no-cache"]
        )
        assert code == 0
        path = GOLDEN_DIR / f"figure_{figure}.txt"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"missing golden file {path.name}; run pytest with "
            "--update-golden to create it"
        )
        assert text == path.read_text(), (
            f"figure {figure} output drifted from {path.name}"
        )


class TestVerifyDynamic:
    def test_dynamic_verify_reports_message_leak(self, tmp_path, monkeypatch):
        # A duplicated SEND is a static orphan-send (suppressed here);
        # the extra message still sits in a queue at halt, which the
        # dynamic check must report as a message leak.
        from repro.analysis.mutate import duplicate_send
        from repro.compiler.driver import VoltronCompiler

        compile_cell = VoltronCompiler.compile

        def compile_mutated(self, *args, **kwargs):
            compiled = compile_cell(self, *args, **kwargs)
            duplicate_send(compiled)
            return compiled

        monkeypatch.setattr(VoltronCompiler, "compile", compile_mutated)
        report_path = tmp_path / "findings.json"
        code, text = run_cli(
            ["verify", "--benchmarks", "epic", "--cores", "4",
             "--strategies", "tlp", "--dynamic", "--suppress", "orphan-send",
             "--report", str(report_path)]
        )
        assert code == 1
        document = json.loads(report_path.read_text())
        leaks = [
            finding
            for cell in document["cells"]
            for finding in cell["findings"]
            if finding["kind"] == "message-leak"
        ]
        assert len(leaks) == 1
        assert not leaks[0]["suppressed"]
