"""The ``repro.api`` facade: stable signatures, result-schema
versioning, and observability integration.

These tests are the compatibility contract from the package docstring:
``cores=`` / ``faults=`` are canonical (the deprecated ``n_cores=`` /
``name=`` / ``fault_config=`` aliases shipped their warning release and
are gone -- they now fail like any unknown keyword), serialized
``RunResult`` payloads carry ``schema_version`` and readers reject
foreign majors, and a profiled run is strictly serial and uncached.
"""

from __future__ import annotations

import io
import json

import pytest

import repro
from repro import api
from repro.harness import figures
from repro.harness.cli import main as cli_main
from repro.harness.experiments import (
    ExperimentRunner,
    RunResult,
    SCHEMA_VERSION,
)
from repro.harness.sweep import run_sweep
from repro.obs import Observability
from repro.sim.faults import FaultConfig
from repro.workloads.suite import BENCHMARKS


@pytest.fixture(scope="module")
def baseline_payload():
    result = repro.run_cell("rawcaudio", 1, "baseline")
    return result.to_dict()


class TestFacade:
    def test_lazy_reexports(self):
        assert repro.run_cell is api.run_cell
        assert repro.session is api.session
        assert repro.FIGURES == api.FIGURES
        assert "run_figure" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_list_benchmarks(self):
        names = repro.list_benchmarks()
        assert names == list(BENCHMARKS)
        # A fresh list every call: mutating it cannot corrupt the suite.
        names.clear()
        assert repro.list_benchmarks() == list(BENCHMARKS)

    def test_compile_benchmark(self):
        compiled = repro.compile_benchmark("rawcaudio", machine=2, strategy="ilp")
        assert compiled is not None

    def test_run_cell_round_trip(self, baseline_payload):
        assert baseline_payload["schema_version"] == SCHEMA_VERSION
        restored = RunResult.from_dict(baseline_payload)
        assert restored.correct
        assert restored.to_dict() == baseline_payload

    def test_run_cell_with_obs_attaches_metrics(self):
        obs = Observability()
        result = repro.run_cell("rawcaudio", 2, "ilp", obs=obs)
        assert result.metrics is not None
        assert set(result.metrics) == {"series", "timeline", "truncated"}
        assert result.metrics["timeline"]["cycles"] == result.cycles
        # The metrics payload survives serialization unchanged.
        assert json.loads(json.dumps(result.to_dict()))["metrics"] == (
            result.metrics
        )

    def test_run_figure_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown figure"):
            repro.run_figure("99")

    def test_run_figure_over_empty_suite(self):
        assert repro.run_figure("13", benchmarks=[]) == {}

    @pytest.mark.parametrize("benchmarks", [["gsmdecode"], []])
    def test_run_figure_rejects_benchmarks_beside_a_runner(self, benchmarks):
        # The runner's suite is what would run: say so instead of
        # dropping the caller's list.
        runner = repro.session(["rawcaudio"])
        with pytest.raises(ValueError, match="not both"):
            repro.run_figure("13", benchmarks=benchmarks, runner=runner)

    def test_session_is_an_experiment_runner(self):
        runner = repro.session([], faults=FaultConfig(seed=9))
        assert isinstance(runner, ExperimentRunner)
        assert runner.fault_config == FaultConfig(seed=9)


class TestSchemaVersion:
    def test_missing_version_rejected(self, baseline_payload):
        payload = dict(baseline_payload)
        payload.pop("schema_version")
        with pytest.raises(ValueError, match="schema_version"):
            RunResult.from_dict(payload)

    def test_foreign_major_rejected(self, baseline_payload):
        payload = dict(baseline_payload, schema_version="2.0")
        with pytest.raises(ValueError, match="schema_version"):
            RunResult.from_dict(payload)

    def test_newer_minor_accepted(self, baseline_payload):
        payload = dict(baseline_payload, schema_version="3.9")
        assert RunResult.from_dict(payload).correct


#: Keywords the facade and the runner no longer take: run settings are
#: spelled once, on the session.
REMOVED_KEYWORDS = [
    *((api.run_figure, ("13",), keyword) for keyword in (
        "machine", "seed", "cache_dir", "jobs", "cell_timeout", "faults",
        "journal", "resume",
    )),
    *((api.run_cell, ("rawcaudio", 1), keyword) for keyword in (
        "faults", "seed", "max_cycles", "cache_dir",
    )),
    *((api.verify_benchmark, ("rawcaudio",), keyword) for keyword in (
        "seed", "suppressions", "max_cycles",
    )),
    (api.compile_benchmark, ("rawcaudio",), "seed"),
    (api.list_benchmarks, (), "knobs"),
    (api.sweep, (["rawcaudio"],), "max_cycles"),
    (run_sweep, (None,), "max_cycles"),
    (ExperimentRunner, ([],), "max_abandoned"),
    (ExperimentRunner, ([],), "replay"),
]


class TestRemovedSpellings:
    """The deprecated kwarg aliases are gone: nothing special-cases them
    anymore, so they fail as plain unknown keywords (native TypeError)."""

    @pytest.mark.parametrize(
        "function, args, keyword", REMOVED_KEYWORDS,
        ids=[f"{f.__name__}-{k}" for f, _, k in REMOVED_KEYWORDS],
    )
    def test_removed_keywords_are_rejected(self, function, args, keyword):
        with pytest.raises(TypeError, match=keyword):
            function(*args, **{keyword: None})

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            ExperimentRunner(benchmarks=[], bogus=1)

    def test_fault_config_alias_removed(self):
        with pytest.raises(TypeError, match="fault_config"):
            ExperimentRunner(benchmarks=[], fault_config=FaultConfig(seed=1))

    def test_run_aliases_removed(self):
        runner = ExperimentRunner(benchmarks=[])
        with pytest.raises(TypeError, match="n_cores"):
            runner.run("rawcaudio", strategy="baseline", n_cores=1)
        with pytest.raises(TypeError, match="name"):
            runner.run(name="rawcaudio", cores=1, strategy="baseline")

    def test_figure_driver_alias_removed(self):
        runner = ExperimentRunner(benchmarks=[])
        with pytest.raises(TypeError, match="n_cores"):
            figures.fig10_11_speedups(runner, n_cores=2)
        with pytest.raises(TypeError, match="n_cores"):
            figures.fig14_mode_time(runner, n_cores=4)

    def test_canonical_spellings_work(self):
        runner = ExperimentRunner(
            benchmarks=["rawcaudio"], max_cycles=20_000_000
        )
        result = runner.run(benchmark="rawcaudio", cores=1, strategy="baseline")
        assert result.correct
        assert runner.run("rawcaudio", 1, "baseline") is result


class TestObsConstraints:
    def test_obs_with_cache_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache"):
            ExperimentRunner(
                benchmarks=[], cache_dir=tmp_path, obs=Observability()
            )

    def test_obs_with_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(benchmarks=[], jobs=2, obs=Observability())

    def test_obs_is_single_use_within_a_session(self):
        runner = ExperimentRunner(
            benchmarks=["rawcaudio"],
            max_cycles=20_000_000,
            obs=Observability(),
        )
        first = runner.run("rawcaudio", 1, "baseline")
        assert first.metrics is not None
        second = runner.run("rawcaudio", 2, "ilp")
        assert second.metrics is None


class TestCliProfiling:
    def test_trace_and_metrics_out(self, tmp_path):
        out = io.StringIO()
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            cli_main(
                [
                    "run", "--benchmark", "rawcaudio", "--machine", "2",
                    "--strategy", "ilp",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path),
                    "--cache-dir", str(tmp_path / "cache"),
                ],
                out=out,
            )
            == 0
        )
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["truncated"] is False
        metrics = json.loads(metrics_path.read_text())
        assert metrics["timeline"]["cycles"] > 0
        assert metrics["series"]["cycle"]
        output = out.getvalue()
        assert "trace     :" in output
        assert "metrics   :" in output
        # Profiling forced the run off the cache.
        assert not (tmp_path / "cache").exists()


class TestGeneratedFacade:
    def test_list_benchmarks_appends_generated_handles(self):
        from repro.workloads.generator import parse_handle

        names = api.list_benchmarks(generated=3, gen_seed=50)
        assert names[:-3] == sorted(BENCHMARKS)
        handles = names[-3:]
        assert [parse_handle(h)[0] for h in handles] == [50, 51, 52]

    def test_generate_workload_returns_runnable_handle(self):
        from repro.workloads.generator import GenKnobs

        handle = api.generate_workload(
            seed=60, knobs=GenKnobs(regions=(1, 2), trips=(8, 16))
        )
        assert handle.startswith("gen:60:")
        result = api.run_cell(handle, machine=2, strategy="tlp")
        assert result.correct
        assert result.cycles > 0

    def test_session_accepts_config_overrides(self):
        runner = api.session(
            benchmarks=["rawcaudio"],
            config_overrides={"memory_latency": 37},
        )
        assert runner.machine_config(4).memory_latency == 37

    def test_sweep_facade_writes_artifact(self, tmp_path):
        from repro.workloads.generator import GenKnobs, make_handle

        handle = make_handle(61, GenKnobs(regions=(1, 2), trips=(8, 16)))
        out_path = tmp_path / "sweep.json"
        document = repro.sweep(
            [handle],
            strategies=("hybrid",),
            machines=(2, 4),
            queue_depths=(4, 16),
            cache_dir=tmp_path / "cache",
            out=out_path,
        )
        assert len(document["points"]) == 4
        assert document["frontiers"]["hybrid"]
        assert json.loads(out_path.read_text()) == document
