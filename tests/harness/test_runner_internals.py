"""Internals of the experiment runner: region-time grouping, reference
caching, and benchmark reconstruction."""

import pytest

from repro.harness.experiments import ExperimentRunner, RunResult
from repro.harness.figures import _group_cycles
from repro.isa.interp import Interpreter
from repro.sim.stats import MachineStats


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(benchmarks=["rawcaudio"], max_cycles=5_000_000)


class TestCaching:
    def test_benchmark_built_once(self, runner):
        first = runner.benchmark("rawcaudio")
        assert runner.benchmark("rawcaudio") is first

    def test_compiler_shared_across_strategies(self, runner):
        first = runner.compiler("rawcaudio")
        assert runner.compiler("rawcaudio") is first

    def test_reference_outputs_cached(self, runner):
        first = runner.reference_outputs("rawcaudio")
        assert runner.reference_outputs("rawcaudio") is first
        assert set(first) == set(runner.benchmark("rawcaudio").outputs)

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_cold_runner_interprets_each_benchmark_once(
        self, cached, tmp_path, monkeypatch
    ):
        """The profile run doubles as the reference run: a cold runner
        interprets each benchmark once, however many cells it checks."""
        runs = {}
        interpret = Interpreter.run

        def counting(interpreter, args=()):
            name = interpreter.program.name
            runs[name] = runs.get(name, 0) + 1
            return interpret(interpreter, args)

        monkeypatch.setattr(Interpreter, "run", counting)
        names = ["rawcaudio", "rawdaudio"]
        cold = ExperimentRunner(
            benchmarks=names, cache_dir=tmp_path if cached else None
        )
        for name in names:
            for n_cores, strategy in ((1, "baseline"), (2, "ilp"), (4, "hybrid")):
                assert cold.run(name, n_cores, strategy).correct
        assert runs == {name: 1 for name in names}

    def test_unknown_benchmark_raises(self, runner):
        with pytest.raises(KeyError):
            runner.benchmark("nope")


class TestGroupCycles:
    def _result(self, block_cycles, region_table):
        stats = MachineStats(n_cores=1)
        stats.block_cycles = block_cycles
        return RunResult(
            benchmark="x",
            n_cores=1,
            strategy="ilp",
            cycles=sum(block_cycles.values()),
            stats=stats,
            correct=True,
            region_table=region_table,
        )

    def test_unmapped_labels_group_by_themselves(self):
        result = self._result(
            {("main", "a"): 10, ("main", "b"): 5}, {}
        )
        groups = _group_cycles(result)
        assert groups == {"main:a": 10, "main:b": 5}

    def test_region_labels_collapse_to_origin(self):
        table = {
            ("main", "R1_enter"): {"rid": 1, "strategy": "doall",
                                   "origin": "L"},
            ("main", "L"): {"rid": 1, "strategy": "doall", "origin": "L"},
            ("main", "R1_exit"): {"rid": 1, "strategy": "doall",
                                  "origin": "L"},
        }
        result = self._result(
            {
                ("main", "R1_enter"): 2,
                ("main", "L"): 40,
                ("main", "R1_exit"): 3,
                ("main", "entry"): 1,
            },
            table,
        )
        groups = _group_cycles(result)
        assert groups == {"main:L": 45, "main:entry": 1}


class TestRunValidation:
    def test_run_result_records_strategy_and_cores(self, runner):
        result = runner.run("rawcaudio", 2, "ilp")
        assert result.n_cores == 2
        assert result.strategy == "ilp"
        assert result.correct
        assert result.cycles == result.stats.cycles

    def test_speedup_is_baseline_over_run(self, runner):
        baseline = runner.baseline("rawcaudio").cycles
        run = runner.run("rawcaudio", 2, "ilp").cycles
        assert runner.speedup("rawcaudio", 2, "ilp") == baseline / run
