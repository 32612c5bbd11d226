"""The machine= API: one machine spelling, preset plumbing through
session/run_cell/sweep, and the CLI --machine flag."""

import io
from dataclasses import replace

import pytest

import repro
from repro import api
from repro.arch.config import mesh, preset
from repro.harness import cli, experiments, figures


class TestMachineKwarg:
    @pytest.mark.parametrize("call", [
        lambda: api.run_cell("rawcaudio", cores=2),
        lambda: api.compile_benchmark("rawcaudio", cores=2),
        lambda: api.verify_benchmark("rawcaudio", cores=2),
        lambda: api.run_figure("13", cores=2),
        lambda: api.sweep(["rawcaudio"], cores=(2,)),
    ], ids=["run_cell", "compile_benchmark", "verify_benchmark",
            "run_figure", "sweep"])
    def test_cores_kwarg_removed(self, call):
        with pytest.raises(TypeError, match="cores"):
            call()

    def test_both_spellings_is_a_type_error(self):
        # machine= must not quietly win over a stray cores=.
        with pytest.raises(TypeError, match="cores"):
            api.run_cell("rawcaudio", machine=2, cores=2)

    def test_run_cell_requires_a_machine(self):
        with pytest.raises(TypeError, match="machine"):
            api.run_cell("rawcaudio")

    def test_machine_accepts_preset_names(self):
        result = api.run_cell("rawcaudio", "two-directory", strategy="ilp")
        assert result.correct
        assert result.n_cores == 2

    def test_machine_accepts_full_configs(self):
        result = api.run_cell("rawcaudio", preset("two"), strategy="ilp")
        assert result.correct

    def test_compile_benchmark_defaults_to_four_cores(self):
        compiled = api.compile_benchmark("rawcaudio", strategy="ilp")
        assert compiled is not None

    def test_verify_benchmark_accepts_machine(self):
        report = api.verify_benchmark(
            "rawcaudio", "mesh16-directory", strategy="llp"
        )
        assert report.ok

    def test_list_presets_reexported(self):
        names = repro.list_presets()
        assert "mesh32-directory" in names
        assert names == api.list_presets()


class TestSessionMachine:
    def test_session_applies_machine_knobs_across_core_counts(self):
        runner = api.session(["rawcaudio"], machine="mesh16-directory")
        # The knobs follow every core count the session is asked for,
        # not just 16.
        assert runner.machine_config(16).coherence == "directory"
        assert runner.machine_config(4).coherence == "directory"

    def test_session_default_machine_is_untouched(self):
        runner = api.session(["rawcaudio"])
        assert runner.machine_config(4) == mesh(4)

    def test_session_is_the_runner(self):
        assert api.session is experiments.ExperimentRunner


class TestCustomMeshShape:
    """A machine's own mesh shape is simulated at its own core count;
    every other count the session touches runs on ``mesh(n)``'s shape."""

    ODD = replace(mesh(16), mesh_shape=(2, 8))

    @pytest.fixture
    def shapes(self, monkeypatch):
        """Core count -> mesh shape of every machine the runner builds."""
        seen = {}
        machine = experiments.VoltronMachine

        def recording(compiled, config, **kwargs):
            seen[config.n_cores] = config.mesh_shape
            return machine(compiled, config, **kwargs)

        monkeypatch.setattr(experiments, "VoltronMachine", recording)
        return seen

    def test_session_simulates_the_shape_at_its_own_count(self, shapes):
        runner = api.session(["rawcaudio"], machine=self.ODD)
        runner.run("rawcaudio", 16, "ilp")
        runner.run("rawcaudio", 4, "ilp")
        runner.baseline("rawcaudio")
        assert shapes == {16: (2, 8), 4: (2, 2), 1: (1, 1)}
        assert runner.machine_config(4) == mesh(4)

    def test_run_figure_simulates_the_shape_at_its_own_count(self, shapes):
        # A figure moved to the machine's core count, as ``cli figure
        # --machine`` runs it.
        runner = api.session(["rawcaudio"], machine=self.ODD)
        figures.figure_table("13", runner, self.ODD.n_cores)
        assert shapes == {16: (2, 8), 1: (1, 1)}

    def test_run_cell_keeps_the_shape(self, shapes):
        assert api.run_cell("rawcaudio", self.ODD, "ilp").correct
        assert shapes == {16: (2, 8)}

    @pytest.mark.parametrize("key, value", [("mesh_shape", (2, 8)), ("n_cores", 4)])
    def test_shape_and_size_are_not_flat_overrides(self, key, value):
        with pytest.raises(ValueError, match=key):
            api.session(["rawcaudio"], config_overrides={key: value})


class TestSweepMachines:
    def test_machine_entries_may_only_vary_cores_and_coherence(self):
        import dataclasses

        odd = dataclasses.replace(mesh(4), memory_latency=50)
        with pytest.raises(ValueError, match="dedicated sweep axes"):
            api.sweep(["rawcaudio"], machines=[odd])

    def test_coherence_axis_derived_from_entries(self, tmp_path):
        document = api.sweep(
            ["rawcaudio"],
            machines=[2, "two-directory"],
            strategies=["ilp"],
            cache_dir=tmp_path,
        )
        assert document["axes"]["coherence"] == ["snoop", "directory"]
        assert document["axes"]["cores"] == [2]
        machines = {
            (p["machine"]["cores"], p["machine"]["coherence"])
            for p in document["points"]
        }
        assert machines == {(2, "snoop"), (2, "directory")}


class TestCliMachine:
    def test_run_accepts_preset(self, tmp_path):
        out = io.StringIO()
        code = cli.main(
            [
                "run", "--benchmark", "rawcaudio", "--machine", "two",
                "--strategy", "ilp", "--cache-dir", str(tmp_path / "c"),
            ],
            out=out,
        )
        assert code == 0
        assert "2 core(s)" in out.getvalue()

    @pytest.mark.parametrize("argv", [
        ["run", "--benchmark", "rawcaudio", "--cores", "4"],
        ["sweep", "--workloads", "rawcaudio", "--cores", "4"],
    ], ids=["run", "sweep"])
    def test_cores_alias_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv, out=io.StringIO())
        assert exit_info.value.code == 2
        assert "--cores" in capsys.readouterr().err

    def test_run_rejects_unknown_preset(self):
        out = io.StringIO()
        code = cli.main(
            ["run", "--benchmark", "rawcaudio", "--machine", "mesh128"],
            out=out,
        )
        assert code == 2
        assert "bad --machine" in out.getvalue()

    def test_figure_choices_include_scaling(self):
        assert "scaling" in cli.FIGURES

    def test_verify_machine_sets_grid_and_knobs(self):
        out = io.StringIO()
        code = cli.main(
            [
                "verify", "--benchmarks", "rawcaudio",
                "--machine", "mesh16-directory", "--strategies", "llp",
            ],
            out=out,
        )
        assert code == 0
        assert "1 cells" in out.getvalue()
