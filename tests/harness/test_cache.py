"""Tests for the on-disk result cache layer.

The cache's contract has three legs: keys are *content* hashes stable
across processes (so parallel workers and later invocations share one
cache), hit/miss tallies reflect actual disk traffic (so the reporting
line is trustworthy), and ``--no-cache`` really bypasses the whole layer.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.arch import mesh
from repro.harness import (
    ExperimentRunner,
    ProgramKey,
    ResultCache,
    cache_key,
    program_fingerprint,
    reference_key,
)
from repro.harness import cache as cache_module
from repro.harness.cli import main as cli_main
from repro.harness.reporting import render_cache_line
from repro.isa.program import Program
from repro.sim.faults import FaultConfig
from repro.workloads.suite import BENCHMARKS, build

#: Smallest benchmark cell in the suite -- the golden tests pin it too.
BENCH = "rawcaudio"

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: The keys of ``BENCH``'s ``(mesh(2), seed 1, "ilp", 1000)`` cell and of
#: its reference outputs, pinned as literals: a refactor of the key
#: derivation that drifts by one byte would orphan every existing cache
#: entry and run journal, and only a pinned value notices.
PINNED_CELL_KEY = (
    "846981ff909c5afce7ca023afac80df334abb27c24f3bfe658550522ac6ac272"
)
PINNED_REFERENCE_KEY = (
    "c1402f4b5c9d90114a6b6dd6c8ef9a1068d096b33f940fcaa712ea8413978f99"
)

#: Cell keys of ``BENCH`` (seed 1, default ``max_cycles``) in sessions
#: spelled the ways the ledger spells them -- a preset, a preset plus a
#: flat override, a fault config, overrides alone -- pinned as literals:
#: however the runner derives each core count's config from its machine,
#: the config must render the same text, or every such cache entry and
#: journal is orphaned.
VLINK = {"queue_policy": "vlink"}
PINNED_SESSION_KEYS = [
    ("mesh16-snoop", dict(machine="mesh16-snoop"), 16, "hybrid",
     "0fc3e730713de66559910f23ddf85842d296de660b9baf806f54ead918568f06"),
    ("mesh16-snoop-baseline", dict(machine="mesh16-snoop"), 1, "baseline",
     "73a9f762b3919ee2e329ba3748772b32f49fbaf21cab07fdc64c6af5869f960b"),
    ("mesh32-directory-vlink",
     dict(machine="mesh32-directory", config_overrides=VLINK), 32, "hybrid",
     "7e054a8684e8f691779df44a007d4b3427ebda782d49c1d5475db38c10dfeeb9"),
    ("mesh64-snoop", dict(machine="mesh64-snoop"), 64, "ilp",
     "96dbcaba0a72f67df8879c6f695fb4b17201e71eeeee71009e5e920c6d1be811"),
    ("mesh16-directory-vlink-faults",
     dict(machine="mesh16-directory", config_overrides=VLINK,
          faults=FaultConfig(profile="both", seed=1)), 16, "tlp",
     "cf1d36c41fc14525a9fbdc6b99ec2af507ce8ed168ef62ea44270d59f887872e"),
    ("queue-depth-4", dict(config_overrides={"queue_depth": 4}), 4, "llp",
     "7ebb1761039ad1e0f2c09fe7d5aaa30973b361c8356b5c4389b0ec27e6fedf4e"),
]

#: The nine cells the paper's grid runs per benchmark: the 1-core
#: baseline, then every strategy at 2 and 4 cores.
GRID_CELLS = [(1, "baseline")] + [
    (n, strategy) for n in (2, 4) for strategy in ("ilp", "tlp", "llp", "hybrid")
]


def one_shot_cell_key(program, config, seed, strategy, max_cycles, extra=""):
    """The cell key rendered in one piece, as the key derivation's
    contract states it: sha256 over the version tag, the fingerprint and
    the cell suffix."""
    text = (
        f"v4\n{program_fingerprint(program)}\nconfig {config!r}"
        f"\nseed {seed} strategy {strategy} max_cycles {max_cycles}"
    )
    if extra:
        text += f"\n{extra}"
    return hashlib.sha256(text.encode()).hexdigest()


def one_shot_reference_key(program):
    text = f"v4 reference\n{program_fingerprint(program)}"
    return hashlib.sha256(text.encode()).hexdigest()


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("deadbeef") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.store("deadbeef", {"cycles": 42})
        assert cache.load("deadbeef") == {"cycles": 42}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_store_publishes_atomically(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("aa", {"x": 1})
        cache.store("bb", {"x": 2})
        # No temp droppings: only the two published entries exist.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aa.json",
            "bb.json",
        ]

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.load("bad") is None
        assert cache.misses == 1


class TestKeys:
    def test_key_depends_on_cell_coordinates(self):
        program = build(BENCH).program
        base = cache_key(ProgramKey(program), mesh(2), 1, "ilp", 1000)
        assert cache_key(ProgramKey(program), mesh(2), 1, "ilp", 1000) == base
        assert cache_key(ProgramKey(program), mesh(4), 1, "ilp", 1000) != base
        assert cache_key(ProgramKey(program), mesh(2), 2, "ilp", 1000) != base
        assert cache_key(ProgramKey(program), mesh(2), 1, "tlp", 1000) != base
        assert cache_key(ProgramKey(program), mesh(2), 1, "ilp", 2000) != base

    def test_key_depends_on_program_content(self):
        a = build(BENCH, seed=1).program
        b = build(BENCH, seed=2).program
        config = mesh(1)
        if program_fingerprint(a) == program_fingerprint(b):
            # Seed-insensitive generator: same content must mean same key.
            assert cache_key(
                ProgramKey(a), config, 1, "baseline", 1000
            ) == cache_key(ProgramKey(b), config, 1, "baseline", 1000)
        else:
            assert cache_key(
                ProgramKey(a), config, 1, "baseline", 1000
            ) != cache_key(ProgramKey(b), config, 1, "baseline", 1000)

    def test_array_contents_key_by_type(self):
        """Equal-comparing values of different types (and an int past
        int64) must not share a fingerprint."""
        fingerprints = set()
        for value in (1, True, 1.0, 2**70):
            program = Program("p")
            program.alloc_array("a", 1, init=[value])
            fingerprints.add(program_fingerprint(program))
        assert len(fingerprints) == 4

    def test_suite_fingerprints_stay_small(self):
        """A fingerprint renders each array's contents as one line, not
        one line per word: the whole suite's stays under 100 KB."""
        total = sum(
            len(program_fingerprint(build(name).program).encode())
            for name in BENCHMARKS
        )
        assert total < 100_000

    def test_reference_key_ignores_machine(self):
        program = build(BENCH).program
        # One reference entry serves every (cores, strategy) cell.
        assert reference_key(ProgramKey(program)) == reference_key(
            ProgramKey(program)
        )
        assert reference_key(ProgramKey(program)) not in {
            cache_key(ProgramKey(program), mesh(2), 1, "ilp", 1000),
            cache_key(ProgramKey(program), mesh(1), 1, "baseline", 1000),
        }

    def test_keys_stable_across_processes(self):
        """The whole point of sha256 over content: a worker process (or a
        tomorrow's invocation) must derive the very same keys, unlike
        Python's per-process randomized ``hash()``."""
        program = build(BENCH).program
        local = {
            "cache": cache_key(ProgramKey(program), mesh(2), 1, "ilp", 1000),
            "reference": reference_key(ProgramKey(program)),
        }
        script = (
            "import json\n"
            "from repro.arch import mesh\n"
            "from repro.harness import ProgramKey, cache_key, reference_key\n"
            "from repro.workloads.suite import build\n"
            f"program = build({BENCH!r}).program\n"
            "print(json.dumps({\n"
            "    'cache': cache_key(ProgramKey(program), mesh(2), 1, 'ilp', 1000),\n"
            "    'reference': reference_key(ProgramKey(program)),\n"
            "}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == local
        assert local == {
            "cache": PINNED_CELL_KEY,
            "reference": PINNED_REFERENCE_KEY,
        }


    @pytest.mark.parametrize(
        "keywords, n_cores, strategy, pinned",
        [case[1:] for case in PINNED_SESSION_KEYS],
        ids=[case[0] for case in PINNED_SESSION_KEYS],
    )
    def test_session_cell_keys_are_pinned(self, keywords, n_cores, strategy, pinned):
        runner = api.session([BENCH], **keywords)
        assert runner._cell_key(BENCH, n_cores, strategy) == pinned


class TestProgramKeyMemo:
    """A runner renders each program's fingerprint once and derives every
    key of that program from the rendered prefix; the keys must stay the
    one-shot rendering's, byte for byte."""

    def _assert_runner_keys_match(self, runner, names):
        extra = (
            f"faults {runner.fault_config!r}"
            if runner.fault_config is not None
            else ""
        )
        for name in names:
            program = runner.benchmark(name).program
            for n_cores, strategy in GRID_CELLS:
                assert runner._cell_key(name, n_cores, strategy) == one_shot_cell_key(
                    program,
                    runner.machine_config(n_cores),
                    runner.seed,
                    strategy,
                    runner.max_cycles,
                    extra,
                )
            assert reference_key(runner._program_key(name)) == (
                one_shot_reference_key(program)
            )

    def test_paper_grid_keys_match_one_shot_rendering(self):
        runner = ExperimentRunner(benchmarks=list(BENCHMARKS))
        self._assert_runner_keys_match(runner, BENCHMARKS)
        assert len(runner._keys) == 225

    def test_generated_handle_keys_match_one_shot_rendering(self):
        handle = api.generate_workload(seed=7)
        runner = ExperimentRunner(benchmarks=[handle])
        self._assert_runner_keys_match(runner, [handle])

    def test_fault_runner_keys_match_one_shot_rendering(self):
        runner = ExperimentRunner(
            benchmarks=[BENCH], faults=FaultConfig(profile="both", seed=3)
        )
        self._assert_runner_keys_match(runner, [BENCH])

    def test_each_program_rendered_once_per_runner(self, tmp_path, monkeypatch):
        renders = {}
        render = cache_module.program_fingerprint

        def counting(program):
            renders[program.name] = renders.get(program.name, 0) + 1
            return render(program)

        monkeypatch.setattr(cache_module, "program_fingerprint", counting)
        names = [BENCH, "rawdaudio"]
        for expected in (1, 2):
            # A second runner renders again: the memo is per runner.
            runner = ExperimentRunner(benchmarks=names, cache_dir=tmp_path)
            for name in names:
                for n_cores, strategy in GRID_CELLS:
                    runner._cell_key(name, n_cores, strategy)
                runner.reference_outputs(name)
            assert renders == {name: expected for name in names}


@pytest.mark.parametrize(
    "faults", [None, FaultConfig(profile="both", seed=3)], ids=["clean", "faults"]
)
def test_fingerprint_survives_compile_and_simulate(faults):
    """The invariant the per-runner key memo rests on: compiling and
    simulating a program never change its fingerprint."""
    names = ["rawcaudio", "052.alvinn", "164.gzip"]
    runner = ExperimentRunner(benchmarks=names, faults=faults)
    before = {
        name: program_fingerprint(runner.benchmark(name).program) for name in names
    }
    for name in names:
        for n_cores in (2, 4):
            for strategy in ("ilp", "tlp", "llp", "hybrid"):
                runner.run(name, n_cores, strategy)
    assert {
        name: program_fingerprint(runner.benchmark(name).program) for name in names
    } == before


class TestRunnerCaching:
    def test_second_runner_hits_instead_of_simulating(self, tmp_path):
        first = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        result = first.run(BENCH, 1, "baseline")
        # Cold cache: the cell and the reference entry both missed.
        assert first.cache.hits == 0
        assert first.cache.misses >= 1

        second = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        again = second.run(BENCH, 1, "baseline")
        assert second.cache.hits == 1
        assert second.cache.misses == 0
        assert again.cycles == result.cycles
        assert again.stats.to_dict() == result.stats.to_dict()

    def test_prefetch_resolves_hits_in_process(self, tmp_path):
        cells = [(BENCH, 1, "baseline"), (BENCH, 2, "ilp")]
        warm = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        warm.prefetch(cells)
        assert warm.cache.hits == 0

        reader = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        reader.prefetch(cells)
        assert reader.cache.hits == len(cells)
        assert reader.cache.misses == 0
        for cell in cells:
            assert cell in reader._runs

    def test_in_memory_memo_avoids_recounting(self, tmp_path):
        runner = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        runner.run(BENCH, 1, "baseline")
        traffic = (runner.cache.hits, runner.cache.misses)
        runner.run(BENCH, 1, "baseline")  # memoized, no disk probe
        assert (runner.cache.hits, runner.cache.misses) == traffic

    def test_no_cache_dir_disables_layer(self):
        runner = ExperimentRunner(benchmarks=[BENCH], cache_dir=None)
        assert runner.cache is None
        assert render_cache_line(None) == "cache     : disabled"

    def test_cache_line_reports_traffic(self, tmp_path):
        runner = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        runner.run(BENCH, 1, "baseline")
        line = render_cache_line(runner.cache.tallies, runner.cache.root)
        assert "miss(es)" in line and str(tmp_path) in line


class TestCliCacheFlags:
    def _run_cli(self, argv):
        out = io.StringIO()
        assert cli_main(argv, out=out) == 0
        return out.getvalue()

    def test_no_cache_flag_bypasses_cache(self, tmp_path):
        output = self._run_cli(
            ["run", "--benchmark", BENCH, "--machine", "1", "--no-cache",
             "--cache-dir", str(tmp_path / "never")]
        )
        assert "cache     : disabled" in output
        assert not (tmp_path / "never").exists()

    def test_cache_dir_flag_populates_and_reuses(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = self._run_cli(
            ["run", "--benchmark", BENCH, "--machine", "1",
             "--cache-dir", str(cache_dir)]
        )
        assert "0 hit(s)" in cold
        assert cache_dir.is_dir() and any(cache_dir.iterdir())
        warm = self._run_cli(
            ["run", "--benchmark", BENCH, "--machine", "1",
             "--cache-dir", str(cache_dir)]
        )
        assert "0 miss(es)" in warm
