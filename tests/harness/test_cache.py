"""Tests for the on-disk result cache layer.

The cache's contract has three legs: keys are *content* hashes stable
across processes (so parallel workers and later invocations share one
cache), hit/miss tallies reflect actual disk traffic (so the reporting
line is trustworthy), and ``--no-cache`` really bypasses the whole layer.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

from repro.arch import mesh, single_core
from repro.harness import (
    ExperimentRunner,
    ResultCache,
    cache_key,
    program_fingerprint,
    reference_key,
)
from repro.harness.cli import main as cli_main
from repro.harness.reporting import render_cache_line
from repro.workloads.suite import build

#: Smallest benchmark cell in the suite -- the golden tests pin it too.
BENCH = "rawcaudio"

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


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
        base = cache_key(program, mesh(2), 1, "ilp", 1000)
        assert cache_key(program, mesh(2), 1, "ilp", 1000) == base
        assert cache_key(program, mesh(4), 1, "ilp", 1000) != base
        assert cache_key(program, mesh(2), 2, "ilp", 1000) != base
        assert cache_key(program, mesh(2), 1, "tlp", 1000) != base
        assert cache_key(program, mesh(2), 1, "ilp", 2000) != base

    def test_key_depends_on_program_content(self):
        a = build(BENCH, seed=1).program
        b = build(BENCH, seed=2).program
        config = single_core()
        if program_fingerprint(a) == program_fingerprint(b):
            # Seed-insensitive generator: same content must mean same key.
            assert cache_key(a, config, 1, "baseline", 1000) == cache_key(
                b, config, 1, "baseline", 1000
            )
        else:
            assert cache_key(a, config, 1, "baseline", 1000) != cache_key(
                b, config, 1, "baseline", 1000
            )

    def test_reference_key_ignores_machine(self):
        program = build(BENCH).program
        # One reference entry serves every (cores, strategy) cell.
        assert reference_key(program) == reference_key(program)
        assert reference_key(program) not in {
            cache_key(program, mesh(2), 1, "ilp", 1000),
            cache_key(program, single_core(), 1, "baseline", 1000),
        }

    def test_keys_stable_across_processes(self):
        """The whole point of sha256 over content: a worker process (or a
        tomorrow's invocation) must derive the very same keys, unlike
        Python's per-process randomized ``hash()``."""
        program = build(BENCH).program
        local = {
            "cache": cache_key(program, mesh(2), 1, "ilp", 1000),
            "reference": reference_key(program),
        }
        script = (
            "import json\n"
            "from repro.arch import mesh\n"
            "from repro.harness import cache_key, reference_key\n"
            "from repro.workloads.suite import build\n"
            f"program = build({BENCH!r}).program\n"
            "print(json.dumps({\n"
            "    'cache': cache_key(program, mesh(2), 1, 'ilp', 1000),\n"
            "    'reference': reference_key(program),\n"
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
        assert render_cache_line(runner) == "cache     : disabled"

    def test_cache_line_reports_traffic(self, tmp_path):
        runner = ExperimentRunner(benchmarks=[BENCH], cache_dir=tmp_path)
        runner.run(BENCH, 1, "baseline")
        line = render_cache_line(runner)
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
