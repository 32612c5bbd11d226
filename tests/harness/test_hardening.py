"""Hardened harness behaviour: worker crashes, hung cells, flaky workers,
corrupt cache entries, and the chaos-mode knobs.

The pool entry point is injectable (``runner._worker_fn``), so the
failure modes are staged with real subprocesses -- a worker that calls
``os._exit`` genuinely breaks the pool, a sleeping worker genuinely blows
its deadline -- while the serial fallback exercises the real simulator on
the suite's smallest benchmarks.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

import pytest

from repro.harness import (
    CACHE_VERSION,
    ExperimentRunner,
    FailureSummary,
    ResultCache,
    render_cache_line,
    render_failure_line,
    render_fault_line,
)
from repro.harness import experiments
from repro.harness.cli import build_parser, _make_runner, main as cli_main
from repro.harness.experiments import _run_cells_worker
from repro.sim.faults import FaultConfig

BENCHES = ("rawcaudio", "gsmdecode")

#: Two benchmarks x baseline: the smallest cell list that takes the
#: parallel prefetch path (a single benchmark short-circuits to serial).
CELLS = [(name, 1, "baseline") for name in BENCHES]


def _crash_worker(task):
    # Simulates a segfault / OOM kill: the worker process dies without
    # unwinding, which surfaces in the parent as BrokenProcessPool.
    os._exit(3)


def _hang_worker(task):
    time.sleep(3.0)
    return _run_cells_worker(task)


def _flaky_worker(task):
    # First invocation per benchmark hangs past any sane deadline; every
    # later one behaves.  The marker lives in the (shared) cache dir so
    # the state survives the worker process boundary.
    marker = Path(task.cache_dir) / f"flaky-{task.benchmark}"
    if not marker.exists():
        marker.write_text("seen")
        time.sleep(3.0)
    return _run_cells_worker(task)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("benchmarks", list(BENCHES))
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("jobs", 2)
    return ExperimentRunner(**kwargs)


class TestWorkerCrash:
    def test_broken_pool_degrades_to_serial(self, tmp_path):
        runner = _runner(tmp_path)
        runner._worker_fn = _crash_worker
        runner.prefetch(CELLS)
        # Every cell still produced a result, in-process.
        for cell in CELLS:
            assert cell in runner._runs
        assert runner.failures.worker_crashes >= 1
        assert len(runner.failures.degraded) == len(CELLS)
        line = render_failure_line(runner)
        assert "worker crash(es)" in line
        assert "re-run serially" in line

    def test_crash_results_still_correct(self, tmp_path):
        crashed = _runner(tmp_path / "a")
        crashed._worker_fn = _crash_worker
        crashed.prefetch(CELLS)
        clean = _runner(tmp_path / "b", jobs=1)
        clean.prefetch(CELLS)
        for cell in CELLS:
            assert (
                crashed._runs[cell].cycles == clean._runs[cell].cycles
            )


class TestCellTimeout:
    def test_hung_worker_times_out_and_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "RETRIES", 0)
        runner = _runner(tmp_path, cell_timeout=0.5)
        runner._worker_fn = _hang_worker
        started = time.monotonic()
        runner.prefetch(CELLS)
        elapsed = time.monotonic() - started
        for cell in CELLS:
            assert cell in runner._runs
        assert runner.failures.timed_out  # both specs blew the deadline
        assert len(runner.failures.degraded) == len(CELLS)
        # The whole recovery (timeout + serial re-run of two tiny cells)
        # must beat the 3s the workers would have slept.
        assert elapsed < 3.0

    def test_flaky_worker_recovers_on_retry(self, tmp_path, monkeypatch):
        # Round one hangs past the deadline; the retry behaves.  The
        # deadline leaves room for a real worker (interpreter start +
        # build + simulate), while the hang comfortably exceeds it.
        monkeypatch.setattr(experiments, "RETRY_BACKOFF_S", 0.05)
        runner = _runner(tmp_path, cell_timeout=2.5)
        (tmp_path / "cache").mkdir(parents=True, exist_ok=True)
        runner._worker_fn = _flaky_worker
        runner.prefetch(CELLS)
        for cell in CELLS:
            assert cell in runner._runs
        assert runner.failures.timed_out  # round one hung
        assert runner.failures.retried  # round two was scheduled

    def test_no_timeout_configured_waits_for_slow_workers(self, tmp_path):
        runner = _runner(tmp_path, cell_timeout=None)
        runner.prefetch(CELLS)
        assert not runner.failures.any()
        assert render_failure_line(runner) == "failures  : none"


class TestCacheQuarantine:
    def test_truncated_entry_is_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("key", {"cycles": 1})
        path = tmp_path / "key.json"
        path.write_text(path.read_text()[:10])  # torn write
        assert cache.load("key") is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "key.json.corrupt").exists()
        # The slot is clean again: a re-store round-trips.
        cache.store("key", {"cycles": 2})
        assert cache.load("key") == {"cycles": 2}

    def test_wrong_version_is_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "old.json").write_text(
            json.dumps({"cache_version": CACHE_VERSION - 1, "payload": {}})
        )
        assert cache.load("old") is None
        assert cache.quarantined == 1
        assert (tmp_path / "old.json.corrupt").exists()

    def test_pre_envelope_payload_is_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "raw.json").write_text(json.dumps({"cycles": 42}))
        assert cache.load("raw") is None
        assert cache.quarantined == 1

    def test_plain_missing_file_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("absent") is None
        assert cache.quarantined == 0

    def test_runner_survives_corrupted_cell_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = ExperimentRunner(benchmarks=["rawcaudio"], cache_dir=cache_dir)
        warm.run("rawcaudio", 1, "baseline")
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{definitely not json")
        runner = ExperimentRunner(
            benchmarks=["rawcaudio"], cache_dir=cache_dir
        )
        result = runner.run("rawcaudio", 1, "baseline")  # no exception
        assert result.correct
        assert runner.cache.quarantined >= 1


class TestFailureSummary:
    def test_clean_summary(self):
        summary = FailureSummary()
        assert not summary.any()

    def test_each_field_trips_any(self):
        assert FailureSummary(timed_out=["x"]).any()
        assert FailureSummary(retried=["x"]).any()
        assert FailureSummary(degraded=["x"]).any()
        assert FailureSummary(worker_crashes=1).any()
        assert FailureSummary(cache_quarantined=1).any()

    def test_quarantine_reaches_summary_and_report(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = ExperimentRunner(benchmarks=["rawcaudio"], cache_dir=cache_dir)
        warm.run("rawcaudio", 1, "baseline")
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{torn")
        runner = ExperimentRunner(benchmarks=["rawcaudio"], cache_dir=cache_dir)
        runner.run("rawcaudio", 1, "baseline")
        summary = runner.failure_summary()
        assert summary.cache_quarantined == runner.cache.quarantined >= 1
        line = render_failure_line(runner)
        assert "quarantined cache" in line
        assert f"quarantined={runner.cache.quarantined}" in render_cache_line(
            runner.cache.tallies, runner.cache.root
        )

    def test_render_without_failures_attribute(self):
        class Legacy:
            pass

        assert render_failure_line(Legacy()) == "failures  : none"


class TestFaultKnobs:
    def _parse(self, argv):
        return build_parser().parse_args(argv)

    def test_flags_reach_the_runner(self, tmp_path):
        args = self._parse(
            ["run", "--benchmark", "rawcaudio", "--faults",
             "--fault-seed", "42", "--fault-rate", "0.25",
             "--cell-timeout", "7.5", "--cache-dir", str(tmp_path)]
        )
        runner = _make_runner(args, ["rawcaudio"])
        assert runner.fault_config == FaultConfig(seed=42, rate=0.25)
        assert runner.cell_timeout == 7.5

    def test_faults_off_by_default(self, tmp_path):
        args = self._parse(
            ["run", "--benchmark", "rawcaudio", "--cache-dir", str(tmp_path)]
        )
        runner = _make_runner(args, ["rawcaudio"])
        assert runner.fault_config is None
        assert runner.cell_timeout is None
        assert render_fault_line(runner) == ""

    def test_fault_runs_get_distinct_cache_keys(self, tmp_path):
        clean = ExperimentRunner(benchmarks=["rawcaudio"], cache_dir=tmp_path)
        chaotic = ExperimentRunner(
            benchmarks=["rawcaudio"],
            cache_dir=tmp_path,
            faults=FaultConfig(seed=1),
        )
        assert clean._cell_key("rawcaudio", 1, "baseline") != chaotic._cell_key(
            "rawcaudio", 1, "baseline"
        )

    def test_cli_chaos_run_reports_injections(self, tmp_path):
        out = io.StringIO()
        assert (
            cli_main(
                ["run", "--benchmark", "rawcaudio", "--machine", "2",
                 "--strategy", "ilp", "--faults", "--fault-seed", "5",
                 "--fault-rate", "0.05", "--cache-dir", str(tmp_path)],
                out=out,
            )
            == 0
        )
        output = out.getvalue()
        assert "faults    : profile=timing seed=5 rate=0.05" in output
        assert "injection(s)" in output
        assert "correct   : outputs match the reference interpreter" in output
        # Timing-only chaos has no recovery subsystem, hence no report.
        assert "recovery  :" not in output

    def test_cli_destructive_run_reports_recovery(self, tmp_path):
        out = io.StringIO()
        assert (
            cli_main(
                ["run", "--benchmark", "rawcaudio", "--machine", "2",
                 "--strategy", "tlp", "--faults", "--fault-seed", "5",
                 "--fault-profile", "destructive",
                 "--cache-dir", str(tmp_path)],
                out=out,
            )
            == 0
        )
        output = out.getvalue()
        assert "faults    : profile=destructive" in output
        assert "recovery  : crc_errors=" in output
        assert "watchdog=" in output and "remaps=" in output
        assert "correct   : outputs match the reference interpreter" in output

    def test_cli_scale_destructive_run_extends_the_recovery_line(
        self, tmp_path
    ):
        """A destructive run on a directory/vlink mesh reports the
        scale-out channels -- directory scrubs, vlink pool reclaims, and
        the remap-distance histogram -- appended to the recovery line
        (small snoop machines keep the exact legacy line above)."""
        out = io.StringIO()
        assert (
            cli_main(
                ["run", "--benchmark", "171.swim",
                 "--machine", "mesh16-directory", "--strategy", "llp",
                 "--queue-policy", "vlink", "--faults",
                 "--fault-seed", "42", "--fault-profile", "destructive",
                 "--cache-dir", str(tmp_path)],
                out=out,
            )
            == 0
        )
        output = out.getvalue()
        assert "directory coherence, vlink queues" in output
        assert "recovery  : crc_errors=" in output
        assert "dir_scrubs=" in output
        assert "vlink_reclaims=" in output
        assert "remap_hops=" in output
        assert "correct   : outputs match the reference interpreter" in output

    def test_fault_profile_flag_reaches_the_config(self, tmp_path):
        args = self._parse(
            ["run", "--benchmark", "rawcaudio", "--faults",
             "--fault-profile", "both", "--cache-dir", str(tmp_path)]
        )
        runner = _make_runner(args, ["rawcaudio"])
        assert runner.fault_config.profile == "both"

    def test_chaos_figure_end_to_end(self, tmp_path):
        """The full gauntlet: a parallel chaos figure run over a corrupted
        cache with a crash-free pool must finish and report cleanly."""
        runner = ExperimentRunner(
            benchmarks=list(BENCHES),
            cache_dir=tmp_path,
            jobs=2,
            cell_timeout=120,
            faults=FaultConfig(seed=3, rate=0.01),
        )
        runner.prefetch(CELLS)
        for cell in CELLS:
            assert runner._runs[cell].correct
        assert not runner.failures.any()
