"""Degraded-path coverage for the hardened runner, under journaling.

tests/harness/test_hardening.py proves the failure modes are absorbed;
this module proves the *accounting* survives them: every degradation --
broken pool, deadline-expired retries, quarantined cache entries,
abandoned cells -- must leave a balanced journal (every planned cell
terminal), honest attempt counts, and a resumable history.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner, JournalReplay, experiments
from repro.harness import cache as cache_module
from repro.harness.experiments import _run_cells_worker
from repro.harness.journal import read_journal
from repro.harness.reporting import render_failure_line, render_journal_line

BENCHES = ("rawcaudio", "gsmdecode")
CELLS = [(name, 1, "baseline") for name in BENCHES]


def _crash_worker(task):
    os._exit(3)  # segfault/OOM stand-in: breaks the pool, no unwinding


#: Inherited by the forked pool workers (the pool forks on first submit).
_SIBLINGS = multiprocessing.Barrier(2)


def _crash_with_sibling(task):
    """Crash only once both tasks have reached a worker, so the first
    death cannot break the pool before the second task is submitted."""
    try:
        _SIBLINGS.wait(timeout=30)
    except threading.BrokenBarrierError:
        pass
    os._exit(3)


def _hang_worker(task):
    time.sleep(3.0)
    return _run_cells_worker(task)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("benchmarks", list(BENCHES))
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("journal", tmp_path / "run.jnl")
    return ExperimentRunner(**kwargs)


class TestBrokenPoolJournalled:
    def test_serial_fallback_balances_the_journal(self, tmp_path):
        runner = _runner(tmp_path)
        runner._worker_fn = _crash_with_sibling
        runner.prefetch(CELLS)
        runner.close_journal()
        for cell in CELLS:
            assert cell in runner._runs
        assert len(runner.failures.degraded) == len(CELLS)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        assert sorted(replay.completed_keys()) == sorted(replay.states)
        # Each cell burned a pool attempt then a serial one.
        assert all(count >= 2 for count in replay.attempts.values())
        assert max(runner.lifecycle.attempts.values()) >= 2
        line = render_failure_line(runner)
        assert "attempt(s)" in line and "worker crash(es)" in line

    def test_crash_then_resume_replays_everything(self, tmp_path):
        first = _runner(tmp_path)
        first._worker_fn = _crash_worker
        first.prefetch(CELLS)
        first.close_journal()
        resumed = _runner(tmp_path, journal=tmp_path / "run.jnl", resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        assert resumed.journal_stats["replayed"] == len(CELLS)
        assert resumed.journal_stats["rerun"] == 0
        for cell in CELLS:
            assert resumed._runs[cell].cycles == first._runs[cell].cycles
        assert "2 replayed" in render_journal_line(
            resumed.journal_stats, resumed.journal.path
        )


class TestDeadlineRetryExhaustion:
    def test_exhausted_retries_degrade_with_full_history(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(experiments, "RETRIES", 1)
        monkeypatch.setattr(experiments, "RETRY_BACKOFF_S", 0.05)
        runner = _runner(tmp_path, cell_timeout=0.4)
        runner._worker_fn = _hang_worker
        runner.prefetch(CELLS)
        runner.close_journal()
        for cell in CELLS:
            assert cell in runner._runs
        assert runner.failures.timed_out  # both rounds blew the deadline
        assert runner.failures.retried  # the retry round was scheduled
        assert len(runner.failures.degraded) == len(CELLS)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        # Two pool rounds + one serial run, all journaled as attempts.
        assert all(count == 3 for count in replay.attempts.values())
        assert max(runner.lifecycle.attempts.values()) == 3

    def test_backoff_is_plain_exponential(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "RETRIES", 3)
        sleeps = []
        monkeypatch.setattr(experiments.time, "sleep", sleeps.append)
        runner = _runner(tmp_path, journal=None)
        runner._pool_round = lambda tasks: tasks  # every round times out
        runner.prefetch(CELLS)
        base = experiments.RETRY_BACKOFF_S
        assert sleeps == [base, 2 * base, 4 * base]
        assert len(runner.failures.degraded) == len(CELLS)


class TestAbandonedEscalation:
    def _poison(self, runner, bad_benchmark):
        original = runner._simulate

        def simulate(name, n_cores, strategy):
            if name == bad_benchmark:
                raise RuntimeError("poisoned cell")
            return original(name, n_cores, strategy)

        runner._simulate = simulate

    def test_first_abandoned_cell_raises_by_default(self, tmp_path):
        runner = _runner(tmp_path, jobs=1)
        self._poison(runner, "rawcaudio")
        with pytest.raises(RuntimeError, match="poisoned"):
            runner.prefetch(CELLS)
        runner.close_journal()
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        # Even the propagated failure was journaled first.
        assert "abandoned" in replay.states.values()
        assert runner.failures.abandoned == ["rawcaudio[1-baseline]"]

    def test_degraded_abandoned_cell_raises(self, tmp_path):
        # A crashing pool sends both cells to the serial fallback, which
        # journals the poisoned one abandoned and raises its error.
        runner = _runner(tmp_path, jobs=2)
        runner._worker_fn = _crash_worker
        self._poison(runner, "rawcaudio")
        with pytest.raises(RuntimeError, match="poisoned"):
            runner.prefetch(CELLS)
        runner.close_journal()
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.accounting()["abandoned"] == 1
        assert runner.failures.abandoned == ["rawcaudio[1-baseline]"]
        assert runner.failures.worker_crashes == 1
        assert "abandoned" in render_failure_line(runner)


class TestQuarantineResumeInterplay:
    def test_corrupt_cache_on_resume_re_simulates_and_rebalances(
        self, tmp_path
    ):
        journal = tmp_path / "run.jnl"
        warm = _runner(tmp_path, jobs=1)
        warm.prefetch(CELLS)
        warm.close_journal()
        golden = {cell: warm._runs[cell].to_dict() for cell in CELLS}
        # The journal promises durable cache entries -- break that promise
        # behind its back (disk corruption), then resume.
        for entry in Path(tmp_path / "cache").glob("*.json"):
            entry.write_text("{torn mid-write")
        resumed = _runner(tmp_path, jobs=1, journal=journal, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        # The corrupt entries were quarantined, the cells re-simulated,
        # and the results still bit-identical to the golden run.
        assert resumed.cache.quarantined >= len(CELLS)
        assert resumed.journal_stats["replayed"] == 0
        assert resumed.journal_stats["rerun"] == len(CELLS)
        for cell in CELLS:
            assert resumed._runs[cell].to_dict() == golden[cell]
        replay = JournalReplay.from_path(journal)
        assert replay.balanced()

    def test_v3_cache_and_journal_on_resume_re_simulate(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "run.jnl"
        with monkeypatch.context() as old:
            old.setattr(cache_module, "CACHE_VERSION", 3)
            warm = _runner(tmp_path, jobs=1)
            warm.prefetch(CELLS)
            warm.close_journal()
        golden = {cell: warm._runs[cell].to_dict() for cell in CELLS}
        simulated = []
        simulate = ExperimentRunner._simulate

        def counting(runner, *cell):
            simulated.append(cell)
            return simulate(runner, *cell)

        monkeypatch.setattr(ExperimentRunner, "_simulate", counting)
        resumed = _runner(tmp_path, jobs=1, journal=journal, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        # Every v3 key misses, so nothing replays on the old journal's word.
        assert sorted(simulated) == sorted(CELLS)
        assert resumed.cache.hits == 0
        assert resumed.journal_stats == {
            "replayed": 0, "rerun": 0, "abandoned": 0,
        }
        for cell in CELLS:
            assert resumed._runs[cell].to_dict() == golden[cell]
        assert JournalReplay.from_path(journal).balanced()

    def test_intact_cache_on_resume_is_pure_replay(self, tmp_path):
        journal = tmp_path / "run.jnl"
        warm = _runner(tmp_path, jobs=1)
        warm.prefetch(CELLS)
        warm.close_journal()
        records_before = len(
            Path(journal).read_text().strip().splitlines()
        )
        resumed = _runner(tmp_path, jobs=1, journal=journal, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        assert resumed.journal_stats["replayed"] == len(CELLS)
        records_after = len(Path(journal).read_text().strip().splitlines())
        # A pure replay appends only the resumed 'start' header: no new
        # lifecycle records, hence zero re-simulation.
        assert records_after == records_before + 1


def _slow_worker(task):
    time.sleep(0.5)
    return _run_cells_worker(task)


def _hang_once_worker(task):
    # The first call per benchmark listed in the cache dir's ``hang-*``
    # markers hangs past any deadline; every later call behaves.
    marker = Path(task.cache_dir) / f"hang-{task.benchmark}"
    if marker.exists():
        marker.unlink()
        time.sleep(3.0)
    return _run_cells_worker(task)


def _late_crash_worker(task):
    time.sleep(0.2)  # let every task be submitted before the pool breaks
    os._exit(3)


#: The eight quickest baseline cells in the suite (well under 0.2 s each).
QUICK = ("197.parser", "255.vortex", "rawcaudio", "g721encode", "cjpeg",
         "mpeg2enc", "djpeg", "175.vpr")


class TestQueuedDeadline:
    def test_queued_tasks_do_not_time_out(self, tmp_path):
        # Eight one-cell tasks on two workers run in four waves of about
        # 0.6 s each.  A 1.6 s deadline gives each task's own run more
        # than 2x headroom, but is shorter than the last wave's start: a
        # deadline counted from the round start would expire it.
        cells = [(name, 1, "baseline") for name in QUICK]
        runner = _runner(
            tmp_path, benchmarks=list(QUICK), cell_timeout=1.6
        )
        runner._worker_fn = _slow_worker
        runner.prefetch(cells)
        runner.close_journal()
        assert runner.failures.timed_out == []
        assert runner.failures.degraded == []
        assert all(cell in runner._runs for cell in cells)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        assert len(replay.completed_keys()) == len(cells)

    def test_timeout_sends_unsubmitted_tasks_to_a_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        # The first two tasks hang and hold both slots; once they time
        # out the pool takes no more tasks, and the next round's fresh
        # pool runs all four.
        monkeypatch.setattr(experiments, "RETRY_BACKOFF_S", 0.05)
        names = list(QUICK[:4])
        cells = [(name, 1, "baseline") for name in names]
        (tmp_path / "cache").mkdir()
        for name in names[:2]:
            (tmp_path / "cache" / f"hang-{name}").write_text("")
        runner = _runner(tmp_path, benchmarks=names, cell_timeout=1.0)
        runner._worker_fn = _hang_once_worker
        runner.prefetch(cells)
        runner.close_journal()
        assert runner.failures.timed_out == names[:2]
        assert runner.failures.degraded == []
        assert all(cell in runner._runs for cell in cells)
        pool_attempts = {}
        for record in read_journal(tmp_path / "run.jnl"):
            if record["event"] == "dispatched":
                assert record["mode"] == "pool"
                name = record["cell"][0]
                pool_attempts[name] = pool_attempts.get(name, 0) + 1
        assert pool_attempts == {
            names[0]: 2, names[1]: 2, names[2]: 1, names[3]: 1,
        }


def _stream(path):
    """The lifecycle records of a journal as comparable tuples."""
    return [
        (
            record["event"],
            tuple(record["cell"]),
            record["key"] is not None,
            record.get("attempt"),
            record.get("mode") or record.get("source") or record.get("reason"),
        )
        for record in read_journal(path)
        if record["event"] != "start"
    ]


class TestRecordStream:
    """The exact record sequence the runner writes on its main paths."""

    A, B = CELLS

    def test_serial_miss(self, tmp_path):
        runner = _runner(tmp_path, jobs=1)
        runner.prefetch(CELLS)
        runner.close_journal()
        A, B = self.A, self.B
        assert _stream(tmp_path / "run.jnl") == [
            ("planned", A, True, None, None),
            ("planned", B, True, None, None),
            ("dispatched", A, True, 1, "serial"),
            ("completed", A, True, 1, "serial"),
            ("dispatched", B, True, 1, "serial"),
            ("completed", B, True, 1, "serial"),
        ]

    def test_cache_hit(self, tmp_path):
        warm = _runner(tmp_path, jobs=1, journal=None)
        warm.prefetch(CELLS)
        runner = _runner(tmp_path, jobs=1)
        runner.prefetch(CELLS)
        runner.close_journal()
        A, B = self.A, self.B
        assert _stream(tmp_path / "run.jnl") == [
            ("planned", A, True, None, None),
            ("completed", A, True, 0, "cache"),
            ("planned", B, True, None, None),
            ("completed", B, True, 0, "cache"),
        ]

    def test_crashed_pool_degrades_to_serial(self, tmp_path):
        runner = _runner(tmp_path)
        runner._worker_fn = _late_crash_worker
        runner.prefetch(CELLS)
        runner.close_journal()
        A, B = self.A, self.B
        stream = _stream(tmp_path / "run.jnl")
        assert stream[:4] == [
            ("planned", A, True, None, None),
            ("planned", B, True, None, None),
            ("dispatched", A, True, 1, "pool"),
            ("dispatched", B, True, 1, "pool"),
        ]
        # Which task the pool blames for the crash is a race; each task
        # then fails and re-runs serially as one contiguous triple.
        triples = [stream[4:7], stream[7:10]]
        assert len(stream) == 10
        assert {triple[0][1] for triple in triples} == {A, B}
        for triple in triples:
            cell = triple[0][1]
            assert triple[0][4] in ("worker-crashed", "pool-broken")
            assert triple == [
                ("failed", cell, True, 1, triple[0][4]),
                ("dispatched", cell, True, 2, "serial"),
                ("completed", cell, True, 2, "serial"),
            ]

    def test_resume_is_pure_replay(self, tmp_path):
        journal = tmp_path / "run.jnl"
        warm = _runner(tmp_path, jobs=1)
        warm.prefetch(CELLS)
        warm.close_journal()
        before = read_journal(journal)
        resumed = _runner(tmp_path, jobs=1, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        after = read_journal(journal)
        assert after[:len(before)] == before
        assert [record["event"] for record in after[len(before):]] == [
            "start"
        ]
        assert after[-1]["resumed"] is True
        assert resumed.journal_stats == {
            "replayed": 2, "rerun": 0, "abandoned": 0,
        }
