"""Crash-chaos property suite: SIGKILL vs the journaled harness.

The crash-safety contract under test: *no matter where a SIGKILL lands*
-- a worker process mid-cell, the driver mid-grid -- the journal +
durable result cache let the next invocation resume to a result
bit-identical to a fault-free run, without re-simulating any cell whose
``completed`` record made it to disk.

Kill points are randomized, mirroring the chaos suite's ``CHAOS_SEED``
contract:

* ``KILL_SEED`` -- base seed (CI randomizes and echoes it, so any
  failure replays with ``KILL_SEED=<n> pytest
  tests/properties/test_prop_crash.py``).  It draws each worker's kill
  phase (before simulating vs after the durable store) and how deep
  into the grid the driver itself is shot.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner, JournalReplay
from repro.harness.cli import main as cli_main
from repro.harness.experiments import _run_cells_worker
from repro.harness.journal import read_journal

KILL_SEED = int(os.environ.get("KILL_SEED", "1"))

BENCHES = ("rawcaudio", "gsmdecode")
#: Two specs (fan-out is per benchmark), two cells each.
CELLS = [(name, cores, s) for name in BENCHES
         for cores, s in ((1, "baseline"), (2, "ilp"))]


def _kill_plan_worker(task):
    """Pool worker that honors a one-shot kill plan: a
    ``killplan-<benchmark>`` file in the cache dir names the phase --
    ``before-simulate`` (SIGKILL with nothing durable) or
    ``after-store`` (simulate, publish durably, *then* SIGKILL before
    reporting back).  The marker is consumed first, so the retry or the
    serial fallback runs clean, exactly like a real transient crash."""
    marker = Path(task.cache_dir) / f"killplan-{task.benchmark}"
    if marker.exists():
        phase = marker.read_text()
        marker.unlink()
        if phase == "before-simulate":
            os.kill(os.getpid(), signal.SIGKILL)
        payloads = _run_cells_worker(task)
        assert payloads  # the store happened; the report never will
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cells_worker(task)


def _golden(tmp_path):
    """Fault-free reference results, from an isolated cache."""
    runner = ExperimentRunner(
        benchmarks=list(BENCHES), cache_dir=tmp_path / "golden-cache", jobs=1
    )
    runner.prefetch(CELLS)
    return {cell: runner._runs[cell].to_dict() for cell in CELLS}


class TestWorkerSigkill:
    def test_killed_workers_converge_to_golden(self, tmp_path):
        rng = random.Random(KILL_SEED)
        phases = {
            name: rng.choice(("before-simulate", "after-store"))
            for name in BENCHES
        }
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        for name, phase in phases.items():
            (cache_dir / f"killplan-{name}").write_text(phase)
        journal = tmp_path / "run.jnl"
        runner = ExperimentRunner(
            benchmarks=list(BENCHES), cache_dir=cache_dir, jobs=2,
            journal=journal,
        )
        runner._worker_fn = _kill_plan_worker
        runner.prefetch(CELLS)
        runner.close_journal()

        golden = _golden(tmp_path)
        for cell in CELLS:
            assert runner._runs[cell].to_dict() == golden[cell]
        assert runner.failures.worker_crashes >= 1
        replay = JournalReplay.from_path(journal)
        assert replay.balanced()
        assert len(replay.completed_keys()) == len(CELLS)

        # Zero re-simulation of journaled-complete cells: once a key's
        # ``completed`` record is on disk (store was durable), no later
        # record may dispatch it again.  (A per-phase assertion would be
        # racy: a ``before-simulate`` crash makes the pool terminate the
        # sibling ``after-store`` worker, possibly before its store --
        # re-simulating *that* cell is the correct recovery.)
        completed_keys = set()
        for record in read_journal(journal):
            if record["event"] == "completed":
                completed_keys.add(record["key"])
            elif record["event"] == "dispatched":
                assert record["key"] not in completed_keys, (
                    f"{record['cell']}: re-dispatched after completion"
                )

    def test_resume_after_worker_chaos_is_pure_replay(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "killplan-rawcaudio").write_text("after-store")
        journal = tmp_path / "run.jnl"
        chaos = ExperimentRunner(
            benchmarks=list(BENCHES), cache_dir=cache_dir, jobs=2,
            journal=journal,
        )
        chaos._worker_fn = _kill_plan_worker
        chaos.prefetch(CELLS)
        chaos.close_journal()
        resumed = ExperimentRunner(
            benchmarks=list(BENCHES), cache_dir=cache_dir, jobs=2,
            journal=journal, resume=True,
        )
        resumed.prefetch(CELLS)
        resumed.close_journal()
        assert resumed.journal_stats["replayed"] == len(CELLS)
        assert not resumed.failures.any()


SWEEP_ARGS = [
    "sweep", "--workloads", *BENCHES,
    "--machines", "2", "4", "--strategies", "ilp", "tlp", "llp",
]

#: Cells the sweep grid dispatches: 2 baselines + 2x2x3 strategy cells.
SWEEP_GRID = 14


def _strip_volatile(document):
    return {
        key: value
        for key, value in document.items()
        if key not in ("cache", "journal")
    }


def _completed_count(journal):
    try:
        text = journal.read_text()
    except OSError:
        return 0
    return text.count('"event":"completed"')


class TestDriverSigkill:
    def test_killed_driver_resumes_bit_identical(self, tmp_path):
        rng = random.Random(KILL_SEED + 1)
        kill_after = rng.randint(2, 6)
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "sweep.jnl"
        artifact = tmp_path / "sweep.json"

        golden_out = io.StringIO()
        golden_artifact = tmp_path / "golden.json"
        assert cli_main(
            SWEEP_ARGS + [
                "--cache-dir", str(tmp_path / "golden-cache"),
                "--out", str(golden_artifact),
            ],
            out=golden_out,
        ) == 0
        golden = _strip_volatile(json.loads(golden_artifact.read_text()))

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep * bool(
            env.get("PYTHONPATH")
        ) + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", *SWEEP_ARGS,
             "--cache-dir", str(cache_dir), "--journal", str(journal),
             "--out", str(artifact)],
            env=env, cwd=Path(__file__).resolve().parents[2],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        try:
            while (
                _completed_count(journal) < kill_after
                and proc.poll() is None
            ):
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("sweep subprocess made no progress")
                time.sleep(0.005)
        finally:
            proc.kill()
            proc.wait()
        completed_before = {
            record["key"]
            for record in read_journal(journal)
            if record["event"] == "completed"
        }
        # The kill landed mid-grid (unless the machine raced the whole
        # sweep, in which case resume degenerates to pure replay --
        # still a valid convergence check, just log the weaker mode).
        interrupted = len(completed_before) < SWEEP_GRID
        records_before = len(read_journal(journal))

        out = io.StringIO()
        assert cli_main(
            SWEEP_ARGS + [
                "--cache-dir", str(cache_dir), "--resume", str(journal),
                "--out", str(artifact),
            ],
            out=out,
        ) == 0
        resumed = _strip_volatile(json.loads(artifact.read_text()))
        assert resumed == golden  # bit-identical modulo volatile tallies

        records = read_journal(journal)
        replay = JournalReplay(records)
        assert replay.balanced()
        assert len(replay.completed_keys()) == SWEEP_GRID
        # Zero re-simulation: nothing journaled complete before the kill
        # was dispatched again after the resume boundary.
        resumed_dispatches = {
            record["key"]
            for record in records[records_before:]
            if record.get("event") == "dispatched"
        }
        assert not completed_before & resumed_dispatches
        assert "journal   :" in out.getvalue()
        if interrupted:
            assert replay.attempts  # the grid genuinely ran in two halves

    def test_second_resume_is_idempotent(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "sweep.jnl"
        artifact = tmp_path / "sweep.json"
        first = io.StringIO()
        assert cli_main(
            SWEEP_ARGS + [
                "--cache-dir", str(cache_dir), "--journal", str(journal),
                "--out", str(artifact),
            ],
            out=first,
        ) == 0
        document = _strip_volatile(json.loads(artifact.read_text()))
        records_before = len(read_journal(journal))
        again = io.StringIO()
        assert cli_main(
            SWEEP_ARGS + [
                "--cache-dir", str(cache_dir), "--resume", str(journal),
                "--out", str(artifact),
            ],
            out=again,
        ) == 0
        assert _strip_volatile(json.loads(artifact.read_text())) == document
        records = read_journal(journal)
        # A full replay appends exactly one resumed 'start' header.
        assert len(records) == records_before + 1
        assert f"{SWEEP_GRID} replayed" in again.getvalue()
