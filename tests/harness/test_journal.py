"""Unit coverage for the write-ahead run journal and its replay.

The journal is the crash-safety keystone: every other layer (runner,
sweep driver, fuzz campaign, CLI resume) trusts that (1) records hit the
disk in order, one fsync each, (2) a torn tail -- the one artifact a
SIGKILL can leave -- parses as "everything before it", and (3) replay
distills any record history into the per-cell state machine the resume
path re-dispatches from.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.harness.journal import (
    JOURNAL_VERSION,
    JournalReplay,
    RunJournal,
    flush_on_signals,
    read_journal,
)

CELL = ("rawcaudio", 2, "ilp")


def _events(path):
    return [record["event"] for record in read_journal(path)]


class TestRunJournal:
    def test_start_record_and_lifecycle_roundtrip(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path, context={"driver": "test"}) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
            journal.record(
                "dispatched", cell=list(CELL), key="k1", attempt=1,
                mode="pool",
            )
            journal.record(
                "completed", cell=list(CELL), key="k1", source="worker",
                attempt=1,
            )
        records = read_journal(path)
        assert _events(path) == ["start", "planned", "dispatched", "completed"]
        start = records[0]
        assert start["journal_version"] == JOURNAL_VERSION
        assert start["resumed"] is False
        assert start["driver"] == "test"
        assert records[1]["cell"] == list(CELL)
        assert records[2]["mode"] == "pool"
        # Monotonic timestamps: strictly ordered within one process.
        stamps = [record["t"] for record in records]
        assert stamps == sorted(stamps)

    def test_fresh_open_truncates_resume_appends(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        with RunJournal(path, resume=True) as journal:
            journal.record(
                "completed", cell=list(CELL), key="k1", source="cache",
                attempt=0,
            )
        assert _events(path) == ["start", "planned", "start", "completed"]
        assert read_journal(path)[2]["resumed"] is True
        # Without resume the history restarts from scratch.
        with RunJournal(path):
            pass
        assert _events(path) == ["start"]

    def test_resume_exposes_the_prior_history(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path, resume=True) as journal:
            # Nothing to resume: a fresh history.
            assert journal.replay is None
            journal.record(
                "completed", cell=list(CELL), key="k1", source="serial",
                attempt=1,
            )
        assert read_journal(path)[0]["resumed"] is False
        with RunJournal(path, resume=True) as journal:
            assert journal.replay.is_completed("k1")
            # A snapshot of the prior history, not a live view.
            journal.record("planned", cell=["x", 1, "baseline"], key="k2")
            assert journal.replay.states == {"k1": "completed"}
        with RunJournal(path) as journal:
            assert journal.replay is None

    def test_writes_after_close_are_dropped(self, tmp_path):
        path = tmp_path / "run.jnl"
        journal = RunJournal(path)
        journal.close()
        # No exception, no record.
        journal.record("planned", cell=list(CELL), key="k1")
        journal.close()  # idempotent
        assert _events(path) == ["start"]

    def test_records_are_one_line_each(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record(
                "abandoned", cell=list(CELL), key="k1",
                reason="multi\nline\nreason",
            )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["reason"] == "multi\nline\nreason"


class TestReadJournal:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
            journal.record(
                "completed", cell=list(CELL), key="k1", source="serial",
                attempt=0,
            )
        with open(path, "a") as handle:
            handle.write('{"event":"planned","cell":["gsm')  # SIGKILL here
        assert _events(path) == ["start", "planned", "completed"]

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        text = path.read_text()
        lines = text.splitlines()
        lines.insert(1, '{"torn":')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not the final line"):
            read_journal(path)

    def test_resume_trims_torn_tail_before_appending(self, tmp_path):
        # The SIGKILL-mid-write artifact: without the trim, the resumed
        # records would land *after* the torn line and read_journal
        # would reject the whole file as unreplayable.
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        with open(path, "a") as handle:
            handle.write('{"event":"completed","cell":["gsm')
        with RunJournal(path, resume=True) as journal:
            journal.record(
                "completed", cell=list(CELL), key="k1", source="serial",
                attempt=0,
            )
        assert _events(path) == ["start", "planned", "start", "completed"]

    def test_resume_repairs_missing_final_newline(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        with open(path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.truncate()  # complete record, torn newline
        with RunJournal(path, resume=True) as journal:
            journal.record(
                "completed", cell=list(CELL), key="k1", source="serial",
                attempt=0,
            )
        assert _events(path) == ["start", "planned", "start", "completed"]

    def test_resume_leaves_mid_file_tears_alone(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        lines = path.read_text().splitlines()
        lines.insert(1, '{"torn":')
        path.write_text("\n".join(lines) + "\n")
        before = path.read_text()
        # Not repaired (out-of-order durability is not ours to hide):
        # the resume refuses the history it cannot replay, and the
        # original lines survive untouched.
        with pytest.raises(ValueError, match="not the final line"):
            RunJournal(path, resume=True)
        assert path.read_text() == before
        with pytest.raises(ValueError, match="not the final line"):
            read_journal(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert _events(path) == ["start", "planned"]


class TestJournalReplay:
    def _replay(self, *records):
        return JournalReplay(list(records))

    def test_state_machine_and_terminal_queries(self):
        replay = self._replay(
            {"event": "planned", "cell": list(CELL), "key": "a"},
            {"event": "dispatched", "cell": list(CELL), "key": "a",
             "attempt": 1},
            {"event": "completed", "cell": list(CELL), "key": "a"},
            {"event": "planned", "cell": ["x", 1, "baseline"], "key": "b"},
            {"event": "dispatched", "cell": ["x", 1, "baseline"], "key": "b",
             "attempt": 1},
        )
        assert replay.is_completed("a")
        assert replay.state("b") == "dispatched"
        assert replay.completed_keys() == ["a"]
        assert replay.incomplete_keys() == ["b"]
        assert not replay.balanced()
        assert replay.accounting() == {
            "planned": 2, "completed": 1, "abandoned": 0, "incomplete": 1,
        }

    def test_completed_is_sticky(self):
        replay = self._replay(
            {"event": "completed", "key": "a", "cell": list(CELL)},
            {"event": "planned", "key": "a", "cell": list(CELL)},
            {"event": "failed", "key": "a", "cell": list(CELL)},
        )
        assert replay.is_completed("a")

    def test_abandoned_is_terminal_and_balanced(self):
        replay = self._replay(
            {"event": "planned", "key": "a", "cell": list(CELL)},
            {"event": "abandoned", "key": "a", "cell": list(CELL)},
            {"event": "planned", "key": "b", "cell": list(CELL)},
            {"event": "completed", "key": "b", "cell": list(CELL)},
        )
        assert replay.balanced()
        assert replay.accounting()["abandoned"] == 1

    def test_attempts_accumulate_across_history(self):
        replay = self._replay(
            *({"event": "dispatched", "key": "a", "cell": list(CELL)},) * 3
        )
        assert replay.attempts["a"] == 3

    def test_meta_events_are_ignored_interrupted_is_flagged(self):
        replay = self._replay(
            {"event": "note", "key": "a", "cell": list(CELL)},
            {"event": "interrupted", "signum": 15},
            {"event": "heartbeat"},
        )
        assert replay.states == {}
        assert replay.interrupted

    def test_keyless_records_fall_back_to_cell(self):
        replay = self._replay(
            {"event": "planned", "cell": list(CELL), "key": None},
            {"event": "completed", "cell": list(CELL), "key": None},
        )
        assert replay.is_completed(f"cell:{list(CELL)!r}")

    def test_foreign_journal_version_is_rejected(self):
        with pytest.raises(ValueError, match="journal_version"):
            self._replay(
                {"event": "start", "journal_version": JOURNAL_VERSION + 1}
            )

    def test_from_path_matches_live_journal(self, tmp_path):
        path = tmp_path / "run.jnl"
        with RunJournal(path) as journal:
            journal.record("planned", cell=list(CELL), key="k1")
            journal.record(
                "dispatched", cell=list(CELL), key="k1", attempt=1,
                mode="serial",
            )
            journal.record(
                "completed", cell=list(CELL), key="k1", source="serial",
                attempt=1,
            )
        replay = JournalReplay.from_path(path)
        assert replay.is_completed("k1")
        assert replay.balanced()


class TestFlushOnSignals:
    def test_sigterm_flushes_and_unwinds(self, tmp_path):
        path = tmp_path / "run.jnl"
        journal = RunJournal(path)
        with pytest.raises(KeyboardInterrupt, match="journal flushed"):
            with flush_on_signals(journal):
                journal.record("planned", cell=list(CELL), key="k1")
                os.kill(os.getpid(), signal.SIGTERM)
        assert _events(path) == ["start", "planned", "interrupted"]
        assert JournalReplay.from_path(path).interrupted
        # The journal is closed; late writes are dropped, not errors.
        journal.record("planned", cell=list(CELL), key="k2")
        assert _events(path) == ["start", "planned", "interrupted"]

    def test_previous_handlers_are_restored(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jnl")
        before = signal.getsignal(signal.SIGTERM)
        with flush_on_signals(journal):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before
        journal.close()

    def test_no_journal_is_a_noop(self):
        before = signal.getsignal(signal.SIGTERM)
        with flush_on_signals(None):
            assert signal.getsignal(signal.SIGTERM) is before

    def test_off_main_thread_degrades_gracefully(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jnl")
        outcome = {}

        def body():
            try:
                with flush_on_signals(journal):
                    outcome["entered"] = True
            except Exception as error:  # pragma: no cover - the failure
                outcome["error"] = error

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome.get("entered") is True
        assert "error" not in outcome
        journal.close()
