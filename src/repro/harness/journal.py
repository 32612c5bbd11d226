"""Write-ahead run journal: crash-safe, resumable experiment execution.

The experiment drivers (``ExperimentRunner.prefetch``/``run``,
``run_sweep``, the fuzz campaign) can lose minutes of simulation when a
worker segfaults mid-round or the driver itself is SIGKILLed.  The
:class:`RunJournal` closes that gap: an append-only JSONL file with one
fsynced record per cell lifecycle event, written by the *driver* (a
single writer -- workers only touch the result cache), so at any
instant the journal on disk is a complete, durable account of what was
planned, what finished, and what was given up on.

Lifecycle events (``cell`` is the ``[benchmark, cores, strategy]``
triple, ``key`` its content-hash cache key)::

    planned     the driver committed to producing this cell
    dispatched  an attempt started (``mode``: pool round or serial)
    completed   the result is durable in the result cache
    failed      one attempt died (timeout, worker crash, pool breakage)
    abandoned   every attempt exhausted; the cell has no result

plus meta records that never affect replay state: ``start`` (journal
header: version, wall-clock stamp, free-form context), ``interrupted``
(a SIGTERM/SIGINT handler flushed the journal before exit), ``note``.

Durability discipline mirrors the result cache's: ``completed`` is
recorded strictly *after* the cache store, so a ``completed`` record
implies a durable (fsynced, atomically renamed) cache entry.  Resume is
then a pure replay: re-dispatch exactly the planned cells without a
``completed`` record, let the cache serve the rest, and the merged run
is bit-identical to an uninterrupted one.

Timestamps are ``time.monotonic()`` -- strictly ordered within one
driver process, meaningless across a restart (each process also logs a
``start`` record, so per-process deltas stay interpretable).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .cache import fsync_path

#: Bump on breaking record-layout changes; replay rejects a foreign major.
JOURNAL_VERSION = 1

#: Events that advance a cell's replay state, in escalation order.
LIFECYCLE_EVENTS = ("planned", "dispatched", "completed", "failed", "abandoned")

#: Events replay ignores (headers, signal flushes, annotations).
META_EVENTS = ("start", "interrupted", "note")

#: States replay treats as final: the cell needs no further attempts.
TERMINAL_STATES = frozenset({"completed", "abandoned"})


class RunJournal:
    """Append-only JSONL journal with one fsync per record.

    Open with ``resume=True`` to append to an existing journal (the
    resume path): :attr:`replay` then holds the prior history's
    :class:`JournalReplay`.  The default, and ``resume=True`` on a path
    that does not exist yet, starts a fresh history and leaves
    :attr:`replay` None.  Lifecycle records are written through
    :meth:`record` with the fields listed in the module docstring
    (``cell`` as a list, ``key``, plus ``attempt``/``mode``/``source``/
    ``reason`` as the event needs).  The per-record fsync is what makes a
    SIGKILLed driver resumable.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        resume: bool = False,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        #: The prior history this journal resumes (None for a fresh one).
        self.replay: Optional[JournalReplay] = None
        if resume and self.path.exists():
            self.replay = JournalReplay.from_path(self.path)
            # Appending after a torn tail (the one artifact a SIGKILL
            # mid-write can leave) would strand the new records behind
            # an unparseable line and make the whole journal
            # unreplayable -- trim the tail first.
            _trim_torn_tail(self.path)
        self._handle = open(self.path, "w" if self.replay is None else "a")
        fsync_path(self.path.parent)
        self.record(
            "start",
            journal_version=JOURNAL_VERSION,
            resumed=self.replay is not None,
            wall_time=time.time(),
            **(context or {}),
        )

    def record(self, event: str, **fields: Any) -> None:
        """Append one record and make it durable before returning."""
        if self._handle is None:
            return  # closed (signal handler already flushed): drop late writes
        payload = {"event": event, "t": time.monotonic(), **fields}
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.flush()
            with contextlib.suppress(OSError):
                os.fsync(handle.fileno())
            handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _trim_torn_tail(path: Path) -> None:
    """Truncate a torn *final* record so a resumed journal stays
    replayable.  Only the tail is ever trimmed: a torn line with valid
    records after it means out-of-order durability, and the file is
    left untouched for :func:`read_journal` to reject loudly."""
    try:
        data = path.read_bytes()
        _, torn_offset = _parse(path, data)
    except (OSError, ValueError):
        return  # unreadable, or torn mid-file: not ours to repair
    if torn_offset is not None:
        with open(path, "r+b") as handle:
            handle.truncate(torn_offset)
        fsync_path(path)
    elif data and not data.endswith(b"\n"):
        # Complete final record, torn newline: appending would glue the
        # next record onto it -- restore the separator.
        with open(path, "ab") as handle:
            handle.write(b"\n")
        fsync_path(path)


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a journal file, tolerating a torn final line.

    A driver killed between ``write`` and ``fsync`` can leave a partial
    last record; everything before it was fsynced in order, so the torn
    tail is dropped (never an exception).  A torn line anywhere *else*
    would mean out-of-order durability and raises -- that journal cannot
    be trusted for replay.
    """
    return _parse(path, Path(path).read_bytes())[0]


def _parse(
    path: Union[str, Path], data: bytes
) -> Tuple[List[Dict[str, Any]], Optional[int]]:
    """A journal's records, plus the byte offset of a torn final record
    (None when the tail is intact); a torn record with records after it
    raises ``ValueError``."""
    records: List[Dict[str, Any]] = []
    torn: Optional[Tuple[int, int]] = None  # (line number, byte offset)
    offset = 0
    for lineno, line in enumerate(data.splitlines(keepends=True), 1):
        if line.strip():
            if torn is not None:
                raise ValueError(
                    f"{path}: torn record at line {torn[0]} is not the "
                    f"final line (line {lineno} follows); journal is "
                    "not replayable"
                )
            try:
                records.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError):
                torn = (lineno, offset)
        offset += len(line)
    return records, torn[1] if torn is not None else None


class JournalReplay:
    """The per-cell state machine distilled from a journal's records.

    Replay feeds a whole history through :meth:`apply`; the experiment
    runner keeps one live instance for its current run and applies each
    record as it writes it, so both read the same state machine.

    Cells are keyed by their content-hash cache key (two sweep runners
    can plan the same ``(benchmark, cores, strategy)`` triple under
    different machine overrides -- the key disambiguates).  Records
    without a key (journaling with the cache disabled) fall back to the
    rendered cell triple.
    """

    def __init__(self, records: Iterable[Dict[str, Any]] = ()) -> None:
        #: key -> last lifecycle event seen for that cell.
        self.states: Dict[str, str] = {}
        #: key -> the cell triple (for rendering).
        self.cells: Dict[str, List[Any]] = {}
        #: key -> dispatch attempts recorded across the whole history.
        self.attempts: Dict[str, int] = {}
        self.interrupted = False
        for record in records:
            self.apply(record)

    def apply(self, record: Dict[str, Any]) -> None:
        """Advance the state machine by one record."""
        event = record.get("event")
        if event == "start":
            version = record.get("journal_version")
            if version != JOURNAL_VERSION:
                raise ValueError(
                    f"unsupported journal_version {version!r} "
                    f"(this release reads {JOURNAL_VERSION})"
                )
            return
        if event == "interrupted":
            self.interrupted = True
            return
        if event not in LIFECYCLE_EVENTS:
            return  # meta/unknown records never affect replay
        key = self.key_of(record)
        if key is None:
            return
        self.cells[key] = record.get("cell", [])
        if event == "dispatched":
            self.attempts[key] = self.attempts.get(key, 0) + 1
        # completed is sticky: a later planned/failed for the same key
        # (a paranoid re-run) must not demote a durable result.
        if self.states.get(key) == "completed" and event != "abandoned":
            return
        self.states[key] = event

    @staticmethod
    def key_of(record: Dict[str, Any]) -> Optional[str]:
        key = record.get("key")
        if key:
            return str(key)
        cell = record.get("cell")
        return f"cell:{cell!r}" if cell else None

    @classmethod
    def from_path(cls, path: Union[str, Path]) -> "JournalReplay":
        return cls(read_journal(path))

    def state(self, key: str) -> Optional[str]:
        return self.states.get(key)

    def is_completed(self, key: str) -> bool:
        return self.states.get(key) == "completed"

    def completed_keys(self) -> List[str]:
        return [k for k, s in self.states.items() if s == "completed"]

    def incomplete_keys(self) -> List[str]:
        """Cells that were planned/attempted but never reached a terminal
        state -- exactly what a resume must re-dispatch."""
        return [
            k for k, s in self.states.items() if s not in TERMINAL_STATES
        ]

    def accounting(self) -> Dict[str, int]:
        """Tallies for the replay-stats report line and the CI artifact."""
        counts = {"planned": len(self.states), "completed": 0,
                  "abandoned": 0, "incomplete": 0}
        for state in self.states.values():
            if state == "completed":
                counts["completed"] += 1
            elif state == "abandoned":
                counts["abandoned"] += 1
            else:
                counts["incomplete"] += 1
        return counts

    def balanced(self) -> bool:
        """The crash-chaos invariant: every planned cell is accounted for
        exactly once as completed or abandoned (nothing left dangling)."""
        return all(state in TERMINAL_STATES for state in self.states.values())


@contextlib.contextmanager
def flush_on_signals(journal: Optional[RunJournal], signals=(
    signal.SIGTERM, signal.SIGINT,
)):
    """Make Ctrl-C / SIGTERM resumable: on either signal, append one
    durable ``interrupted`` record *immediately* (every earlier record
    was fsynced at write time, so the journal is already consistent) and
    unwind via ``KeyboardInterrupt`` so pools and files clean up.  A
    follow-up SIGKILL during unwind loses nothing.  No-op without a
    journal or off the main thread (``signal.signal`` would raise)."""
    if journal is None:
        yield
        return
    previous = {}

    def _handler(signum, frame):
        journal.record("interrupted", signum=signum)
        journal.close()
        raise KeyboardInterrupt(f"signal {signum}: journal flushed")

    try:
        for signum in signals:
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:  # not the main thread: rely on per-record fsync
        previous = {}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
