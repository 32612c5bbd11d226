"""Low-cost transactional memory for speculative DOALL loops.

The paper (Section 3, citing Herlihy & Moss and the authors' technical
report) divides a statistical-DOALL loop's iterations into chunks, one
transaction per chunk, executed speculatively across cores.  The hardware
detects cross-core memory dependence violations and rolls back memory
state; the *compiler* rolls back register state.

This model implements lazy versioning with **ordered commit**: chunk *k*
may only commit after chunks *0..k-1* of the same speculative region, which
preserves sequential semantics.  Validation intersects the chunk's read set
with the write sets of logically-earlier chunks that committed after this
chunk began; a non-empty intersection aborts the chunk, discards its write
buffer, and the core re-executes from its compiler-recorded restart point
with restored registers.  Ordered commit guarantees that a retry that
begins after all earlier chunks commit succeeds, so progress is assured.

Fault injection (chaos testing) can attach a
:class:`~repro.sim.faults.FaultPlan` (the ``faults`` argument):
``try_commit`` then sometimes aborts a chunk whose validation *passed*,
exercising the abort -> register-rollback -> re-execute path.  A
livelock guard keeps the progress guarantee intact under any injection
rate: once a core accumulates ``livelock_threshold`` consecutive aborts
the TM escalates to *serialized* commit -- injection is suppressed until
the current wave of chunks has fully committed -- so an abort storm
always terminates.  Real conflicts cannot storm on their own (a retry
that begins after every earlier chunk committed validates clean), so
escalation changes timing only, never architectural state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..isa.registers import Value
from .memory import MainMemory, WriteBuffer


class TransactionError(Exception):
    pass


@dataclass
class Transaction:
    """One in-flight speculative chunk."""

    core: int
    region: int
    order: int
    n_chunks: int  # chunks per entry of this speculative region
    begin_serial: int  # commit serial number when this transaction began
    buffer: WriteBuffer = field(default_factory=WriteBuffer)


@dataclass
class _CommitRecord:
    order: int
    serial: int
    write_set: Set[int]


class TransactionalMemory:
    """Machine-wide TM state: one active transaction per core."""

    #: Consecutive aborts on one core before commit is serialized.
    LIVELOCK_THRESHOLD = 3

    def __init__(self, memory: MainMemory, faults=None) -> None:
        self.memory = memory
        self.active: Dict[int, Transaction] = {}
        self._region: Optional[int] = None
        self._next_commit_order = 0
        self._commit_serial = 0
        self._commits: List[_CommitRecord] = []
        self.commits = 0
        self.aborts = 0
        #: Optional :class:`~repro.sim.faults.FaultPlan` (chaos testing).
        self.faults = faults
        #: Probe events (bound by the machine, see :mod:`repro.sim.probe`).
        self.on_tx_begin = None
        self.on_tx_commit = None
        self.on_tx_abort = None
        self.spurious_aborts = 0
        self.livelock_escalations = 0
        self.livelock_threshold = self.LIVELOCK_THRESHOLD
        self._abort_streak: Dict[int, int] = {}
        self._serialized = False

    # -- region management -----------------------------------------------------

    def _enter_region(self, region: int) -> None:
        if self._region != region:
            if self.active:
                raise TransactionError(
                    f"region {region} begins while region {self._region} has "
                    f"active transactions on cores {sorted(self.active)}"
                )
            self._region = region
            self._next_commit_order = 0
            self._commits.clear()
            self._serialized = False
            self._abort_streak.clear()

    # -- transaction lifecycle ---------------------------------------------------

    def begin(
        self, core: int, region: int, order: int, n_chunks: int = 0
    ) -> Transaction:
        self._enter_region(region)
        if core in self.active:
            raise TransactionError(f"core {core} already has a transaction")
        tx = Transaction(
            core=core,
            region=region,
            order=order,
            n_chunks=n_chunks or order + 1,
            begin_serial=self._commit_serial,
        )
        self.active[core] = tx
        if self.on_tx_begin is not None:
            self.on_tx_begin(core, region, order)
        return tx

    def load(self, core: int, addr: int) -> Value:
        tx = self.active.get(core)
        if tx is None:
            return self.memory.load(addr)
        return tx.buffer.load(addr, self.memory)

    def store(self, core: int, addr: int, value: Value) -> None:
        tx = self.active.get(core)
        if tx is None:
            self.memory.store(addr, value)
            return
        tx.buffer.store(addr, value)

    def in_transaction(self, core: int) -> bool:
        return core in self.active

    def serial_slot_ready(self, region: int, order: int,
                          n_chunks: int) -> bool:
        """Whether chunk ``order`` of ``region`` may *begin* under a
        strictly serialized chunk schedule (graceful degradation after
        repeated core blackouts -- see
        :meth:`repro.sim.recovery.RecoveryManager.defer_tx_begin`): only
        the next chunk in commit order may start.  A fresh region (or a
        wrapped re-entry not yet begun) admits chunk 0."""
        if self._region != region:
            return order == 0
        return order == self._next_commit_order % max(1, n_chunks)

    def may_commit(self, core: int) -> bool:
        """Ordered commit: chunk k of each region entry waits for chunks
        0..k-1 of that entry (the counter wraps per entry, so re-entering
        the same speculative region -- an outer loop around a DOALL loop --
        keeps working)."""
        tx = self._tx(core)
        return tx.order == self._next_commit_order % tx.n_chunks

    def try_commit(self, core: int) -> bool:
        """Validate and commit; returns False (and aborts) on conflict."""
        tx = self._tx(core)
        if tx.order != self._next_commit_order % tx.n_chunks:
            raise TransactionError(
                f"core {core} commits chunk {tx.order} out of order "
                f"(expected {self._next_commit_order % tx.n_chunks})"
            )
        conflicting = any(
            record.serial > tx.begin_serial
            and tx.buffer.conflicts_with(record.write_set)
            for record in self._commits
        )
        if (
            not conflicting
            and self.faults is not None
            and not self._serialized
            and self.faults.spurious_conflict()
        ):
            # Injected conflict: validation passed, abort anyway.  The
            # livelock guard (see abort) bounds how often this can recur.
            self.spurious_aborts += 1
            conflicting = True
        if conflicting:
            self.abort(core)
            return False
        tx.buffer.publish(self.memory)
        self._commit_serial += 1
        self._commits.append(
            _CommitRecord(
                order=tx.order,
                serial=self._commit_serial,
                write_set=set(tx.buffer.write_set),
            )
        )
        self._next_commit_order += 1
        del self.active[core]
        self.commits += 1
        if self.on_tx_commit is not None:
            self.on_tx_commit(core, tx.region, tx.order)
        self._abort_streak.pop(core, None)
        if not self.active:
            # The wave of chunks fully committed: any abort storm is
            # over, so serialized mode (and the streaks) reset.
            self._serialized = False
            self._abort_streak.clear()
        return True

    def abort(self, core: int) -> None:
        tx = self._tx(core)
        tx.buffer.discard()
        del self.active[core]
        self.aborts += 1
        if self.on_tx_abort is not None:
            self.on_tx_abort(core, tx.region, tx.order)
        streak = self._abort_streak.get(core, 0) + 1
        self._abort_streak[core] = streak
        if streak >= self.livelock_threshold and not self._serialized:
            # Abort storm: escalate to serialized ordered commit --
            # conflict injection is suppressed until the current wave of
            # chunks commits, so a retry is guaranteed to make progress.
            self._serialized = True
            self.livelock_escalations += 1

    def _tx(self, core: int) -> Transaction:
        tx = self.active.get(core)
        if tx is None:
            raise TransactionError(f"core {core} has no active transaction")
        return tx
