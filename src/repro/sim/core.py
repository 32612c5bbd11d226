"""Per-core state: register file, call stack, scoreboard, and status.

The core is a single-issue, in-order VLIW pipeline (paper Section 5.1:
"each core is a single-issue processor").  All orchestration that spans
cores -- lock-step stepping, the stall bus, barriers, the operand network
-- lives in :class:`repro.sim.machine.VoltronMachine`; this module only
holds one core's architectural and pipeline state.

Register values and ready cycles are two lists indexed through the
program's :class:`~repro.isa.registers.RegisterLayout` (registers from 0,
constants down from -1), so the simulator never hashes a register.

The scoreboard (register ready-times) makes mis-scheduling a *performance*
bug rather than a correctness bug: an operation whose sources are not yet
ready simply stalls, and the cycle is attributed to the ``latency``
category (near zero under a correct static schedule).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..isa.machinecode import CoreBlock, CoreFunction
from ..isa.operations import Reg
from ..isa.registers import RegisterLayout, UninitializedRegister, Value
from .stats import CoreStats

#: Core status values.
RUNNING = "running"
LISTENING = "listening"
HALTED = "halted"
BARRIER_WAIT = "barrier"

#: Value of a never-written register.
UNSET = object()
#: Ready cycle of a never-written register: later than any real cycle, so
#: the scoreboard probe that gates every issue is what catches a read of
#: it (a miscompile), and the handlers read values unchecked.
UNWRITTEN = 1 << 62


@dataclass
class CoreFrame:
    """One activation record on a core's call stack."""

    function: CoreFunction
    block: CoreBlock
    slot: int = 0
    #: Flat register index receiving the callee's return value.
    return_dest: Optional[int] = None


@dataclass
class TxCheckpoint:
    """Compiler-managed register checkpoint for transaction rollback."""

    registers: List[Value]
    restart_label: str
    #: Call depth at TX_BEGIN: rollback (and therefore blackout
    #: recovery, which reuses it) is only valid at this depth, where the
    #: restart label resolves in the checkpointed frame's function.
    call_depth: int = 0


class StallWatermark:
    """The latest cycle any core of one machine is held until.  Every
    write of a :attr:`Core.next_free` raises it, so from ``until`` on no
    core is blocked (the coupled kernel's stall bus skips its walk)."""

    __slots__ = ("until",)

    def __init__(self) -> None:
        self.until = 0


class Core:
    """One Voltron core's state."""

    def __init__(
        self, core_id: int, layout: RegisterLayout,
        watermark: Optional[StallWatermark] = None,
    ) -> None:
        self.id = core_id
        self.layout = layout
        # Shared by every core of a machine (see StallWatermark).
        self.watermark = StallWatermark() if watermark is None else watermark
        # Register values and scoreboard ready cycles, by flat index.
        self.values: List[Value] = [UNSET] * layout.n_regs + layout.constants[::-1]
        self.reg_ready: List[int] = [UNWRITTEN] * layout.n_regs + [0] * len(layout.constants)
        self.stack: List[CoreFrame] = []
        #: The top activation record, maintained by push/pop (read on every
        #: fetch, scoreboard probe, and issue -- hot enough that a plain
        #: attribute beats a ``stack[-1]`` property).
        self.frame: Optional[CoreFrame] = None
        self.status = RUNNING
        # The stall category while in BARRIER_WAIT, set on arrival.
        self.barrier_cause = "barrier"
        self.stats = CoreStats()
        # Pipeline state.
        self.next_free = 0  # earliest cycle the core may issue
        self.pending_cause: Optional[str] = None  # stall cause until next_free
        # The last stall of this core while free to issue, as
        # (cycle, category, release): decided once by the kernel that
        # took it (see stall) and read by the fast-forward window.
        self.stall_stamp: Optional[Tuple[int, str, Optional[int]]] = None
        # Whether this core's current stall episode has paid the
        # clustered stall-bus penalty (see VoltronMachine._stall_bus).
        self.penalized = False
        # Asleep while it owes ``owed`` per cycle since ``since`` (AwakeSet).
        self.owed: Optional[str] = None
        self.since, self.wake = 0, None
        # Fetch marker: slots [.., fetch_end) of fetch_block are fetched
        # (take_fetch; the coupled kernel writes it from its columns'
        # fetch entries).  The machine sets fetch_base to the stream's
        # first instruction address and fetch_span to the I-cache line
        # size, or to 1 (one fetch per slot) under a fault plan.
        self.fetch_block: Optional[CoreBlock] = None
        self.fetch_end = 0
        self.fetch_base = 0
        self.fetch_span = 1
        # Fine-grain thread state.
        self.listen_return: Optional[Tuple[CoreBlock, int]] = None
        # Transaction state.
        self.tx_checkpoint: Optional[TxCheckpoint] = None

    # -- call stack -------------------------------------------------------------

    def push_frame(self, function: CoreFunction, return_dest: Optional[int]) -> None:
        entry = function.block(function.entry)
        self.stack.append(CoreFrame(function, entry, slot=0, return_dest=return_dest))
        self.frame = self.stack[-1]
        self.fetch_block = None

    def pop_frame(self) -> CoreFrame:
        frame = self.stack.pop()
        self.frame = self.stack[-1] if self.stack else None
        self.fetch_block = None
        return frame

    @property
    def call_depth(self) -> int:
        return len(self.stack)

    # -- position --------------------------------------------------------------

    def position(self) -> Tuple[str, str, int]:
        frame = self.frame
        return frame.function.name, frame.block.label, frame.slot

    def at_block_end(self) -> bool:
        frame = self.frame
        return frame.slot >= len(frame.block.slots)

    def jump(self, label: str) -> None:
        frame = self.frame
        frame.block = frame.function.block(label)
        frame.slot = 0
        self.fetch_block = None

    def advance_slot(self) -> None:
        self.frame.slot += 1

    def fall_through(self) -> bool:
        """Move to the fall successor; False when the block dead-ends."""
        frame = self.frame
        if frame.block.fall is None:
            return False
        self.jump(frame.block.fall)
        return True

    # -- fetch bookkeeping --------------------------------------------------------

    def take_fetch(self) -> Optional[int]:
        """The simulator's fetch probe: returns the slot's address when it
        still needs an I-fetch (marking every slot up to the end of its
        fetch span as fetched), or None when already fetched.  Redirects
        clear the marker, so every block entry fetches."""
        frame = self.frame
        block = frame.block
        slot = frame.slot
        if block is self.fetch_block and slot < self.fetch_end:
            return None
        addr = block.base_addr + slot
        span = self.fetch_span
        self.fetch_block = block
        self.fetch_end = slot + span - (self.fetch_base + addr) % span
        return addr

    def fetch_entry(self, block: CoreBlock, slot: int) -> Tuple["Core", CoreBlock, int, int]:
        """``(core, block, address, line end)`` of fetching ``slot`` of
        ``block``: the I-cache address and the end of the fetch span it
        starts (the marker then covers ``[slot, end)``)."""
        addr = self.fetch_base + block.base_addr + slot
        span = self.fetch_span
        return self, block, addr, slot + span - addr % span

    # -- registers and scoreboard --------------------------------------------------

    def register(self, reg: Reg) -> Tuple[Value, int]:
        """``(value, ready cycle)`` of ``reg``; raises
        :class:`UninitializedRegister` when it was never written."""
        index = self.layout.find(reg)
        if index is not None and self.values[index] is not UNSET:
            return self.values[index], self.reg_ready[index]
        self._uninitialized(reg)

    def write_reg(self, index: int, value: Value, ready: int) -> None:
        self.values[index] = value
        self.reg_ready[index] = ready

    def check_sources(self, srcs: Tuple[int, ...]) -> None:
        """Raise for the first never-written register among ``srcs``."""
        for index in srcs:
            if self.reg_ready[index] >= UNWRITTEN:
                self._uninitialized(self.layout.names[index])

    def _uninitialized(self, reg: Reg) -> None:
        raise UninitializedRegister(f"core {self.id} read uninitialized register {reg!r}")

    def stall(
        self, cycle: int, category: str, release: Optional[int] = None
    ) -> None:
        """An issue-ready core stalls at ``cycle``: charge ``category`` and
        stamp why and until when.  ``release`` is the cycle the stall lifts
        on its own, or None when only another core's progress can end it."""
        self.stats.stall(category)
        self.stall_stamp = (cycle, category, release)

    def block_until(self, cycle: int, cause: str) -> None:
        """Block the pipeline until ``cycle`` (exclusive), e.g. a cache miss."""
        if cycle > self.next_free:
            self.hold(cycle, cause)

    def hold(self, cycle: int, cause: str) -> None:
        """Hold the pipeline until exactly ``cycle``, even if that is
        sooner than the hold in place (the one way ``next_free`` is set)."""
        self.next_free = cycle
        self.pending_cause = cause
        watermark = self.watermark
        if cycle > watermark.until:
            watermark.until = cycle

    # -- transactions ----------------------------------------------------------------

    def checkpoint_registers(self, restart_label: str) -> None:
        self.tx_checkpoint = TxCheckpoint(
            registers=self.values[: self.layout.n_regs],
            restart_label=restart_label,
            call_depth=self.call_depth,
        )

    def rollback_registers(self) -> str:
        """Restore the checkpoint; returns the restart block label."""
        assert self.tx_checkpoint is not None, "rollback without a checkpoint"
        self.values[: self.layout.n_regs] = self.tx_checkpoint.registers
        self._settle_scoreboard()
        return self.tx_checkpoint.restart_label

    def poison_registers(self, poison: Value) -> None:
        """A blackout: every written register now holds ``poison``."""
        n_regs = self.layout.n_regs
        self.values[:n_regs] = [v if v is UNSET else poison for v in self.values[:n_regs]]
        self._settle_scoreboard()

    def _settle_scoreboard(self) -> None:
        # Every written register is ready now; unwritten ones stay so.
        n_regs = self.layout.n_regs
        self.reg_ready[:n_regs] = [UNWRITTEN if v is UNSET else 0 for v in self.values[:n_regs]]

    def __repr__(self) -> str:
        if not self.stack:
            return f"<core {self.id} {self.status} (no frame)>"
        name, label, slot = self.position()
        return f"<core {self.id} {self.status} at {name}:{label}:{slot}>"


class AwakeSet:
    """Decoupled mode's awake cores, in id order.  A sleeper owes its stall
    category per cycle until it wakes (at ``wake``, or roused by an event)
    and is then credited in bulk, from the first cycle owed (``settle``)."""

    def __init__(self, cores: List[Core]) -> None:
        self.all = cores
        self.cores: List[Core] = []  # the awake ones, rebuilt when stale
        self.stale = True
        self.wakes: List[Tuple[int, int]] = []  # heap of (cycle, core id)
        self.dozing = True  # False: every core stays awake

    def due(self, cycle: int) -> List[Core]:
        """Wake the sleepers due at ``cycle``; the awake cores."""
        while self.wakes and self.wakes[0][0] <= cycle:
            at, core_id = heappop(self.wakes)
            if self.all[core_id].wake == at:  # else woken already
                self.wake(self.all[core_id], cycle)
        if self.stale:
            self.stale = False
            self.cores = [c for c in self.all if c.owed is None and c.status != HALTED]
        return self.cores

    def doze(self, core: Core, cycle: int, category: str, wake: Optional[int] = None) -> None:
        """``core``, charged ``category`` at ``cycle``, repeats it until ``wake``."""
        if self.dozing and (wake is None or wake > cycle + 1):
            core.owed, core.since, core.wake = category, cycle + 1, wake
            if wake is not None:
                heappush(self.wakes, (wake, core.id))
            self.stale = True

    def wake(self, core: Core, cycle: int) -> None:
        """Credit what ``core`` owes before ``cycle`` and step it again."""
        self.settle(cycle, core)
        core.owed = core.wake = None
        self.stale = True

    def rouse(self, core: Core, cycle: int, now: bool = False) -> None:
        """An event may end ``core``'s sleep: wake it this cycle (``now``: a
        core stepped before it caused the event), else from the next."""
        if now and core.owed is not None:
            self.wake(core, cycle)
            insort(self.cores, core, key=lambda c: c.id)
        elif core.owed is not None and (core.wake is None or core.wake > cycle + 1):
            core.wake = cycle + 1
            heappush(self.wakes, (cycle + 1, core.id))

    def settle(self, end: int, *cores: Core) -> None:
        """Credit what ``cores`` (default: every sleeper) owe before ``end``."""
        for core in cores or self.all:
            if core.owed is not None and end > core.since:
                core.stats.stall(core.owed, end - core.since, core.since)
                core.since = end
