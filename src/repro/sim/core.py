"""Per-core state: register file, call stack, scoreboard, and status.

The core is a single-issue, in-order VLIW pipeline (paper Section 5.1:
"each core is a single-issue processor").  All orchestration that spans
cores -- lock-step stepping, the stall bus, barriers, the operand network
-- lives in :class:`repro.sim.machine.VoltronMachine`; this module only
holds one core's architectural and pipeline state.

The scoreboard (register ready-times) makes mis-scheduling a *performance*
bug rather than a correctness bug: an operation whose sources are not yet
ready simply stalls, and the cycle is attributed to the ``latency``
category (near zero under a correct static schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.machinecode import CoreBlock, CoreFunction
from ..isa.operations import Imm, Operand, Operation, Reg
from ..isa.registers import RegisterFile, Value
from .stats import CoreStats

#: Core status values.
RUNNING = "running"
LISTENING = "listening"
HALTED = "halted"
BARRIER_WAIT = "barrier"


@dataclass
class CoreFrame:
    """One activation record on a core's call stack."""

    function: CoreFunction
    block: CoreBlock
    slot: int = 0
    return_dest: Optional[Reg] = None


@dataclass
class TxCheckpoint:
    """Compiler-managed register checkpoint for transaction rollback."""

    registers: Dict[Reg, Value]
    restart_label: str
    #: Call depth at TX_BEGIN: rollback (and therefore blackout
    #: recovery, which reuses it) is only valid at this depth, where the
    #: restart label resolves in the checkpointed frame's function.
    call_depth: int = 0


class Core:
    """One Voltron core's state."""

    def __init__(self, core_id: int) -> None:
        self.id = core_id
        self.regs = RegisterFile(core_id)
        self.stack: List[CoreFrame] = []
        #: The top activation record, maintained by push/pop (read on every
        #: fetch, scoreboard probe, and issue -- hot enough that a plain
        #: attribute beats a ``stack[-1]`` property).
        self.frame: Optional[CoreFrame] = None
        self.status = RUNNING
        self.stats = CoreStats()
        # Pipeline state.
        self.next_free = 0  # earliest cycle the core may issue
        self.pending_cause: Optional[str] = None  # stall cause until next_free
        self.reg_ready: Dict[Reg, int] = {}
        # The last stall of this core while free to issue, as
        # (cycle, category, release): decided once by the kernel that
        # took it (see stall) and read by the fast-forward window.
        self.stall_stamp: Optional[Tuple[int, str, Optional[int]]] = None
        # Last-fetched position, kept as two fields (block identity plus
        # slot) so the per-cycle fetch probe never allocates a key tuple.
        self._fetched_block: Optional[CoreBlock] = None
        self._fetched_slot = -1
        # Fine-grain thread state.
        self.listen_return: Optional[Tuple[CoreBlock, int]] = None
        # Transaction state.
        self.tx_checkpoint: Optional[TxCheckpoint] = None

    # -- call stack -------------------------------------------------------------

    def push_frame(self, function: CoreFunction, return_dest: Optional[Reg]) -> None:
        entry = function.block(function.entry)
        self.stack.append(
            CoreFrame(function, entry, slot=0, return_dest=return_dest)
        )
        self.frame = self.stack[-1]
        self._fetched_block = None

    def pop_frame(self) -> CoreFrame:
        frame = self.stack.pop()
        self.frame = self.stack[-1] if self.stack else None
        self._fetched_block = None
        return frame

    @property
    def call_depth(self) -> int:
        return len(self.stack)

    # -- position --------------------------------------------------------------

    def position(self) -> Tuple[str, str, int]:
        frame = self.frame
        return frame.function.name, frame.block.label, frame.slot

    def current_op(self) -> Optional[Operation]:
        """Op in the current slot (None = NOP padding)."""
        frame = self.frame
        return frame.block.slots[frame.slot]

    def at_block_end(self) -> bool:
        frame = self.frame
        return frame.slot >= len(frame.block.slots)

    def jump(self, label: str) -> None:
        frame = self.frame
        frame.block = frame.function.block(label)
        frame.slot = 0
        self._fetched_block = None

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
        still needs an I-fetch (marking it fetched), or None when already
        fetched."""
        frame = self.frame
        block = frame.block
        slot = frame.slot
        if self._fetched_block is block and self._fetched_slot == slot:
            return None
        self._fetched_block = block
        self._fetched_slot = slot
        return block.base_addr + slot

    # -- scoreboard ----------------------------------------------------------------

    def write_reg(self, reg: Reg, value: Value, ready: int) -> None:
        self.regs.write(reg, value)
        self.reg_ready[reg] = ready

    def read_operand(self, operand: Operand) -> Value:
        if isinstance(operand, Imm):
            return operand.value
        return self.regs.read(operand)

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
            self.next_free = cycle
            self.pending_cause = cause

    # -- transactions ----------------------------------------------------------------

    def checkpoint_registers(self, restart_label: str) -> None:
        self.tx_checkpoint = TxCheckpoint(
            registers=self.regs.snapshot(),
            restart_label=restart_label,
            call_depth=self.call_depth,
        )

    def rollback_registers(self) -> str:
        """Restore the checkpoint; returns the restart block label."""
        assert self.tx_checkpoint is not None, "rollback without a checkpoint"
        self.regs.restore(self.tx_checkpoint.registers)
        self.reg_ready.clear()
        return self.tx_checkpoint.restart_label

    def __repr__(self) -> str:
        if not self.stack:
            return f"<core {self.id} {self.status} (no frame)>"
        name, label, slot = self.position()
        return f"<core {self.id} {self.status} at {name}:{label}:{slot}>"
