"""Per-core machine code: the format the cycle simulator executes.

After partitioning and scheduling, every core owns a clone of each function
(the DVLIW organization of the paper: "separate instruction streams are
executed on each core, but these streams collectively function as a single
logical stream").  Block labels are identical across cores -- they denote
the same *logical* basic block at different physical addresses, exactly as
in the paper's distributed branch mechanism.

A :class:`CoreBlock` holds one issue slot per cycle (the cores are
single-issue); ``None`` slots are the NOPs the compiler pads coupled-mode
blocks with so schedule lengths match across cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .operations import Opcode, Operation
from .program import Program


@dataclass
class CoreBlock:
    """One core's schedule for one logical basic block."""

    label: str
    slots: List[Optional[Operation]] = field(default_factory=list)
    taken: Optional[str] = None
    fall: Optional[str] = None
    mode: str = "coupled"
    region: int = 0
    base_addr: int = 0
    #: (function name, label) attribution key, filled in by the simulator's
    #: pre-decode pass so per-cycle accounting never rebuilds the tuple.
    stat_key: Optional[Tuple[str, str]] = None
    #: Per-slot ``(op, handler, wire, srcs, dest)`` entries (None for NOP
    #: padding), filled in by the simulator's one-walk pre-decode, which
    #: rebuilds them for every machine.  The decoupled kernel reads them
    #: per core; the coupled kernel gathers them across cores into
    #: per-slot columns (``VoltronMachine._columns``), held by the
    #: machine, since they name its cores and stats.
    decoded: Optional[Tuple[Optional[tuple], ...]] = None

    def __len__(self) -> int:
        return len(self.slots)

    def ops(self) -> Iterator[Operation]:
        return (op for op in self.slots if op is not None)

    def op_addr(self, slot: int) -> int:
        return self.base_addr + slot


@dataclass
class CoreFunction:
    """One core's clone of a function."""

    name: str
    entry: str
    blocks: Dict[str, CoreBlock] = field(default_factory=dict)
    block_order: List[str] = field(default_factory=list)

    def add_block(self, block: CoreBlock) -> CoreBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate core block {block.label!r}")
        self.blocks[block.label] = block
        self.block_order.append(block.label)
        return block

    def block(self, label: str) -> CoreBlock:
        return self.blocks[label]

    def ordered_blocks(self) -> List[CoreBlock]:
        return [self.blocks[label] for label in self.block_order]


class CompiledProgram:
    """Machine code for every core plus the original program's memory image."""

    def __init__(self, program: Program, n_cores: int) -> None:
        self.program = program
        self.n_cores = n_cores
        # streams[core][function_name] -> CoreFunction
        self.streams: List[Dict[str, CoreFunction]] = [
            {} for _ in range(n_cores)
        ]
        self.attrs: Dict[str, Any] = {}

    def add_function(self, core: int, function: CoreFunction) -> CoreFunction:
        if function.name in self.streams[core]:
            raise ValueError(
                f"core {core} already has function {function.name!r}"
            )
        self.streams[core][function.name] = function
        return function

    def core_function(self, core: int, name: str) -> CoreFunction:
        return self.streams[core][name]

    def entry_function(self, core: int) -> CoreFunction:
        return self.streams[core][self.program.entry]

    def assign_addresses(self) -> None:
        """Lay each core's stream out in its private instruction space."""
        for core_stream in self.streams:
            address = 0
            for function in core_stream.values():
                for block in function.ordered_blocks():
                    block.base_addr = address
                    address += max(len(block.slots), 1)

    def static_op_count(self) -> int:
        return sum(
            sum(1 for _ in block.ops())
            for stream in self.streams
            for function in stream.values()
            for block in function.ordered_blocks()
        )

    def validate(self) -> None:
        """Structural checks: targets exist; every core has every function."""
        names = set(self.program.functions)
        for core, stream in enumerate(self.streams):
            if set(stream) != names:
                missing = names - set(stream)
                raise ValueError(f"core {core} missing functions {missing}")
            for function in stream.values():
                for block in function.ordered_blocks():
                    for succ in (block.taken, block.fall):
                        if succ is not None and succ not in function.blocks:
                            raise ValueError(
                                f"core {core} {function.name}:{block.label} "
                                f"targets unknown block {succ!r}"
                            )
                    for slot, op in enumerate(block.slots):
                        if op is None:
                            continue
                        if op.opcode is Opcode.PBR:
                            target = op.attrs.get("target")
                            if target is not None and target not in function.blocks:
                                raise ValueError(
                                    f"core {core} {function.name}:{block.label} "
                                    f"PBR to unknown block {target!r}"
                                )

    def describe(self) -> str:
        """Human-readable dump (used by examples and debugging)."""
        lines = []
        for core, stream in enumerate(self.streams):
            lines.append(f"=== core {core} ===")
            for function in stream.values():
                lines.append(f"function {function.name} (entry {function.entry})")
                for block in function.ordered_blocks():
                    lines.append(
                        f"  {block.label} [{block.mode} region={block.region}]"
                        f" -> taken={block.taken} fall={block.fall}"
                    )
                    for slot, op in enumerate(block.slots):
                        text = "nop" if op is None else repr(op)
                        lines.append(f"    {slot:3d}: {text}")
        return "\n".join(lines)
