"""Operation and operand model for the HPL-PD-flavoured virtual ISA.

The paper builds on the HPL-PD instruction set (Kathail, Schlansker, Rau)
with Voltron's extensions: the unbundled branch (``PBR``/``CMP``/``BR``),
the direct-mode network ops (``PUT``/``GET``/``BCAST``), the queue-mode ops
(``SEND``/``RECV``), fine-grain thread control (``SPAWN``/``SLEEP``/
``LISTEN``/``RELEASE``), ``MODE_SWITCH``, and the transactional-memory
bracket ops used by speculative DOALL loops.

Operands are either :class:`Reg` (a virtual register in one of the four
HPL-PD register files) or :class:`Imm` (a literal).  Non-value operands
(branch targets, mesh directions, core ids, modes) live in ``Operation.attrs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union


@unique
class RegFile(Enum):
    """The four HPL-PD register files."""

    GPR = "r"  # general-purpose integer
    FPR = "f"  # floating point
    PR = "p"  # 1-bit predicates
    BTR = "b"  # branch-target registers


@dataclass(frozen=True, eq=False)
class Reg:
    """A virtual register.  Register allocation is per-core at runtime."""

    file: RegFile
    index: int

    def __post_init__(self) -> None:
        # Registers are hashed on every scoreboard probe and register-file
        # access, so the hash is computed once up front.
        object.__setattr__(self, "_hash", hash((self.file, self.index)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Reg):
            return NotImplemented
        return self.file is other.file and self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.file.value}{self.index}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: Union[int, float]

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]


@unique
class Opcode(Enum):
    # Integer ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    ITOF = "itof"
    FTOI = "ftoi"
    # Comparisons (write a predicate register)
    CMP_EQ = "cmp_eq"
    CMP_NE = "cmp_ne"
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    # Predicate logic
    PAND = "pand"
    POR = "por"
    PNOT = "pnot"
    PMOV = "pmov"
    SELECT = "select"  # dest = srcs[0] ? srcs[1] : srcs[2]
    # Memory
    LOAD = "load"  # dest = MEM[srcs[0] + srcs[1]]
    STORE = "store"  # MEM[srcs[0] + srcs[1]] = srcs[2]
    # Control (unbundled HPL-PD branch)
    PBR = "pbr"  # dest BTR = attrs['target'] (a block label)
    BR = "br"  # branch to BTR srcs[0] if predicate srcs[1] (or always)
    CALL = "call"  # call attrs['function'](srcs...) -> dests[0]
    RET = "ret"  # return srcs[0] (optional)
    HALT = "halt"
    NOP = "nop"
    # Scalar operand network: direct mode (coupled execution)
    PUT = "put"  # put srcs[0] on wire attrs['direction']
    GET = "get"  # dest = value on wire attrs['direction']
    BCAST = "bcast"  # broadcast srcs[0] to all cores in the coupled group
    # Scalar operand network: queue mode (decoupled execution)
    SEND = "send"  # send srcs[0] to core attrs['target_core']
    RECV = "recv"  # dest = message from core attrs['source_core']
    # Fine-grain thread control
    SPAWN = "spawn"  # start attrs['target_block'] on core attrs['target_core']
    SLEEP = "sleep"  # end this fine-grain thread; core returns to listening
    LISTEN = "listen"  # wait for a SPAWN or RELEASE from the master core
    RELEASE = "release"  # release core attrs['target_core'] from its LISTEN
    MODE_SWITCH = "mode_switch"  # switch to attrs['mode'] ('coupled'|'decoupled')
    # Transactional memory (speculative DOALL)
    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"


#: Opcodes that read or write memory.
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE})

#: Opcodes implementing inter-core communication.
COMM_OPCODES = frozenset(
    {
        Opcode.PUT,
        Opcode.GET,
        Opcode.BCAST,
        Opcode.SEND,
        Opcode.RECV,
        Opcode.SPAWN,
        Opcode.RELEASE,
    }
)

#: Queue-mode ops: they wait on the operand network, so they may not
#: appear in a coupled (lock-step) block.  The one definition of that
#: rule, shared by voltlint's ``queue-op-in-coupled`` check and the
#: simulator's construction-time proof.  A tuple: membership in a short
#: tuple is an identity scan, a set lookup hashes the Enum in Python.
QUEUE_OPS = (Opcode.SEND, Opcode.RECV)

#: Opcodes that terminate or redirect control flow.
CONTROL_OPCODES = frozenset({Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT})

#: Comparison opcodes and their Python semantics.
COMPARISONS = {
    Opcode.CMP_EQ: lambda a, b: a == b,
    Opcode.CMP_NE: lambda a, b: a != b,
    Opcode.CMP_LT: lambda a, b: a < b,
    Opcode.CMP_LE: lambda a, b: a <= b,
    Opcode.CMP_GT: lambda a, b: a > b,
    Opcode.CMP_GE: lambda a, b: a >= b,
}

#: Integer/float ALU opcodes and their Python semantics.
ALU_SEMANTICS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: _int_div(a, b),
    Opcode.REM: lambda a, b: _int_rem(a, b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << b,
    Opcode.SHR: lambda a, b: a >> b,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b,
}


def _int_div(a: Union[int, float], b: Union[int, float]) -> Union[int, float]:
    """C-style truncating division for integers."""
    quotient = a / b
    return int(quotient) if isinstance(a, int) and isinstance(b, int) else quotient


def _int_rem(a: int, b: int) -> int:
    """C-style remainder (sign follows the dividend)."""
    return a - _int_div(a, b) * b


_op_ids = itertools.count()


def fresh_uid() -> int:
    """A new unique operation id (used when cloning ops into machine code,
    where every clone needs its own identity)."""
    return next(_op_ids)


@dataclass(eq=False)
class Operation:
    """A single operation in the virtual ISA.  Identity semantics: two ops
    are never "equal" just because their fields coincide.

    Attributes:
        opcode: the :class:`Opcode`.
        dests: destination registers (at most one for all current opcodes).
        srcs: source operands, registers or immediates.
        attrs: non-value operands -- branch targets, directions, core ids.
        uid: unique id, stable across clones of the same logical operation.
        core: core assignment filled in by the partitioners.
        slot: issue cycle within its block, filled in by the scheduler.
    """

    opcode: Opcode
    dests: List[Reg] = field(default_factory=list)
    srcs: List[Operand] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_op_ids))
    core: Optional[int] = None
    slot: Optional[int] = None

    def clone(self, **overrides: Any) -> "Operation":
        """Copy this operation, keeping its ``uid`` so clones stay linked."""
        op = Operation(
            opcode=self.opcode,
            dests=list(self.dests),
            srcs=list(self.srcs),
            attrs=dict(self.attrs),
            uid=self.uid,
            core=self.core,
            slot=self.slot,
        )
        for key, value in overrides.items():
            setattr(op, key, value)
        return op

    @property
    def dest(self) -> Optional[Reg]:
        return self.dests[0] if self.dests else None

    def src_regs(self) -> Tuple[Reg, ...]:
        return tuple(s for s in self.srcs if isinstance(s, Reg))

    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    def is_comm(self) -> bool:
        return self.opcode in COMM_OPCODES

    def __repr__(self) -> str:
        parts = [self.opcode.value]
        if self.dests:
            parts.append(",".join(map(repr, self.dests)) + " =")
        if self.srcs:
            parts.append(", ".join(map(repr, self.srcs)))
        if self.attrs:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
            parts.append(f"[{rendered}]")
        return " ".join(parts)


def make_op(
    opcode: Opcode,
    dests: Optional[Sequence[Reg]] = None,
    srcs: Optional[Sequence[Operand]] = None,
    **attrs: Any,
) -> Operation:
    """Convenience constructor used throughout the compiler."""
    return Operation(
        opcode=opcode,
        dests=list(dests or []),
        srcs=list(srcs or []),
        attrs=dict(attrs),
    )
