"""Virtual register allocation, dense numbering, and register file state.

The compiler works on an unbounded supply of virtual registers in the four
HPL-PD files.  At run time each core owns an independent register file; a
virtual register name therefore denotes *per-core* storage, which is exactly
the property Voltron's partitioners rely on: after partitioning, the same
virtual register may hold (deliberately) different values on different cores
until a PUT/GET or SEND/RECV transfers it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from .operations import Operand, Reg, RegFile

Value = Union[int, float, bool, str, None]


class RegisterAllocator:
    """Hands out fresh virtual registers for a function."""

    def __init__(self) -> None:
        self._next: Dict[RegFile, int] = {file: 0 for file in RegFile}

    def fresh(self, file: RegFile) -> Reg:
        index = self._next[file]
        self._next[file] = index + 1
        return Reg(file, index)

    def gpr(self) -> Reg:
        return self.fresh(RegFile.GPR)

    def fpr(self) -> Reg:
        return self.fresh(RegFile.FPR)

    def pr(self) -> Reg:
        return self.fresh(RegFile.PR)

    def btr(self) -> Reg:
        return self.fresh(RegFile.BTR)

    def reserve(self, reg: Reg) -> None:
        """Ensure later ``fresh`` calls never collide with ``reg``."""
        if reg.index >= self._next[reg.file]:
            self._next[reg.file] = reg.index + 1


class RegisterLayout:
    """Dense flat numbering of one compiled program's operands, which the
    simulator keeps its register state by.  Registers are numbered
    ``0, 1, ...`` in the order :meth:`index` first meets them, so one
    walk over the code both numbers and decodes it; each distinct
    immediate gets a read-only constant slot numbered down from ``-1``
    (the end of a core's value list), so every source is a list index.
    Registers are keyed by file letter and index: a ``RegFile`` key
    would hash its Enum in Python on every operand."""

    def __init__(self) -> None:
        self.names: List[Reg] = []
        self._slot: Dict[Tuple[str, int], int] = {}
        #: Constant ``k`` lives at flat index ``-1 - k``.
        self.constants: List[Value] = []
        # Keyed by type and repr: 1, 1.0 and True (or 0.0 and -0.0)
        # compare equal but are different immediates.
        self._constant_slot: Dict[Tuple[type, str], int] = {}

    @property
    def n_regs(self) -> int:
        return len(self.names)

    def find(self, reg: Reg) -> Optional[int]:
        """``reg``'s flat index, or None when the program never names it."""
        return self._slot.get((reg.file._value_, reg.index))

    def index(self, operand: Operand) -> int:
        if isinstance(operand, Reg):
            key = (operand.file._value_, operand.index)
            slot = self._slot.get(key)
            if slot is None:
                slot = self._slot[key] = len(self.names)
                self.names.append(operand)
            return slot
        value = operand.value
        key = (type(value), repr(value))
        slot = self._constant_slot.get(key)
        if slot is None:
            slot = self._constant_slot[key] = -1 - len(self.constants)
            self.constants.append(value)
        return slot


class RegisterFile:
    """The reference interpreter's architected register state, keyed by
    register (the simulator's cores keep theirs as flat lists, see
    :mod:`repro.sim.core`).

    Reads of never-written registers raise, as in the simulator: this
    catches compiler bugs where a value was consumed on a core it was
    never communicated to.
    """

    def __init__(self, core_id: int = 0) -> None:
        self.core_id = core_id
        self._values: Dict[Reg, Value] = {}

    def read(self, reg: Reg) -> Value:
        try:
            return self._values[reg]
        except KeyError:
            raise UninitializedRegister(
                f"core {self.core_id} read uninitialized register {reg!r}"
            ) from None

    def write(self, reg: Reg, value: Value) -> None:
        self._values[reg] = value

    def defined(self, reg: Reg) -> bool:
        return reg in self._values

    def items(self) -> Iterator:
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)


class UninitializedRegister(Exception):
    """A register was read before any write reached this core."""
