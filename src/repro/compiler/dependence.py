"""Memory dependence analysis.

The paper's compiler leans on sophisticated pointer analysis (Nystrom et
al.) to prune false memory dependences.  Our IR makes the common cases
analyzable with a light-weight symbolic evaluator: most addresses are
``array_base (immediate) + index (register)``, so two references provably
do not alias when they touch different arrays, or the same array at
provably different constant offsets.  Anything unresolved is conservatively
assumed to alias -- exactly the situation in which Voltron's compiler must
either keep the references on one core (eBUG) or synchronize them with a
dummy SEND/RECV pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.operations import Imm, Opcode, Operand, Operation, Reg
from ..isa.program import Program


@dataclass(frozen=True)
class SymbolicAddress:
    """Partially-resolved address: ``array`` and/or constant ``addr``."""

    array: Optional[str]  # containing array, when the base is resolvable
    addr: Optional[int]  # exact word address, when fully constant

    @property
    def resolved(self) -> bool:
        return self.array is not None or self.addr is not None


class ConstantTracker:
    """Intra-block forward constant propagation over integer registers."""

    _FOLDABLE = {
        Opcode.ADD: lambda a, b: a + b,
        Opcode.SUB: lambda a, b: a - b,
        Opcode.MUL: lambda a, b: a * b,
        Opcode.SHL: lambda a, b: a << b,
        Opcode.SHR: lambda a, b: a >> b,
    }

    def __init__(self) -> None:
        self._known: Dict[Reg, int] = {}

    def value_of(self, operand: Operand) -> Optional[int]:
        if isinstance(operand, Imm):
            return operand.value if isinstance(operand.value, int) else None
        return self._known.get(operand)

    def observe(self, op: Operation) -> None:
        """Update known constants after ``op`` executes."""
        dest = op.dest
        if dest is None:
            return
        if op.opcode is Opcode.MOV:
            value = self.value_of(op.srcs[0])
        elif op.opcode in self._FOLDABLE:
            a = self.value_of(op.srcs[0])
            b = self.value_of(op.srcs[1])
            value = (
                self._FOLDABLE[op.opcode](a, b)
                if a is not None and b is not None
                else None
            )
        else:
            value = None
        if value is None:
            self._known.pop(dest, None)
        else:
            self._known[dest] = value


def _array_containing(program: Program, addr: int) -> Optional[str]:
    for symbol in program.arrays.values():
        if symbol.base <= addr < symbol.base + symbol.size:
            return symbol.name
    return None


def resolve_address(
    program: Program, op: Operation, tracker: ConstantTracker
) -> SymbolicAddress:
    """Resolve a LOAD/STORE's address as far as constants allow."""
    base = tracker.value_of(op.srcs[0])
    offset = tracker.value_of(op.srcs[1])
    if base is not None and offset is not None:
        addr = base + offset
        return SymbolicAddress(array=_array_containing(program, addr), addr=addr)
    if base is not None:
        return SymbolicAddress(array=_array_containing(program, base), addr=None)
    return SymbolicAddress(array=None, addr=None)


def analyze_block_addresses(
    program: Program, ops: Sequence[Operation]
) -> Dict[int, SymbolicAddress]:
    """Symbolic address for every memory op in a straight-line op list,
    keyed by ``op.uid``."""
    tracker = ConstantTracker()
    result: Dict[int, SymbolicAddress] = {}
    for op in ops:
        if op.is_memory():
            result[op.uid] = resolve_address(program, op, tracker)
        tracker.observe(op)
    return result


def may_alias(a: SymbolicAddress, b: SymbolicAddress) -> bool:
    """Conservative aliasing: only provable disjointness returns False."""
    if a.addr is not None and b.addr is not None:
        return a.addr == b.addr
    if a.array is not None and b.array is not None:
        return a.array == b.array
    return True


def memory_dependences(
    program: Program, ops: Sequence[Operation]
) -> List[Tuple[Operation, Operation]]:
    """Ordered pairs (earlier, later) of memory ops that must stay ordered."""
    addresses = analyze_block_addresses(program, ops)
    memory_ops = [op for op in ops if op.is_memory()]
    edges: List[Tuple[Operation, Operation]] = []
    for i, earlier in enumerate(memory_ops):
        for later in memory_ops[i + 1 :]:
            if earlier.opcode is Opcode.LOAD and later.opcode is Opcode.LOAD:
                continue
            if may_alias(addresses[earlier.uid], addresses[later.uid]):
                edges.append((earlier, later))
    return edges
