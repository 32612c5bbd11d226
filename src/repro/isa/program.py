"""Program representation: basic blocks, functions (CFGs), whole programs.

A :class:`Function` is an ordered list of :class:`BasicBlock` forming a
control-flow graph.  Each block ends in at most one control operation; the
block records its ``taken`` successor (followed when the terminating branch
fires) and its ``fall`` successor (the fall-through).  Each array keeps
its initial contents on its :class:`ArraySymbol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .operations import CONTROL_OPCODES, Opcode, Operation, Reg
from .registers import RegisterAllocator

#: Opcodes that truly end a block.  CALL is control flow but resumes at the
#: next op, so it may appear mid-block.
TERMINATOR_OPCODES = frozenset({Opcode.BR, Opcode.RET, Opcode.HALT})


class BasicBlock:
    """A straight-line sequence of operations with one entry and one exit."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.ops: List[Operation] = []
        self.taken: Optional[str] = None
        self.fall: Optional[str] = None
        self.attrs: Dict[str, Any] = {}

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def terminator(self) -> Optional[Operation]:
        """The BR/RET/HALT ending this block, if any (CALL resumes
        mid-block and is not a terminator)."""
        for op in reversed(self.ops):
            if op.opcode in TERMINATOR_OPCODES:
                return op
        return None

    def successors(self) -> Tuple[str, ...]:
        succ = []
        if self.taken is not None:
            succ.append(self.taken)
        if self.fall is not None and self.fall != self.taken:
            succ.append(self.fall)
        return tuple(succ)

    def non_control_ops(self) -> List[Operation]:
        return [op for op in self.ops if op.opcode not in CONTROL_OPCODES]

    def __repr__(self) -> str:
        return f"<block {self.label}: {len(self.ops)} ops -> {self.successors()}>"


class Function:
    """A function: an entry block plus a CFG of basic blocks."""

    def __init__(self, name: str, params: Optional[List[Reg]] = None) -> None:
        self.name = name
        self.params: List[Reg] = list(params or [])
        self.blocks: Dict[str, BasicBlock] = {}
        self.block_order: List[str] = []
        self.entry: Optional[str] = None
        self.regs = RegisterAllocator()
        for reg in self.params:
            self.regs.reserve(reg)

    # -- construction ------------------------------------------------------

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        self.block_order.append(label)
        if self.entry is None:
            self.entry = label
        return block

    # -- queries -----------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def ordered_blocks(self) -> List[BasicBlock]:
        return [self.blocks[label] for label in self.block_order]

    def predecessors(self) -> Dict[str, Set[str]]:
        preds: Dict[str, Set[str]] = {label: set() for label in self.block_order}
        for block in self.ordered_blocks():
            for succ in block.successors():
                preds[succ].add(block.label)
        return preds

    def all_ops(self) -> Iterator[Operation]:
        for block in self.ordered_blocks():
            yield from block.ops

    def validate(self) -> None:
        """Raise if the CFG is structurally inconsistent."""
        if self.entry is None:
            raise ValueError(f"function {self.name} has no entry block")
        for block in self.ordered_blocks():
            for succ in block.successors():
                if succ not in self.blocks:
                    raise ValueError(
                        f"{self.name}:{block.label} targets unknown block {succ!r}"
                    )
            terminator = block.terminator()
            if terminator is not None and block.ops[-1] is not terminator:
                raise ValueError(
                    f"{self.name}:{block.label} has ops after its terminator"
                )
            if terminator is None and block.taken is not None:
                raise ValueError(
                    f"{self.name}:{block.label} has a taken edge but no branch"
                )
            for op in block.ops:
                if op.opcode is Opcode.PBR:
                    target = op.attrs.get("target")
                    if target is not None and target not in self.blocks:
                        raise ValueError(
                            f"{self.name}:{block.label} PBR to unknown "
                            f"block {target!r}"
                        )

    def __repr__(self) -> str:
        return f"<function {self.name}: {len(self.blocks)} blocks>"


@dataclass
class ArraySymbol:
    """A named region of the word-addressed memory."""

    name: str
    base: int
    size: int
    #: Initial contents of the first ``len(init)`` words (the rest are 0).
    init: Tuple[Any, ...] = field(default=(), repr=False)

    def addr(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of bounds (size {self.size})")
        return self.base + index


class Program:
    """A whole program: functions, an entry point, and a memory image."""

    def __init__(self, name: str = "program", entry: str = "main") -> None:
        self.name = name
        self.entry = entry
        self.functions: Dict[str, Function] = {}
        self.arrays: Dict[str, ArraySymbol] = {}
        self._heap_top = 0
        # One allocator for the whole program: virtual registers are
        # globally unique, so a callee never clobbers its caller's state
        # (there is no spill/calling-convention machinery in this ISA).
        self.regs = RegisterAllocator()

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        # Re-home the function onto the program-wide allocator so register
        # names stay globally unique across functions.
        function.regs = self.regs
        for reg in function.params:
            self.regs.reserve(reg)
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        return self.functions[name]

    def main(self) -> Function:
        return self.functions[self.entry]

    def alloc_array(
        self,
        name: str,
        size: int,
        init: Optional[Iterable[Any]] = None,
        align: int = 8,
    ) -> ArraySymbol:
        """Allocate a named array in the memory image.

        Arrays are aligned to cache-line (8-word) boundaries by default so
        that workloads control false sharing explicitly.
        """
        if name in self.arrays:
            raise ValueError(f"duplicate array {name!r}")
        values = tuple(init) if init is not None else ()
        if len(values) > size:
            raise ValueError(f"initializer for {name} longer than array")
        base = -(-self._heap_top // align) * align
        self._heap_top = base + size
        symbol = self.arrays[name] = ArraySymbol(name, base, size, values)
        return symbol

    def array(self, name: str) -> ArraySymbol:
        return self.arrays[name]

    def memory_image(self) -> Dict[int, Any]:
        """A fresh address -> value dict of every initialized word, in
        allocation order; built per call, so each caller owns its copy."""
        image: Dict[int, Any] = {}
        for symbol in self.arrays.values():
            image.update(zip(count(symbol.base), symbol.init))
        return image

    def validate(self) -> None:
        if self.entry not in self.functions:
            raise ValueError(f"program entry {self.entry!r} not defined")
        for function in self.functions.values():
            function.validate()
            for op in function.all_ops():
                if op.opcode is Opcode.CALL:
                    callee = op.attrs.get("function")
                    if callee not in self.functions:
                        raise ValueError(
                            f"{function.name} calls unknown function {callee!r}"
                        )

    def __repr__(self) -> str:
        return f"<program {self.name}: {len(self.functions)} functions>"
