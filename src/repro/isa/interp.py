"""Functional (untimed) reference interpreter.

The interpreter executes an *unpartitioned* program with sequential
semantics.  It serves three roles in the reproduction:

1. **Correctness oracle** -- every compiler transformation is validated by
   comparing the cycle simulator's final architectural state against the
   interpreter's.
2. **Profiling substrate** -- the paper's compiler relies on memory
   profiling (statistical DOALL detection) and cache-miss profiling (eBUG
   edge weights, region selection).  An observer passed to the
   interpreter sees every entered block and every memory access.
3. **Dynamic weight source** -- per-operation execution counts weight the
   region selection policy the same way Trimaran's profiles weight the
   paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .operations import (
    ALU_SEMANTICS,
    COMPARISONS,
    Imm,
    Opcode,
    Operand,
    Operation,
    Reg,
)
from .program import BasicBlock, Function, Program
from .registers import RegisterFile, Value

class InterpreterError(Exception):
    pass


class OutOfFuel(InterpreterError):
    """The dynamic operation budget was exhausted (probable infinite loop)."""


@dataclass
class Frame:
    """One activation record."""

    function: Function
    block: BasicBlock
    op_index: int = 0
    return_dest: Optional[Reg] = None
    depth: int = 0  # call depth: 0 for main


@dataclass
class InterpResult:
    """Final architectural state plus dynamic statistics."""

    memory: Dict[int, Value]
    registers: RegisterFile
    dynamic_ops: int
    op_counts: Dict[int, int]
    block_counts: Dict[Tuple[str, str], int]
    return_value: Value = None

    def array_values(self, program: Program, name: str) -> List[Value]:
        symbol = program.array(name)
        return [self.memory.get(symbol.base + i, 0) for i in range(symbol.size)]


class Interpreter:
    """Sequential big-step interpreter over the virtual ISA.

    ``observer`` is one optional read-only consumer, shaped like a
    simulator probe consumer (:mod:`repro.sim.probe`): each event it
    implements -- a method of the event's name -- is bound once, and the
    ones it lacks stay None.  The events are ``block(block, frame)``, on
    entering each executed block, and ``memory(op, addr, is_store,
    frame)``, before each load or store.
    """

    def __init__(
        self, program: Program, fuel: int = 20_000_000, observer=None
    ) -> None:
        program.validate()
        self.program = program
        self.fuel = fuel
        self.on_block = getattr(observer, "block", None)
        self.on_memory = getattr(observer, "memory", None)

    # -- execution -----------------------------------------------------------

    def run(self, args: Tuple[Value, ...] = ()) -> InterpResult:
        memory: Dict[int, Value] = self.program.memory_image()
        registers = RegisterFile()
        main = self.program.main()
        if len(args) != len(main.params):
            raise InterpreterError(
                f"main expects {len(main.params)} args, got {len(args)}"
            )
        for reg, value in zip(main.params, args):
            registers.write(reg, value)

        stack: List[Frame] = [Frame(main, main.block(main.entry))]
        op_counts: Dict[int, int] = {}
        block_counts: Dict[Tuple[str, str], int] = {}
        dynamic_ops = 0
        return_value: Value = None
        self._notify_block(stack[-1])
        self._count_block(stack[-1], block_counts)

        while stack:
            frame = stack[-1]
            if frame.op_index >= len(frame.block.ops):
                # Implicit fall-through at the end of an unterminated block.
                next_label = frame.block.fall
                if next_label is None:
                    if len(stack) == 1:
                        break
                    raise InterpreterError(
                        f"control fell off {frame.function.name}:"
                        f"{frame.block.label}"
                    )
                self._enter_block(frame, next_label, block_counts)
                continue

            op = frame.block.ops[frame.op_index]
            dynamic_ops += 1
            if dynamic_ops > self.fuel:
                raise OutOfFuel(f"exceeded {self.fuel} dynamic operations")
            op_counts[op.uid] = op_counts.get(op.uid, 0) + 1

            outcome = self._execute(op, frame, registers, memory, stack)
            if outcome == "halt":
                break
            if outcome == "redirect":
                self._count_block(stack[-1], block_counts)
                continue
            if outcome == "return":
                if not stack:
                    return_value = self._last_return
                    break
                # The caller's block was counted when first entered.
                continue
            frame.op_index += 1

        return InterpResult(
            memory=memory,
            registers=registers,
            dynamic_ops=dynamic_ops,
            op_counts=op_counts,
            block_counts=block_counts,
            return_value=return_value,
        )

    # -- helpers --------------------------------------------------------------

    def _enter_block(
        self,
        frame: Frame,
        label: str,
        block_counts: Dict[Tuple[str, str], int],
    ) -> None:
        frame.block = frame.function.block(label)
        frame.op_index = 0
        self._notify_block(frame)
        self._count_block(frame, block_counts)

    def _notify_block(self, frame: Frame) -> None:
        if self.on_block is not None:
            self.on_block(frame.block, frame)

    @staticmethod
    def _count_block(
        frame: Frame, block_counts: Dict[Tuple[str, str], int]
    ) -> None:
        key = (frame.function.name, frame.block.label)
        block_counts[key] = block_counts.get(key, 0) + 1

    def _read(self, registers: RegisterFile, operand: Operand) -> Value:
        if isinstance(operand, Imm):
            return operand.value
        return registers.read(operand)

    _last_return: Value = None

    def _execute(
        self,
        op: Operation,
        frame: Frame,
        registers: RegisterFile,
        memory: Dict[int, Value],
        stack: List[Frame],
    ) -> str:
        """Execute one op; returns 'next', 'redirect', 'return', or 'halt'."""
        opcode = op.opcode
        read = lambda operand: self._read(registers, operand)

        if opcode in ALU_SEMANTICS:
            registers.write(op.dest, ALU_SEMANTICS[opcode](*map(read, op.srcs)))
            return "next"
        if opcode in COMPARISONS:
            registers.write(op.dest, bool(COMPARISONS[opcode](*map(read, op.srcs))))
            return "next"
        if opcode in (Opcode.MOV, Opcode.FMOV, Opcode.PMOV):
            registers.write(op.dest, read(op.srcs[0]))
            return "next"
        if opcode is Opcode.ITOF:
            registers.write(op.dest, float(read(op.srcs[0])))
            return "next"
        if opcode is Opcode.FTOI:
            registers.write(op.dest, int(read(op.srcs[0])))
            return "next"
        if opcode is Opcode.PAND:
            registers.write(op.dest, bool(read(op.srcs[0]) and read(op.srcs[1])))
            return "next"
        if opcode is Opcode.POR:
            registers.write(op.dest, bool(read(op.srcs[0]) or read(op.srcs[1])))
            return "next"
        if opcode is Opcode.PNOT:
            registers.write(op.dest, not read(op.srcs[0]))
            return "next"
        if opcode is Opcode.SELECT:
            pred, a, b = map(read, op.srcs)
            registers.write(op.dest, a if pred else b)
            return "next"
        if opcode is Opcode.LOAD:
            addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
            if self.on_memory is not None:
                self.on_memory(op, addr, False, frame)
            registers.write(op.dest, memory.get(addr, 0))
            return "next"
        if opcode is Opcode.STORE:
            addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
            if self.on_memory is not None:
                self.on_memory(op, addr, True, frame)
            memory[addr] = read(op.srcs[2])
            return "next"
        if opcode is Opcode.PBR:
            registers.write(op.dest, op.attrs["target"])
            return "next"
        if opcode is Opcode.BR:
            target = read(op.srcs[0])
            taken = True if len(op.srcs) == 1 else bool(read(op.srcs[1]))
            if taken:
                frame.block = frame.function.block(target)
                frame.op_index = 0
                self._notify_block(frame)
                return "redirect"
            # Fall through past the terminator.
            next_label = frame.block.fall
            if next_label is None:
                raise InterpreterError(
                    f"{frame.function.name}:{frame.block.label} fell "
                    "through a branch with no fall edge"
                )
            frame.block = frame.function.block(next_label)
            frame.op_index = 0
            self._notify_block(frame)
            return "redirect"
        if opcode is Opcode.CALL:
            callee = self.program.function(op.attrs["function"])
            if len(op.srcs) != len(callee.params):
                raise InterpreterError(
                    f"call to {callee.name} with {len(op.srcs)} args, "
                    f"expects {len(callee.params)}"
                )
            arg_values = [read(src) for src in op.srcs]
            frame.op_index += 1  # resume after the call
            new_frame = Frame(
                callee,
                callee.block(callee.entry),
                return_dest=op.dest,
                depth=len(stack),
            )
            stack.append(new_frame)
            for reg, value in zip(callee.params, arg_values):
                registers.write(reg, value)
            self._notify_block(new_frame)
            return "redirect"
        if opcode is Opcode.RET:
            value = read(op.srcs[0]) if op.srcs else None
            done = stack.pop()
            self._last_return = value
            if stack and done.return_dest is not None:
                registers.write(done.return_dest, value)
            return "return"
        if opcode is Opcode.HALT:
            return "halt"
        if opcode is Opcode.NOP:
            return "next"
        raise InterpreterError(
            f"opcode {opcode.value!r} is not valid in unpartitioned programs"
        )


def run_program(program: Program, args: Tuple[Value, ...] = ()) -> InterpResult:
    """Run ``program`` sequentially and return its final state."""
    return Interpreter(program).run(args)
