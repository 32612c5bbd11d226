"""Fluent builder for authoring IR programs.

Workloads and tests author programs through :class:`ProgramBuilder` /
:class:`FunctionBuilder` rather than constructing operations by hand.  The
builder takes care of block termination (fall-through edges), virtual
register allocation, and the PBR/BR expansion of the HPL-PD unbundled
branch.

The :meth:`FunctionBuilder.counted_loop` helper emits the canonical counted
loop shape (``i = add i, step`` in the latch) that the compiler's induction
variable detector recognizes; the loop bound annotations it leaves in
``block.attrs`` are used only by tests to validate the detector, never by
the compiler itself.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List, Optional, Sequence, Union

from .operations import Imm, Opcode, Operand, Operation, Reg, make_op
from .program import BasicBlock, Function, Program

Src = Union[Reg, Imm, int, float]


def as_operand(value: Src) -> Operand:
    """Wrap Python literals as immediates."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, (int, float)):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as an operand")


class FunctionBuilder:
    """Builds one function block by block."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.current: Optional[BasicBlock] = None
        self._label_counter = 0

    # -- blocks ------------------------------------------------------------

    def fresh_label(self, stem: str = "bb") -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def block(self, label: Optional[str] = None) -> BasicBlock:
        """Start a new block; the previous block falls through to it."""
        label = label or self.fresh_label()
        block = self.function.add_block(label)
        if self.current is not None and self.current.terminator() is None:
            if self.current.fall is None:
                self.current.fall = label
        elif self.current is not None and self.current.fall is None:
            # Terminated blocks may still fall through (conditional branch).
            terminator = self.current.terminator()
            if terminator is not None and terminator.opcode is Opcode.BR:
                if len(terminator.srcs) > 1:  # conditional: has a predicate
                    self.current.fall = label
        self.current = block
        return block

    def emit(self, op: Operation) -> Operation:
        if self.current is None:
            self.block("entry")
        assert self.current is not None
        return self.current.append(op)

    # -- register helpers ---------------------------------------------------

    def gpr(self) -> Reg:
        return self.function.regs.gpr()

    def fpr(self) -> Reg:
        return self.function.regs.fpr()

    def pr(self) -> Reg:
        return self.function.regs.pr()

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, opcode: Opcode, a: Src, b: Src, dest: Optional[Reg]) -> Reg:
        if dest is None:
            is_float = opcode in (
                Opcode.FADD,
                Opcode.FSUB,
                Opcode.FMUL,
                Opcode.FDIV,
            )
            dest = self.fpr() if is_float else self.gpr()
        self.emit(make_op(opcode, [dest], [as_operand(a), as_operand(b)]))
        return dest

    def add(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.ADD, a, b, dest)

    def sub(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.SUB, a, b, dest)

    def mul(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.MUL, a, b, dest)

    def div(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.DIV, a, b, dest)

    def rem(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.REM, a, b, dest)

    def and_(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.AND, a, b, dest)

    def or_(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.OR, a, b, dest)

    def xor(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.XOR, a, b, dest)

    def shl(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.SHL, a, b, dest)

    def shr(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.SHR, a, b, dest)

    def fadd(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.FADD, a, b, dest)

    def fsub(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.FSUB, a, b, dest)

    def fmul(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.FMUL, a, b, dest)

    def fdiv(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._binary(Opcode.FDIV, a, b, dest)

    def mov(self, value: Src, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.gpr()
        self.emit(make_op(Opcode.MOV, [dest], [as_operand(value)]))
        return dest

    def fmov(self, value: Src, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.fpr()
        self.emit(make_op(Opcode.FMOV, [dest], [as_operand(value)]))
        return dest

    def itof(self, value: Src, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.fpr()
        self.emit(make_op(Opcode.ITOF, [dest], [as_operand(value)]))
        return dest

    def ftoi(self, value: Src, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.gpr()
        self.emit(make_op(Opcode.FTOI, [dest], [as_operand(value)]))
        return dest

    def select(self, pred: Reg, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.gpr()
        self.emit(
            make_op(Opcode.SELECT, [dest], [pred, as_operand(a), as_operand(b)])
        )
        return dest

    # -- comparisons --------------------------------------------------------

    def _compare(self, opcode: Opcode, a: Src, b: Src, dest: Optional[Reg]) -> Reg:
        dest = dest or self.pr()
        self.emit(make_op(opcode, [dest], [as_operand(a), as_operand(b)]))
        return dest

    def cmp_eq(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_EQ, a, b, dest)

    def cmp_ne(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_NE, a, b, dest)

    def cmp_lt(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_LT, a, b, dest)

    def cmp_le(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_LE, a, b, dest)

    def cmp_gt(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_GT, a, b, dest)

    def cmp_ge(self, a: Src, b: Src, dest: Optional[Reg] = None) -> Reg:
        return self._compare(Opcode.CMP_GE, a, b, dest)

    def pand(self, a: Reg, b: Reg, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.pr()
        self.emit(make_op(Opcode.PAND, [dest], [a, b]))
        return dest

    def por(self, a: Reg, b: Reg, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.pr()
        self.emit(make_op(Opcode.POR, [dest], [a, b]))
        return dest

    def pnot(self, a: Reg, dest: Optional[Reg] = None) -> Reg:
        dest = dest or self.pr()
        self.emit(make_op(Opcode.PNOT, [dest], [a]))
        return dest

    # -- memory -------------------------------------------------------------

    def load(
        self, base: Src, offset: Src = 0, dest: Optional[Reg] = None, **attrs: Any
    ) -> Reg:
        dest = dest or self.gpr()
        op = make_op(
            Opcode.LOAD, [dest], [as_operand(base), as_operand(offset)], **attrs
        )
        self.emit(op)
        return dest

    def store(self, base: Src, offset: Src, value: Src, **attrs: Any) -> Operation:
        op = make_op(
            Opcode.STORE,
            [],
            [as_operand(base), as_operand(offset), as_operand(value)],
            **attrs,
        )
        return self.emit(op)

    # -- control ------------------------------------------------------------

    def branch_if(self, pred: Reg, target: str) -> None:
        """Conditional branch: taken -> ``target``, else fall to next block."""
        assert self.current is not None, "branch outside a block"
        btr = self.function.regs.btr()
        self.emit(make_op(Opcode.PBR, [btr], [], target=target))
        self.emit(make_op(Opcode.BR, [], [btr, pred]))
        self.current.taken = target

    def jump(self, target: str) -> None:
        assert self.current is not None, "jump outside a block"
        btr = self.function.regs.btr()
        self.emit(make_op(Opcode.PBR, [btr], [], target=target))
        self.emit(make_op(Opcode.BR, [], [btr]))
        self.current.taken = target
        self.current.fall = None

    def call(
        self,
        function: str,
        args: Sequence[Src] = (),
        dest: Optional[Reg] = None,
        want_result: bool = True,
    ) -> Optional[Reg]:
        dests: List[Reg] = []
        if want_result:
            dest = dest or self.gpr()
            dests = [dest]
        self.emit(
            make_op(
                Opcode.CALL,
                dests,
                [as_operand(a) for a in args],
                function=function,
            )
        )
        return dest if want_result else None

    def ret(self, value: Optional[Src] = None) -> None:
        srcs = [as_operand(value)] if value is not None else []
        self.emit(make_op(Opcode.RET, [], srcs))

    def halt(self) -> None:
        self.emit(make_op(Opcode.HALT))

    # -- loops ---------------------------------------------------------------

    @contextlib.contextmanager
    def counted_loop(
        self,
        name: str,
        start: Src,
        bound: Src,
        step: int = 1,
        down: bool = False,
    ) -> Iterator[Reg]:
        """Emit a canonical counted loop; yields the induction register.

        The body is a single block named ``name``.  The latch emitted on exit
        is ``i = add i, step; p = cmp i < bound; br p -> name``.  With
        ``down=True`` the loop counts down with ``cmp i > bound``.
        """
        induction = self.mov(start)
        body = self.block(name)
        body.attrs["loop_name"] = name
        body.attrs["loop_induction"] = induction
        body.attrs["loop_start"] = as_operand(start)
        body.attrs["loop_bound"] = as_operand(bound)
        body.attrs["loop_step"] = -step if down else step
        try:
            yield induction
        finally:
            actual_step = -step if down else step
            self.add(induction, actual_step, dest=induction)
            if down:
                pred = self.cmp_gt(induction, bound)
            else:
                pred = self.cmp_lt(induction, bound)
            self.branch_if(pred, name)
            self.block(self.fresh_label(f"{name}_exit"))


class ProgramBuilder:
    """Builds a whole program (functions + memory image)."""

    def __init__(self, name: str = "program", entry: str = "main") -> None:
        self.program = Program(name=name, entry=entry)

    def function(
        self, name: str, n_params: int = 0
    ) -> "FunctionBuilder":
        function = Function(name)
        self.program.add_function(function)  # re-homes onto the shared allocator
        function.params = [function.regs.gpr() for _ in range(n_params)]
        return FunctionBuilder(function)

    def alloc(self, name: str, size: int, init=None):
        return self.program.alloc_array(name, size, init)

    def finish(self) -> Program:
        self.program.validate()
        return self.program
