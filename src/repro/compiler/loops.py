"""Loop analysis: natural loops, induction variables, accumulators.

The DOALL and DSWP transforms target the canonical counted loop the IR
builder emits (single-block body, ``i = add i, step`` latch update, a
compare feeding the back branch), mirroring the affine loops the paper's
DOALL detection handles.  Detection works from the IR itself -- the
builder's annotations are used only by tests to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.operations import (
    COMPARISONS,
    Imm,
    Opcode,
    Operand,
    Operation,
    Reg,
)
from ..isa.program import BasicBlock, Function

_ACCUMULATING = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.FADD,
    Opcode.FSUB,
    Opcode.FMUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
}


@dataclass
class InductionVariable:
    reg: Reg
    step: int
    update: Operation  # the 'i = add i, step' op
    init: Optional[Operand] = None  # initial value (from the preheader)
    bound: Optional[Operand] = None  # loop bound (from the latch compare)
    compare: Optional[Operation] = None

    def trip_count(self) -> Optional[int]:
        """Static trip count when init/bound are constants."""
        if (
            isinstance(self.init, Imm)
            and isinstance(self.bound, Imm)
            and self.step != 0
        ):
            span = self.bound.value - self.init.value
            count = -(-span // self.step) if self.step > 0 else -(
                -(-span) // (-self.step)
            )
            return max(int(count), 0)
        return None


@dataclass
class Accumulator:
    reg: Reg
    op: Operation  # the reduction op, e.g. 'a = add a, x'

    @property
    def opcode(self) -> Opcode:
        return self.op.opcode

    def identity(self):
        """Identity element for expanding this reduction across cores."""
        if self.opcode in (Opcode.MUL, Opcode.FMUL):
            return 1
        return 0  # add/sub/or/xor start from zero; AND is rejected upstream


@dataclass
class Loop:
    header: str
    blocks: Set[str]
    back_edges: List[Tuple[str, str]]
    preheader: Optional[str] = None
    exit: Optional[str] = None
    induction: Optional[InductionVariable] = None
    accumulators: List[Accumulator] = field(default_factory=list)

    @property
    def is_single_block(self) -> bool:
        return len(self.blocks) == 1


def dominators(function: Function) -> Dict[str, Set[str]]:
    """Classic iterative dominator computation."""
    labels = function.block_order
    preds = function.predecessors()
    entry = function.entry
    dom: Dict[str, Set[str]] = {label: set(labels) for label in labels}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == entry:
                continue
            pred_doms = [dom[p] for p in preds[label]]
            new = set.intersection(*pred_doms) if pred_doms else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def find_loops(function: Function) -> List[Loop]:
    """Natural loops, outermost first (by header program order)."""
    dom = dominators(function)
    preds = function.predecessors()
    loops: Dict[str, Loop] = {}

    for block in function.ordered_blocks():
        for succ in block.successors():
            if succ in dom[block.label]:  # back edge: succ dominates block
                loop = loops.setdefault(
                    succ, Loop(header=succ, blocks={succ}, back_edges=[])
                )
                loop.back_edges.append((block.label, succ))
                # Collect the loop body by walking predecessors from the latch.
                stack = [block.label]
                while stack:
                    current = stack.pop()
                    if current in loop.blocks:
                        continue
                    loop.blocks.add(current)
                    stack.extend(preds[current])

    result = []
    for header in function.block_order:
        if header not in loops:
            continue
        loop = loops[header]
        _find_preheader(loop, preds)
        _find_exit(function, loop)
        if loop.is_single_block:
            _analyze_single_block(function, loop)
        result.append(loop)
    return result


def _find_preheader(loop: Loop, preds: Dict[str, Set[str]]) -> None:
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) == 1:
        loop.preheader = outside[0]


def _find_exit(function: Function, loop: Loop) -> None:
    exits = set()
    for label in loop.blocks:
        for succ in function.block(label).successors():
            if succ not in loop.blocks:
                exits.add(succ)
    if len(exits) == 1:
        loop.exit = exits.pop()


def _definitions(ops: Sequence[Operation]) -> Dict[Reg, List[Operation]]:
    defs: Dict[Reg, List[Operation]] = {}
    for op in ops:
        for reg in op.dests:
            defs.setdefault(reg, []).append(op)
    return defs


def _analyze_single_block(function: Function, loop: Loop) -> None:
    block = function.block(loop.header)
    ops = block.ops
    defs = _definitions(ops)

    # Induction variable: single def of the form 'i = add i, #step'.
    induction = None
    for reg, reg_defs in defs.items():
        if len(reg_defs) != 1:
            continue
        op = reg_defs[0]
        if (
            op.opcode is Opcode.ADD
            and op.dest == reg
            and len(op.srcs) == 2
            and op.srcs[0] == reg
            and isinstance(op.srcs[1], Imm)
            and isinstance(op.srcs[1].value, int)
        ):
            candidate = InductionVariable(reg=reg, step=op.srcs[1].value, update=op)
            _attach_bound(block, candidate)
            if candidate.compare is not None:
                induction = candidate
                break
    loop.induction = induction
    if induction is not None and loop.preheader is not None:
        _attach_init(function.block(loop.preheader), induction)

    # Accumulators: 'a = op a, x' where a has one def and no other use
    # inside the loop (besides the reduction itself).
    for reg, reg_defs in defs.items():
        if len(reg_defs) != 1:
            continue
        op = reg_defs[0]
        if (
            op.opcode in _ACCUMULATING
            and op.dest == reg
            and len(op.srcs) == 2
            and op.srcs[0] == reg
            and op.srcs[1] != reg
        ):
            other_uses = [
                other
                for other in ops
                if other is not op and reg in other.src_regs()
            ]
            if not other_uses and (induction is None or reg != induction.reg):
                loop.accumulators.append(Accumulator(reg=reg, op=op))


def _attach_bound(block: BasicBlock, induction: InductionVariable) -> None:
    """Find the compare feeding the back branch and extract the bound."""
    terminator = block.terminator()
    if terminator is None or terminator.opcode is not Opcode.BR:
        return
    if len(terminator.srcs) < 2:
        return
    pred_reg = terminator.srcs[1]
    for op in reversed(block.ops):
        if op.dest == pred_reg and op.opcode in COMPARISONS:
            if op.srcs[0] == induction.reg:
                induction.bound = op.srcs[1]
                induction.compare = op
            return


def _attach_init(preheader: BasicBlock, induction: InductionVariable) -> None:
    for op in reversed(preheader.ops):
        if op.dest == induction.reg:
            # Only a plain MOV gives a trustworthy initial operand; any
            # other defining op leaves the init symbolic (runtime value).
            if op.opcode is Opcode.MOV:
                induction.init = op.srcs[0]
            return


def split_loop_latch(
    block: BasicBlock, loop: Optional[Loop]
) -> Tuple[List[Operation], List[Operation], bool]:
    """Split a region block into (body ops, latch ops, replicate_latch).

    For a canonical counted loop the latch is the induction update, the
    latch compare, and the PBR/BR -- all of which every participating core
    replicates so the branch condition is computed locally (paper Fig. 5c).
    Otherwise only the PBR/BR are replicated and the predicate must be
    communicated (Fig. 5b).
    """
    latch: List[Operation] = []
    replicate = False
    induction = loop.induction if loop is not None else None
    if induction is not None and induction.compare is not None:
        latch = [induction.update, induction.compare]
        replicate = True
    control = [
        op
        for op in block.ops
        if op.opcode in (Opcode.PBR, Opcode.BR, Opcode.RET, Opcode.HALT)
        and op not in latch
    ]
    latch.extend(control)
    latch_ids = {id(op) for op in latch}
    body = [op for op in block.ops if id(op) not in latch_ids]
    return body, latch, replicate


def live_out_regs(function: Function, loop: Loop) -> Set[Reg]:
    """Registers defined inside the loop and read after it (approximate:
    any read anywhere outside the loop's blocks)."""
    defined: Set[Reg] = set()
    for label in loop.blocks:
        for op in function.block(label).ops:
            defined.update(op.dests)
    used_outside: Set[Reg] = set()
    for block in function.ordered_blocks():
        if block.label in loop.blocks:
            continue
        for op in block.ops:
            used_outside.update(op.src_regs())
    return defined & used_outside


def live_in_regs(function: Function, loop: Loop) -> Set[Reg]:
    """Registers read inside the loop before any def inside it (approximate:
    read by the loop and defined outside it)."""
    read: Set[Reg] = set()
    defined: Set[Reg] = set()
    for label in loop.blocks:
        block = function.block(label)
        for op in block.ops:
            for reg in op.src_regs():
                if reg not in defined:
                    read.add(reg)
            defined.update(op.dests)
    return read
