"""Statistical DOALL loop detection and parallelization planning.

Paper Section 4.1 ("Extracting LLP from DOALL loops"): the compiler
memory-profiles loops, calls those with no observed cross-iteration
dependence *statistical DOALL*, applies induction-variable replication and
accumulator expansion to remove false register dependences, chunks the
iteration space across cores, and executes the chunks as ordered
transactions on the low-cost TM so that a mis-speculation rolls back.

``plan_doall`` performs the eligibility analysis; the codegen consumes the
returned plan.  Eligibility mirrors the paper's requirements plus the
restrictions of our canonical loop shape:

* single-block counted loop (``i = add i, #step`` with ``step > 0``,
  ``CMP_LT`` latch) with a unique preheader and exit;
* no calls inside the body (a callee could touch arbitrary state);
* every loop-carried register dependence is the induction variable or a
  recognized accumulator; every register live-out is one of those too;
* the memory profile observed no cross-iteration conflict and the average
  trip count clears the profitability threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..isa.operations import Imm, Opcode, Reg
from ..isa.program import Function
from .dfg import carried_register_edges
from .loops import Accumulator, InductionVariable, Loop, live_out_regs
from .profiling import ExecutionProfile

#: Opcodes whose reductions we can expand across cores, with the opcode
#: used to combine per-core partials.
COMBINABLE = {
    Opcode.ADD: Opcode.ADD,
    Opcode.SUB: Opcode.ADD,  # partials accumulate the negated sum
    Opcode.FADD: Opcode.FADD,
    Opcode.FSUB: Opcode.FADD,
    Opcode.MUL: Opcode.MUL,
    Opcode.FMUL: Opcode.FMUL,
    Opcode.OR: Opcode.OR,
    Opcode.XOR: Opcode.XOR,
    Opcode.AND: Opcode.AND,
}


@dataclass
class DoallPlan:
    loop: Loop
    induction: InductionVariable
    accumulators: List[Accumulator]
    #: (start, bound) as Python ints when both are compile-time constants.
    static_bounds: Optional[Tuple[int, int]]
    average_trip: float

    @property
    def step(self) -> int:
        return self.induction.step

    def static_trip_count(self) -> Optional[int]:
        if self.static_bounds is None:
            return None
        start, bound = self.static_bounds
        return max(-(-(bound - start) // self.step), 0)


def plan_doall(
    function: Function,
    loop: Loop,
    profile: ExecutionProfile,
    n_cores: int,
    trip_threshold: Optional[float] = None,
) -> Optional[DoallPlan]:
    """Check eligibility; returns a plan or None with no side effects."""
    if n_cores < 2:
        return None
    if not loop.is_single_block or loop.preheader is None or loop.exit is None:
        return None
    induction = loop.induction
    if induction is None or induction.step <= 0 or induction.bound is None:
        return None
    if induction.compare is None or induction.compare.opcode is not Opcode.CMP_LT:
        return None

    block = function.block(loop.header)
    if block.taken != loop.header:
        return None  # canonical latch branches back to the body

    ops = block.ops
    if any(op.opcode in (Opcode.CALL, Opcode.RET, Opcode.HALT) for op in ops):
        return None

    accumulators = [
        acc for acc in loop.accumulators if acc.opcode in COMBINABLE
    ]
    special: Set[Reg] = {induction.reg} | {acc.reg for acc in accumulators}

    # Every carried register dependence must be induction or accumulator.
    carried = carried_register_edges(ops, exclude=special)
    if carried:
        return None

    # Register live-outs must be recoverable after chunked execution.
    for reg in live_out_regs(function, loop):
        if reg not in special:
            return None

    loop_profile = profile.loop_profile(function.name, loop.header)
    if loop_profile is None or not loop_profile.observed_doall:
        return None
    threshold = trip_threshold if trip_threshold is not None else 2.0 * n_cores
    if loop_profile.average_trip_count < threshold:
        return None

    static_bounds = None
    if (
        isinstance(induction.init, Imm)
        and isinstance(induction.bound, Imm)
        and isinstance(induction.init.value, int)
        and isinstance(induction.bound.value, int)
    ):
        static_bounds = (induction.init.value, induction.bound.value)

    return DoallPlan(
        loop=loop,
        induction=induction,
        accumulators=accumulators,
        static_bounds=static_bounds,
        average_trip=loop_profile.average_trip_count,
    )
