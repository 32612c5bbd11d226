"""Static scheduling: joint cross-core VLIW scheduling (coupled mode) and
independent per-core scheduling (decoupled mode).

Input to both schedulers is a flat, program-ordered list of operations with
``op.core`` assigned.  Two attrs drive cross-core constraints:

* ``attrs['align']`` -- ops sharing an align id must issue in the *same
  cycle* on their respective cores.  Used for PUT/GET pairs (the direct
  network requires the two halves to execute simultaneously), BCAST/GET
  groups, and the replicated global ops of coupled mode (BR, CALL, RET,
  HALT, MODE_SWITCH: "BR operations are replicated across all cores and
  scheduled to execute in the same cycle").
* CALL acts as a scheduling fence on its core: nothing moves across it
  (the callee may touch any memory).

The coupled scheduler pads every core's schedule to a common length and
keeps the block terminator in the final slot, which is what lets the
simulator run the cores in lock-step.  The decoupled scheduler simply
packs each core's ops into latency-spaced slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.latencies import scheduling_latency
from ..isa.operations import Opcode, Operation, Reg
from ..isa.program import Program
from .dependence import memory_dependences

#: Block terminator opcodes (scheduled into the final slot).
TERMINATORS = frozenset({Opcode.BR, Opcode.RET, Opcode.HALT})

_align_ids = itertools.count(1)


def fresh_align_id() -> int:
    return next(_align_ids)


@dataclass
class _Unit:
    """A co-issue group: one op, or several ops sharing an align id."""

    ops: List[Operation]
    is_terminator: bool = False
    # Scheduling state.
    n_preds: int = 0
    earliest: int = 0
    height: int = 0
    succs: List[Tuple["_Unit", int]] = field(default_factory=list)

    @property
    def cores(self) -> Set[int]:
        return {op.core for op in self.ops}


def _build_units(ops: Sequence[Operation]) -> Tuple[List[_Unit], Dict[int, _Unit]]:
    by_align: Dict[int, _Unit] = {}
    units: List[_Unit] = []
    unit_of: Dict[int, _Unit] = {}
    for op in ops:
        align = op.attrs.get("align")
        if align is not None and align in by_align:
            unit = by_align[align]
            unit.ops.append(op)
        else:
            unit = _Unit(ops=[op])
            units.append(unit)
            if align is not None:
                by_align[align] = unit
        if op.opcode in TERMINATORS:
            unit.is_terminator = True
        unit_of[op.uid] = unit
    return units, unit_of


def _dependence_edges(
    program: Program, ops: Sequence[Operation]
) -> List[Tuple[Operation, Operation, int]]:
    """(src, dst, delay) edges: per-core register dependences, global memory
    ordering, and CALL fences."""
    edges: List[Tuple[Operation, Operation, int]] = []

    # Register dependences are per core (register files are private).
    last_def: Dict[Tuple[int, Reg], Operation] = {}
    uses_since: Dict[Tuple[int, Reg], List[Operation]] = {}
    per_core_prev_call: Dict[int, Operation] = {}
    per_core_since_call: Dict[int, List[Operation]] = {}

    for op in ops:
        core = op.core
        assert core is not None, f"unassigned op {op!r}"
        for reg in op.src_regs():
            key = (core, reg)
            producer = last_def.get(key)
            if producer is not None:
                edges.append(
                    (producer, op, scheduling_latency(producer.opcode))
                )
            uses_since.setdefault(key, []).append(op)
        for reg in op.dests:
            key = (core, reg)
            previous = last_def.get(key)
            if previous is not None and previous is not op:
                edges.append((previous, op, 1))
            for user in uses_since.get(key, []):
                if user is not op:
                    edges.append((user, op, 1))
            last_def[key] = op
            uses_since[key] = []
        # CALL fences (per core).
        fence = per_core_prev_call.get(core)
        if fence is not None and fence is not op:
            edges.append((fence, op, 1))
        per_core_since_call.setdefault(core, []).append(op)
        if op.opcode is Opcode.CALL:
            for earlier in per_core_since_call[core]:
                if earlier is not op:
                    edges.append((earlier, op, 1))
            per_core_prev_call[core] = op
            per_core_since_call[core] = [op]

    # Memory ordering spans cores ("dependent memory operations are
    # executed in subsequent cycles" in coupled mode).
    for earlier, later in memory_dependences(program, ops):
        edges.append((earlier, later, 1))
    return edges


def _prepare(
    program: Program, ops: Sequence[Operation]
) -> Tuple[List[_Unit], List[_Unit]]:
    """Build units with dependence counts; returns (units, terminator units)."""
    units, unit_of = _build_units(ops)
    for src, dst, delay in _dependence_edges(program, ops):
        src_unit, dst_unit = unit_of[src.uid], unit_of[dst.uid]
        if src_unit is dst_unit:
            continue
        src_unit.succs.append((dst_unit, delay))
        dst_unit.n_preds += 1

    # Critical-path heights for priority.
    for unit in reversed(units):  # program order approximates topo order
        unit.height = max(
            (delay + succ.height for succ, delay in unit.succs), default=0
        )
    terminators = [unit for unit in units if unit.is_terminator]
    return units, terminators


def schedule_coupled(
    program: Program, ops: Sequence[Operation], n_cores: int
) -> List[List[Optional[Operation]]]:
    """Jointly schedule one block's ops across all cores in lock-step.

    Returns per-core slot lists of equal length, terminator in the last
    slot on every core that has one.
    """
    units, terminators = _prepare(program, ops)
    if len(terminators) > 1:
        raise ValueError("a block may have at most one terminator group")
    regular = [unit for unit in units if not unit.is_terminator]

    slots: List[List[Optional[Operation]]] = [[] for _ in range(n_cores)]
    core_free = [0] * n_cores
    unscheduled = set(map(id, regular))
    ready = [unit for unit in regular if unit.n_preds == 0]

    def place(unit: _Unit, slot: int) -> None:
        # Every core grows with each placement, so all stay one length.
        for core_slots in slots:
            while len(core_slots) <= slot:
                core_slots.append(None)
        for op in unit.ops:
            if slots[op.core][slot] is not None:
                raise ValueError(
                    f"slot collision on core {op.core} at {slot}: {op!r}"
                )
            op.slot = slot
            slots[op.core][slot] = op
            core_free[op.core] = max(core_free[op.core], slot + 1)
        for succ, delay in unit.succs:
            succ.earliest = max(succ.earliest, slot + delay)
            succ.n_preds -= 1
            if succ.n_preds == 0 and not succ.is_terminator:
                ready.append(succ)

    cycle = 0
    guard = 0
    while unscheduled:
        guard += 1
        if guard > 100_000:
            raise ValueError("coupled scheduler failed to converge")
        # Try to fill this cycle on every core, highest unit first.
        ready.sort(key=lambda unit: (-unit.height, min(unit.cores)))
        for unit in list(ready):
            if unit.earliest > cycle:
                continue
            if any(core_free[core] > cycle for core in unit.cores):
                continue
            if any(
                len(slots[op.core]) > cycle and slots[op.core][cycle] is not None
                for op in unit.ops
            ):
                continue
            ready.remove(unit)
            unscheduled.discard(id(unit))
            place(unit, cycle)
        cycle += 1

    # Terminator group: strictly after every other op, aligned on all cores.
    if terminators:
        unit = terminators[0]
        slot = max(
            [unit.earliest]
            + [core_free[core] for core in range(n_cores)]
        )
        place(unit, slot)
    return slots


def schedule_decoupled(
    program: Program, ops: Sequence[Operation], n_cores: int
) -> List[List[Optional[Operation]]]:
    """Schedule each core's ops independently (queue-mode communication has
    no static alignment requirement).  Cross-core edges are enforced at run
    time by the SEND/RECV protocol, so only same-core edges matter here."""
    per_core: List[List[Operation]] = [[] for _ in range(n_cores)]
    for op in ops:
        assert op.core is not None
        per_core[op.core].append(op)

    slots: List[List[Optional[Operation]]] = []
    for core_ops in per_core:
        deps: Dict[int, List[Tuple[int, int]]] = {op.uid: [] for op in core_ops}
        for src, dst, delay in _dependence_edges(program, core_ops):
            deps[dst.uid].append((src.uid, delay))
        # The terminator goes last on this core.
        terminator = next(
            (op for op in core_ops if op.opcode in TERMINATORS), None
        )
        order = [op for op in core_ops if op is not terminator]
        if terminator is not None:
            order.append(terminator)

        core_slots: List[Optional[Operation]] = []
        finish: Dict[int, int] = {}
        next_slot = 0
        for op in order:
            start = max(
                [next_slot]
                + [finish[src] + delay for src, delay in deps[op.uid] if src in finish]
            )
            while len(core_slots) < start:
                core_slots.append(None)
            op.slot = start
            core_slots.append(op)
            finish[op.uid] = start
            next_slot = start + 1
        slots.append(core_slots)
    return slots
