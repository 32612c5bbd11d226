"""Dependence/dataflow graphs over straight-line op sequences.

Two users:

* the partitioners (BUG / eBUG / DSWP) consult register-flow and memory
  edges, critical-path heights, and (for DSWP) loop-carried edges;
* the schedulers honour the same edges plus anti/output dependences when
  packing ops into issue slots.

Edges carry a ``delay``: the minimum number of cycles between the issue of
the predecessor and the issue of the successor (flow edges use the
producer's latency; anti/output and memory-order edges use 1; "same cycle"
pairings used by the coupled scheduler are expressed separately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..isa.latencies import scheduling_latency
from ..isa.operations import Opcode, Operation, Reg
from ..isa.program import Program
from .dependence import memory_dependences

#: Kinds of dependence edges.
FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"
MEMORY = "memory"
CARRIED = "carried"  # loop-carried register flow (DSWP only)


@dataclass
class Edge:
    src: Operation
    dst: Operation
    kind: str
    delay: int
    reg: Optional[Reg] = None


class DependenceGraph:
    """Dependences among a straight-line list of operations."""

    def __init__(self, ops: Sequence[Operation]) -> None:
        self.ops: List[Operation] = list(ops)
        self.index: Dict[int, int] = {op.uid: i for i, op in enumerate(self.ops)}
        self.succs: Dict[int, List[Edge]] = {op.uid: [] for op in self.ops}
        self.preds: Dict[int, List[Edge]] = {op.uid: [] for op in self.ops}

    def add_edge(
        self,
        src: Operation,
        dst: Operation,
        kind: str,
        delay: int,
        reg: Optional[Reg] = None,
    ) -> Edge:
        edge = Edge(src=src, dst=dst, kind=kind, delay=delay, reg=reg)
        self.succs[src.uid].append(edge)
        self.preds[dst.uid].append(edge)
        return edge

    def all_edges(self) -> Iterable[Edge]:
        for edges in self.succs.values():
            yield from edges

    # -- analyses ------------------------------------------------------------

    def critical_heights(self) -> Dict[int, int]:
        """Longest delay-weighted path from each op to any sink (ignores
        loop-carried edges, which may form cycles)."""
        heights: Dict[int, int] = {}

        order = self._topological(ignore_kinds={CARRIED})
        for op in reversed(order):
            best = 0
            for edge in self.succs[op.uid]:
                if edge.kind == CARRIED:
                    continue
                best = max(best, edge.delay + heights[edge.dst.uid])
            heights[op.uid] = best
        return heights

    def _topological(self, ignore_kinds: Set[str]) -> List[Operation]:
        in_degree = {op.uid: 0 for op in self.ops}
        for edge in self.all_edges():
            if edge.kind in ignore_kinds:
                continue
            in_degree[edge.dst.uid] += 1
        # Stable order: prefer original program order among ready ops.
        ready = [op for op in self.ops if in_degree[op.uid] == 0]
        result: List[Operation] = []
        while ready:
            op = ready.pop(0)
            result.append(op)
            for edge in self.succs[op.uid]:
                if edge.kind in ignore_kinds:
                    continue
                in_degree[edge.dst.uid] -= 1
                if in_degree[edge.dst.uid] == 0:
                    # Insert keeping program order among ready ops.
                    position = self.index[edge.dst.uid]
                    spot = next(
                        (
                            i
                            for i, r in enumerate(ready)
                            if self.index[r.uid] > position
                        ),
                        len(ready),
                    )
                    ready.insert(spot, edge.dst)
        if len(result) != len(self.ops):
            raise ValueError("dependence graph has an unexpected cycle")
        return result

    def strongly_connected_components(self) -> List[List[Operation]]:
        """Tarjan SCCs over *all* edges (including loop-carried), in a
        topological order of the condensation."""
        index_counter = [0]
        stack: List[int] = []
        lowlink: Dict[int, int] = {}
        number: Dict[int, int] = {}
        on_stack: Set[int] = set()
        components: List[List[Operation]] = []
        op_by_uid = {op.uid: op for op in self.ops}

        def strongconnect(uid: int) -> None:
            # Iterative Tarjan to avoid recursion limits on big blocks.
            work = [(uid, 0)]
            while work:
                node, edge_i = work[-1]
                if edge_i == 0:
                    number[node] = lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recursed = False
                edges = self.succs[node]
                while edge_i < len(edges):
                    succ = edges[edge_i].dst.uid
                    edge_i += 1
                    if succ not in number:
                        work[-1] = (node, edge_i)
                        work.append((succ, 0))
                        recursed = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], number[succ])
                if recursed:
                    continue
                if lowlink[node] == number[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(op_by_uid[member])
                        if member == node:
                            break
                    component.sort(key=lambda op: self.index[op.uid])
                    components.append(component)
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for op in self.ops:
            if op.uid not in number:
                strongconnect(op.uid)
        # Tarjan emits SCCs in reverse topological order.
        components.reverse()
        return components


def carried_register_edges(
    ops: Sequence[Operation],
    exclude: Optional[Set[Reg]] = None,
) -> Dict[Reg, Tuple[Operation, List[Operation]]]:
    """Loop-carried register flow in a single-block loop body.

    A use whose reaching definition lies *after* it in the block (or is the
    op itself, as in ``a = add a, x``) reads the previous iteration's value:
    the last def in the block feeds it across the back edge.  ``exclude``
    lists registers handled specially (e.g. a replicated induction).
    """
    exclude = exclude or set()
    def_positions: Dict[Reg, List[int]] = {}
    for i, op in enumerate(ops):
        for reg in op.dests:
            def_positions.setdefault(reg, []).append(i)

    carried: Dict[Reg, Tuple[Operation, List[Operation]]] = {}
    for i, op in enumerate(ops):
        for reg in op.src_regs():
            if reg in exclude:
                continue
            positions = def_positions.get(reg)
            if not positions:
                continue  # pure live-in, never redefined: not carried
            if any(p < i for p in positions):
                continue  # reaching def is earlier this iteration
            last_def = ops[positions[-1]]
            entry = carried.setdefault(reg, (last_def, []))
            entry[1].append(op)
    return carried


def carried_memory_pairs(
    program: Program, ops: Sequence[Operation]
) -> List[Tuple[Operation, Operation]]:
    """Pairs of memory ops that may conflict across iterations (both
    directions of every alias pair involving a store, including an op with
    itself for stores)."""
    from .dependence import analyze_block_addresses, may_alias

    addresses = analyze_block_addresses(program, ops)
    memory_ops = [op for op in ops if op.is_memory()]
    pairs: List[Tuple[Operation, Operation]] = []
    for a in memory_ops:
        for b in memory_ops:
            if a.opcode is Opcode.LOAD and b.opcode is Opcode.LOAD:
                continue
            if a is b and a.opcode is not Opcode.STORE:
                continue
            if may_alias(addresses[a.uid], addresses[b.uid]):
                pairs.append((a, b))
    return pairs


def build_block_dfg(
    program: Program,
    ops: Sequence[Operation],
    carried_regs: Optional[Dict[Reg, Tuple[Operation, List[Operation]]]] = None,
    storage_edges: bool = True,
) -> DependenceGraph:
    """Build the dependence graph of a straight-line op list.

    ``carried_regs`` adds loop-carried flow edges for DSWP: maps a register
    to (defining op, uses at the top of the next iteration).

    ``storage_edges=False`` drops anti/output register dependences: DSWP
    partitions under that view because pipeline stages run in *separate*
    register files (communication renames values across stages), so only
    true value flow and memory ordering constrain the stages.
    """
    graph = DependenceGraph(ops)
    last_def: Dict[Reg, Operation] = {}
    uses_since_def: Dict[Reg, List[Operation]] = {}

    for op in ops:
        for reg in op.src_regs():
            producer = last_def.get(reg)
            if producer is not None:
                graph.add_edge(
                    producer,
                    op,
                    FLOW,
                    delay=scheduling_latency(producer.opcode),
                    reg=reg,
                )
            uses_since_def.setdefault(reg, []).append(op)
        for reg in op.dests:
            if storage_edges:
                previous = last_def.get(reg)
                if previous is not None and previous is not op:
                    graph.add_edge(previous, op, OUTPUT, delay=1, reg=reg)
                for user in uses_since_def.get(reg, []):
                    if user is not op:
                        graph.add_edge(user, op, ANTI, delay=1, reg=reg)
            last_def[reg] = op
            uses_since_def[reg] = []

    for earlier, later in memory_dependences(program, ops):
        graph.add_edge(earlier, later, MEMORY, delay=1)

    if carried_regs:
        for reg, (definition, users) in carried_regs.items():
            for user in users:
                graph.add_edge(definition, user, CARRIED, delay=1, reg=reg)

    return graph
