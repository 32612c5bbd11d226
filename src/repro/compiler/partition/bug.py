"""Bottom-Up Greedy (BUG) partitioning for coupled-mode ILP.

The paper employs Ellis' BUG algorithm (Bulldog): operations are visited in
priority order (critical paths first, depth-first), and each is assigned to
the core minimizing its heuristically-estimated completion time, counting
the inter-core transfer latency for operands living on other cores and a
load-balance term for busy cores.

The partitioner works on one block's dependence graph.  Control ops that
coupled mode replicates on every core (PBR/BR/CALL/RET/HALT/MODE_SWITCH)
are not partitioned here; callers handle replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...arch.mesh import Mesh
from ...isa.latencies import scheduling_latency
from ...isa.operations import Operation
from ..dfg import FLOW, DependenceGraph


@dataclass
class PartitionResult:
    """core id per op uid."""

    assignment: Dict[int, int]


class BugPartitioner:
    """Greedy completion-time-estimate partitioner."""

    #: Estimated cycles to move a value one hop in the mode this
    #: partitioner targets (direct mode: 1 cycle per hop).
    comm_cost_per_hop = 1
    comm_cost_fixed = 0

    def __init__(self, mesh: Mesh, n_cores: Optional[int] = None) -> None:
        self.mesh = mesh
        self.n_cores = n_cores or mesh.n_cores

    # -- hooks for eBUG -----------------------------------------------------------

    def edge_penalty(self, src: Operation, dst: Operation, kind: str) -> float:
        """Extra cost added when this edge crosses cores."""
        return 0.0

    def core_penalty(self, op: Operation, core: int, state: "_State") -> float:
        """Extra cost for putting ``op`` on ``core``."""
        return 0.0

    def same_core_groups(
        self, graph: DependenceGraph
    ) -> Sequence[Sequence[Operation]]:
        """Groups of ops that must share a core (eBUG uses this for
        loop-carried dependences)."""
        return ()

    # -- the algorithm ----------------------------------------------------------------

    def partition(self, graph: DependenceGraph) -> PartitionResult:
        state = _State(self.n_cores)
        heights = graph.critical_heights()

        group_of: Dict[int, int] = {}
        for gid, group in enumerate(self.same_core_groups(graph)):
            for op in group:
                group_of[op.uid] = gid
        group_core: Dict[int, int] = {}

        # Visit order: depth-first along critical paths (highest first).
        order = self._priority_order(graph, heights)
        assignment: Dict[int, int] = {}
        finish: Dict[int, int] = {}

        for op in order:
            forced = None
            gid = group_of.get(op.uid)
            if gid is not None and gid in group_core:
                forced = group_core[gid]
            core = forced if forced is not None else self._best_core(
                op, graph, assignment, finish, state
            )
            assignment[op.uid] = core
            finish[op.uid] = self._completion(op, core, graph, assignment, finish, state)
            state.assign(op, core, finish[op.uid])
            if gid is not None:
                group_core[gid] = core

        return PartitionResult(assignment=assignment)

    def _priority_order(
        self, graph: DependenceGraph, heights: Dict[int, int]
    ) -> List[Operation]:
        """Topological order, preferring higher critical heights (a
        depth-first walk of critical paths, as in Bulldog)."""
        in_degree = {op.uid: 0 for op in graph.ops}
        for edge in graph.all_edges():
            if edge.kind == "carried":
                continue
            in_degree[edge.dst.uid] += 1
        ready = [op for op in graph.ops if in_degree[op.uid] == 0]
        result: List[Operation] = []
        while ready:
            ready.sort(
                key=lambda op: (-heights[op.uid], graph.index[op.uid])
            )
            op = ready.pop(0)
            result.append(op)
            for edge in graph.succs[op.uid]:
                if edge.kind == "carried":
                    continue
                in_degree[edge.dst.uid] -= 1
                if in_degree[edge.dst.uid] == 0:
                    ready.append(edge.dst)
        return result

    def _best_core(
        self,
        op: Operation,
        graph: DependenceGraph,
        assignment: Dict[int, int],
        finish: Dict[int, int],
        state: "_State",
    ) -> int:
        best_core = 0
        best_cost = None
        for core in range(self.n_cores):
            cost = self._completion(op, core, graph, assignment, finish, state)
            cost += self.core_penalty(op, core, state)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_core = core
        return best_core

    def _comm_latency(self, src_core: int, dst_core: int) -> float:
        n_cores = self.mesh.n_cores
        hops = self.mesh.hop_table[src_core % n_cores, dst_core % n_cores]
        return self.comm_cost_fixed + hops * self.comm_cost_per_hop

    def _completion(
        self,
        op: Operation,
        core: int,
        graph: DependenceGraph,
        assignment: Dict[int, int],
        finish: Dict[int, int],
        state: "_State",
    ) -> float:
        start = float(state.busy_until[core])
        penalty = 0.0
        for edge in graph.preds[op.uid]:
            src = edge.src
            if src.uid not in assignment:
                continue
            src_core = assignment[src.uid]
            if edge.kind == "carried":
                # Affinity only: splitting a recurrence (or a cross-block
                # flow) from its consumer costs a transfer every iteration.
                if src_core != core:
                    penalty += self._comm_latency(src_core, core)
                continue
            ready = finish[src.uid]
            if edge.kind == FLOW and src_core != core:
                ready += self._comm_latency(src_core, core)
            if src_core != core:
                penalty += self.edge_penalty(src, op, edge.kind)
            start = max(start, float(ready))
        # Successor affinity along carried edges already assigned.
        for edge in graph.succs[op.uid]:
            if edge.kind == "carried" and edge.dst.uid in assignment:
                if assignment[edge.dst.uid] != core:
                    penalty += self._comm_latency(core, assignment[edge.dst.uid])
        return start + scheduling_latency(op.opcode) + penalty


class _State:
    """Mutable per-core occupancy during partitioning."""

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores
        self.busy_until = [0.0] * n_cores
        self.op_count = [0] * n_cores
        self.memory_count = [0] * n_cores
        self.total_memory = 0

    def assign(self, op: Operation, core: int, finish: float) -> None:
        # Occupancy is one issue slot per op; operand readiness (not
        # latency) is what delays consumers, and that is tracked via
        # ``finish`` in the completion estimate.
        self.busy_until[core] += 1
        self.op_count[core] += 1
        if op.is_memory():
            self.memory_count[core] += 1
            self.total_memory += 1
