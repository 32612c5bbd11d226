"""Decoupled Software Pipelining (DSWP) partitioning.

Following Ottoni et al. (cited as the paper's DSWP source): build the loop
body's dependence graph *including loop-carried dependences*, find strongly
connected components (every recurrence lands inside one SCC), condense to
an acyclic graph, and greedily assign SCCs to pipeline stages in
topological order, balancing estimated stage weights.  Each stage runs on
its own core; cross-stage dataflow travels forward through the queue-mode
operand network once per iteration, so stalls in one stage overlap with
work in the others.

The estimated speedup (total weight / max stage weight, discounted by a
per-stage communication charge) feeds the paper's 1.25 profitability
threshold in the selection policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ...isa.latencies import scheduling_latency
from ...isa.operations import Operation, Reg
from ...isa.program import Program
from ..dfg import (
    CARRIED,
    build_block_dfg,
    carried_memory_pairs,
    carried_register_edges,
)


@dataclass
class DswpPartition:
    """Stages of a pipelined loop body."""

    stages: List[List[Operation]]
    stage_of: Dict[int, int]
    stage_weights: List[float]
    estimated_speedup: float

    @property
    def n_stages(self) -> int:
        return len(self.stages)


class DswpPartitioner:
    """SCC condensation + greedy stage balancing."""

    #: Per-iteration charge for each pipeline boundary a value crosses.
    stage_comm_cost = 3.0  # queue mode: 2 cycles + 1 hop

    def __init__(self, program: Program, n_cores: int) -> None:
        self.program = program
        self.n_cores = n_cores

    def partition(
        self,
        ops: Sequence[Operation],
        replicated_regs: Optional[Set[Reg]] = None,
    ) -> Optional[DswpPartition]:
        """Partition a loop body; None when no multi-stage pipeline exists.

        ``replicated_regs`` are registers whose updates the codegen
        replicates on every stage (the induction variable and the latch
        predicate), so their carried dependences do not glue the graph
        into one SCC.
        """
        ops = list(ops)
        if not ops:
            return None
        carried = carried_register_edges(ops, exclude=replicated_regs)
        # Stages own private register files, so anti/output register
        # dependences do not constrain the pipeline (storage_edges=False).
        graph = build_block_dfg(
            self.program, ops, carried_regs=carried, storage_edges=False
        )
        for earlier, later in carried_memory_pairs(self.program, ops):
            if earlier is not later:
                graph.add_edge(later, earlier, CARRIED, delay=1)

        components = graph.strongly_connected_components()
        if len(components) < 2:
            return None

        weights = [self._weight(component) for component in components]
        stages = self._assign_stages(components, weights)
        if len(stages) < 2:
            return None

        stage_of: Dict[int, int] = {}
        stage_ops: List[List[Operation]] = []
        stage_weights: List[float] = []
        for stage_index, members in enumerate(stages):
            ops_here: List[Operation] = []
            weight = 0.0
            for component_index in members:
                ops_here.extend(components[component_index])
                weight += weights[component_index]
            ops_here.sort(key=lambda op: graph.index[op.uid])
            stage_ops.append(ops_here)
            stage_weights.append(weight)
            for op in ops_here:
                stage_of[op.uid] = stage_index

        total = sum(stage_weights)
        bottleneck = max(stage_weights) + self.stage_comm_cost
        speedup = total / bottleneck if bottleneck else 1.0
        return DswpPartition(
            stages=stage_ops,
            stage_of=stage_of,
            stage_weights=stage_weights,
            estimated_speedup=speedup,
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _weight(component: Sequence[Operation]) -> float:
        return float(sum(scheduling_latency(op.opcode) for op in component))

    def _assign_stages(
        self, components: List[List[Operation]], weights: List[float]
    ) -> List[List[int]]:
        """Min-max contiguous partition of the topologically-ordered SCC
        list into at most ``n_cores`` stages (binary search over the
        bottleneck weight, the classic painter's-partition scheme)."""
        total = sum(weights)
        if total == 0:
            return [list(range(len(components)))]

        def cuts_for(limit: float) -> Optional[List[List[int]]]:
            stages: List[List[int]] = []
            current: List[int] = []
            current_weight = 0.0
            for index, weight in enumerate(weights):
                if current and current_weight + weight > limit:
                    stages.append(current)
                    current = []
                    current_weight = 0.0
                current.append(index)
                current_weight += weight
                if current_weight > limit and len(current) > 1:
                    return None
            if current:
                stages.append(current)
            return stages if len(stages) <= self.n_cores else None

        low = max(weights)
        high = total
        best = cuts_for(high)
        for _ in range(32):
            mid = (low + high) / 2
            attempt = cuts_for(mid)
            if attempt is not None:
                best = attempt
                high = mid
            else:
                low = mid
        assert best is not None
        return best
