"""Region identification and parallelism selection (paper Section 4.2).

A *region* is a unit of code compiled with one strategy.  In this
reproduction, decoupled regions are single basic blocks (a single-block
loop body, or a miss-heavy straight-line block); everything else is the
default coupled fabric, which handles arbitrary control flow.

Selection policy for the ``hybrid`` strategy, straight from the paper:

1. statistical DOALL loops with sufficient trip count -> LLP ("DOALL loops
   are parallelized first because they provide the most efficient
   parallelism");
2. otherwise, loops whose tentative DSWP partition is projected to beat a
   1.25x threshold -> pipeline fine-grain TLP;
3. otherwise, blocks whose profiled cache-miss time exceeds a fraction of
   their estimated execution time -> strand fine-grain TLP in decoupled
   mode ("the decoupled execution can tolerate memory latencies better");
4. everything else -> ILP in coupled mode ("it provides the lowest
   communication latency").

Single-strategy compiles (Figures 10-12) restrict the policy: ``ilp``
disables all decoupled regions, ``tlp`` disables DOALL and makes every
profitable loop/block decoupled, ``llp`` keeps only DOALL regions and runs
all remaining code on one core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ..isa.operations import Opcode
from ..isa.program import BasicBlock, Function, Program
from .doall import DoallPlan, plan_doall
from .loops import Loop, find_loops, split_loop_latch
from .partition.dswp import DswpPartition, DswpPartitioner
from .profiling import ExecutionProfile

STRATEGIES = ("baseline", "ilp", "tlp", "llp", "hybrid")

#: Paper's DSWP profitability threshold.
DSWP_SPEEDUP_THRESHOLD = 1.25
#: Fraction of estimated execution time spent on cache misses above which
#: a region is compiled as decoupled strands.
MISS_FRACTION_THRESHOLD = 0.15
#: Average L1-miss penalty (cycles) used by the selection estimate.
MISS_PENALTY_ESTIMATE = 10.0
#: Minimum dynamic executions for a block to be worth a decoupled region.
MIN_BLOCK_EXECUTIONS = 4
#: Minimum op count for a strand block.
MIN_STRAND_OPS = 6


@dataclass
class Region:
    rid: int
    strategy: str  # 'doall' | 'dswp' | 'strand' | 'strand_block'
    function: str
    block: str  # body block label
    loop: Optional[Loop] = None
    doall: Optional[DoallPlan] = None
    dswp: Optional[DswpPartition] = None

    @property
    def is_loop(self) -> bool:
        return self.loop is not None


def estimated_miss_fraction(
    function: Function, block: BasicBlock, profile: ExecutionProfile
) -> float:
    """Fraction of the block's estimated serial time lost to L1 misses."""
    executions = profile.block_count(function.name, block.label)
    if executions == 0:
        return 0.0
    total_misses = sum(
        profile.load_misses.get(op.uid, 0) for op in block.ops if op.is_memory()
    )
    exec_cycles = executions * max(len(block.ops), 1)
    return (total_misses * MISS_PENALTY_ESTIMATE) / exec_cycles


def _block_eligible_for_region(block: BasicBlock) -> bool:
    """Decoupled regions must not contain RET/HALT (regions end with a
    barrier back to coupled mode)."""
    return not any(
        op.opcode in (Opcode.RET, Opcode.HALT, Opcode.MODE_SWITCH)
        for op in block.ops
    )


def select_regions(
    program: Program,
    function: Function,
    profile: ExecutionProfile,
    n_cores: int,
    strategy: str,
    ids: Optional[Iterator[int]] = None,
) -> List[Region]:
    """Choose the decoupled regions of one function under ``strategy``.

    ``ids`` allocates region ids.  One :class:`~.codegen.Codegen` run
    passes a single fresh counter for the whole compilation, which makes
    rids -- and the ``R<id>_*`` labels derived from them -- a pure
    function of the program, not of how many compilations the process
    happened to run before (golden stats and cached results rely on
    that).  When omitted, a fresh per-call counter is used."""
    if ids is None:
        ids = itertools.count(1)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("baseline", "ilp") or n_cores < 2:
        return []

    regions: List[Region] = []
    loops = find_loops(function)
    loop_body_labels: Set[str] = set()
    for loop in loops:
        loop_body_labels.update(loop.blocks)
    dswp_partitioner = DswpPartitioner(program, n_cores)

    for loop in loops:
        if not loop.is_single_block:
            continue
        block = function.block(loop.header)
        if not _block_eligible_for_region(block):
            continue
        # Canonical shape: the latch branch takes the back edge and falls
        # through to the unique exit.
        if block.taken != loop.header or loop.exit is None:
            continue
        if profile.block_count(function.name, loop.header) < MIN_BLOCK_EXECUTIONS:
            continue

        if strategy in ("llp", "hybrid"):
            doall = plan_doall(function, loop, profile, n_cores)
            if doall is not None:
                regions.append(
                    Region(
                        rid=next(ids),
                        strategy="doall",
                        function=function.name,
                        block=loop.header,
                        loop=loop,
                        doall=doall,
                    )
                )
                continue
        if strategy == "llp":
            continue

        # Fine-grain TLP: DSWP first, then miss-driven strands.
        if any(op.opcode is Opcode.CALL for op in block.ops):
            dswp = None  # a call would serialize the pipeline every iteration
        else:
            body_ops, _latch, _replicate = split_loop_latch(block, loop)
            replicated = (
                {loop.induction.reg} if loop.induction is not None else set()
            )
            dswp = dswp_partitioner.partition(
                body_ops, replicated_regs=replicated
            )
        if dswp is not None and dswp.estimated_speedup > DSWP_SPEEDUP_THRESHOLD:
            regions.append(
                Region(
                    rid=next(ids),
                    strategy="dswp",
                    function=function.name,
                    block=loop.header,
                    loop=loop,
                    dswp=dswp,
                )
            )
            continue

        miss_fraction = estimated_miss_fraction(function, block, profile)
        threshold = MISS_FRACTION_THRESHOLD
        has_call = any(op.opcode is Opcode.CALL for op in block.ops)
        _body, _latch, latch_replicable = split_loop_latch(block, loop)
        if strategy == "hybrid":
            if has_call:
                # A call inside a decoupled region costs a full barrier
                # per iteration; coupled mode handles it for free.
                continue
            if not latch_replicable:
                # The predicate round trip (2+hops cycles per iteration)
                # must be paid for by substantially more overlapped misses.
                threshold *= 2.5
        if strategy == "tlp" or miss_fraction > threshold:
            regions.append(
                Region(
                    rid=next(ids),
                    strategy="strand",
                    function=function.name,
                    block=loop.header,
                    loop=loop,
                )
            )

    if strategy in ("tlp", "hybrid"):
        claimed = {region.block for region in regions}
        for block in function.ordered_blocks():
            if block.label in claimed or block.label in loop_body_labels:
                continue
            if not _block_eligible_for_region(block):
                continue
            if block.taken is not None or block.fall is None:
                continue  # strand blocks must be straight fall-through
            if len(block.non_control_ops()) < MIN_STRAND_OPS:
                continue
            if (
                profile.block_count(function.name, block.label)
                < MIN_BLOCK_EXECUTIONS
            ):
                continue
            miss_fraction = estimated_miss_fraction(function, block, profile)
            if miss_fraction > MISS_FRACTION_THRESHOLD:
                regions.append(
                    Region(
                        rid=next(ids),
                        strategy="strand_block",
                        function=function.name,
                        block=block.label,
                    )
                )
    return regions
