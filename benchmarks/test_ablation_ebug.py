"""Ablation: eBUG's three decoupled-mode factors (paper Section 4.1).

eBUG extends BUG with (1) heavy weights keeping likely-missing loads with
their consumers, (2) weights keeping dependent memory ops together, and
(3) a memory-balancing penalty that spreads independent streams so their
misses overlap.  Zeroing those terms reduces eBUG to plain BUG-for-
decoupled-mode; this ablation measures what that costs on the
miss-dominated 179.art.
"""

import pytest

from repro.arch.config import mesh
from repro.compiler import VoltronCompiler
from repro.compiler.partition.ebug import EBugPartitioner
from repro.sim import VoltronMachine
from repro.workloads.suite import build


def _tlp_cycles(program):
    config = mesh(4)
    compiled = VoltronCompiler(program).compile("tlp", config)
    machine = VoltronMachine(compiled, config, max_cycles=30_000_000)
    return machine.run().cycles


def test_ablation_ebug_weights(benchmark):
    bench = build("179.art")
    baseline = VoltronMachine(
        VoltronCompiler(bench.program).compile("baseline", mesh(1)),
        mesh(1),
    ).run().cycles

    with_weights = _tlp_cycles(bench.program)

    saved = (
        EBugPartitioner.miss_edge_weight,
        EBugPartitioner.memory_dep_weight,
        EBugPartitioner.memory_balance_penalty,
    )
    try:
        EBugPartitioner.miss_edge_weight = 0.0
        EBugPartitioner.memory_dep_weight = 0.0
        EBugPartitioner.memory_balance_penalty = 0.0
        without_weights = _tlp_cycles(bench.program)
    finally:
        (
            EBugPartitioner.miss_edge_weight,
            EBugPartitioner.memory_dep_weight,
            EBugPartitioner.memory_balance_penalty,
        ) = saved

    speedup_with = baseline / with_weights
    speedup_without = baseline / without_weights
    print()
    print("Ablation: eBUG weights on 179.art (4-core fine-grain TLP)")
    print(f"  full eBUG:              speedup {speedup_with:.2f}")
    print(f"  weights zeroed (=BUG):  speedup {speedup_without:.2f}")

    # The weights must not hurt, and on a miss-dominated benchmark they
    # should pay for themselves.
    assert speedup_with >= speedup_without - 0.02
    benchmark.pedantic(
        lambda: _tlp_cycles(bench.program),
        rounds=1, iterations=1, warmup_rounds=0,
    )
