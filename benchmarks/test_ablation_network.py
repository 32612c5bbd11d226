"""Ablation: the scalar operand network's latency is load-bearing.

The paper's motivation (Sections 1-2): conventional multicores
communicate operands *through memory*, which is far too slow for
fine-grain TLP.  This ablation re-runs decoupled fine-grain TLP with the
queue-mode network slowed to memory-like latency and shows the speedup
collapsing -- i.e. Voltron's gains come from the network, not merely
from having more cores.
"""

import dataclasses

import pytest

from repro.arch.config import MachineConfig, NetworkConfig, mesh
from repro.compiler import VoltronCompiler
from repro.sim import VoltronMachine
from repro.workloads.suite import build

#: Memory-like operand transport: dozens of cycles to move one value,
#: approximating communication through a shared cache line.  A value
#: lands 20 + 2/hop cycles after its SEND, and the RECV's own issue
#: cycle makes it 21 + 2/hop.
SLOW_NETWORK = NetworkConfig(
    queue_entry_cycles=20,
    queue_cycles_per_hop=2,
    queue_depth=16,
)


def _tlp_cycles(bench, network=None):
    config = mesh(4)
    if network is not None:
        config = dataclasses.replace(config, network=network)
    compiler = VoltronCompiler(bench.program)
    compiled = compiler.compile("tlp", config)
    machine = VoltronMachine(compiled, config, max_cycles=30_000_000)
    return machine.run().cycles


def test_ablation_queue_network_latency(benchmark):
    bench = build("164.gzip")  # its match loop communicates every iteration
    compiler = VoltronCompiler(bench.program)
    baseline = VoltronMachine(
        compiler.compile("baseline", mesh(1)), mesh(1)
    ).run().cycles

    fast = _tlp_cycles(bench)
    slow = _tlp_cycles(bench, SLOW_NETWORK)
    fast_speedup = baseline / fast
    slow_speedup = baseline / slow
    print()
    print("Ablation: queue-mode operand network latency (164.gzip, 4-core TLP)")
    print(f"  paper-network  (2 + hops cycles): speedup {fast_speedup:.2f}")
    print(f"  memory-like    (21 + 2/hop):      speedup {slow_speedup:.2f}")

    assert fast_speedup > 1.2  # the network enables fine-grain TLP...
    assert slow_speedup < fast_speedup - 0.2  # ...and slowing it hurts
    benchmark.pedantic(
        lambda: _tlp_cycles(bench), rounds=1, iterations=1, warmup_rounds=0
    )
