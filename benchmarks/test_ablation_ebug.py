"""Ablation: eBUG's three decoupled-mode factors (paper Section 4.1).

eBUG extends BUG with (1) heavy weights keeping likely-missing loads with
their consumers, (2) weights keeping dependent memory ops together, and
(3) a memory-balancing penalty that spreads independent streams so their
misses overlap.  Zeroing those terms reduces eBUG to plain BUG-for-
decoupled-mode; this ablation measures what that costs over the whole
suite at 2-core fine-grain TLP, where the weights reshape most
partitions.  At 4 cores they move only a few cells, not all of them for
the better, so those cells are printed and not asserted.
"""

from statistics import geometric_mean

from repro.arch.config import mesh
from repro.compiler import VoltronCompiler
from repro.compiler.partition.ebug import EBugPartitioner
from repro.sim import VoltronMachine
from repro.workloads.suite import BENCHMARKS, build

#: The eBUG terms that plain BUG lacks.
WEIGHTS = ("miss_edge_weight", "memory_dep_weight", "memory_balance_penalty")


def _cycles(compiler, strategy, config):
    compiled = compiler.compile(strategy, config)
    return VoltronMachine(compiled, config, max_cycles=30_000_000).run().cycles


def _tlp_sweep(compilers, config, monkeypatch):
    """TLP cycles per benchmark with the weights, then with them zeroed."""
    full = {name: _cycles(c, "tlp", config) for name, c in compilers.items()}
    with monkeypatch.context() as patch:
        for weight in WEIGHTS:
            patch.setattr(EBugPartitioner, weight, 0.0)
        bug = {name: _cycles(c, "tlp", config) for name, c in compilers.items()}
    return full, bug


def _moved(full, bug):
    return [name for name in full if full[name] != bug[name]]


def test_ablation_ebug_weights(benchmark, monkeypatch):
    compilers = {name: VoltronCompiler(build(name).program) for name in BENCHMARKS}
    baseline = {
        name: _cycles(compiler, "baseline", mesh(1))
        for name, compiler in compilers.items()
    }
    full, bug = _tlp_sweep(compilers, mesh(2), monkeypatch)
    moved = _moved(full, bug)
    speedup_full = geometric_mean([baseline[n] / full[n] for n in BENCHMARKS])
    speedup_bug = geometric_mean([baseline[n] / bug[n] for n in BENCHMARKS])
    print()
    print("Ablation: eBUG weights over the suite (2-core fine-grain TLP)")
    for name in moved:
        print(f"  {name:12s} full eBUG {full[name]:7d}  weights zeroed {bug[name]:7d}")
    print(f"  {len(moved)} of {len(BENCHMARKS)} cells move")
    print(f"  geomean speedup: full eBUG {speedup_full:.4f}, "
          f"weights zeroed (=BUG) {speedup_bug:.4f}")

    # The weights never cost a cell, they reshape some partition, and
    # over the suite they pay for themselves.
    assert [name for name in moved if full[name] > bug[name]] == []
    assert moved
    assert speedup_full > speedup_bug

    full4, bug4 = _tlp_sweep(compilers, mesh(4), monkeypatch)
    print("4-core fine-grain TLP cells that move (not asserted):")
    for name in _moved(full4, bug4):
        print(f"  {name:12s} full eBUG {full4[name]:7d}  weights zeroed {bug4[name]:7d}")
    benchmark.pedantic(
        lambda: _cycles(compilers["052.alvinn"], "tlp", mesh(2)),
        rounds=1, iterations=1, warmup_rounds=0,
    )
