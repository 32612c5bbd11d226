"""Scaled-mesh properties: snooping and directory coherence must be
architecturally indistinguishable (bit-identical final memory, clean
voltlint and race-sanitizer reports) on 16- and 32-core meshes, and at
least one benchmark must reach a 16-core speedup the paper's 4-core
machine cannot.

A sampled slice runs here; CI's large-mesh smoke leg and the full
25-benchmark differential matrix cover the rest.
"""

import dataclasses

import pytest

from repro.analysis import RaceSanitizer, verify_compiled
from repro.arch.config import mesh, single_core
from repro.compiler.driver import VoltronCompiler
from repro.sim.caches import DirectoryCoherence
from repro.sim.machine import VoltronMachine
from repro.workloads.suite import build

#: Region-flavour coverage at sampled size: ILP-heavy, queue-heavy TLP,
#: DOALL-carrying LLP, and a hybrid mix.
SAMPLE = ("rawcaudio", "epic", "gsmdecode", "171.swim")

STRATEGIES = ("ilp", "tlp", "llp", "hybrid")


def _directory(config):
    return dataclasses.replace(config, coherence="directory")


def _queue_policy(config, queue_policy):
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, queue_policy=queue_policy),
    )


@pytest.mark.parametrize("bench_name", SAMPLE)
@pytest.mark.parametrize("n_cores", (16, 32))
def test_snoop_directory_bit_identical(bench_name, n_cores):
    bench = build(bench_name)
    compiler = VoltronCompiler(bench.program)
    config = mesh(n_cores)
    for strategy in STRATEGIES:
        compiled = compiler.compile(strategy, config)
        snoop = VoltronMachine(compiled, config)
        snoop.run()
        directory = VoltronMachine(compiled, _directory(config))
        assert isinstance(directory.bus, DirectoryCoherence)
        directory.run()
        assert snoop.final_memory() == directory.final_memory(), (
            f"{bench_name}/{strategy}: protocols disagree on memory"
        )
        directory.bus.check_directory()


@pytest.mark.parametrize("bench_name", SAMPLE)
@pytest.mark.parametrize("n_cores", (16, 32))
def test_large_mesh_cells_verify_clean(bench_name, n_cores):
    """voltlint over every strategy at scale; the race sanitizer over
    the communication-heavy strategies (tlp exercises decoupled queues,
    hybrid both modes, llp SPAWN/LISTEN and TM commits) under both queue
    policies -- the sanitizer matches each message by its network
    sequence number, so the vlink shared pool must not confuse it."""
    bench = build(bench_name)
    compiler = VoltronCompiler(bench.program)
    for queue_policy in ("pair", "vlink"):
        config = _queue_policy(mesh(n_cores), queue_policy)
        for strategy in STRATEGIES:
            compiled = compiler.compile(strategy, config)
            report = verify_compiled(compiled, config)
            where = f"{bench_name}/{strategy}/{queue_policy}"
            assert report.ok, f"{where}: {report.render()}"
            if strategy in ("tlp", "hybrid", "llp"):
                sanitizer = RaceSanitizer()
                VoltronMachine(compiled, config, obs=sanitizer).run()
                assert not sanitizer.findings, (
                    f"{where}: {[f.render() for f in sanitizer.findings]}"
                )


def test_vlink_queues_preserve_semantics_at_scale():
    """The Virtual-Link pool is a timing change only: same final memory
    as per-pair queues, voltlint clean under the relaxed channel rules."""
    bench = build("epic")
    config = mesh(16)
    vlink = _queue_policy(config, "vlink")
    compiled = VoltronCompiler(bench.program).compile("tlp", config)
    assert verify_compiled(compiled, vlink).ok
    pair_machine = VoltronMachine(compiled, config)
    pair_machine.run()
    vlink_machine = VoltronMachine(compiled, vlink)
    vlink_machine.run()
    assert pair_machine.final_memory() == vlink_machine.final_memory()


def test_sixteen_cores_beat_the_paper_grid():
    """The scaling headline: a benchmark whose 16-core speedup exceeds
    anything the paper's 4-core machine reaches under any strategy."""
    bench = build("epic")
    compiler = VoltronCompiler(bench.program)
    baseline = VoltronMachine(
        compiler.compile("baseline", single_core()), single_core()
    )
    serial = baseline.run().cycles

    def speedup(n_cores, strategy):
        config = mesh(n_cores)
        machine = VoltronMachine(compiler.compile(strategy, config), config)
        return serial / machine.run().cycles

    best_at_4 = max(speedup(4, s) for s in STRATEGIES)
    assert speedup(16, "tlp") > best_at_4
