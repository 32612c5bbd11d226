"""The probe contract (repro.sim.probe): a consumer implementing any
subset of the events runs every cell, changes nothing, and the sites
together emit every event of the vocabulary."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.api import compile_benchmark
from repro.arch.config import mesh, resolve_machine
from repro.compiler import VoltronCompiler
from repro.sim import VoltronMachine
from repro.sim.faults import FaultConfig, FaultPlan
from repro.sim.probe import EVENTS
from repro.workloads.suite import build


class _FiveEvents:
    """The performance ledger's fast-forward probe: attach plus four
    machine-level events, nothing else."""

    def __init__(self):
        self.ff_cycles = 0

    def attach(self, machine):
        pass

    def cycle(self, cycle):
        pass

    def mode_switch(self, cycle, old, new):
        pass

    def fast_forward_window(self, start, end):
        self.ff_cycles += end - start

    def finalize(self, machine):
        pass


class _EveryEvent:
    """Implements every event of the vocabulary; counts each kind."""

    def __init__(self):
        self.kinds = Counter()

    def __getattr__(self, name):
        if name not in EVENTS:
            raise AttributeError(name)
        return lambda *args: self.kinds.update((name,))


def _vlink(config):
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, queue_policy="vlink"),
    )


def _llp():
    return compile_benchmark("052.alvinn", 4, "llp"), mesh(4), None


def _chaos():
    faults = FaultPlan(FaultConfig(seed=3, profile="both"))
    return compile_benchmark("171.swim", 4, "llp"), mesh(4), faults


def _mesh16_directory_vlink():
    config = _vlink(resolve_machine("mesh16-directory"))
    compiled = VoltronCompiler(build("epic").program).compile("tlp", config)
    return compiled, config, None


CELLS = {
    "llp": _llp,
    "chaos": _chaos,
    "mesh16-directory-vlink": _mesh16_directory_vlink,
}


def _run(cell, obs=None):
    compiled, config, faults = CELLS[cell]()
    machine = VoltronMachine(compiled, config, faults=faults, obs=obs)
    machine.run()
    return machine


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_partial_consumer_runs_bit_identical(cell):
    plain = _run(cell)
    probe = _FiveEvents()
    observed = _run(cell, probe)
    assert observed.stats.to_dict() == plain.stats.to_dict()
    assert observed.final_memory() == plain.final_memory()
    if plain.faults is None:
        assert probe.ff_cycles > 0


def test_every_event_fires_across_the_cells():
    seen = Counter()
    for cell in CELLS:
        plain = _run(cell)
        consumer = _EveryEvent()
        observed = _run(cell, consumer)
        assert observed.stats.to_dict() == plain.stats.to_dict()
        seen.update(consumer.kinds)
    assert set(seen) == set(EVENTS), sorted(set(EVENTS) - set(seen))
