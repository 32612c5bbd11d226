"""Differential lockdown for the stall fast-forwarding kernel.

The simulator's fast path (pre-decoded dispatch plus stall fast-forward,
see ``repro.sim.machine``) claims to be an *exact* acceleration: jumping
the clock over a proven stall window must leave every statistic -- cycle
counts, per-category stalls, mode residency, block attribution, network
tallies -- bit-identical to stepping each cycle.  This suite enforces
that claim over the entire workload suite at every (cores, strategy)
cell the figures use, comparing full ``MachineStats.to_dict()`` payloads
and the final memory image between a fast-forwarding run and a
single-stepping run of the same compiled program.

The clustered leg runs fault-free on a 16-core mesh and a 32-core
directory mesh with Virtual-Link queues, where the whole machine steps as
one lock-step ensemble across stall-bus clusters, and on the two
barrier-heavy cells where most decoupled core-cycles are spent asleep at
call and mode barriers.

The faulted leg holds fault plans to the same bar: timing, destructive
and mixed plans on the 4-core machine and on a clustered mesh16, where
each window must also stop at the next stall-bus or blackout fire and at
the recovery layer's next action.  Its DOALL cells (llp, hybrid) spawn
listening cores; two benchmarks add their tlp cells, whose pipelines
stall on full queues (send back-pressure, released at the next arrival
under the link layer).  Plan seeds derive from
``CHAOS_SEED`` (see ``test_prop_chaos.py``), so CI's randomized seed
widens this leg too.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.arch import mesh
from repro.arch.config import resolve_machine
from repro.compiler import VoltronCompiler
from repro.sim import FaultConfig, FaultPlan, VoltronMachine
from repro.workloads.suite import BENCHMARKS, build

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1"))

#: The figure matrix: serial baseline plus every parallel strategy at the
#: paper's two machine sizes, Figure 13's hybrid (mixed coupled and
#: decoupled regions) included.
CELLS = [(1, "baseline")] + [
    (n_cores, strategy)
    for n_cores in (2, 4)
    for strategy in ("ilp", "tlp", "llp", "hybrid")
]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_fast_forward_is_bit_identical(name):
    bench = build(name)
    compiler = VoltronCompiler(bench.program)  # one profile for all cells
    for n_cores, strategy in CELLS:
        config = mesh(1) if n_cores == 1 else mesh(n_cores)
        compiled = compiler.compile(strategy, config)
        fast_machine = VoltronMachine(compiled, config, fast_forward=True)
        fast = fast_machine.run().to_dict()
        slow_machine = VoltronMachine(compiled, config, fast_forward=False)
        slow = slow_machine.run().to_dict()
        assert fast == slow, (
            f"{name} [{n_cores}-core {strategy}]: fast-forwarded stats "
            "diverged from single-stepped stats"
        )
        assert fast_machine.final_memory() == slow_machine.final_memory(), (
            f"{name} [{n_cores}-core {strategy}]: fast-forwarded memory "
            "image diverged from single-stepped memory image"
        )


# -- the clustered leg -----------------------------------------------------------

def _vlink(name):
    config = resolve_machine(name)
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, queue_policy="vlink"),
    )


CLUSTERED_BENCHES = ("rawcaudio", "epic", "171.swim")

#: Meshes past one stall-bus group: the whole machine steps as one
#: lock-step ensemble and every new stall episode pays the cross-cluster
#: penalty, which the window code charges before it reads any stall.
CLUSTERED_MACHINES = (("mesh16", resolve_machine("mesh16")),
                      ("mesh32-directory/vlink", _vlink("mesh32-directory")))


@pytest.mark.parametrize("name", CLUSTERED_BENCHES)
def test_fast_forward_is_bit_identical_on_clustered_meshes(name):
    compiler = VoltronCompiler(build(name).program)
    for machine_name, config in CLUSTERED_MACHINES:
        for strategy in ("ilp", "hybrid"):
            compiled = compiler.compile(strategy, config)
            fast = VoltronMachine(compiled, config, fast_forward=True)
            slow = VoltronMachine(compiled, config, fast_forward=False)
            cell = f"{name} [{machine_name} {strategy}]"
            assert fast.run().to_dict() == slow.run().to_dict(), (
                f"{cell}: fast-forwarded stats diverged from single-stepped "
                "stats"
            )
            assert fast.final_memory() == slow.final_memory(), (
                f"{cell}: fast-forwarded memory image diverged"
            )


#: (benchmark, machine, strategy) cells whose decoupled cores mostly wait
#: at call and mode barriers: 852k barrier core-cycles in epic's 17k
#: cycles on 64 cores, 276k barrier and call_sync ones in 197.parser's 21k
#: on 32.
BARRIER_CELLS = (("epic", "mesh64-snoop", "hybrid"),
                 ("197.parser", "mesh32-directory", "tlp"))


@pytest.mark.parametrize("name,machine_name,strategy", BARRIER_CELLS)
def test_fast_forward_is_bit_identical_on_barrier_heavy_cells(
    name, machine_name, strategy
):
    config = resolve_machine(machine_name)
    compiled = VoltronCompiler(build(name).program).compile(strategy, config)
    fast = VoltronMachine(compiled, config, fast_forward=True)
    slow = VoltronMachine(compiled, config, fast_forward=False)
    stats = fast.run()
    assert stats.to_dict() == slow.run().to_dict(), (
        f"{name} [{machine_name} {strategy}]: fast-forwarded stats diverged "
        "from single-stepped stats"
    )
    assert fast.final_memory() == slow.final_memory()
    assert sum(core.stalls["barrier"] for core in stats.cores) > stats.cycles


# -- the faulted leg -------------------------------------------------------------

FAULTED_BENCHES = ("052.alvinn", "171.swim", "179.art", "epic", "gsmdecode")
#: The strategies each faulted benchmark runs: tlp where its pipeline
#: stalls on send back-pressure.
FAULTED_STRATEGIES = {
    name: ("llp", "hybrid", "tlp") if name in ("179.art", "epic")
    else ("llp", "hybrid")
    for name in FAULTED_BENCHES
}

#: One plan per profile; rates dense enough that the stall-bus and
#: blackout channels fire inside stall windows on these cells.
FAULT_PROFILES = {
    "timing": dict(rate=0.005, tm_rate=0.25),
    "destructive": dict(
        corrupt_rate=0.05, drop_rate=0.05, blackout_rate=0.0005
    ),
    "both": dict(
        rate=0.005, tm_rate=0.25, corrupt_rate=0.05, drop_rate=0.05,
        blackout_rate=0.0005,
    ),
}


FAULTED_MACHINES = (("four", resolve_machine("four")),
                    ("mesh16-directory/vlink", _vlink("mesh16-directory")))


def _faulted_pair(compiled, config, fault_config, obs=None):
    """Run one cell under the same plan with fast-forward on and off;
    return both (machine, plan) pairs."""
    runs = []
    for fast_forward in (True, False):
        plan = FaultPlan(fault_config)
        machine = VoltronMachine(
            compiled, config, fast_forward=fast_forward, faults=plan,
            obs=obs if fast_forward else None,
        )
        machine.run()
        runs.append((machine, plan))
    return runs


def _assert_identical(runs, cell):
    (fast, fast_plan), (slow, slow_plan) = runs
    assert fast.stats.to_dict() == slow.stats.to_dict(), (
        f"{cell}: fast-forwarded stats diverged from single-stepped stats"
    )
    assert fast.final_memory() == slow.final_memory(), (
        f"{cell}: fast-forwarded memory image diverged"
    )
    assert fast_plan.summary() == slow_plan.summary(), (
        f"{cell}: fast-forwarding changed the fault schedule"
    )
    assert fast.stats.recovery == slow.stats.recovery, (
        f"{cell}: fast-forwarding changed the recovery counters"
    )


@pytest.mark.parametrize("name", FAULTED_BENCHES)
def test_fast_forward_is_bit_identical_under_faults(name):
    compiler = VoltronCompiler(build(name).program)
    blackouts = stall_holds = 0
    for machine_name, config in FAULTED_MACHINES:
        for strategy in FAULTED_STRATEGIES[name]:
            compiled = compiler.compile(strategy, config)
            for offset, (profile, knobs) in enumerate(FAULT_PROFILES.items()):
                fault_config = FaultConfig(
                    seed=CHAOS_SEED + offset, profile=profile, **knobs
                )
                runs = _faulted_pair(compiled, config, fault_config)
                _assert_identical(
                    runs,
                    f"{name} [{machine_name} {strategy}] {profile} "
                    f"seed={fault_config.seed}",
                )
                summary = runs[0][1].summary()
                blackouts += summary["blackout"]
                stall_holds += summary["stall_bus"]
    assert stall_holds > 0, f"{name}: the stall bus never fired"
    if name in ("052.alvinn", "171.swim"):  # long DOALL chunks
        assert blackouts > 0, f"{name}: no core ever blacked out"


class _StallBusAfterWindow:
    """Counts stall-bus fires landing on the cycle a fast-forward window
    ended at: the window was capped at the fire, and the next window
    attempt opens on the cycle the stall bus is asserted."""

    def __init__(self):
        self.ends = set()
        self.hits = 0

    def attach(self, machine):
        self.machine = machine

    def fast_forward_window(self, start, end):
        self.ends.add(end)

    def fault(self, channel, delay):
        if channel == "stall_bus" and self.machine.cycle in self.ends:
            self.hits += 1


def test_stall_bus_fire_opening_a_clustered_window():
    """On a clustered mesh the window classifier charges the
    cross-cluster stall penalty before it knows the window's length.  A
    stall-bus hold asserted on that cycle must come first (single-stepping
    applies ``block_until(cycle + hold)`` and then the penalty, and the
    two do not commute), so the kernel declines the window before
    touching the penalty.  Pinned cell: the hazard occurs and the runs
    stay identical."""
    _, config = FAULTED_MACHINES[1]
    compiled = VoltronCompiler(build("rawcaudio").program).compile(
        "ilp", config
    )
    witness = _StallBusAfterWindow()
    runs = _faulted_pair(
        compiled, config, FaultConfig(seed=1, profile="timing"), obs=witness
    )
    assert witness.hits > 0
    _assert_identical(runs, "rawcaudio [mesh16-directory/vlink ilp] timing")
