"""Chaos-differential suite: fault injection perturbs timing, never results.

For every benchmark and every machine/strategy cell, a run under a
randomized fault plan -- extra cache/memory latency, delayed queue-mode
deliveries, transient stall-bus assertions, spurious TM conflicts -- must
leave *final memory bit-identical* to the fault-free golden run, and the
commit count must still equal the chunk count (injected conflicts raise
``aborts``; every chunk still commits exactly once).

The destructive profile raises the stakes: payloads are corrupted in
flight, messages are dropped in the router, and cores black out
mid-chunk with their registers poisoned.  The same bit-identity bar
applies -- the recovery subsystem (CRC/retransmit, watchdog +
checkpoint rollback, graceful degradation) must repair every injection,
and its counters must account for every destructive channel fire.

Cells are expressed as machine specs (``resolve_machine``/presets), so
the same contract runs against every machine shape: the paper's 1-4
core grid below, and the scaled 16-64-core meshes -- under both
coherence protocols and both receive-queue policies -- in the scale
matrix at the bottom.

The plan seeds derive from the ``CHAOS_SEED`` environment variable (CI
randomizes it and echoes the value, so any failure is replayable with
``CHAOS_SEED=<n> pytest tests/properties/test_prop_chaos.py``).
"""

import dataclasses
import os

import pytest

from repro.arch.config import resolve_machine
from repro.compiler import VoltronCompiler
from repro.sim import FaultConfig, FaultPlan, VoltronMachine
from repro.sim.caches import DirectoryCoherence
from repro.sim.recovery import REMAP_HOPS_PREFIX
from repro.workloads.suite import BENCHMARKS, build

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1"))

#: Same cell grid the fast-path differential suite locks down, spelled
#: as machine specs (the presets resolve to the exact configs the old
#: hardcoded mesh(1)/mesh() cells built).
CELLS = [("single", "baseline")] + [
    (machine, s) for machine in ("two", "four") for s in ("ilp", "tlp", "llp")
]

#: Sparse enough to finish quickly, dense enough that every channel fires
#: on every benchmark (verified by the injections() assertions below).
CHAOS_CONFIGS = [
    FaultConfig(seed=CHAOS_SEED, rate=0.002, tm_rate=0.5),
    FaultConfig(seed=CHAOS_SEED + 1, rate=0.005, tm_rate=0.25),
]

#: Destructive plans: corrupted payloads, dropped messages, blackouts.
#: The tiny retransmit budget on the second plan forces the reliable
#: fallback path; blackouts only fire on multi-core speculative cells.
DESTRUCTIVE_CONFIGS = [
    FaultConfig(
        seed=CHAOS_SEED + 2, profile="destructive",
        corrupt_rate=0.05, drop_rate=0.05, blackout_rate=0.0005,
    ),
    FaultConfig(
        seed=CHAOS_SEED + 3, profile="both", rate=0.002, tm_rate=0.25,
        corrupt_rate=0.1, drop_rate=0.1, blackout_rate=0.001,
        retransmit_budget=1, blackout_budget=1,
    ),
]


def _cell_config(machine):
    return resolve_machine(machine)


def _assert_destructive_recovered(machine, golden, golden_stats, stats,
                                  plan, cell):
    """The full destructive-chaos contract for one cell: bit-identity,
    exact fire <-> detection matching, a clean directory, and zero
    flow-control credit leaks."""
    assert machine.final_memory() == golden.final_memory(), (
        f"{cell}: recovery failed to restore bit-identical memory"
    )
    assert stats.tx_commits == golden_stats.tx_commits, (
        f"{cell}: commit count changed under destructive faults"
    )
    # Every destructive channel fire is accounted for by exactly one
    # detection: corrupt -> CRC error, drop -> timer expiry, blackout ->
    # watchdog rollback.
    summary = plan.summary()
    counters = machine.recovery.counters
    assert counters["crc_errors"] == summary["corrupt"], cell
    assert counters["drops"] == summary["drop"], cell
    assert counters["blackouts"] == summary["blackout"], cell
    assert counters["retransmits"] == (
        summary["corrupt"] + summary["drop"]
    ), cell
    assert counters["watchdog_detections"] == counters["blackouts"], cell
    assert counters["chunk_rollbacks"] == counters["blackouts"], cell
    # The remap-distance histogram partitions the remap count.
    histogram_total = sum(
        value for key, value in counters.items()
        if key.startswith(REMAP_HOPS_PREFIX)
    )
    assert histogram_total == counters["chunks_remapped"], cell
    if isinstance(machine.bus, DirectoryCoherence):
        # Every watchdog recovery scrubbed the dead core out of the
        # sharer vectors, and the directory still mirrors the L1s.
        assert counters["directory_scrubs"] == (
            counters["watchdog_detections"]
        ), cell
        machine.bus.check_directory()
    else:
        assert counters["directory_scrubs"] == 0, cell
    # Reliable delivery repaired every drop: nothing in flight, nothing
    # unread, and every flow-control credit (including vlink pool and
    # reserved slots) returned.
    assert machine.network.quiescent(), f"{cell}: network not quiescent"
    assert machine.network.credits_balanced(), (
        f"{cell}: flow-control credits leaked"
    )


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_faults_never_change_architectural_state(name):
    bench = build(name)
    compiler = VoltronCompiler(bench.program)
    for machine_spec, strategy in CELLS:
        config = _cell_config(machine_spec)
        compiled = compiler.compile(strategy, config)
        golden = VoltronMachine(compiled, config)
        golden_stats = golden.run()
        golden_memory = golden.final_memory()
        for fault_config in CHAOS_CONFIGS:
            plan = FaultPlan(fault_config)
            machine = VoltronMachine(compiled, config, faults=plan)
            stats = machine.run()
            cell = f"{name} [{machine_spec} {strategy}] seed={fault_config.seed}"
            assert plan.injections() > 0, f"{cell}: plan never fired"
            assert machine.final_memory() == golden_memory, (
                f"{cell}: final memory diverged from the fault-free run"
            )
            # Ordered commit under injection: aborted chunks re-execute
            # and commit, so the commit count never moves.
            assert stats.tx_commits == golden_stats.tx_commits, (
                f"{cell}: commit count changed under fault injection"
            )
            assert stats.tx_aborts >= golden_stats.tx_aborts, (
                f"{cell}: aborts cannot be fewer than the fault-free run"
            )


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_destructive_faults_are_fully_recovered(name):
    bench = build(name)
    compiler = VoltronCompiler(bench.program)
    for machine_spec, strategy in CELLS:
        config = _cell_config(machine_spec)
        compiled = compiler.compile(strategy, config)
        golden = VoltronMachine(compiled, config)
        golden_stats = golden.run()
        for fault_config in DESTRUCTIVE_CONFIGS:
            plan = FaultPlan(fault_config)
            machine = VoltronMachine(compiled, config, faults=plan)
            stats = machine.run()
            cell = f"{name} [{machine_spec} {strategy}] seed={fault_config.seed}"
            _assert_destructive_recovered(
                machine, golden, golden_stats, stats, plan, cell
            )


# -- the scale matrix: 16-64 cores x coherence x queue policy -------------------

#: Every PR 8 machine shape: mesh16/32/64 x {snoop, directory} x
#: {per-pair, vlink}.  The benchmarks split the load: 171.swim/llp
#: carries speculative DOALL chunks (blackouts, watchdog recovery,
#: directory scrubs, remaps on holey meshes), epic/tlp is queue-heavy
#: (the link layer and the vlink pool under sustained pressure).
SCALE_MACHINES = [
    (f"mesh{size}-{coherence}", policy)
    for size in (16, 32, 64)
    for coherence in ("snoop", "directory")
    for policy in ("pair", "vlink")
]

SCALE_BENCHES = (("171.swim", "llp"), ("epic", "tlp"))


def _scale_config(preset_name, policy):
    config = resolve_machine(preset_name)
    if policy != config.network.queue_policy:
        config = dataclasses.replace(
            config,
            network=dataclasses.replace(config.network, queue_policy=policy),
        )
    return config


@pytest.mark.parametrize("preset_name,policy", SCALE_MACHINES)
def test_destructive_chaos_at_scale(preset_name, policy):
    config = _scale_config(preset_name, policy)
    fault_config = dataclasses.replace(
        DESTRUCTIVE_CONFIGS[0], seed=CHAOS_SEED + 4
    )
    speculated = False
    for name, strategy in SCALE_BENCHES:
        bench = build(name)
        compiled = VoltronCompiler(bench.program).compile(strategy, config)
        golden = VoltronMachine(compiled, config)
        golden_stats = golden.run()
        plan = FaultPlan(fault_config)
        machine = VoltronMachine(compiled, config, faults=plan)
        stats = machine.run()
        cell = f"{name} [{preset_name}/{policy} {strategy}]"
        assert plan.summary()["corrupt"] + plan.summary()["drop"] > 0, (
            f"{cell}: the link-layer channels never fired"
        )
        _assert_destructive_recovered(
            machine, golden, golden_stats, stats, plan, cell
        )
        speculated = speculated or golden_stats.tx_commits > 0
    assert speculated, f"{preset_name}: no scale cell ever speculated"


def test_both_profile_composes_with_scale_channels():
    """profile=both on a mesh32 directory/vlink machine: the new
    directory-latency and vlink pool-contention channels fire alongside
    the destructive ones, and the differential still holds."""
    config = _scale_config("mesh32-directory", "vlink")
    bench = build("171.swim")
    compiled = VoltronCompiler(bench.program).compile("llp", config)
    golden = VoltronMachine(compiled, config)
    golden_stats = golden.run()
    plan = FaultPlan(FaultConfig(
        seed=CHAOS_SEED + 5, profile="both", rate=0.02, tm_rate=0.25,
        corrupt_rate=0.05, drop_rate=0.05, blackout_rate=0.0005,
    ))
    machine = VoltronMachine(compiled, config, faults=plan)
    stats = machine.run()
    summary = plan.summary()
    assert summary["directory"] > 0, "directory-latency channel never fired"
    assert summary["vlink"] > 0, "vlink pool-contention channel never fired"
    _assert_destructive_recovered(
        machine, golden, golden_stats, stats, plan,
        "171.swim [mesh32-directory/vlink llp both]",
    )


def test_injected_tm_conflicts_raise_aborts_not_commits():
    """171.swim's DOALL regions commit real chunks; with tm_rate=1 every
    first commit attempt is aborted, yet commits still equal chunk count
    and memory is untouched (the livelock guard guarantees progress)."""
    bench = build("171.swim")
    config = resolve_machine("four")
    compiled = VoltronCompiler(bench.program).compile("llp", config)
    golden = VoltronMachine(compiled, config)
    golden_stats = golden.run()
    assert golden_stats.tx_commits > 0  # the cell actually speculates

    plan = FaultPlan(FaultConfig(seed=CHAOS_SEED, rate=0.0, tm_rate=1.0))
    machine = VoltronMachine(compiled, config, faults=plan)
    stats = machine.run()
    assert machine.tm.spurious_aborts > 0
    assert stats.tx_aborts > golden_stats.tx_aborts
    assert stats.tx_commits == golden_stats.tx_commits
    assert machine.tm.livelock_escalations > 0  # the guard did fire
    assert machine.final_memory() == golden.final_memory()


def test_chaos_seed_env_var_controls_schedule():
    """The suite's seed knob genuinely changes the plans (CI randomizes
    it), while a fixed seed replays bit-identically."""
    a = FaultPlan(FaultConfig(seed=CHAOS_SEED, rate=0.01))
    b = FaultPlan(FaultConfig(seed=CHAOS_SEED, rate=0.01))
    c = FaultPlan(FaultConfig(seed=CHAOS_SEED + 977, rate=0.01))
    draws = lambda plan: [plan.mem_delay() for _ in range(2000)]  # noqa: E731
    assert draws(a) == draws(b)
    assert draws(a) != draws(c)
