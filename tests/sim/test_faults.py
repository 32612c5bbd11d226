"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.obs import ObsConfig
from repro.sim import FaultConfig, FaultPlan, VoltronMachine
from repro.sim.faults import CHANNELS
from repro.workloads.suite import build

#: Each channel with a delay to bound -> the plan accessor that draws it.
DELAY_ACCESSORS = {
    "mem": "mem_delay",
    "ifetch": "ifetch_delay",
    "net": "net_delay",
    "stall-bus": "stall_hold",
    "directory": "directory_delay",
    "vlink": "vlink_hold",
    "blackout": "blackout_cycles",
}

#: Knobs that became constants or went away: spelling one is an error,
#: not a silently ignored setting.
REMOVED_KNOBS = [
    (FaultConfig, name) for name in (
        "max_mem_delay", "max_net_delay", "max_stall_hold",
        "max_directory_delay", "max_vlink_hold", "backoff_base",
        "heartbeat_misses",
    )
] + [(ObsConfig, "single_step")]


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(tm_rate=2.0)

    @pytest.mark.parametrize(
        "config_class, name", REMOVED_KNOBS,
        ids=[name for _, name in REMOVED_KNOBS],
    )
    def test_removed_knobs_are_rejected(self, config_class, name):
        with pytest.raises(TypeError):
            config_class(**{name: 1})

    def test_frozen(self):
        config = FaultConfig(seed=3)
        with pytest.raises(Exception):
            config.seed = 4

    def test_profile_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(profile="nuclear")
        for profile in ("timing", "destructive", "both"):
            assert FaultConfig(profile=profile).profile == profile

    def test_destructive_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(blackout_rate=2.0)
        with pytest.raises(ValueError):
            FaultConfig(max_blackout=0)
        with pytest.raises(ValueError):
            FaultConfig(retransmit_budget=0)
        with pytest.raises(ValueError):
            FaultConfig(blackout_budget=0)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(FaultConfig(seed=11, rate=0.1))
        b = FaultPlan(FaultConfig(seed=11, rate=0.1))
        draws_a = [a.mem_delay() for _ in range(5000)]
        draws_b = [b.mem_delay() for _ in range(5000)]
        assert draws_a == draws_b
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        a = FaultPlan(FaultConfig(seed=11, rate=0.1))
        b = FaultPlan(FaultConfig(seed=12, rate=0.1))
        assert [a.net_delay() for _ in range(5000)] != [
            b.net_delay() for _ in range(5000)
        ]

    def test_channels_are_independent_streams(self):
        # Draining one channel must not shift another channel's schedule.
        a = FaultPlan(FaultConfig(seed=5, rate=0.1))
        b = FaultPlan(FaultConfig(seed=5, rate=0.1))
        for _ in range(1000):
            a.mem_delay()
        assert [a.net_delay() for _ in range(1000)] == [
            b.net_delay() for _ in range(1000)
        ]

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(FaultConfig(seed=1, rate=0.0, tm_rate=0.0))
        assert all(plan.mem_delay() == 0 for _ in range(10_000))
        assert not any(plan.spurious_conflict() for _ in range(10_000))
        assert plan.injections() == 0

    def test_rate_one_always_fires(self):
        plan = FaultPlan(FaultConfig(seed=1, rate=1.0, tm_rate=1.0))
        assert all(plan.mem_delay() >= 1 for _ in range(100))
        assert all(plan.spurious_conflict() for _ in range(100))

    @pytest.mark.parametrize(
        "name, bound",
        [(name, bound) for name, _, _, bound in CHANNELS
         if name in DELAY_ACCESSORS],
        ids=[name for name, *_ in CHANNELS if name in DELAY_ACCESSORS],
    )
    def test_delays_respect_bounds(self, name, bound):
        plan = FaultPlan(
            FaultConfig(seed=2, profile="both", rate=1.0, blackout_rate=1.0)
        )
        bound = bound or plan.config.max_blackout
        draw = getattr(plan, DELAY_ACCESSORS[name])
        delays = [draw() for _ in range(500)]
        assert all(1 <= delay <= bound for delay in delays)
        # The channel draws over its whole range, up to the bound.
        assert max(delays) == bound

    def test_empirical_rate_tracks_configured_rate(self):
        plan = FaultPlan(FaultConfig(seed=9, rate=0.05))
        fires = sum(1 for _ in range(20_000) if plan.mem_delay())
        assert 700 <= fires <= 1300  # 1000 expected

    def test_summary_accounting(self):
        plan = FaultPlan(FaultConfig(seed=4, rate=0.5))
        for _ in range(200):
            plan.mem_delay()
            plan.net_delay()
        summary = plan.summary()
        assert summary["mem"] > 0 and summary["net"] > 0
        assert summary["ifetch"] == summary["tm"] == summary["stall_bus"] == 0
        assert summary["injections"] == plan.injections()
        assert summary["injected_cycles"] == plan.injected_cycles()
        assert summary["injected_cycles"] >= summary["injections"]


class TestProfiles:
    def test_timing_profile_disarms_destructive_channels(self):
        plan = FaultPlan(
            FaultConfig(
                seed=1, profile="timing", corrupt_rate=1.0, drop_rate=1.0,
                blackout_rate=1.0,
            )
        )
        assert not plan.destructive
        assert all(plan.xmit_outcome() is None for _ in range(500))
        assert all(plan.blackout_cycles() == 0 for _ in range(500))

    def test_destructive_profile_disarms_timing_channels(self):
        plan = FaultPlan(
            FaultConfig(
                seed=1, profile="destructive", rate=1.0, tm_rate=1.0,
                corrupt_rate=1.0,
            )
        )
        assert plan.destructive
        assert all(plan.mem_delay() == 0 for _ in range(500))
        assert not any(plan.spurious_conflict() for _ in range(500))
        assert plan.xmit_outcome() is not None

    def test_both_profile_arms_everything(self):
        plan = FaultPlan(
            FaultConfig(
                seed=1, profile="both", rate=1.0, corrupt_rate=1.0,
                blackout_rate=1.0,
            )
        )
        assert plan.destructive
        assert plan.mem_delay() >= 1
        assert plan.xmit_outcome() is not None
        assert plan.blackout_cycles() >= 1

    def test_destructive_with_zero_rates_is_not_destructive(self):
        plan = FaultPlan(
            FaultConfig(
                seed=1, profile="destructive", corrupt_rate=0.0,
                drop_rate=0.0, blackout_rate=0.0,
            )
        )
        assert not plan.destructive

    def test_drop_takes_priority_over_corrupt(self):
        # Both channels firing on the same attempt must resolve to one
        # outcome; drop is sampled first.
        plan = FaultPlan(
            FaultConfig(
                seed=1, profile="destructive", corrupt_rate=1.0,
                drop_rate=1.0,
            )
        )
        assert all(plan.xmit_outcome() == "drop" for _ in range(200))

    def test_summary_includes_destructive_channels(self):
        plan = FaultPlan(
            FaultConfig(seed=2, profile="destructive", corrupt_rate=0.5,
                        drop_rate=0.5, blackout_rate=0.5)
        )
        for _ in range(200):
            plan.xmit_outcome()
            plan.blackout_cycles()
        summary = plan.summary()
        assert summary["corrupt"] > 0 or summary["drop"] > 0
        assert summary["blackout"] > 0
        assert summary["injections"] == plan.injections()

    def test_blackout_duration_respects_bound(self):
        plan = FaultPlan(
            FaultConfig(seed=3, profile="destructive", blackout_rate=1.0,
                        max_blackout=17)
        )
        assert all(1 <= plan.blackout_cycles() <= 17 for _ in range(300))


class TestMachineIntegration:
    def _compiled(self, name, n_cores, strategy):
        bench = build(name)
        config = mesh(1) if n_cores == 1 else mesh(n_cores)
        return VoltronCompiler(bench.program).compile(strategy, config), config

    def test_faults_keep_fast_forward(self):
        compiled, config = self._compiled("rawcaudio", 1, "baseline")
        windows = []

        class Windows:
            def fast_forward_window(self, start, end):
                windows.append((start, end))

        machine = VoltronMachine(
            compiled, config, faults=FaultPlan(FaultConfig(seed=1)),
            obs=Windows(),
        )
        assert machine.fast_forward is True
        machine.run()
        assert machine.faults.injections() > 0
        assert windows

    def test_plan_wired_into_every_subsystem(self):
        compiled, config = self._compiled("rawcaudio", 2, "tlp")
        plan = FaultPlan(FaultConfig(seed=1))
        machine = VoltronMachine(compiled, config, faults=plan)
        assert machine.bus.faults is plan
        assert machine.network.faults is plan
        assert machine.tm.faults is plan
        assert all(icache.faults is plan for icache in machine.icaches)

    def test_no_plan_leaves_hooks_detached(self):
        compiled, config = self._compiled("rawcaudio", 2, "tlp")
        machine = VoltronMachine(compiled, config)
        assert machine.faults is None
        assert machine.bus.faults is None
        assert machine.network.faults is None
        assert machine.tm.faults is None

    def test_faulted_run_slower_but_architecturally_identical(self):
        compiled, config = self._compiled("rawcaudio", 2, "tlp")
        golden = VoltronMachine(compiled, config)
        golden_stats = golden.run()
        plan = FaultPlan(FaultConfig(seed=3, rate=0.05))
        machine = VoltronMachine(compiled, config, faults=plan)
        stats = machine.run()
        assert plan.injections() > 0
        assert stats.cycles > golden_stats.cycles
        assert machine.final_memory() == golden.final_memory()

    def test_faulted_run_is_reproducible(self):
        compiled, config = self._compiled("rawcaudio", 2, "ilp")
        runs = []
        for _ in range(2):
            plan = FaultPlan(FaultConfig(seed=8, rate=0.05))
            machine = VoltronMachine(compiled, config, faults=plan)
            stats = machine.run()
            runs.append((stats.cycles, plan.injections(), plan.summary()))
        assert runs[0] == runs[1]
