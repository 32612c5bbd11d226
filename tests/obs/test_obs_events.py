"""Observability event-bus tests.

The contract under test: every probe fires where it should, attaching an
observer never changes the simulation (stats are bit-identical with and
without one, fast-forwarding on or off), discrete events are bounded by
``max_events`` while spans stay complete, and an instance observes
exactly one run.
"""

from __future__ import annotations

import pytest

from conftest import build_square_sum

from repro.arch import mesh
from repro.compiler import compile_program
from repro.isa import ProgramBuilder
from repro.obs import ObsConfig, Observability, reconcile, summarize
from repro.sim import VoltronMachine
from repro.sim.faults import FaultConfig, FaultPlan
from repro.sim.stats import STALL_CATEGORIES


def _machine(strategy="ilp", n_cores=2, **kwargs):
    program, _ = build_square_sum(64)
    compiled = compile_program(program, n_cores, strategy)
    config = mesh(1) if n_cores == 1 else mesh(n_cores)
    return VoltronMachine(compiled, config, **kwargs)


def _kernel_machine(kernel, strategy, n_cores=2, obs=None, **kernel_kwargs):
    from repro.workloads.kernels import KernelContext

    pb = ProgramBuilder(f"obs_{kernel.__name__}")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=7)
    kernel(ctx, **kernel_kwargs)
    fb.halt()
    compiled = compile_program(pb.finish(), n_cores, strategy)
    config = mesh(2) if n_cores == 2 else mesh(n_cores)
    return VoltronMachine(compiled, config, obs=obs)


class TestObsConfig:
    def test_stride_validated(self):
        with pytest.raises(ValueError):
            ObsConfig(sample_stride=0)

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            ObsConfig(max_events=0)


class TestAttachment:
    def test_instance_observes_exactly_one_run(self):
        obs = Observability()
        _machine(obs=obs).run()
        with pytest.raises(RuntimeError):
            _machine(obs=obs)


class TestProbes:
    def test_timeline_probes_fire(self):
        obs = Observability()
        stats = _machine("hybrid", 4, obs=obs).run()
        assert obs.final_cycle == stats.cycles
        assert obs.mode_segments
        # Segments tile the whole run: start at 0, end at the final cycle,
        # and chain without gaps.
        assert obs.mode_segments[0][0] == 0
        assert obs.mode_segments[-1][1] == stats.cycles
        for before, after in zip(obs.mode_segments, obs.mode_segments[1:]):
            assert before[1] == after[0]
        assert any(spans for spans in obs.stall_spans)
        assert len(obs.series) >= 2

    def test_series_cumulative_columns_end_at_final_stats(self):
        obs = Observability(ObsConfig(sample_stride=16))
        stats = _machine("ilp", 2, obs=obs).run()
        series = obs.series
        assert series.cycle[-1] == stats.cycles
        assert series.busy[-1] == sum(core.busy for core in stats.cores)
        for category in STALL_CATEGORIES:
            assert series.stalls[category][-1] == sum(
                core.stalls[category] for core in stats.cores
            )

    def test_cache_miss_probe_fires_on_cold_caches(self):
        obs = Observability()
        _machine("ilp", 2, obs=obs).run()
        assert obs.cache_misses
        assert all(miss.latency > 0 for miss in obs.cache_misses)
        assert {miss.where for miss in obs.cache_misses} <= {"l1d", "l1i"}

    def test_tx_probes_match_tm_accounting(self):
        from repro.workloads import doall_kernel

        obs = Observability()
        stats = _kernel_machine(
            doall_kernel, "llp", obs=obs, trips=64, work=2
        ).run()
        summary = summarize(obs)
        assert stats.tx_commits > 0
        assert summary.tx_commits == stats.tx_commits
        assert summary.tx_aborts == stats.tx_aborts
        # Every transaction that began was resolved one way or the other.
        assert summary.tx_begins == summary.tx_commits + summary.tx_aborts

    def test_net_probes_pair_sends_and_receives(self):
        from repro.workloads import match_kernel

        obs = Observability()
        _kernel_machine(match_kernel, "tlp", obs=obs, length=320).run()
        assert obs.net_sends
        sent = {send.seq for send in obs.net_sends}
        assert {recv.seq for recv in obs.net_recvs} <= sent

    def test_fault_probe_fires_and_run_stays_deterministic(self):
        faults = FaultConfig(seed=3, rate=0.5)
        obs = Observability()
        machine = _machine("ilp", 2, obs=obs, faults=FaultPlan(faults))
        stats = machine.run()
        assert machine.faults.injections() > 0
        assert obs.fault_events
        unobserved = _machine("ilp", 2, faults=FaultPlan(faults)).run()
        assert stats.to_dict() == unobserved.to_dict()

    def test_destructive_mesh_run_reconciles_with_fast_forward_on(self):
        """A destructive plan on a clustered mesh keeps the fast-forward
        kernel, and the timeline still accounts for every cycle."""
        from repro.arch.config import resolve_machine
        from repro.compiler import VoltronCompiler
        from repro.workloads.suite import build

        config = resolve_machine("mesh16-directory")
        compiled = VoltronCompiler(build("171.swim").program).compile(
            "llp", config
        )
        faults = FaultConfig(
            seed=3, profile="destructive", corrupt_rate=0.05,
            drop_rate=0.05, blackout_rate=0.0005,
        )
        obs = Observability()
        machine = VoltronMachine(
            compiled, config, faults=FaultPlan(faults), obs=obs
        )
        stats = machine.run()
        assert machine.fast_forward
        assert stats.recovery["blackouts"] > 0
        assert obs.ff_windows
        reconcile(summarize(obs), stats)
        unobserved = VoltronMachine(
            compiled, config, faults=FaultPlan(faults)
        ).run()
        assert stats.to_dict() == unobserved.to_dict()


class TestZeroOverheadDifferential:
    @pytest.mark.parametrize(
        "strategy,n_cores",
        [
            ("baseline", 1),
            ("ilp", 2),
            ("tlp", 2),
            ("llp", 2),
            ("hybrid", 4),
        ],
    )
    def test_stats_bit_identical_with_and_without_obs(self, strategy, n_cores):
        plain = _machine(strategy, n_cores).run()
        obs = Observability()
        observed = _machine(strategy, n_cores, obs=obs).run()
        assert observed.to_dict() == plain.to_dict()
        reconcile(summarize(obs), observed)

    def test_single_step_stats_identical_to_fast_forwarded(self):
        plain = _machine("hybrid", 4).run()
        obs = Observability()
        observed = _machine("hybrid", 4, obs=obs, fast_forward=False).run()
        assert obs.ff_windows == []
        assert observed.to_dict() == plain.to_dict()
        reconcile(summarize(obs), observed)


class TestTruncation:
    def test_event_cap_truncates_but_spans_stay_complete(self):
        obs = Observability(ObsConfig(max_events=1))
        stats = _machine("hybrid", 4, obs=obs).run()
        assert obs.truncated
        assert len(obs.cache_misses) + len(obs.tx_events) + len(
            obs.net_sends
        ) + len(obs.net_recvs) + len(obs.ff_windows) <= 1
        # Spans and mode segments are exempt from the cap, so the
        # timeline still reconciles exactly.
        summary = reconcile(summarize(obs), stats)
        assert summary.truncated
