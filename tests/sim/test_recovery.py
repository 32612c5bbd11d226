"""Unit and integration tests for the destructive-fault recovery
subsystem: link-layer CRC/retransmit, the blackout watchdog with
checkpoint rollback and chunk remapping, and graceful degradation.

The end-to-end cells reuse the chaos-differential contract: whatever the
destructive plan does, final memory must be bit-identical to the
fault-free golden run and every chunk must still commit exactly once.
"""

import gc
import weakref

import pytest

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.sim import (
    FaultConfig,
    FaultPlan,
    RECOVERY_COUNTERS,
    RecoveryManager,
    VoltronMachine,
)
from repro.sim.network import Message
from repro.sim.recovery import (
    EVENT_COUNTER_FOR_KIND,
    message_crc,
    payload_crc,
    scramble,
)
from repro.sim.tm import TransactionalMemory
from repro.workloads.suite import build


def _machine(name, n_cores, strategy, **fault_kwargs):
    bench = build(name)
    config = mesh(1) if n_cores == 1 else mesh(n_cores)
    compiled = VoltronCompiler(bench.program).compile(strategy, config)
    golden = VoltronMachine(compiled, config)
    faults = None
    if fault_kwargs:
        faults = FaultPlan(FaultConfig(**fault_kwargs))
    return VoltronMachine(compiled, config, faults=faults), golden


class TestCRC:
    def test_payload_crc_is_stable_across_calls(self):
        a = payload_crc(0, 1, "data", None, 7, 42)
        b = payload_crc(0, 1, "data", None, 7, 42)
        assert a == b

    def test_payload_crc_covers_every_field(self):
        base = payload_crc(0, 1, "data", None, 7, 42)
        assert payload_crc(2, 1, "data", None, 7, 42) != base
        assert payload_crc(0, 3, "data", None, 7, 42) != base
        assert payload_crc(0, 1, "spawn", None, 7, 42) != base
        assert payload_crc(0, 1, "data", "ch0", 7, 42) != base
        assert payload_crc(0, 1, "data", None, 8, 42) != base
        assert payload_crc(0, 1, "data", None, 7, 43) != base

    def test_message_crc_matches_payload_crc(self):
        message = Message(src=0, dst=1, value=13, kind="data", tag=None,
                          seq=5)
        assert message_crc(message) == payload_crc(0, 1, "data", None, 5, 13)

    def test_scramble_always_changes_the_value(self):
        for value in (True, False, 0, 1, 42, -7, 0.0, 3.5, -2.25, "", "hi",
                      None):
            assert scramble(value) != value

    def test_scramble_checks_bool_before_int(self):
        # bool is an int subclass; the wire model must not turn True into
        # a large integer via the XOR path.
        assert scramble(True) is False
        assert scramble(False) is True

    def test_scramble_is_deterministic(self):
        assert scramble(42) == scramble(42)
        assert scramble("abc") == scramble("abc")

    def test_scrambled_payload_fails_the_crc(self):
        message = Message(src=0, dst=1, value=42, seq=3)
        message.crc = message_crc(message)
        message.value = scramble(message.value)
        assert message_crc(message) != message.crc


class TestSerialSlot:
    def _tm(self):
        from repro.sim.memory import MainMemory

        return TransactionalMemory(MainMemory())

    def test_fresh_region_admits_only_chunk_zero(self):
        tm = self._tm()
        assert tm.serial_slot_ready(0, 0, 4)
        assert not tm.serial_slot_ready(0, 1, 4)
        assert not tm.serial_slot_ready(0, 3, 4)

    def test_slots_open_in_commit_order(self):
        tm = self._tm()
        tm.begin(0, region=0, order=0, n_chunks=2)
        assert not tm.serial_slot_ready(0, 1, 2)
        assert tm.try_commit(0)
        assert tm.serial_slot_ready(0, 1, 2)
        assert not tm.serial_slot_ready(0, 0, 2)

    def test_region_reentry_wraps_back_to_chunk_zero(self):
        tm = self._tm()
        for order in range(2):
            tm.begin(0, region=0, order=order, n_chunks=2)
            assert tm.try_commit(0)
        # The counter wrapped: a second entry of the same region starts
        # over at chunk 0.
        assert tm.serial_slot_ready(0, 0, 2)
        assert not tm.serial_slot_ready(0, 1, 2)

    def test_other_region_starts_at_chunk_zero(self):
        tm = self._tm()
        tm.begin(0, region=0, order=0, n_chunks=2)
        assert tm.try_commit(0)
        assert tm.serial_slot_ready(9, 0, 3)
        assert not tm.serial_slot_ready(9, 1, 3)


class TestWiring:
    def test_destructive_plan_builds_the_recovery_manager(self):
        machine, _ = _machine(
            "rawcaudio", 2, "tlp", profile="destructive", seed=1
        )
        assert isinstance(machine.recovery, RecoveryManager)
        assert machine.network.recovery is machine.recovery
        assert machine.fast_forward is True

    def test_timing_plan_leaves_recovery_detached(self):
        machine, _ = _machine("rawcaudio", 2, "tlp", profile="timing", seed=1)
        assert machine.recovery is None
        assert machine.network.recovery is None

    def test_no_faults_leaves_recovery_detached(self):
        machine, _ = _machine("rawcaudio", 2, "tlp")
        assert machine.recovery is None
        assert machine.network.recovery is None

    def test_destructive_with_zero_rates_stays_detached(self):
        machine, _ = _machine(
            "rawcaudio", 2, "tlp", profile="destructive", corrupt_rate=0.0,
            drop_rate=0.0, blackout_rate=0.0,
        )
        assert machine.recovery is None

    def test_clean_run_reports_no_recovery_counters(self):
        machine, _ = _machine("rawcaudio", 2, "tlp")
        stats = machine.run()
        assert stats.recovery == {}
        assert "recovery" not in stats.to_dict()

    def test_faulted_machine_is_freed_by_reference_counting(self):
        """The recovery layer must not form a reference cycle with its
        machine: with the collector off, dropping the last reference to
        a machine that ran destructive faults frees it at once."""
        machine, _ = _machine("rawcaudio", 4, "tlp", profile="both", seed=1)
        machine.run()
        assert machine.recovery is not None
        ref = weakref.ref(machine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del machine
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_destructive_run_lands_counters_in_stats(self):
        machine, _ = _machine(
            "rawcaudio", 2, "tlp", profile="destructive", seed=2,
            corrupt_rate=0.2, drop_rate=0.2,
        )
        stats = machine.run()
        assert set(stats.recovery) == set(RECOVERY_COUNTERS)
        assert stats.recovery["retransmits"] > 0
        assert stats.to_dict()["recovery"] == stats.recovery
        assert stats.recovery == machine.recovery.counters_dict()


class TestLinkLayer:
    def _run(self, **kwargs):
        kwargs.setdefault("profile", "destructive")
        machine, golden = _machine("rawcaudio", 2, "tlp", **kwargs)
        golden_stats = golden.run()
        stats = machine.run()
        assert machine.final_memory() == golden.final_memory()
        assert stats.tx_commits == golden_stats.tx_commits
        return machine.recovery.counters

    def test_corruptions_are_caught_and_retransmitted(self):
        counters = self._run(seed=3, corrupt_rate=0.3, drop_rate=0.0)
        assert counters["crc_errors"] > 0
        assert counters["drops"] == 0
        assert counters["retransmits"] == counters["crc_errors"]

    def test_drops_are_timed_out_and_retransmitted(self):
        counters = self._run(seed=4, corrupt_rate=0.0, drop_rate=0.3)
        assert counters["drops"] > 0
        assert counters["crc_errors"] == 0
        assert counters["retransmits"] == counters["drops"]

    def test_every_failed_attempt_is_retransmitted_exactly_once(self):
        counters = self._run(seed=5, corrupt_rate=0.2, drop_rate=0.2)
        assert counters["retransmits"] == (
            counters["crc_errors"] + counters["drops"]
        )

    def test_small_budget_falls_back_to_reliable_delivery(self):
        # corrupt_rate=1.0 fails every sampled attempt, so every message
        # burns through the budget and escapes via the reliable slot.
        counters = self._run(
            seed=6, corrupt_rate=1.0, drop_rate=0.0, retransmit_budget=1
        )
        assert counters["fallbacks"] > 0
        assert counters["retransmits"] >= counters["fallbacks"]

    def test_counters_are_reproducible(self):
        a = self._run(seed=7, corrupt_rate=0.2, drop_rate=0.1)
        b = self._run(seed=7, corrupt_rate=0.2, drop_rate=0.1)
        assert a == b


class TestBlackout:
    def _run(self, **kwargs):
        kwargs.setdefault("profile", "destructive")
        kwargs.setdefault("corrupt_rate", 0.0)
        kwargs.setdefault("drop_rate", 0.0)
        machine, golden = _machine("171.swim", 4, "llp", **kwargs)
        golden_stats = golden.run()
        assert golden_stats.tx_commits > 0  # the cell actually speculates
        stats = machine.run()
        assert machine.final_memory() == golden.final_memory()
        assert stats.tx_commits == golden_stats.tx_commits
        assert stats.tx_aborts >= golden_stats.tx_aborts
        return machine

    def test_every_blackout_is_detected_and_rolled_back(self):
        machine = self._run(seed=8, blackout_rate=0.0005)
        counters = machine.recovery.counters
        assert counters["blackouts"] > 0
        assert counters["watchdog_detections"] == counters["blackouts"]
        assert counters["chunk_rollbacks"] == counters["blackouts"]
        assert counters["blackout_cycles"] >= counters["blackouts"]

    def test_long_blackouts_remap_the_orphaned_chunk(self):
        # Dark windows far past the restore latency force remaps; the
        # placement ledger records the adopters.
        machine = self._run(seed=9, blackout_rate=0.0005, max_blackout=200)
        counters = machine.recovery.counters
        assert counters["chunks_remapped"] > 0
        placement = machine.recovery.placement
        assert any(core != home for core, home in placement.items())

    def test_blackout_budget_triggers_degradation(self):
        machine = self._run(
            seed=10, blackout_rate=0.002, blackout_budget=1
        )
        counters = machine.recovery.counters
        assert counters["regions_degraded"] > 0
        assert machine.recovery.degraded
        assert counters["regions_degraded"] == len(machine.recovery.degraded)

    def test_degraded_cores_suffer_no_further_blackouts(self):
        machine = self._run(seed=10, blackout_rate=0.002, blackout_budget=1)
        recovery = machine.recovery
        blackouts_after = recovery.counters["blackouts"]
        for core in machine.cores:
            if core.id in recovery.degraded:
                # maybe_blackout masks degraded cores outright.
                assert not recovery.maybe_blackout(core, machine.cycle)
        assert recovery.counters["blackouts"] == blackouts_after


class TestObservability:
    def test_recovery_events_reconcile_with_counters(self):
        from repro.obs import Observability
        from repro.obs.timeline import reconcile, summarize

        bench = build("rawcaudio")
        config = mesh(2)
        compiled = VoltronCompiler(bench.program).compile("tlp", config)
        plan = FaultPlan(FaultConfig(
            profile="destructive", seed=11, corrupt_rate=0.2, drop_rate=0.2,
        ))
        obs = Observability()
        machine = VoltronMachine(compiled, config, faults=plan, obs=obs)
        stats = machine.run()
        assert obs.recovery_events
        # reconcile raises on any timeline/stats mismatch; surviving it
        # proves every counter bump emitted exactly one event.
        summary = reconcile(summarize(obs), stats)
        for event in obs.recovery_events:
            assert event.kind in EVENT_COUNTER_FOR_KIND
        for key, value in summary.recovery.items():
            assert stats.recovery[key] == value

    def test_every_event_kind_maps_to_a_counter(self):
        assert set(EVENT_COUNTER_FOR_KIND.values()) <= set(RECOVERY_COUNTERS)
        # blackout_cycles is an aggregate folded from event durations,
        # never an event kind of its own.
        assert "blackout_cycles" not in EVENT_COUNTER_FOR_KIND.values()


class TestBothProfile:
    def test_timing_and_destructive_faults_compose(self):
        machine, golden = _machine(
            "rawcaudio", 2, "tlp", profile="both", seed=12, rate=0.02,
            corrupt_rate=0.1, drop_rate=0.1,
        )
        golden_stats = golden.run()
        stats = machine.run()
        assert machine.faults.injections() > 0
        assert machine.recovery.counters["retransmits"] > 0
        assert machine.final_memory() == golden.final_memory()
        assert stats.tx_commits == golden_stats.tx_commits


class TestScaleOutRecovery:
    """Cluster-aware watchdog, nearest-survivor remap, scaled budgets,
    and the directory scrub on 16-64-core machines."""

    def _scaled_machine(self, preset_name, strategy="llp", bench="171.swim",
                        **fault_kwargs):
        from repro.arch.config import resolve_machine

        fault_kwargs.setdefault("profile", "destructive")
        fault_kwargs.setdefault("corrupt_rate", 0.0)
        fault_kwargs.setdefault("drop_rate", 0.0)
        config = resolve_machine(preset_name)
        compiled = VoltronCompiler(build(bench).program).compile(
            strategy, config
        )
        golden = VoltronMachine(compiled, config)
        faults = FaultPlan(FaultConfig(**fault_kwargs))
        return VoltronMachine(compiled, config, faults=faults), golden

    def test_budgets_scale_with_the_machine_shape(self):
        small, _ = self._scaled_machine("four", blackout_rate=0.001)
        assert small.recovery.blackout_budget == 2      # config default x 1
        assert small.recovery.retransmit_budget == 4    # config default x 1
        big, _ = self._scaled_machine("mesh64-directory", blackout_rate=0.001)
        assert big.recovery.blackout_budget == 2 * 16   # 64 cores
        assert big.recovery.retransmit_budget == 4 * 4  # 8x8 mesh diameter

    def test_adopter_is_the_nearest_survivor(self):
        machine, _ = self._scaled_machine("mesh16", blackout_rate=0.001)
        recovery = machine.recovery
        # Core 0 sits at (0, 0) on the 4x4 mesh: cores 1 and 4 are one
        # hop away; ties break to the lowest id.
        assert recovery._adopter(0) == 1
        recovery._down[1] = {"wake": 0, "detect": 0}
        assert recovery._adopter(0) == 4
        # The old linear scan would have picked core 2 (two hops).
        assert machine.mesh.hops(0, 4) < machine.mesh.hops(0, 2)
        del recovery._down[1]

    def test_clustered_detection_pays_the_stall_network_penalty(self):
        """The watchdog hears a remote cluster's silence only after the
        cluster stall network propagates it: detection on a clustered
        machine lands ``cluster_stall_latency`` later than the 4-core
        machine's ``heartbeat_misses`` window."""
        def detect_delay(machine):
            # Arm the recoverable window by hand (an active transaction
            # whose checkpoint matches the call depth), then inject.
            core = machine.cores[0]
            machine.tm.begin(0, region=0, order=0, n_chunks=1)
            core.checkpoint_registers("entry")
            assert machine.recovery.maybe_blackout(core, cycle=100)
            return machine.recovery._down[0]["detect"] - 100

        small, _ = self._scaled_machine("four", blackout_rate=1.0)
        assert small._cluster_penalty == 0
        misses = small.recovery.config.heartbeat_misses
        assert detect_delay(small) == misses
        big, _ = self._scaled_machine("mesh16", blackout_rate=1.0)
        assert big._cluster_penalty == big.config.cluster_stall_latency
        assert detect_delay(big) == misses + big.config.cluster_stall_latency

    def test_directory_blackouts_scrub_and_stay_bit_identical(self):
        machine, golden = self._scaled_machine(
            "mesh16-directory", seed=20, blackout_rate=0.0005,
        )
        golden_stats = golden.run()
        assert golden_stats.tx_commits > 0
        stats = machine.run()
        counters = machine.recovery.counters
        assert counters["blackouts"] > 0
        assert counters["directory_scrubs"] == counters["watchdog_detections"]
        machine.bus.check_directory()
        assert machine.final_memory() == golden.final_memory()
        assert stats.tx_commits == golden_stats.tx_commits
        # The per-cluster heartbeat ledger partitions the detections.
        by_cluster = machine.recovery.watchdog_by_cluster
        assert sum(by_cluster.values()) == counters["watchdog_detections"]
        assert all(
            0 <= cluster < 4 for cluster in by_cluster
        )  # 16 cores / coupled_group_size=4

    def test_snoop_blackouts_never_scrub(self):
        machine, golden = self._scaled_machine(
            "mesh16-snoop", seed=20, blackout_rate=0.0005,
        )
        golden.run()
        machine.run()
        counters = machine.recovery.counters
        assert counters["blackouts"] > 0
        assert counters["directory_scrubs"] == 0
        assert machine.final_memory() == golden.final_memory()

    def test_remap_histogram_lands_in_stats_and_report_order(self):
        from repro.sim.recovery import REMAP_HOPS_PREFIX

        machine, golden = self._scaled_machine(
            "mesh16-directory", seed=21, blackout_rate=0.0005,
            max_blackout=200,
        )
        golden.run()
        stats = machine.run()
        counters = machine.recovery.counters
        assert counters["chunks_remapped"] > 0
        histogram = {
            key: value for key, value in stats.recovery.items()
            if key.startswith(REMAP_HOPS_PREFIX)
        }
        assert sum(histogram.values()) == counters["chunks_remapped"]
        assert all(int(key.rsplit("_", 1)[1]) >= 1 for key in histogram)
        # Aggregates never count as detection/repair events.
        assert machine.recovery.events_recorded() == sum(
            value for key, value in counters.items()
            if key != "blackout_cycles"
            and not key.startswith(REMAP_HOPS_PREFIX)
        )
