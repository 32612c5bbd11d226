"""Directory-based coherence: same MOESI protocol as the snooping bus
(states, miss pattern, final data), different cost model (directory
lookup latency, O(sharers) invalidation)."""

import random

import pytest

from repro.arch.config import MachineConfig, mesh
from repro.sim.caches import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    OWNED,
    SHARED,
    DirectoryCoherence,
    SnoopBus,
    make_coherence,
)


def directory_config(n_cores=4):
    base = mesh(n_cores)
    import dataclasses

    return dataclasses.replace(base, coherence="directory")


class TestFactory:
    def test_snoop_config_builds_snoop_bus(self):
        bus = make_coherence(mesh(4))
        assert type(bus) is SnoopBus

    def test_directory_config_builds_directory(self):
        bus = make_coherence(directory_config())
        assert isinstance(bus, DirectoryCoherence)


class TestDirectoryMOESI:
    """The snooping-bus MOESI tests, replayed against the directory."""

    def setup_method(self):
        self.bus = DirectoryCoherence(directory_config())

    def test_first_load_fills_exclusive(self):
        cycles, miss = self.bus.access(0, 0, is_store=False)
        assert miss
        assert self.bus.l1ds[0].state_of(0) == EXCLUSIVE

    def test_second_load_hits_without_directory_cost(self):
        self.bus.access(0, 0, is_store=False)
        cycles, miss = self.bus.access(0, 1, is_store=False)
        assert not miss
        assert cycles == self.bus.config.l1d.hit_latency

    def test_read_of_modified_line_makes_owner(self):
        self.bus.access(0, 0, is_store=True)
        cycles, miss = self.bus.access(1, 0, is_store=False)
        assert miss
        assert self.bus.l1ds[0].state_of(0) == OWNED
        assert self.bus.l1ds[1].state_of(0) == SHARED

    def test_store_invalidates_other_copies(self):
        self.bus.access(0, 0, is_store=False)
        self.bus.access(1, 0, is_store=False)
        self.bus.access(2, 0, is_store=True)
        assert self.bus.l1ds[0].state_of(0) == INVALID
        assert self.bus.l1ds[1].state_of(0) == INVALID
        assert self.bus.l1ds[2].state_of(0) == MODIFIED

    def test_single_writer_invariant(self):
        pattern = [(0, True), (1, False), (2, True), (3, False), (1, True)]
        for core, is_store in pattern:
            self.bus.access(core, 0, is_store=is_store)
            holders = [
                self.bus.l1ds[c].state_of(0) in (MODIFIED, EXCLUSIVE)
                for c in range(4)
            ]
            assert sum(holders) <= 1

    def test_miss_pays_directory_lookup(self):
        config = self.bus.config
        snoop = SnoopBus(mesh(4))
        snoop_cycles, _ = snoop.access(0, 0, is_store=False)
        cycles, _ = self.bus.access(0, 0, is_store=False)
        assert cycles == snoop_cycles + config.directory_latency

    def test_shared_store_upgrade_pays_directory_lookup(self):
        self.bus.access(0, 0, is_store=False)
        self.bus.access(1, 0, is_store=False)
        cycles, miss = self.bus.access(0, 0, is_store=True)
        assert not miss
        assert cycles == (
            self.bus.config.l1d.hit_latency
            + self.bus.config.directory_latency
            + self.bus.upgrade_latency
        )

    def test_exclusive_store_promotes_silently(self):
        """M/E upgrades never consult the directory (no other sharers by
        the single-writer invariant)."""
        self.bus.access(0, 0, is_store=False)  # E
        cycles, miss = self.bus.access(0, 0, is_store=True)
        assert not miss
        assert cycles == self.bus.config.l1d.hit_latency


class TestPresenceVector:
    def setup_method(self):
        self.bus = DirectoryCoherence(directory_config())

    def test_presence_tracks_sharers(self):
        self.bus.access(0, 0, is_store=False)
        self.bus.access(1, 0, is_store=False)
        self.bus.check_directory()
        self.bus.access(2, 0, is_store=True)
        self.bus.check_directory()

    def test_eviction_clears_presence(self):
        config = self.bus.config
        lines = config.l1d.size_words // config.l1d.line_words
        # Touch enough distinct lines mapping everywhere to force
        # evictions, then check the mirror invariant still holds.
        for i in range(4 * lines):
            self.bus.access(i % 4, i * config.l1d.line_words, is_store=(i % 3 == 0))
        self.bus.check_directory()

    def test_flush_core_writes_back_and_clears(self):
        self.bus.access(0, 0, is_store=True)
        self.bus.flush_core(0)
        assert self.bus.l1ds[0].state_of(0) == INVALID
        self.bus.check_directory()


class TestSnoopDirectoryEquivalence:
    """Randomized differential: identical states and miss pattern, only
    the cycle accounting differs."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traffic_matches(self, seed):
        n_cores = 8
        snoop = SnoopBus(mesh(n_cores))
        directory = DirectoryCoherence(directory_config(n_cores))
        rng = random.Random(seed)
        for _ in range(600):
            core = rng.randrange(n_cores)
            addr = rng.randrange(256)
            is_store = rng.random() < 0.4
            s_cycles, s_miss = snoop.access(core, addr, is_store=is_store)
            d_cycles, d_miss = directory.access(core, addr, is_store=is_store)
            assert s_miss == d_miss
            assert d_cycles >= s_cycles
        for c in range(n_cores):
            for addr in range(256):
                assert snoop.l1ds[c].state_of(addr) == directory.l1ds[
                    c
                ].state_of(addr)
        directory.check_directory()


class TestDirectoryFaultHooks:
    """Fault injection on the directory path: the inherited SnoopBus
    latency hooks and the directory-latency channel of its own."""

    def _plan(self, rate=1.0, **kwargs):
        from repro.sim.faults import FaultConfig, FaultPlan

        return FaultPlan(FaultConfig(seed=13, rate=rate, **kwargs))

    def test_inherited_mem_faults_fire_on_the_directory_path(self):
        clean = DirectoryCoherence(directory_config())
        faulty = DirectoryCoherence(directory_config())
        faulty.faults = self._plan()
        clean_cycles, clean_miss = clean.access(0, 0, is_store=False)
        cycles, miss = faulty.access(0, 0, is_store=False)
        assert miss == clean_miss
        assert faulty.faults.summary()["mem"] == 1
        assert cycles > clean_cycles

    def test_directory_channel_fires_on_misses_and_upgrades_only(self):
        bus = DirectoryCoherence(directory_config())
        bus.faults = self._plan()
        bus.access(0, 0, is_store=False)  # miss: directory transaction
        fires = bus.faults.summary()["directory"]
        assert fires == 1
        bus.access(0, 0, is_store=False)  # load hit: no indirection
        assert bus.faults.summary()["directory"] == fires
        bus.access(1, 0, is_store=False)  # second sharer: miss
        assert bus.faults.summary()["directory"] == fires + 1
        bus.access(0, 0, is_store=True)   # S->M upgrade: indirection
        assert bus.faults.summary()["directory"] == fires + 2

    def test_snoop_bus_never_consumes_the_directory_stream(self):
        bus = SnoopBus(mesh(4))
        bus.faults = self._plan()
        for addr in range(0, 64, 4):
            bus.access(0, addr, is_store=True)
            bus.access(1, addr, is_store=False)
        assert bus.faults.summary()["directory"] == 0
        assert bus.faults.summary()["mem"] > 0

    def test_directory_latency_faults_inflate_cycles_only(self):
        """Same traffic with and without timing faults: identical
        states, identical miss pattern, higher or equal cycles."""
        clean = DirectoryCoherence(directory_config(8))
        faulty = DirectoryCoherence(directory_config(8))
        faulty.faults = self._plan(rate=0.3)
        rng = random.Random(17)
        for _ in range(600):
            core = rng.randrange(8)
            addr = rng.randrange(256)
            is_store = rng.random() < 0.4
            c_cycles, c_miss = clean.access(core, addr, is_store=is_store)
            f_cycles, f_miss = faulty.access(core, addr, is_store=is_store)
            assert c_miss == f_miss
            assert f_cycles >= c_cycles
        for core in range(8):
            for addr in range(256):
                assert clean.l1ds[core].state_of(addr) == faulty.l1ds[
                    core
                ].state_of(addr)
        faulty.check_directory()

    def test_check_directory_holds_under_timing_faults_end_to_end(self):
        from repro.arch.config import resolve_machine
        from repro.compiler import VoltronCompiler
        from repro.sim.faults import FaultConfig, FaultPlan
        from repro.sim.machine import VoltronMachine
        from repro.workloads.suite import build

        bench = build("gsmdecode")
        config = resolve_machine("mesh16-directory")
        compiled = VoltronCompiler(bench.program).compile("hybrid", config)
        golden = VoltronMachine(compiled, config)
        golden.run()
        plan = FaultPlan(FaultConfig(seed=14, rate=0.02))
        machine = VoltronMachine(compiled, config, faults=plan)
        machine.run()
        assert plan.summary()["directory"] > 0
        machine.bus.check_directory()
        assert machine.final_memory() == golden.final_memory()


class TestScrubCore:
    """Blackout recovery's directory scrub: dead cores leave every
    sharer vector; M/O data survives via writeback."""

    def test_scrub_removes_core_from_presence(self):
        bus = DirectoryCoherence(directory_config())
        bus.access(0, 0, is_store=True)   # core 0 holds the line M
        bus.access(1, 64, is_store=False)
        scrubbed = bus.scrub_core(0)
        assert scrubbed == 1
        assert bus.l1ds[0].state_of(0) == INVALID
        line_addr = 0
        assert 0 not in bus._presence.get(line_addr, set())
        bus.check_directory()

    def test_scrub_writes_back_modified_lines(self):
        bus = DirectoryCoherence(directory_config())
        bus.access(0, 0, is_store=True)
        l2_before = bus.l2.array.state_of(0)
        bus.scrub_core(0)
        assert bus.l2.array.state_of(0) == MODIFIED
        # A later miss is served by the L2, never by the dead core.
        cycles, miss = bus.access(1, 0, is_store=False)
        assert miss
        bus.check_directory()

    def test_scrub_of_empty_core_is_a_no_op(self):
        bus = DirectoryCoherence(directory_config())
        assert bus.scrub_core(2) == 0
        bus.check_directory()
