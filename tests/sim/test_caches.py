"""Unit tests for the cache hierarchy and MOESI snooping protocol."""

import pytest

from repro.arch.config import CacheConfig, MachineConfig, mesh
from repro.sim.caches import (
    EXCLUSIVE,
    INVALID,
    L1ICache,
    MODIFIED,
    OWNED,
    SHARED,
    SetAssocCache,
    SharedL2,
    SnoopBus,
)


def small_cache(sets=2, ways=2, line=8):
    return SetAssocCache(
        CacheConfig(size_words=sets * ways * line, associativity=ways, line_words=line)
    )


class TestSetAssocCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(5) is None
        cache.insert(5, EXCLUSIVE)
        assert cache.lookup(5).state == EXCLUSIVE

    def test_lru_eviction(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0, EXCLUSIVE)
        cache.insert(1, EXCLUSIVE)
        cache.lookup(0)  # make line 0 most recent
        evicted = cache.insert(2, EXCLUSIVE)
        assert evicted == (1, EXCLUSIVE)
        assert cache.lookup(0) is not None
        assert cache.lookup(1) is None

    def test_insert_existing_updates_state(self):
        cache = small_cache()
        cache.insert(3, SHARED)
        assert cache.insert(3, MODIFIED) is None
        assert cache.state_of(3) == MODIFIED

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(3, MODIFIED)
        assert cache.invalidate(3) == MODIFIED
        assert cache.invalidate(3) is None
        assert cache.state_of(3) == INVALID

    def test_sets_index_by_modulo(self):
        cache = small_cache(sets=2, ways=1)
        cache.insert(0, EXCLUSIVE)
        cache.insert(1, EXCLUSIVE)  # different set: no eviction
        assert cache.lookup(0) is not None
        assert cache.lookup(1) is not None


class TestSnoopBusMOESI:
    def setup_method(self):
        self.bus = SnoopBus(mesh(4))

    def test_first_load_fills_exclusive(self):
        cycles, miss = self.bus.access(0, 0, is_store=False)
        assert miss
        assert self.bus.l1ds[0].state_of(0) == EXCLUSIVE

    def test_second_load_hits(self):
        self.bus.access(0, 0, is_store=False)
        cycles, miss = self.bus.access(0, 1, is_store=False)  # same line
        assert not miss
        assert cycles == self.bus.config.l1d.hit_latency

    def test_store_fills_modified(self):
        self.bus.access(0, 0, is_store=True)
        assert self.bus.l1ds[0].state_of(0) == MODIFIED

    def test_read_of_modified_line_makes_owner(self):
        self.bus.access(0, 0, is_store=True)  # core 0: M
        cycles, miss = self.bus.access(1, 0, is_store=False)
        assert miss
        assert self.bus.l1ds[0].state_of(0) == OWNED
        assert self.bus.l1ds[1].state_of(0) == SHARED
        assert self.bus.cache_to_cache == 1

    def test_read_of_exclusive_line_demotes_to_shared(self):
        self.bus.access(0, 0, is_store=False)  # core 0: E
        self.bus.access(1, 0, is_store=False)
        assert self.bus.l1ds[0].state_of(0) == SHARED
        assert self.bus.l1ds[1].state_of(0) == SHARED

    def test_store_invalidates_other_copies(self):
        self.bus.access(0, 0, is_store=False)
        self.bus.access(1, 0, is_store=False)
        self.bus.access(2, 0, is_store=True)
        assert self.bus.l1ds[0].state_of(0) == INVALID
        assert self.bus.l1ds[1].state_of(0) == INVALID
        assert self.bus.l1ds[2].state_of(0) == MODIFIED
        assert self.bus.invalidations >= 2

    def test_store_upgrade_from_shared_costs_bus_round(self):
        self.bus.access(0, 0, is_store=False)
        self.bus.access(1, 0, is_store=False)  # both S
        cycles, miss = self.bus.access(0, 0, is_store=True)
        assert not miss  # upgrade, not a refill
        assert cycles == self.bus.config.l1d.hit_latency + self.bus.upgrade_latency
        assert self.bus.l1ds[0].state_of(0) == MODIFIED
        assert self.bus.l1ds[1].state_of(0) == INVALID

    def test_store_hit_on_exclusive_promotes_silently(self):
        self.bus.access(0, 0, is_store=False)  # E
        cycles, miss = self.bus.access(0, 0, is_store=True)
        assert not miss
        assert cycles == self.bus.config.l1d.hit_latency
        assert self.bus.l1ds[0].state_of(0) == MODIFIED

    def test_single_writer_invariant(self):
        """At most one core may hold a line in M/E at any time."""
        import itertools

        pattern = [(0, True), (1, False), (2, True), (3, False), (1, True)]
        for core, is_store in pattern:
            self.bus.access(core, 0, is_store=is_store)
            holders = [
                self.bus.l1ds[c].state_of(0) in (MODIFIED, EXCLUSIVE)
                for c in range(4)
            ]
            assert sum(holders) <= 1

    def test_miss_latency_tiers(self):
        config = mesh(4)
        bus = SnoopBus(config)
        # Cold miss goes to memory.
        cycles, _ = bus.access(0, 0, is_store=False)
        assert cycles == config.l1d.hit_latency + config.memory_latency
        # A different core's miss is served cache-to-cache at L2-hit cost.
        cycles, _ = bus.access(1, 0, is_store=False)
        assert cycles == config.l1d.hit_latency + config.l2.hit_latency

    def test_l2_hit_after_eviction_writeback(self):
        config = mesh(2)
        bus = SnoopBus(config)
        bus.access(0, 0, is_store=True)
        # Fill enough lines mapping to set 0 to evict line 0 (2-way).
        n_sets = config.l1d.n_sets
        bus.access(0, n_sets * config.l1d.line_words, is_store=True)
        bus.access(0, 2 * n_sets * config.l1d.line_words, is_store=True)
        # The dirty line was written back: refetch is an L2 hit.
        cycles, miss = bus.access(0, 0, is_store=False)
        assert miss
        assert cycles == config.l1d.hit_latency + config.l2.hit_latency


class TestL1ICache:
    def test_miss_then_hit(self):
        config = mesh(4)
        icache = L1ICache(config.l1i)
        misses = []
        icache.on_icache_miss = misses.append
        l2 = SharedL2(config.l2)
        first = icache.access(0, l2, config.memory_latency)
        assert first == config.memory_latency
        again = icache.access(1, l2, config.memory_latency)  # same line
        assert again == 0
        assert misses == [config.memory_latency]

    def test_refill_from_l2(self):
        config = mesh(4)
        icache_a = L1ICache(config.l1i)
        icache_b = L1ICache(config.l1i)
        l2 = SharedL2(config.l2)
        icache_a.access(0, l2, config.memory_latency)
        # Second core's miss on the same line hits the shared L2.
        assert icache_b.access(0, l2, config.memory_latency) == config.l2.hit_latency


class TestSharedL2:
    def test_hit_miss_counters(self):
        config = mesh(4)
        l2 = SharedL2(config.l2)
        assert not l2.access(0)
        assert l2.access(0)
        assert l2.hits == 1 and l2.misses == 1
