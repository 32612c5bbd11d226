"""Cache hierarchy: private L1s kept coherent by a snooping MOESI bus
or a scalable directory protocol, plus a shared (banked) L2.

Timing-only model (values live in :class:`repro.sim.memory.MainMemory`):
every access returns the number of cycles the in-order core is occupied.
An L1 hit costs ``l1.hit_latency``; misses add the supplier's latency --
another L1 (cache-to-cache transfer, priced like an L2 hit, the paper's
"coherence of caches is handled by a bus-based snooping protocol"), the
shared L2, or main memory.

State machine (MOESI):

* read miss: a Modified/Owned/Exclusive holder supplies the line and
  transitions M->O, E->S (O stays O); the requester loads in S.  With no
  holder the L2/memory supplies and the requester loads in E (no sharers)
  or S.
* write miss / upgrade: every other copy is invalidated; the requester
  holds M.
* eviction of an M or O line writes back into the L2.

:class:`DirectoryCoherence` implements the same MOESI state machine
behind a directory instead of a broadcast bus: an explicit sharer
vector per line answers "who holds this?" in O(sharers) rather than by
snooping every L1, at the price of ``directory_latency`` extra cycles
per miss or upgrade (the home-directory indirection).  The two
protocols are architecturally equivalent -- identical state
transitions, identical hit/miss pattern -- so final memory is
bit-identical across them; only cycle counts differ.  Select with
``MachineConfig.coherence`` via :func:`make_coherence`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..arch.config import CacheConfig, MachineConfig

MODIFIED = "M"
OWNED = "O"
EXCLUSIVE = "E"
SHARED = "S"
INVALID = "I"

#: States in which an L1 can supply data on a snoop.
SUPPLIER_STATES = (MODIFIED, OWNED, EXCLUSIVE)


@dataclass
class CacheLine:
    tag: int
    state: str
    last_used: int


class SetAssocCache:
    """A set-associative array of tags with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # config.n_sets is a derived property; the array geometry is hot
        # (every lookup computes index/tag from it), so snapshot it once.
        self.n_sets = config.n_sets
        self.associativity = config.associativity
        self.sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(self.n_sets)
        ]
        self._tick = itertools.count()

    def _index(self, line_addr: int) -> Tuple[int, int]:
        return line_addr % self.n_sets, line_addr // self.n_sets

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        n_sets = self.n_sets
        line = self.sets[line_addr % n_sets].get(line_addr // n_sets)
        if line is not None and line.state != INVALID:
            line.last_used = next(self._tick)
            return line
        return None

    def insert(self, line_addr: int, state: str) -> Optional[Tuple[int, str]]:
        """Install a line; returns (line_addr, state) of any eviction."""
        index, tag = self._index(line_addr)
        cache_set = self.sets[index]
        evicted: Optional[Tuple[int, str]] = None
        existing = cache_set.get(tag)
        if existing is not None:
            existing.state = state
            existing.last_used = next(self._tick)
            return None
        if len(cache_set) >= self.associativity:
            victim_tag, victim = min(
                cache_set.items(), key=lambda item: item[1].last_used
            )
            del cache_set[victim_tag]
            if victim.state != INVALID:
                evicted = (victim_tag * self.n_sets + index, victim.state)
        cache_set[tag] = CacheLine(tag, state, next(self._tick))
        return evicted

    def invalidate(self, line_addr: int) -> Optional[str]:
        index, tag = self._index(line_addr)
        line = self.sets[index].get(tag)
        if line is None or line.state == INVALID:
            return None
        previous = line.state
        del self.sets[index][tag]
        return previous

    def state_of(self, line_addr: int) -> str:
        index, tag = self._index(line_addr)
        line = self.sets[index].get(tag)
        return line.state if line is not None else INVALID

    def resident_lines(self) -> int:
        return sum(len(s) for s in self.sets)


class SharedL2:
    """The shared, banked L2.  Banking is tracked for statistics; bank
    conflicts are not modelled (documented simplification)."""

    def __init__(self, config: CacheConfig, n_banks: int) -> None:
        self.array = SetAssocCache(config)
        self.config = config
        self.n_banks = n_banks
        self.bank_accesses = [0] * n_banks
        self.hits = 0
        self.misses = 0

    def bank_of(self, line_addr: int) -> int:
        return line_addr % self.n_banks

    def access(self, line_addr: int) -> bool:
        """Returns True on hit; installs the line on miss."""
        self.bank_accesses[self.bank_of(line_addr)] += 1
        if self.array.lookup(line_addr) is not None:
            self.hits += 1
            return True
        self.misses += 1
        self.array.insert(line_addr, EXCLUSIVE)
        return False

    def writeback(self, line_addr: int) -> None:
        self.array.insert(line_addr, MODIFIED)


class L1ICache:
    """Private instruction cache; fills from the shared L2."""

    def __init__(self, config: CacheConfig) -> None:
        self.array = SetAssocCache(config)
        self.config = config
        self.line_words = config.line_words
        self.hits = 0
        self.misses = 0
        #: Optional :class:`~repro.sim.faults.FaultPlan` (chaos testing):
        #: fetches occasionally take extra cycles even on a hit.
        self.faults = None
        #: Probe event, bound with the owning core's id by the machine
        #: (see :mod:`repro.sim.probe`).
        self.on_icache_miss = None

    def access(self, addr: int, l2: SharedL2, memory_latency: int) -> int:
        """Extra fetch cycles: 0 on a hit, L2/memory latency on a miss."""
        array = self.array
        line_addr = addr // self.line_words
        # Inlined array.lookup: one fetch per issued slot makes this the
        # single hottest cache path in the simulator.
        line = array.sets[line_addr % array.n_sets].get(line_addr // array.n_sets)
        if line is not None and line.state != INVALID:
            line.last_used = next(array._tick)
            self.hits += 1
            return 0 if self.faults is None else self.faults.ifetch_delay()
        self.misses += 1
        l2_hit = l2.access(line_addr)
        array.insert(line_addr, SHARED)
        extra = 0 if self.faults is None else self.faults.ifetch_delay()
        latency = (l2.config.hit_latency if l2_hit else memory_latency) + extra
        if self.on_icache_miss is not None:
            self.on_icache_miss(latency)
        return latency


class SnoopBus:
    """The shared snooping bus tying the L1 data caches to the L2."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1ds: List[SetAssocCache] = [
            SetAssocCache(config.l1d) for _ in range(config.n_cores)
        ]
        self.l2 = SharedL2(config.l2, config.l2_banks)
        # Snapshot the handful of latencies the access path reads on every
        # load/store (two attribute hops through the frozen config tree).
        self._line_words = config.l1d.line_words
        self._hit_latency = config.l1d.hit_latency
        self.upgrade_latency = 2  # bus invalidate round
        self.invalidations = 0
        self.cache_to_cache = 0
        #: Optional :class:`~repro.sim.faults.FaultPlan` (chaos testing):
        #: data accesses occasionally take extra cycles, hit or miss.
        self.faults = None
        #: Probe event (bound by the machine, see :mod:`repro.sim.probe`).
        self.on_cache_miss = None

    # -- public interface ----------------------------------------------------

    def access(self, core: int, addr: int, is_store: bool) -> Tuple[int, bool]:
        """Perform a data access; returns (cycles, was_miss)."""
        line_addr = addr // self._line_words
        l1 = self.l1ds[core]
        line = l1.lookup(line_addr)
        hit_latency = self._hit_latency
        fault_extra = 0 if self.faults is None else self.faults.mem_delay()

        if line is not None:
            if not is_store:
                return hit_latency + fault_extra, False
            if line.state in (MODIFIED, EXCLUSIVE):
                line.state = MODIFIED
                return hit_latency + fault_extra, False
            # Store to a Shared/Owned line: bus upgrade.
            self._invalidate_others(core, line_addr)
            line.state = MODIFIED
            return hit_latency + self.upgrade_latency + fault_extra, False

        supplier_latency = self._fetch(core, line_addr, is_store)
        new_state = MODIFIED if is_store else self._fill_state(core, line_addr)
        if is_store:
            self._invalidate_others(core, line_addr)
        evicted = l1.insert(line_addr, new_state)
        if evicted is not None and evicted[1] in (MODIFIED, OWNED):
            self.l2.writeback(evicted[0])
        cycles = hit_latency + supplier_latency + fault_extra
        if self.on_cache_miss is not None:
            self.on_cache_miss(core, cycles)
        return cycles, True

    def flush_core(self, core: int) -> None:
        """Write back and drop every line a core holds (used by tests)."""
        l1 = self.l1ds[core]
        for index, cache_set in enumerate(l1.sets):
            for tag, line in list(cache_set.items()):
                if line.state in (MODIFIED, OWNED):
                    self.l2.writeback(tag * l1.config.n_sets + index)
            cache_set.clear()

    # -- protocol internals ----------------------------------------------------

    def _holders(self, requester: int, line_addr: int) -> List[Tuple[int, CacheLine]]:
        holders = []
        for other, l1 in enumerate(self.l1ds):
            if other == requester:
                continue
            index, tag = l1._index(line_addr)
            line = l1.sets[index].get(tag)
            if line is not None and line.state != INVALID:
                holders.append((other, line))
        return holders

    def _fetch(self, core: int, line_addr: int, is_store: bool) -> int:
        """Latency for the data supplier on a miss."""
        holders = self._holders(core, line_addr)
        supplier = next(
            (line for _, line in holders if line.state in SUPPLIER_STATES), None
        )
        if supplier is not None:
            self.cache_to_cache += 1
            if not is_store:
                if supplier.state == MODIFIED:
                    supplier.state = OWNED
                elif supplier.state == EXCLUSIVE:
                    supplier.state = SHARED
            # Cache-to-cache transfers cost about an L2 hit on the shared bus.
            return self.config.l2.hit_latency
        if holders:
            # Shared-only copies: the L2 still holds clean data.
            self.l2.access(line_addr)
            return self.config.l2.hit_latency
        l2_hit = self.l2.access(line_addr)
        return self.config.l2.hit_latency if l2_hit else self.config.memory_latency

    def _fill_state(self, core: int, line_addr: int) -> str:
        return SHARED if self._holders(core, line_addr) else EXCLUSIVE

    def _invalidate_others(self, core: int, line_addr: int) -> None:
        for other, l1 in enumerate(self.l1ds):
            if other == core:
                continue
            previous = l1.invalidate(line_addr)
            if previous is not None:
                self.invalidations += 1
                if previous in (MODIFIED, OWNED):
                    self.l2.writeback(line_addr)


class DirectoryCoherence(SnoopBus):
    """Directory-based MOESI: same states and transitions as the snoop
    bus, but holders are found through an explicit per-line sharer
    vector (the directory) instead of a broadcast snoop.

    A single snoop bus cannot scale past a handful of cores; the
    directory makes coherence O(sharers) per transaction, which is what
    lets the 16-64-core meshes simulate in reasonable time.  Timing
    differences vs snoop: every miss and every S/O upgrade pays
    ``config.directory_latency`` extra cycles for the home-directory
    lookup.  State transitions are identical, so any program's final
    memory (and its hit/miss pattern) matches the snoop bus bit for bit.
    """

    def __init__(self, config: MachineConfig) -> None:
        super().__init__(config)
        self.directory_latency = config.directory_latency
        #: line_addr -> cores whose L1 holds the line in any valid state.
        self._presence: Dict[int, Set[int]] = {}

    # -- public interface ----------------------------------------------------

    def access(self, core: int, addr: int, is_store: bool) -> Tuple[int, bool]:
        """Perform a data access; returns (cycles, was_miss)."""
        line_addr = addr // self._line_words
        l1 = self.l1ds[core]
        line = l1.lookup(line_addr)
        hit_latency = self._hit_latency
        fault_extra = 0 if self.faults is None else self.faults.mem_delay()

        if line is not None:
            if not is_store:
                return hit_latency + fault_extra, False
            if line.state in (MODIFIED, EXCLUSIVE):
                # Silent upgrade: this core is the only holder, and the
                # directory already records it as such.
                line.state = MODIFIED
                return hit_latency + fault_extra, False
            # Store to a Shared/Owned line: the directory names the
            # sharers to invalidate (no broadcast).
            if self.faults is not None:
                fault_extra += self.faults.directory_delay()
            self._invalidate_others(core, line_addr)
            line.state = MODIFIED
            return (
                hit_latency + self.directory_latency + self.upgrade_latency
                + fault_extra,
                False,
            )

        if self.faults is not None:
            fault_extra += self.faults.directory_delay()
        supplier_latency = self._fetch(core, line_addr, is_store)
        new_state = MODIFIED if is_store else self._fill_state(core, line_addr)
        if is_store:
            self._invalidate_others(core, line_addr)
        evicted = l1.insert(line_addr, new_state)
        if evicted is not None:
            self._drop(core, evicted[0])
            if evicted[1] in (MODIFIED, OWNED):
                self.l2.writeback(evicted[0])
        self._presence.setdefault(line_addr, set()).add(core)
        cycles = (
            hit_latency + self.directory_latency + supplier_latency
            + fault_extra
        )
        if self.on_cache_miss is not None:
            self.on_cache_miss(core, cycles)
        return cycles, True

    def flush_core(self, core: int) -> None:
        """Write back and drop every line a core holds (used by tests)."""
        l1 = self.l1ds[core]
        for index, cache_set in enumerate(l1.sets):
            for tag, line in list(cache_set.items()):
                line_addr = tag * l1.n_sets + index
                if line.state in (MODIFIED, OWNED):
                    self.l2.writeback(line_addr)
                self._drop(core, line_addr)
            cache_set.clear()

    def scrub_core(self, core: int) -> int:
        """Blackout recovery: remove a dead core from every sharer
        vector so later misses never wait on it as a supplier.  Modified
        and Owned lines write back to the L2 (their data is
        architecturally current -- blackouts wipe registers, not the
        cache arrays), everything else is invalidated.  Returns the
        number of lines scrubbed; the directory mirrors the L1s again
        afterwards (``check_directory`` holds)."""
        lines = self.l1ds[core].resident_lines()
        self.flush_core(core)
        return lines

    def check_directory(self) -> None:
        """Assert the sharer vectors exactly mirror the L1 arrays
        (test/debug invariant; never called on the simulation path)."""
        actual: Dict[int, Set[int]] = {}
        for core, l1 in enumerate(self.l1ds):
            for index, cache_set in enumerate(l1.sets):
                for tag, line in cache_set.items():
                    if line.state != INVALID:
                        line_addr = tag * l1.n_sets + index
                        actual.setdefault(line_addr, set()).add(core)
        recorded = {
            line_addr: sharers
            for line_addr, sharers in self._presence.items()
            if sharers
        }
        if recorded != actual:
            raise AssertionError(
                f"directory out of sync: recorded {recorded} != L1s {actual}"
            )

    # -- protocol internals ----------------------------------------------------

    def _drop(self, core: int, line_addr: int) -> None:
        sharers = self._presence.get(line_addr)
        if sharers is not None:
            sharers.discard(core)
            if not sharers:
                del self._presence[line_addr]

    def _holders(self, requester: int, line_addr: int) -> List[Tuple[int, CacheLine]]:
        holders = []
        for other in self._presence.get(line_addr, ()):
            if other == requester:
                continue
            l1 = self.l1ds[other]
            index, tag = l1._index(line_addr)
            line = l1.sets[index].get(tag)
            if line is not None and line.state != INVALID:
                holders.append((other, line))
        return holders

    def _invalidate_others(self, core: int, line_addr: int) -> None:
        sharers = self._presence.get(line_addr)
        if not sharers:
            return
        for other in sorted(sharers - {core}):
            previous = self.l1ds[other].invalidate(line_addr)
            self._drop(other, line_addr)
            if previous is not None:
                self.invalidations += 1
                if previous in (MODIFIED, OWNED):
                    self.l2.writeback(line_addr)


def make_coherence(config: MachineConfig) -> SnoopBus:
    """The coherence fabric ``config`` selects: the paper's snoop bus,
    or the scalable directory for ``coherence="directory"``."""
    if config.coherence == "directory":
        return DirectoryCoherence(config)
    return SnoopBus(config)
