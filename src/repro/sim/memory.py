"""Value storage: word-addressed main memory plus transactional overlays.

The simulator separates *values* from *timing*: :class:`MainMemory` holds
the architecturally visible words (updated in program order as the cores
commit stores), while :mod:`repro.sim.caches` models only tags, states,
and latencies.  This is the standard timing-directed simplification; the
coherence protocol still decides every access's latency, and the
compiler-enforced orderings are validated functionally by comparing final
memory against the reference interpreter.

Transactions (speculative DOALL chunks) write through a
:class:`WriteBuffer` overlay so aborts never pollute main memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..isa.registers import Value


class MainMemory:
    """Word-addressed memory with zero-fill semantics."""

    def __init__(self, image: Optional[Dict[int, Value]] = None) -> None:
        self._words: Dict[int, Value] = dict(image or {})

    def load(self, addr: int) -> Value:
        return self._words.get(addr, 0)

    def store(self, addr: int, value: Value) -> None:
        self._words[addr] = value

    def as_dict(self) -> Dict[int, Value]:
        return dict(self._words)

    def __len__(self) -> int:
        return len(self._words)


class WriteBuffer:
    """Buffered writes of one in-flight transaction."""

    def __init__(self) -> None:
        self._words: Dict[int, Value] = {}
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()

    def load(self, addr: int, memory: MainMemory) -> Value:
        self.read_set.add(addr)
        if addr in self._words:
            return self._words[addr]
        return memory.load(addr)

    def store(self, addr: int, value: Value) -> None:
        self.write_set.add(addr)
        self._words[addr] = value

    def publish(self, memory: MainMemory) -> None:
        for addr, value in self._words.items():
            memory.store(addr, value)

    def discard(self) -> None:
        self._words.clear()
        self.read_set.clear()
        self.write_set.clear()

    def conflicts_with(self, writes: Iterable[int]) -> bool:
        """True when another transaction's writes intersect our read set."""
        return any(addr in self.read_set for addr in writes)
