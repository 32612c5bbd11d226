"""Profiling support: the compiler-side stand-in for Trimaran's profiles.

Three profiles drive the paper's compilation decisions, and all three are
gathered in one instrumented reference-interpreter run:

* **cache-miss profile** -- per-load/store miss rates from a serial L1
  simulation; eBUG weighs "likely missing loads" and the selection policy
  estimates each region's memory stall time from it;
* **memory-dependence profile** -- per-loop observation of cross-iteration
  conflicts; loops with none observed are *statistical DOALL* candidates;
* **execution profile** -- dynamic op/block counts and average trip counts
  that weight regions during selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.config import CacheConfig
from ..isa.interp import Frame, InterpResult, Interpreter
from ..isa.operations import Operation
from ..isa.program import BasicBlock, Program
from ..isa.registers import Value
from ..sim.caches import EXCLUSIVE, MODIFIED, SetAssocCache
from .loops import Loop, find_loops

#: The serial L1 the cache-miss profile simulates.
PROFILE_L1D = CacheConfig(size_words=1024, associativity=2)


@dataclass
class LoopProfile:
    function: str
    header: str
    entries: int = 0
    iterations: int = 0
    cross_iteration_conflicts: int = 0

    @property
    def average_trip_count(self) -> float:
        return self.iterations / self.entries if self.entries else 0.0

    @property
    def observed_doall(self) -> bool:
        """No cross-iteration memory conflict was ever observed."""
        return self.iterations > 0 and self.cross_iteration_conflicts == 0


@dataclass
class ExecutionProfile:
    op_counts: Dict[int, int] = field(default_factory=dict)
    block_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    load_accesses: Dict[int, int] = field(default_factory=dict)
    load_misses: Dict[int, int] = field(default_factory=dict)
    loop_profiles: Dict[Tuple[str, str], LoopProfile] = field(default_factory=dict)
    dynamic_ops: int = 0

    def miss_rate(self, op: Operation) -> float:
        accesses = self.load_accesses.get(op.uid, 0)
        if accesses == 0:
            return 0.0
        return self.load_misses.get(op.uid, 0) / accesses

    def likely_missing(self, op: Operation, threshold: float = 0.05) -> bool:
        return self.miss_rate(op) > threshold

    def loop_profile(self, function: str, header: str) -> Optional[LoopProfile]:
        return self.loop_profiles.get((function, header))

    def block_count(self, function: str, label: str) -> int:
        return self.block_counts.get((function, label), 0)


class _ActiveLoop:
    """Tracking state for one loop the profiled execution is inside."""

    def __init__(self, profile: LoopProfile, loop: Loop, depth: int) -> None:
        self.profile = profile
        self.loop = loop
        self.depth = depth
        self.iteration = 0
        # addr -> (last iteration stored, last iteration loaded)
        self.touched: Dict[int, Tuple[int, int]] = {}

    def observe(self, addr: int, is_store: bool) -> None:
        stored, loaded = self.touched.get(addr, (-1, -1))
        if is_store:
            if (stored >= 0 and stored < self.iteration) or (
                loaded >= 0 and loaded < self.iteration
            ):
                self.profile.cross_iteration_conflicts += 1
            self.touched[addr] = (self.iteration, loaded)
        else:
            if stored >= 0 and stored < self.iteration:
                self.profile.cross_iteration_conflicts += 1
            self.touched[addr] = (stored, self.iteration)


class Profiler:
    """Runs the program once, as the interpreter's observer, and gathers
    all three profiles."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.profile = ExecutionProfile()
        self._cache = SetAssocCache(PROFILE_L1D)
        self._loops_by_function: Dict[str, List[Loop]] = {
            name: find_loops(function)
            for name, function in program.functions.items()
        }
        self._active: List[_ActiveLoop] = []
        #: The profiled run's final state, once :meth:`run` returns.
        self.result: Optional[InterpResult] = None

    def run(self, args: Tuple[Value, ...] = ()) -> ExecutionProfile:
        result = self.result = Interpreter(self.program, observer=self).run(args)
        self.profile.op_counts = result.op_counts
        self.profile.block_counts = result.block_counts
        self.profile.dynamic_ops = result.dynamic_ops
        return self.profile

    # -- interpreter events -------------------------------------------------------

    def block(self, block: BasicBlock, frame: Frame) -> None:
        function = frame.function.name
        depth = frame.depth

        # Drop loops we returned past, and loops of this activation whose
        # body no longer contains this block.  Loops of *outer* frames stay
        # active: memory accesses made in a callee belong to the caller
        # loop's current iteration.
        still_active: List[_ActiveLoop] = []
        for state in self._active:
            if state.depth > depth:
                continue
            if state.depth == depth and block.label not in state.loop.blocks:
                continue
            still_active.append(state)
        self._active = still_active

        for loop in self._loops_by_function.get(function, []):
            if loop.header != block.label:
                continue
            state = next(
                (
                    s
                    for s in self._active
                    if s.loop is loop and s.depth == depth
                ),
                None,
            )
            if state is None:
                profile = self.profile.loop_profiles.setdefault(
                    (function, loop.header),
                    LoopProfile(function=function, header=loop.header),
                )
                profile.entries += 1
                profile.iterations += 1
                self._active.append(_ActiveLoop(profile, loop, depth))
            else:
                state.iteration += 1
                state.profile.iterations += 1

    def memory(self, op: Operation, addr: int, is_store: bool, frame: Frame) -> None:
        line_addr = addr // PROFILE_L1D.line_words
        hit = self._cache.lookup(line_addr) is not None
        self._cache.insert(line_addr, MODIFIED if is_store else EXCLUSIVE)
        self.profile.load_accesses[op.uid] = (
            self.profile.load_accesses.get(op.uid, 0) + 1
        )
        if not hit:
            self.profile.load_misses[op.uid] = (
                self.profile.load_misses.get(op.uid, 0) + 1
            )
        for state in self._active:
            state.observe(addr, is_store)


def profile_program(
    program: Program, args: Tuple[Value, ...] = ()
) -> ExecutionProfile:
    """Convenience wrapper: profile ``program`` with default geometry."""
    return Profiler(program).run(args)
