"""The Voltron machine: cycle-level simulation of dual-mode execution.

Orchestration responsibilities (paper Sections 3.2-3.3):

* **Coupled mode** -- all cores of a group advance in lock-step; the 1-bit
  stall bus is modelled by stalling the whole group whenever any member is
  blocked (cache miss, scoreboard interlock).  PUT/BCAST drive the direct
  wires in the first half of the cycle and GETs latch them in the second,
  which is how the compiler-aligned PUT/GET pairs meet in the same cycle.
* **Decoupled mode** -- cores step independently; RECV stalls only the
  receiving core; SPAWN/SLEEP/LISTEN/RELEASE implement the lightweight
  fine-grain thread protocol; CALL acts as a barrier ("synchronization
  before function calls and returns") after which the callee executes in
  lock-step and the pre-call mode is restored on return.
* **MODE_SWITCH** -- switching to decoupled happens in lock-step
  (compiler-aligned, takes effect next cycle); switching to coupled is a
  barrier: cores wait until the last one arrives, then resume lock-step.
* **Transactions** -- TX_BEGIN checkpoints registers (the compiler's
  register rollback) and opens a TM write buffer; TX_COMMIT enforces
  ordered commit and on conflict rolls the chunk back to its restart block.

Execution engine
----------------

Three layers keep the cycle loop fast without changing any observable
statistic:

* **Pre-decoded dispatch on dense registers.**  ``__init__`` numbers the
  program's registers densely (a :class:`RegisterLayout`; immediates get
  constant slots), so register values and the scoreboard are lists, and
  pre-decodes every slot into its handler (latency pre-resolved from
  :mod:`repro.isa.latencies`), wire flag and flat operand indices.  The
  execute path is indexed lookups: no opcode if-chain, no latency probe,
  no register hashing.  A never-written register is ready at
  ``UNWRITTEN``, so the scoreboard probe raises on reading it.
* **Lean lock-step.**  A core probes its I-cache only when its fetch
  line changes (every slot under a fault plan, whose I-fetch channel
  fires per fetch); one pass finds a group's blocked cores and charges
  the cluster penalty; alignment is checked only after a redirect, a
  block boundary, a barrier release, a mode change or a recovery.

* **Stall fast-forwarding.**  Each stall rule lives once, in the kernel
  that takes the stall.  When ``_step_group`` or ``_step_decoupled``
  stalls a core that is free to issue -- the scoreboard interlock, a
  ``TX_COMMIT`` waiting on commit order, a deferred ``TX_BEGIN``, send
  back-pressure, a RECV with no message -- it stamps the core with
  ``(cycle, category, release)`` (``Core.stall``), where ``release`` is
  the cycle the stall lifts on its own, or None when only another core's
  progress can end it.  After a cycle in which no core issued, the
  window code reads the rest from pipeline state (halted, barrier and
  listening cores, ``next_free`` holds, the coupled stall bus) and the
  stamps from that cycle; if every live core is stalled it jumps the
  clock to the earliest release and bulk-credits the skipped cycles to
  exactly the stall categories single-stepping would have recorded.
  ``MachineStats.summary()`` is bit-identical either way (the
  ``tests/properties/test_prop_fastpath.py`` differential suite enforces
  this, fault plans included); pass ``fast_forward=False`` to force the
  reference single-step kernel.  Under a fault plan each window also
  ends at the next stall-bus or blackout fire and at the recovery
  layer's next action, and the skipped probes are consumed in bulk.  If
  every core is blocked and *no* release cycle exists, the machine
  raises :class:`Deadlock` immediately instead of spinning to
  ``max_cycles``.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.config import MachineConfig
from ..arch.mesh import Mesh
from ..isa.latencies import resolved_latencies
from ..isa.machinecode import CompiledProgram
from ..isa.operations import (
    ALU_SEMANTICS, COMPARISONS, Opcode, Operation, Reg, RegFile,
)
from ..isa.registers import RegisterLayout, Value
from .caches import L1ICache, make_coherence
from .core import BARRIER_WAIT, HALTED, LISTENING, RUNNING, UNWRITTEN, Core
from .faults import FaultConfig, FaultPlan
from .memory import MainMemory
from .network import OperandNetwork
from .probe import bind
from .recovery import RecoveryManager
from .stats import MachineStats
from .tm import TransactionalMemory

#: Per-core instruction address spaces start here (clear of data addresses).
ICODE_BASE = 1 << 24

#: Dispatch-table entry: handler(machine, core, op, srcs, dest) -> outcome
#: string; ``srcs`` and ``dest`` are flat operand indices (see _predecode).
Handler = Callable[..., str]

#: Ops issued on the direct inter-core wires (coupled-mode phase A).
#: Tuples, not sets: enum membership in a short tuple is an identity scan,
#: while a set lookup pays a Python-level Enum.__hash__ call.
_WIRE_OPS = (Opcode.PUT, Opcode.BCAST)
#: Ops that enqueue onto the operand network (back-pressure checked).
_QUEUE_SEND_OPS = (Opcode.SEND, Opcode.SPAWN, Opcode.RELEASE)


class SimulatorError(Exception):
    pass


class OutOfCycles(SimulatorError):
    """The cycle budget was exhausted (likely deadlock or livelock)."""


class Deadlock(SimulatorError):
    pass


class VoltronMachine:
    """Executes a :class:`CompiledProgram` on a configured Voltron system."""

    def __init__(
        self,
        compiled: CompiledProgram,
        config: MachineConfig,
        max_cycles: int = 20_000_000,
        args: Tuple[Value, ...] = (),
        fast_forward: bool = True,
        faults: Optional[FaultPlan] = None,
        obs=None,
    ) -> None:
        if compiled.n_cores != config.n_cores:
            raise ValueError(
                f"program compiled for {compiled.n_cores} cores, "
                f"machine has {config.n_cores}"
            )
        compiled.validate()
        compiled.assign_addresses()
        self.compiled = compiled
        self.config = config
        self.max_cycles = max_cycles
        self.fast_forward = fast_forward

        rows, cols = config.mesh_shape
        self.mesh = Mesh(rows, cols, config.n_cores)
        self.memory = MainMemory(compiled.program.memory_image())
        self.bus = make_coherence(config)
        self.icaches = [L1ICache(config.l1i) for _ in range(config.n_cores)]
        self.network = OperandNetwork(self.mesh, config.network)
        self.tm = TransactionalMemory(self.memory)

        # Fault injection (chaos testing): wire the plan into every
        # subsystem with an injection site; with no plan the hooks are a
        # single is-None check.
        if isinstance(faults, FaultConfig):
            faults = FaultPlan(faults)
        self.faults = faults
        # Destructive faults additionally get a recovery subsystem: the
        # link layer on the network, the blackout watchdog, and the
        # degradation scheduler.  None (the overwhelmingly common case)
        # keeps every hook a single is-None check.
        self.recovery: Optional[RecoveryManager] = None
        if faults is not None:
            self.bus.faults = faults
            for icache in self.icaches:
                icache.faults = faults
            self.network.faults = faults
            self.tm.faults = faults
            if faults.destructive:
                self.recovery = RecoveryManager(self, faults)
                self.network.recovery = self.recovery

        self._memory_latency = config.memory_latency
        self._predecode()

        self.cores = [Core(i, self.layout) for i in range(config.n_cores)]
        self.stats = MachineStats(n_cores=config.n_cores)
        main_params = self._formals[compiled.program.entry]
        if len(args) != len(main_params):
            raise ValueError(
                f"main expects {len(main_params)} args, got {len(args)}"
            )
        # Without a fault plan a core probes its private I-cache once per
        # line: a repeated hit on the line it just fetched changes no
        # state any result depends on.  Fault plans fire per fetch, so
        # they keep one probe per slot.
        fetch_span = config.l1i.line_words if faults is None else 1
        for core in self.cores:
            core.stats = self.stats.cores[core.id]
            core.fetch_base = ICODE_BASE * (core.id + 1)
            core.fetch_span = fetch_span
            core.push_frame(compiled.entry_function(core.id), return_dest=None)
            # Program arguments materialize in every core's register file
            # (the run-time loader's job, mirroring the interpreter).
            for index, value in zip(main_params, args):
                core.write_reg(index, value, 0)

        self.mode = "coupled"
        self._mode_next: Optional[str] = None
        self.cycle = 0
        # HALTED is terminal, so a counter replaces the per-cycle
        # every-core scan in the main loop's continuation test.
        self._halted_count = 0
        self.return_value: Value = None
        # Barriers: kind -> set of arrived core ids.
        self._barrier: Dict[str, Set[int]] = {}
        # Cores released from a barrier become RUNNING at the next cycle
        # boundary (releasing mid-cycle would let cores later in the step
        # order run an extra op and break lock-step alignment).
        self._deferred_release: Set[int] = set()
        # (call depth to restore at, mode to restore) entries.
        self._mode_restore: List[Tuple[int, str]] = []
        self._restore_done_this_cycle = False
        # Coupled groups: consecutive runs of at most coupled_group_size cores.
        size = config.coupled_group_size
        self.groups: List[List[Core]] = [
            self.cores[i : i + size] for i in range(0, config.n_cores, size)
        ]
        # Clustered coupled mode (16-64-core meshes): the DVLIW schedule
        # spans every core, so past one stall-bus group the whole machine
        # still steps as ONE lock-step ensemble -- per-cluster stepping
        # would break cross-cluster PUT/GET wire alignment.  The 1-bit
        # stall bus only reaches coupled_group_size cores, though, so a
        # stall crossing cluster boundaries pays cluster_stall_latency
        # extra cycles (the cluster-level stall network above the buses),
        # charged once per stall episode per blocked core.
        if len(self.groups) > 1:
            self.coupled_ensembles: List[List[Core]] = [self.cores]
            self._cluster_penalty = config.cluster_stall_latency
        else:
            self.coupled_ensembles = self.groups
            self._cluster_penalty = 0
        # Set wherever coupled cores' positions may diverge: a redirect, a
        # block boundary, a barrier release, a mode change, a recovery.
        # The coupled kernel checks lock-step alignment only then.
        self._positions_moved = True

        # The one observer, attached last so it sees the fully built
        # machine: repro.sim.probe.bind sets self.on_<event> and each
        # subsystem's on_<event> to the observer's handler, or None.
        self.obs = obs
        bind(self, obs)

    # -- pre-decode ----------------------------------------------------------------

    def _predecode(self) -> None:
        """Walk every core's instruction stream once: number the program's
        registers (``self.layout``), then decode each slot into an entry
        ``(op, handler, wire, srcs, dest)`` on its block
        (``CoreBlock.decoded``; NOP padding decodes to None): the
        dispatch-table handler (None for an unknown opcode, which fails at
        execute time), an is-direct-wire flag (PUT/BCAST, issued in
        coupled phase A), and the flat indices of the sources (also the
        scoreboard probe: constant slots are always ready) and of the
        destination."""
        functions = self.compiled.program.functions
        blocks = [
            (function.name, block)
            for stream in self.compiled.streams
            for function in stream.values()
            for block in function.ordered_blocks()
        ]
        self.layout = layout = RegisterLayout(chain(
            (reg for function in functions.values() for reg in function.params),
            (
                reg
                for _, block in blocks
                for op in block.ops()
                for reg in chain(op.dests, op.srcs)
                if isinstance(reg, Reg)
            ),
        ))
        index = layout.index
        #: Function name -> flat indices of its formal parameters.
        self._formals = {
            name: tuple(map(index, function.params))
            for name, function in functions.items()
        }
        dispatch = build_dispatch_table()
        for name, block in blocks:
            block.decoded = tuple(
                None
                if op is None
                else (
                    op,
                    dispatch.get(op.opcode),
                    op.opcode in _WIRE_OPS,
                    tuple(map(index, op.srcs)),
                    index(op.dests[0]) if op.dests else None,
                )
                for op in block.slots
            )
            # Attribution key for the per-cycle block accounting,
            # materialized once instead of per cycle.
            block.stat_key = (name, block.label)

    # -- public API ---------------------------------------------------------------

    def run(self) -> MachineStats:
        cores = self.cores
        core_stats = tuple(core.stats for core in cores)
        block_cycles = self.stats.block_cycles
        mode_cycles = self.stats.mode_cycles
        master = cores[0]
        # Mode residency and block attribution are accumulated in locals
        # and flushed on change (blocks persist for many cycles), keeping
        # two dictionary updates off the per-cycle path.  The fast-forward
        # bulk credits write to the same dicts directly; both paths only
        # ever add, so interleaving is safe.
        mode_count = 0
        block_key = None
        block_count = 0
        # Fast-forward is only attempted after a cycle in which no core
        # issued (tracked by the busy tallies): progress cycles never pay
        # for the window code, and the first cycle of every stall window
        # is single-stepped -- which stamps the stalls the window reads.
        stalled_prev = True
        busy_total = sum(s.busy for s in core_stats)
        on_cycle = self.on_cycle
        try:
            while self._halted_count < len(cores):
                if self.cycle >= self.max_cycles:
                    raise OutOfCycles(
                        f"exceeded {self.max_cycles} cycles "
                        f"(likely deadlock or livelock)\n"
                        + self._core_diagnostics()
                    )
                # Deadlock is only possible when every live core is
                # listening; run the full probe lazily (core 0 is normally
                # running, which rules a deadlock out on its own).
                status0 = master.status
                if status0 == HALTED or status0 == LISTENING:
                    self._check_deadlock()
                self.network.deliver(self.cycle)
                if self.recovery is not None:
                    self.recovery.tick(self.cycle)
                self._restore_done_this_cycle = False
                if self._deferred_release:
                    for core_id in self._deferred_release:
                        if cores[core_id].status == BARRIER_WAIT:
                            cores[core_id].status = RUNNING
                    self._deferred_release.clear()
                    self._positions_moved = True
                if (
                    self.fast_forward
                    and stalled_prev
                    and self._try_fast_forward()
                ):
                    continue
                if self.mode == "coupled":
                    for group in self.coupled_ensembles:
                        self._step_group(group)
                else:
                    for core in cores:
                        self._step_decoupled(core)
                busy_now = 0
                for stats in core_stats:
                    busy_now += stats.busy
                stalled_prev = busy_now == busy_total
                busy_total = busy_now
                mode_count += 1
                key = master.frame.block.stat_key if master.stack else None
                if key is not block_key:
                    if block_count:
                        block_cycles[block_key] = (
                            block_cycles.get(block_key, 0) + block_count
                        )
                    block_key = key
                    block_count = 0
                if key is not None:
                    block_count += 1
                if self._mode_next is not None:
                    mode_cycles[self.mode] += mode_count
                    mode_count = 0
                    if self._mode_next != self.mode:
                        self.stats.mode_switches += 1
                        if self.recovery is not None:
                            # Degradation re-arms at mode barriers.
                            self.recovery.on_mode_switch(self.cycle + 1)
                        if self.on_mode_switch is not None:
                            # This cycle still counts under the old mode;
                            # the switch takes effect at cycle + 1.
                            self.on_mode_switch(
                                self.cycle + 1, self.mode, self._mode_next
                            )
                    self.mode = self._mode_next
                    self._mode_next = None
                    self._positions_moved = True
                if on_cycle is not None:
                    on_cycle(self.cycle)
                self.cycle += 1
        finally:
            # Flush even when OutOfCycles/Deadlock propagates, so the
            # stats reflect every completed cycle.
            if mode_count:
                mode_cycles[self.mode] += mode_count
            if block_count:
                block_cycles[block_key] = (
                    block_cycles.get(block_key, 0) + block_count
                )
        self.stats.cycles = self.cycle
        self.stats.tx_commits = self.tm.commits
        self.stats.tx_aborts = self.tm.aborts
        if self.recovery is not None:
            self.stats.recovery = self.recovery.counters_dict()
            check_directory = getattr(self.bus, "check_directory", None)
            if check_directory is not None:
                # Destructive runs scrub dead cores out of the sharer
                # vectors mid-flight; prove the directory still mirrors
                # the L1s once the run settles.
                check_directory()
        if self.on_finalize is not None:
            self.on_finalize(self)
        return self.stats

    def final_memory(self) -> Dict[int, Value]:
        return self.memory.as_dict()

    def array_values(self, name: str) -> List[Value]:
        symbol = self.compiled.program.array(name)
        return [self.memory.load(symbol.base + i) for i in range(symbol.size)]

    # -- helpers -------------------------------------------------------------------

    def _check_deadlock(self) -> None:
        # Hot path: bail at the first live core that is not listening
        # (normally core 0, immediately) without building any lists.
        any_live = False
        for core in self.cores:
            status = core.status
            if status != HALTED:
                if status != LISTENING:
                    return
                any_live = True
        if any_live and self.network.quiescent():
            raise Deadlock(
                f"cycle {self.cycle}: every live core is listening and the "
                "network is quiescent\n" + self._core_diagnostics()
            )

    def _core_diagnostics(self) -> str:
        """Per-core state for Deadlock/OutOfCycles messages: position,
        stall reason, and operand-queue occupancy -- enough to debug a
        chaos-suite failure from the exception text alone."""
        lines = [f"mode={self.mode} cycle={self.cycle}"]
        for core in self.cores:
            if core.stack:
                name, label, slot = core.position()
                where = f"pc={name}:{label}:{slot}"
            else:
                where = "pc=<no frame>"
            if core.next_free > self.cycle:
                stall = (
                    f"blocked[{core.pending_cause or 'latency'}] "
                    f"until cycle {core.next_free}"
                )
            else:
                stall = "free"
            lines.append(
                f"  core {core.id}: {core.status} {where} {stall} "
                f"queue={self.network.pending_for(core.id)} pending msg(s)"
            )
        return "\n".join(lines)

    # -- stall fast-forwarding ---------------------------------------------------

    def _try_fast_forward(self) -> bool:
        """If no core can make progress this cycle, jump the clock to the
        earliest release cycle, crediting the skipped cycles to exactly
        the stall categories per-cycle stepping would have recorded.

        Returns True when the clock was advanced (the caller skips the
        normal step for this iteration).  The window reads pipeline state
        and decides no stall rule itself: a core free to issue counts as
        stalled only through the stamp a kernel wrote in the cycle just
        stepped, and a window extends the stamps it read to its last
        cycle (nothing a stamp depends on changes inside it).  Anything
        else declines: single-stepping is the reference.
        """
        cycle = self.cycle
        # (stats, category) pairs to bulk-credit per skipped cycle.
        credits: List[Tuple] = []
        releases: List[int] = []
        # Free cores whose stall a kernel decided and stamped.
        stamped: List[Core] = []
        faults = self.faults
        stall_probes = 0

        if self.mode == "coupled":
            for group in self.coupled_ensembles:
                running = [c for c in group if c.status == RUNNING]
                if not running:
                    continue
                stall_probes += 1
                if faults is not None and faults.horizon(stall_probes, 0) == 0:
                    # This cycle's stall-bus probe fires: single-step it,
                    # before the penalty below (the hold's block_until
                    # and the penalty do not commute).
                    return False
                # An istall opens a stall episode with no busy increment,
                # so the window can be first to see it (and charge the
                # cluster penalty).
                stalls = self._stall_bus(running, cycle)
                if stalls is not None:
                    # Attribution is constant until the first blocked
                    # member's fill returns.
                    credits.extend((c.stats, cat) for c, cat in stalls)
                    releases.append(min(
                        c.next_free for c in running if c.next_free > cycle
                    ))
                    continue
                # A free group stalls only on the scoreboard interlock.
                stamped.extend(running)
        else:
            for core in self.cores:
                if core.status == HALTED:
                    continue
                if core.status == BARRIER_WAIT:
                    credits.append((core.stats, self._barrier_cause(core)))
                    continue  # released by another core's arrival
                if core.next_free > cycle:
                    credits.append((core.stats, core.pending_cause or "latency"))
                    releases.append(core.next_free)
                    continue
                if core.status == LISTENING:
                    arrival = self.network.next_control_arrival(core.id)
                    if arrival is not None and arrival <= cycle:
                        return False  # a control message is consumable now
                    credits.append((core.stats, "idle"))
                    if arrival is not None:
                        releases.append(arrival)
                    continue
                stamped.append(core)

        for core in stamped:
            stamp = core.stall_stamp
            if stamp is None or stamp[0] != cycle - 1:
                return False  # free, and not stalled in the cycle before
            _, category, release = stamp
            if release is not None:
                if release <= cycle:
                    return False  # the stall lifts this cycle
                releases.append(release)
            credits.append((core.stats, category))

        if not credits:
            return False  # nothing to account for: not a provable stall
        if not releases:
            # Every live core is blocked and nothing in the machine will
            # ever release one: barrier arrivals, commits, sends, and
            # control messages all require some core to issue first.
            raise Deadlock(
                f"cycle {self.cycle}: every core is blocked with no "
                "release cycle\n" + self._core_diagnostics()
            )
        target = min(min(releases), self.max_cycles)
        if faults is not None:
            target = faults.clip_window(
                cycle, target, stall_probes, self.recovery
            )
        skipped = target - cycle
        if skipped <= 0:
            return False
        for stats, category in credits:
            stats.stall(category, skipped)
        for core in stamped:
            core.stall_stamp = (target - 1,) + core.stall_stamp[1:]
        self.stats.mode_cycles[self.mode] += skipped
        master = self.cores[0]
        if master.stack:
            key = master.frame.block.stat_key
            self.stats.block_cycles[key] = (
                self.stats.block_cycles.get(key, 0) + skipped
            )
        if self.on_fast_forward_window is not None:
            # The bulk stall credits above were emitted while self.cycle
            # was still the old cycle, so they already cover [cycle, target).
            self.on_fast_forward_window(cycle, target)
        self.cycle = target
        return True

    # -- coupled (lock-step) stepping -------------------------------------------------

    def _stall_bus(
        self, running: List[Core], cycle: int
    ) -> Optional[List[Tuple[Core, str]]]:
        """The stall bus: None when no member of ``running`` is blocked,
        else each member's stall category this cycle -- a blocked core's
        own cause, the first blocked member's for the rest.  Across
        cluster boundaries the stall signal rides the (slower)
        cluster-level network: each blocked core's episode stretches by
        the propagation penalty, once, when the episode is first seen
        (``Core.penalized`` clears when the core runs free again)."""
        penalty = self._cluster_penalty
        first = None
        for core in running:
            if core.next_free > cycle:
                if penalty and not core.penalized:
                    core.penalized = True
                    core.next_free += penalty
                if first is None:
                    first = core
                    if not penalty:
                        break
            elif core.penalized:
                core.penalized = False
        if first is None:
            return None
        cause = first.pending_cause or "latency"
        return [
            (core, (core.pending_cause or "latency")
             if core.next_free > cycle else cause)
            for core in running
        ]

    def _step_group(self, group: List[Core]) -> None:
        cycle = self.cycle
        running = [core for core in group if core.status == RUNNING]
        if not running:
            return

        # Fault injection: a transient stall-bus assertion holds the
        # whole group for a few cycles, exactly as if a member were
        # blocked; lock-step alignment is preserved because nobody moves.
        if self.faults is not None:
            hold = self.faults.stall_hold()
            if hold:
                for core in running:
                    core.block_until(cycle + hold, "latency")

        # Stall bus: any blocked member stalls the whole group.
        stalls = self._stall_bus(running, cycle)
        if stalls is not None:
            for core, category in stalls:
                core.stats.stall(category)
            return

        if self._positions_moved:
            # Zero-length blocks (pure structure) fall through without
            # cost; only a redirect can leave a core at a block end.
            for core in running:
                if core.at_block_end():
                    self._finish_block(core)
            running = [core for core in running if core.status == RUNNING]
            if not running:
                return
            self._assert_lockstep(running)
            self._positions_moved = False

        # Fetch phase: an I-miss on any core stalls the group.
        missed = False
        for core in running:
            addr = core.take_fetch()
            if addr is not None:
                extra = self.icaches[core.id].access(
                    core.fetch_base + addr, self.bus.l2, self._memory_latency
                )
                if extra:
                    core.stats.l1i_misses += 1
                    core.block_until(cycle + 1 + extra, "istall")
                    missed = True
        if missed:
            for core in running:
                core.stats.stall("istall")
            return

        # Decode once per core per cycle (the pre-decoded entry, None for
        # NOP padding; PUT/BCAST leave the frame untouched, so entries
        # stay valid across the issue phases) and probe the scoreboard:
        # lock-step means one unready core stalls all, until the last
        # unready source is ready.
        issue = []
        release = 0
        for core in running:
            frame = core.frame
            entry = frame.block.decoded[frame.slot]
            issue.append((core, entry))
            if entry is not None and entry[3]:
                ready = max(map(core.reg_ready.__getitem__, entry[3]))
                if ready > release:
                    release = ready
        if release > cycle:
            if release >= UNWRITTEN:
                for core, entry in issue:
                    if entry is not None:
                        core.check_sources(entry[3])
            for member in running:
                member.stall(cycle, "latency", release)
            return

        on_issue = self.on_issue

        # Issue phase A: drive the direct wires.
        for core, entry in issue:
            if entry is not None and entry[2]:
                op, handler, _, srcs, dest = entry
                handler(self, core, op, srcs, dest)
                core.stats.busy += 1
                core.stats.ops_executed += 1
                if on_issue is not None:
                    on_issue(cycle, core.id, op)

        # Issue phase B: everything else (GETs read the wires driven above).
        for core, entry in issue:
            if entry is None:
                core.stats.busy += 1
                outcome = "ok"
            elif entry[2]:
                outcome = "ok"
            else:
                op, handler, _, srcs, dest = entry
                if handler is None:
                    raise SimulatorError(f"unimplemented opcode {op.opcode!r}")
                outcome = handler(self, core, op, srcs, dest)
                core.stats.busy += 1
                core.stats.ops_executed += 1
                if on_issue is not None:
                    on_issue(cycle, core.id, op)
                if outcome == "stall":
                    raise SimulatorError(
                        f"cycle {cycle}: {op!r} stalled in coupled mode "
                        f"on core {core.id}; the compiler must not place "
                        "queue-mode waits in coupled regions"
                    )
                if outcome != "ok":
                    self._positions_moved = True
            if core.status != RUNNING:
                continue
            if outcome == "ok":
                frame = core.frame
                frame.slot += 1
                if frame.slot >= len(frame.block.slots):
                    self._finish_block(core)
                    self._positions_moved = True

    def _assert_lockstep(self, running: List[Core]) -> None:
        if len({core.position() for core in running}) > 1:
            raise SimulatorError(
                f"cycle {self.cycle}: coupled cores diverged: "
                + ", ".join(repr(core) for core in running)
            )

    # -- decoupled stepping --------------------------------------------------------

    def _step_decoupled(self, core: Core) -> None:
        cycle = self.cycle
        if core.status == HALTED:
            return
        if core.status == BARRIER_WAIT:
            core.stats.stall(self._barrier_cause(core))
            return
        if core.next_free > cycle:
            core.stats.stall(core.pending_cause or "latency")
            return
        if core.status == LISTENING:
            self._step_listening(core)
            return

        # Destructive faults: a RUNNING, issue-ready core inside a
        # speculative chunk may black out this cycle (wiping registers
        # and scoreboard); the watchdog recovers it via TM rollback.
        if self.recovery is not None and self.recovery.maybe_blackout(core, cycle):
            core.stats.stall("latency")
            return

        # Zero-length blocks (pure structure) fall through without cost.
        frame = core.frame
        if frame.slot >= len(frame.block.slots):
            self._finish_block(core)
            if core.status != RUNNING:
                return
            frame = core.frame

        # Fetch.
        addr = core.take_fetch()
        if addr is not None:
            extra = self.icaches[core.id].access(
                core.fetch_base + addr, self.bus.l2, self._memory_latency
            )
            if extra:
                core.stats.l1i_misses += 1
                core.block_until(cycle + 1 + extra, "istall")
                core.stats.stall("istall")
                return

        slot = frame.slot
        entry = frame.block.decoded[slot]
        if entry is None:
            core.stats.busy += 1
            frame.slot = slot + 1
            self._finish_block(core)
            return

        op, handler, _, srcs, dest = entry
        opcode = op.opcode
        if opcode is Opcode.CALL:
            self._arrive_call_barrier(core)
            return
        if opcode is Opcode.TX_COMMIT and not self.tm.may_commit(core.id):
            core.stall(cycle, "tx_wait")  # until an earlier chunk commits
            return
        if (
            opcode is Opcode.TX_BEGIN
            and self.recovery is not None
            and self.recovery.defer_tx_begin(core, op)
        ):
            # Graceful degradation: a degraded core issues its chunks
            # under the serialized fewer-core schedule.
            core.stall(cycle, "tx_wait")
            return
        if opcode in _QUEUE_SEND_OPS:
            if not self.network.can_send(core.id, op.attrs["target_core"]):
                # Back-pressure lifts when the receiver drains or, under
                # the link layer, when a failed arrival's requeue returns
                # a Virtual-Link pool slot (at the next arrival).
                release = None if self.recovery is None else self.network.next_arrival()
                core.stall(cycle, "send", release)
                return
        if srcs:
            release = max(map(core.reg_ready.__getitem__, srcs))
            if release > cycle:
                if release >= UNWRITTEN:
                    core.check_sources(srcs)
                core.stall(cycle, "latency", release)
                return

        if handler is None:
            raise SimulatorError(f"unimplemented opcode {opcode!r}")
        outcome = handler(self, core, op, srcs, dest)
        if outcome == "stall":
            return  # stall already attributed (e.g. empty receive queue)
        core.stats.busy += 1
        core.stats.ops_executed += 1
        if self.on_issue is not None:
            self.on_issue(cycle, core.id, op)
        if core.status == RUNNING and outcome == "ok":
            frame = core.frame
            frame.slot += 1
            if frame.slot >= len(frame.block.slots):
                self._finish_block(core)

    def _barrier_cause(self, core: Core) -> str:
        if core.id in self._barrier.get("call", ()):
            return "call_sync"
        return "barrier"

    def _step_listening(self, core: Core) -> None:
        message = self.network.peek_control(core.id, self.cycle)
        if message is None:
            core.stats.stall("idle")
            return
        core.stats.busy += 1
        core.status = RUNNING
        if message.kind == "spawn":
            core.jump(message.value)
        else:  # release: move past the LISTEN op
            core.advance_slot()
            self._finish_block(core)

    def _arrive_call_barrier(self, core: Core) -> None:
        """Decoupled-mode CALL: wait for every live core, then call in
        lock-step (the paper's call/return synchronization)."""
        arrived = self._barrier.setdefault("call", set())
        arrived.add(core.id)
        core.status = BARRIER_WAIT
        core.stats.busy += 1  # the arrival cycle issues the (pending) call
        live = {c.id for c in self.cores if c.status != HALTED}
        if arrived >= live:
            del self._barrier["call"]
            callee_names = set()
            for member_id in sorted(arrived):
                member = self.cores[member_id]
                self._deferred_release.add(member_id)
                frame = member.frame
                call_op, _, _, srcs, dest = frame.block.decoded[frame.slot]
                assert call_op.opcode is Opcode.CALL
                callee_names.add(call_op.attrs["function"])
                self._call(member, call_op, srcs, dest)
            if len(callee_names) != 1:
                raise SimulatorError(
                    f"cycle {self.cycle}: cores joined a call barrier for "
                    f"different callees {sorted(callee_names)}"
                )
            self._mode_restore.append((self.cores[0].call_depth - 1, "decoupled"))
            self._mode_next = "coupled"

    # -- operation semantics ----------------------------------------------------------
    #
    # Handlers read sources as ``core.values[i]`` unchecked: the
    # scoreboard probe before every issue has already rejected a
    # never-written source (see ``core.UNWRITTEN``).

    def _do_load(self, core: Core, op: Operation, srcs, dest) -> str:
        values = core.values
        addr = int(values[srcs[0]]) + int(values[srcs[1]])
        cycles, miss = self.bus.access(core.id, addr, is_store=False)
        values[dest] = self.tm.load(core.id, addr)
        core.reg_ready[dest] = self.cycle + 1 + cycles
        core.stats.loads += 1
        if self.on_load is not None:
            self.on_load(core.id, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_store(self, core: Core, op: Operation, srcs, dest) -> str:
        values = core.values
        addr = int(values[srcs[0]]) + int(values[srcs[1]])
        cycles, miss = self.bus.access(core.id, addr, is_store=True)
        self.tm.store(core.id, addr, values[srcs[2]])
        core.stats.stores += 1
        if self.on_store is not None:
            self.on_store(core.id, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_br(self, core: Core, op: Operation, srcs, dest) -> str:
        values = core.values
        if len(srcs) == 1 or values[srcs[1]]:
            core.jump(values[srcs[0]])
        else:
            if core.frame.block.fall is None:
                raise SimulatorError(
                    f"core {core.id} fell through a branch with no fall "
                    f"edge in {core.frame.block.label}"
                )
            core.jump(core.frame.block.fall)
        return "redirect"

    def _do_call(self, core: Core, op: Operation, srcs, dest) -> str:
        self._call(core, op, srcs, dest)
        return "redirect"

    def _call(self, core: Core, op: Operation, srcs, dest) -> None:
        name = op.attrs["function"]
        # Copy arguments into the callee's formal registers on this core
        # (checked: a decoupled CALL reads them at the barrier, past no
        # scoreboard probe).
        core.check_sources(srcs)
        values = [core.values[src] for src in srcs]
        core.frame.slot += 1  # resume after the call
        core.push_frame(self.compiled.core_function(core.id, name), dest)
        for index, value in zip(self._formals[name], values):
            core.write_reg(index, value, self.cycle + 1)

    def _do_ret(self, core: Core, op: Operation, srcs, dest) -> str:
        value = core.values[srcs[0]] if srcs else None
        finished = core.pop_frame()
        if not core.stack:
            core.status = HALTED
            self._halted_count += 1
            if core.id == 0:
                self.return_value = value
            return "redirect"
        if finished.return_dest is not None and srcs:
            core.write_reg(finished.return_dest, value, self.cycle + 1)
        if (
            self._mode_restore
            and self._mode_restore[-1][0] == core.call_depth
            and not self._restore_done_this_cycle
        ):
            _, mode = self._mode_restore.pop()
            self._mode_next = mode
            self._restore_done_this_cycle = True
        self._finish_block(core)
        return "redirect"

    def _do_halt(self, core: Core, op: Operation, srcs, dest) -> str:
        if self.tm.in_transaction(core.id):
            raise SimulatorError(f"core {core.id} halted inside a transaction")
        core.status = HALTED
        self._halted_count += 1
        return "redirect"

    def _do_put(self, core: Core, op: Operation, srcs, dest) -> str:
        self.network.direct.put(
            core.id, op.attrs["direction"], core.values[srcs[0]], self.cycle
        )
        return "ok"

    def _do_bcast(self, core: Core, op: Operation, srcs, dest) -> str:
        self.network.direct.bcast(core.id, core.values[srcs[0]], self.cycle)
        return "ok"

    def _do_get(self, core: Core, op: Operation, srcs, dest) -> str:
        attrs = op.attrs
        core.values[dest] = self.network.direct.get(
            core.id, attrs["direction"], self.cycle,
            bcast_src=attrs.get("bcast_src"),
        )
        core.reg_ready[dest] = self.cycle + 1
        return "ok"

    def _do_send(self, core: Core, op: Operation, srcs, dest) -> str:
        self.network.send(
            core.id, op.attrs["target_core"], core.values[srcs[0]], self.cycle,
            tag=op.attrs.get("tag"),
        )
        core.stats.messages_sent += 1
        return "ok"

    def _do_recv(self, core: Core, op: Operation, srcs, dest) -> str:
        message = self.network.try_receive(
            core.id, op.attrs["source_core"], self.cycle,
            tag=op.attrs.get("tag"),
        )
        if message is None:
            if op.attrs.get("sync") == "call":
                category = "call_sync"
            elif op.dests and op.dests[0].file is RegFile.PR:
                category = "recv_pred"
            else:
                category = "recv_data"
            # Stalled until the matching message arrives, if one exists.
            core.stall(self.cycle, category, self.network.next_data_arrival(
                core.id, op.attrs["source_core"], op.attrs.get("tag")
            ))
            return "stall"
        if dest is not None:
            core.write_reg(dest, message.value, self.cycle + 1)
        core.stats.messages_received += 1
        return "ok"

    def _do_spawn(self, core: Core, op: Operation, srcs, dest) -> str:
        self.network.send(
            core.id, op.attrs["target_core"], op.attrs["target_block"],
            self.cycle, kind="spawn",
        )
        self.stats.spawns += 1
        return "ok"

    def _do_release(self, core: Core, op: Operation, srcs, dest) -> str:
        self.network.send(
            core.id, op.attrs["target_core"], None, self.cycle, kind="release"
        )
        return "ok"

    def _do_sleep(self, core: Core, op: Operation, srcs, dest) -> str:
        assert core.listen_return is not None, "SLEEP outside a spawned thread"
        block, slot = core.listen_return
        core.frame.block = block
        core.frame.slot = slot
        core._fetch_block = None
        core.status = LISTENING
        return "redirect"

    def _do_listen(self, core: Core, op: Operation, srcs, dest) -> str:
        core.listen_return = (core.frame.block, core.frame.slot)
        core.status = LISTENING
        return "redirect"

    def _do_tx_begin(self, core: Core, op: Operation, srcs, dest) -> str:
        attrs = op.attrs
        self.tm.begin(
            core.id, attrs["region"], attrs["order"], attrs.get("chunks", 0)
        )
        core.checkpoint_registers(op.attrs["restart"])
        return "ok"

    def _do_tx_commit(self, core: Core, op: Operation, srcs, dest) -> str:
        if self.tm.try_commit(core.id):
            core.block_until(
                self.cycle + 1 + self.config.tm_commit_latency, "tx_wait"
            )
            core.tx_checkpoint = None
            return "ok"
        core.jump(core.rollback_registers())
        return "redirect"

    def _do_select(self, core: Core, op: Operation, srcs, dest) -> str:
        pred, a, b = map(core.values.__getitem__, srcs)
        core.write_reg(dest, a if pred else b, self.cycle + 1)
        return "ok"

    def _do_pbr(self, core: Core, op: Operation, srcs, dest) -> str:
        core.write_reg(dest, op.attrs["target"], self.cycle + 1)
        return "ok"

    def _do_nop(self, core: Core, op: Operation, srcs, dest) -> str:
        return "ok"

    def _do_mode_switch(self, core: Core, op: Operation, srcs, dest) -> str:
        target = op.attrs["mode"]
        if target == "decoupled":
            self._mode_next = "decoupled"
            return "ok"
        if self.mode == "coupled":
            return "ok"  # already coupled (e.g. program prologue)
        # Decoupled -> coupled: barrier.  Advance past the switch first so
        # the core resumes after it once the barrier completes.
        core.advance_slot()
        self._finish_block(core)
        arrived = self._barrier.setdefault("mode", set())
        arrived.add(core.id)
        core.status = BARRIER_WAIT
        live = {c.id for c in self.cores if c.status != HALTED}
        if arrived >= live:
            del self._barrier["mode"]
            self._deferred_release.update(arrived)
            self._mode_next = "coupled"
        return "redirect"

    def _finish_block(self, core: Core) -> None:
        """Fall through block ends (possibly several empty blocks)."""
        while core.status == RUNNING and core.at_block_end():
            if not core.fall_through():
                raise SimulatorError(
                    f"core {core.id} ran off the end of block "
                    f"{core.frame.block.label} in {core.frame.function.name}"
                )


def build_dispatch_table() -> Dict[Opcode, Handler]:
    """Build the opcode dispatch table: the ALU, comparison, predicate and
    conversion handlers close over their result latency (resolved once
    through :func:`resolved_latencies`), so the execute path performs no
    opcode branching or latency lookups; any other opcode ``X`` runs
    ``VoltronMachine._do_<x>``."""
    latency = resolved_latencies()
    table: Dict[Opcode, Handler] = {}

    def alu_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, srcs, dest, _fn=fn, _lat=lat):
            values = core.values
            values[dest] = _fn(values[srcs[0]], values[srcs[1]])
            core.reg_ready[dest] = machine.cycle + _lat
            return "ok"

        return run

    def cmp_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, srcs, dest, _fn=fn, _lat=lat):
            values = core.values
            values[dest] = bool(_fn(values[srcs[0]], values[srcs[1]]))
            core.reg_ready[dest] = machine.cycle + _lat
            return "ok"

        return run

    def convert_entry(convert, lat: int) -> Handler:
        def run(machine, core, op, srcs, dest, _cv=convert, _lat=lat):
            values = core.values
            values[dest] = _cv(values[srcs[0]])
            core.reg_ready[dest] = machine.cycle + _lat
            return "ok"

        return run

    for opcode, fn in ALU_SEMANTICS.items():
        table[opcode] = alu_entry(fn, latency[opcode])
    for opcode, fn in COMPARISONS.items():
        table[opcode] = cmp_entry(fn, latency[opcode])
    for opcode in (Opcode.MOV, Opcode.FMOV, Opcode.PMOV):
        table[opcode] = convert_entry(lambda v: v, latency[opcode])
    table[Opcode.ITOF] = convert_entry(float, latency[Opcode.ITOF])
    table[Opcode.FTOI] = convert_entry(int, latency[Opcode.FTOI])
    table[Opcode.PAND] = cmp_entry(lambda a, b: a and b, 1)
    table[Opcode.POR] = cmp_entry(lambda a, b: a or b, 1)
    table[Opcode.PNOT] = convert_entry(operator.not_, 1)
    for opcode in Opcode:
        handler = getattr(VoltronMachine, f"_do_{opcode.value}", None)
        if handler is not None:
            table[opcode] = handler
    return table
