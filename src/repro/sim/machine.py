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

Two layers keep the cycle loop fast without changing any observable
statistic:

* **Pre-decoded dispatch.**  ``__init__`` builds a dispatch table mapping
  each opcode to a handler closure with its result latency pre-resolved
  from :mod:`repro.isa.latencies`, then walks every core's instruction
  stream once, pre-decoding each block's slots into handler tuples.  The
  per-cycle execute path is a single indexed lookup instead of a long
  opcode if-chain plus a latency-table probe.

* **Stall fast-forwarding.**  Whenever *every* live core is provably
  blocked for the rest of the cycle -- cache-miss fills, RECV waits with
  the matching message still in flight, barrier/commit waits -- the
  machine computes each blocked core's release cycle, jumps the clock to
  the earliest one, and bulk-credits the skipped cycles to exactly the
  stall categories single-stepping would have recorded.
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

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.config import MachineConfig
from ..arch.mesh import Mesh
from ..isa.latencies import resolved_latencies
from ..isa.machinecode import CompiledProgram
from ..isa.operations import (
    ALU_SEMANTICS,
    COMPARISONS,
    Opcode,
    Operation,
    Reg,
    RegFile,
)
from ..isa.registers import Value
from .caches import L1ICache, make_coherence
from .core import BARRIER_WAIT, HALTED, LISTENING, RUNNING, Core
from .faults import FaultConfig, FaultPlan
from .memory import MainMemory
from .network import NetworkError, OperandNetwork
from .probe import bind
from .recovery import RecoveryManager
from .stats import MachineStats
from .tm import TransactionalMemory

#: Per-core instruction address spaces start here (clear of data addresses).
ICODE_BASE = 1 << 24

#: Dispatch-table entry: handler(machine, core, op) -> outcome string.
Handler = Callable[["VoltronMachine", Core, Operation], str]

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
        self.memory = MainMemory(compiled.program.initial_memory)
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

        self.cores = [Core(i) for i in range(config.n_cores)]
        main_params = compiled.program.main().params
        if len(args) != len(main_params):
            raise ValueError(
                f"main expects {len(main_params)} args, got {len(args)}"
            )
        for core in self.cores:
            core.push_frame(compiled.entry_function(core.id), return_dest=None)
            # Program arguments materialize in every core's register file
            # (the run-time loader's job, mirroring the interpreter).
            for reg, value in zip(main_params, args):
                core.write_reg(reg, value, 0)
        self.stats = MachineStats(n_cores=config.n_cores)
        for core in self.cores:
            core.stats = self.stats.cores[core.id]

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
        self._cluster_penalized: Set[int] = set()

        self._dispatch: Dict[Opcode, Handler] = build_dispatch_table()
        self._memory_latency = config.memory_latency
        self._predecode()

        # The one observer, attached last so it sees the fully built
        # machine: repro.sim.probe.bind sets self.on_<event> and each
        # subsystem's on_<event> to the observer's handler, or None.
        self.obs = obs
        bind(self, obs)

    # -- pre-decode ----------------------------------------------------------------

    def _predecode(self) -> None:
        """Walk every core's instruction stream once, resolving each slot's
        opcode to its dispatch-table handler, an is-direct-wire flag
        (PUT/BCAST, issued in coupled phase A), and the tuple of register
        sources the scoreboard must probe.  The results live on the block
        itself (``CoreBlock.decoded``).  Unknown opcodes keep a None entry
        and fail at execute time with the usual diagnostic."""
        for stream in self.compiled.streams:
            for function in stream.values():
                for block in function.ordered_blocks():
                    handlers = tuple(
                        None
                        if op is None
                        else self._dispatch.get(op.opcode)
                        for op in block.slots
                    )
                    wires = tuple(
                        op is not None and op.opcode in _WIRE_OPS
                        for op in block.slots
                    )
                    srcregs = tuple(
                        ()
                        if op is None
                        else tuple(
                            src for src in op.srcs if isinstance(src, Reg)
                        )
                        for op in block.slots
                    )
                    block.decoded = (handlers, wires, srcregs)
                    # Attribution key for the per-cycle block accounting,
                    # materialized once instead of per cycle.
                    block.stat_key = (function.name, block.label)

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
        # for the classifier, and the first cycle of every stall window is
        # single-stepped -- which credits it identically anyway.
        stalled_prev = True
        busy_total = sum(s.busy for s in core_stats)
        on_cycle = self.on_cycle
        try:
            while not self._all_halted():
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

    def _all_halted(self) -> bool:
        return self._halted_count >= len(self.cores)

    def _live_cores(self) -> List[Core]:
        return [core for core in self.cores if core.status != HALTED]

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
        normal step for this iteration).  Conservative by construction:
        any situation the classifier cannot prove to be a pure stall makes
        it decline, so single-stepping remains the semantic reference.
        """
        cycle = self.cycle
        # (stats, category) pairs to bulk-credit per skipped cycle.
        credits: List[Tuple] = []
        releases: List[int] = []
        send_stalled = 0
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
                if self._cluster_penalty:
                    # The classifier can be the first to see a new stall
                    # episode (an istall blocks the whole ensemble with
                    # no busy increment, so fast-forward runs before the
                    # next single step): charge the cross-cluster
                    # penalty here too, or the skipped window would be
                    # too short.
                    self._apply_cluster_penalty(running, cycle)
                blocked = [c for c in running if c.next_free > cycle]
                if blocked:
                    # Stall bus: attribution is constant until the first
                    # blocked member's fill returns.
                    group_cause = blocked[0].pending_cause or "latency"
                    for core in running:
                        if core.next_free > cycle:
                            credits.append(
                                (core.stats, core.pending_cause or "latency")
                            )
                        else:
                            credits.append((core.stats, group_cause))
                    releases.append(min(c.next_free for c in blocked))
                    continue
                # A free group falls through empty blocks / fetches / issues
                # -- all state changes -- unless the scoreboard holds it.
                if any(c.at_block_end() or c.needs_fetch() for c in running):
                    return False
                release: Optional[int] = None
                for core in running:
                    op = core.current_op()
                    if op is None:
                        continue
                    for src in op.srcs:
                        if isinstance(src, Reg):
                            ready = core.reg_ready.get(src, 0)
                            if ready > cycle and (
                                release is None or ready > release
                            ):
                                release = ready
                if release is None:
                    return False  # every source ready: the group issues
                # Lock-step scoreboard interlock: the group waits for the
                # *last* source, stalling "latency" on every member.
                for core in running:
                    credits.append((core.stats, "latency"))
                releases.append(release)
        else:
            for core in self.cores:
                if core.status == HALTED:
                    continue
                if core.status == BARRIER_WAIT:
                    cause = (
                        "call_sync"
                        if core.id in self._barrier.get("call", set())
                        else "barrier"
                    )
                    credits.append((core.stats, cause))
                    continue  # released by another core's arrival
                if core.next_free > cycle:
                    credits.append(
                        (core.stats, core.pending_cause or "latency")
                    )
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
                # RUNNING and free: mirror _step_decoupled's check order.
                if core.at_block_end() or core.needs_fetch():
                    return False
                op = core.current_op()
                if op is None or op.opcode is Opcode.CALL:
                    return False
                if op.opcode is Opcode.TX_COMMIT and not self.tm.may_commit(
                    core.id
                ):
                    credits.append((core.stats, "tx_wait"))
                    continue  # released by an earlier chunk's commit
                if op.opcode in _QUEUE_SEND_OPS:
                    if not self.network.can_send(
                        core.id, op.attrs["target_core"]
                    ):
                        credits.append((core.stats, "send"))
                        send_stalled += 1
                        continue  # released when the receiver drains
                if not core.srcs_ready(op, cycle):
                    release = max(
                        core.reg_ready.get(src, 0)
                        for src in op.srcs
                        if isinstance(src, Reg)
                        and core.reg_ready.get(src, 0) > cycle
                    )
                    credits.append((core.stats, "latency"))
                    releases.append(release)
                    continue
                if op.opcode is Opcode.RECV:
                    arrival = self.network.next_data_arrival(
                        core.id,
                        op.attrs["source_core"],
                        op.attrs.get("tag"),
                    )
                    if arrival is not None and arrival <= cycle:
                        return False  # the message is receivable now
                    credits.append((core.stats, self._recv_category(op)))
                    if arrival is not None:
                        releases.append(arrival)
                    continue
                return False  # the core issues this cycle

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
        self.network.send_stalls += send_stalled * skipped
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

    def _apply_cluster_penalty(self, running: List[Core], cycle: int) -> None:
        """Clustered coupled mode: extend each *newly* blocked core's
        episode by the cross-cluster stall-propagation latency.  The
        ``_cluster_penalized`` set remembers which cores' current
        episodes have already paid, and is cleared per core the moment
        that core runs free again, so the next episode pays afresh."""
        penalized = self._cluster_penalized
        for core in running:
            if core.next_free > cycle:
                if core.id not in penalized:
                    penalized.add(core.id)
                    core.next_free += self._cluster_penalty
            else:
                penalized.discard(core.id)

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

        # Stall bus: any blocked member stalls the whole group.  Across
        # cluster boundaries the stall signal rides the (slower)
        # cluster-level network: each blocked core's episode stretches by
        # the propagation penalty, once, when the episode is first seen.
        if self._cluster_penalty:
            self._apply_cluster_penalty(running, cycle)
        blocked = [core for core in running if core.next_free > cycle]
        if blocked:
            group_cause = blocked[0].pending_cause or "latency"
            for core in running:
                if core.next_free > cycle:
                    core.stats.stall(core.pending_cause or "latency")
                else:
                    core.stats.stall(group_cause)
            return

        # Zero-length blocks (pure structure) fall through without cost.
        for core in running:
            frame = core.frame
            if frame.slot >= len(frame.block.slots):
                self._finish_block(core)
        running = [core for core in running if core.status == RUNNING]
        if not running:
            return
        if len(running) > 1:
            self._assert_lockstep(running)

        # Fetch phase: an I-miss on any core stalls the group.
        missed = False
        for core in running:
            addr = core.take_fetch()
            if addr is not None:
                extra = self.icaches[core.id].access(
                    ICODE_BASE * (core.id + 1) + addr,
                    self.bus.l2,
                    self._memory_latency,
                )
                if extra:
                    core.stats.l1i_misses += 1
                    core.block_until(cycle + 1 + extra, "istall")
                    missed = True
        if missed:
            for core in running:
                core.stats.stall("istall")
            return

        # Decode once per core per cycle (op, handler, wire flag, register
        # sources pulled from the pre-decoded block); the issue phases
        # reuse the entries (PUT/BCAST leave the frame untouched, so they
        # stay valid).
        issue = []
        for core in running:
            frame = core.frame
            slot = frame.slot
            op = frame.block.slots[slot]
            if op is None:
                issue.append((core, None, None, False, ()))
                continue
            entry = frame.block.decoded
            if entry is not None:
                issue.append(
                    (core, op, entry[0][slot], entry[1][slot], entry[2][slot])
                )
            else:  # a block assembled after construction: decode on the fly
                issue.append(
                    (
                        core,
                        op,
                        self._dispatch.get(op.opcode),
                        op.opcode in _WIRE_OPS,
                        tuple(s for s in op.srcs if isinstance(s, Reg)),
                    )
                )

        # Scoreboard phase: lock-step means one unready core stalls all.
        for core, op, _, _, srcs in issue:
            if srcs:
                reg_ready = core.reg_ready
                for src in srcs:
                    if reg_ready.get(src, 0) > cycle:
                        for member in running:
                            member.stats.stall("latency")
                        return

        on_issue = self.on_issue

        # Issue phase A: drive the direct wires.
        for core, op, handler, wire, _ in issue:
            if wire:
                handler(self, core, op)
                core.stats.busy += 1
                core.stats.ops_executed += 1
                if on_issue is not None:
                    on_issue(cycle, core.id, op)

        # Issue phase B: everything else (GETs read the wires driven above).
        for core, op, handler, wire, _ in issue:
            if wire:
                outcome = "ok"
            elif op is None:
                core.stats.busy += 1
                outcome = "ok"
            else:
                if handler is None:
                    raise SimulatorError(f"unimplemented opcode {op.opcode!r}")
                outcome = handler(self, core, op)
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
            if core.status != RUNNING:
                continue
            if outcome == "ok":
                frame = core.frame
                frame.slot += 1
                if frame.slot >= len(frame.block.slots):
                    self._finish_block(core)

    def _assert_lockstep(self, running: List[Core]) -> None:
        # Attribute compares instead of materializing position tuples:
        # this invariant is checked every coupled cycle.
        first = running[0].frame
        slot = first.slot
        label = first.block.label
        function = first.function.name
        for core in running:
            frame = core.frame
            if (
                frame.slot != slot
                or frame.block.label != label
                or frame.function.name != function
            ):
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
            cause = "call_sync" if core.id in self._barrier.get("call", set()) else (
                "barrier"
            )
            core.stats.stall(cause)
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
        if self.recovery is not None and self.recovery.maybe_blackout(
            core, cycle
        ):
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
                ICODE_BASE * (core.id + 1) + addr,
                self.bus.l2,
                self._memory_latency,
            )
            if extra:
                core.stats.l1i_misses += 1
                core.block_until(cycle + 1 + extra, "istall")
                core.stats.stall("istall")
                return

        slot = frame.slot
        op = frame.block.slots[slot]
        if op is None:
            core.stats.busy += 1
            frame.slot = slot + 1
            self._finish_block(core)
            return

        opcode = op.opcode
        if opcode is Opcode.CALL:
            self._arrive_call_barrier(core, op)
            return
        if opcode is Opcode.TX_COMMIT and not self.tm.may_commit(core.id):
            core.stats.stall("tx_wait")
            return
        if (
            opcode is Opcode.TX_BEGIN
            and self.recovery is not None
            and self.recovery.defer_tx_begin(core, op)
        ):
            # Graceful degradation: a degraded core issues its chunks
            # under the serialized fewer-core schedule.
            core.stats.stall("tx_wait")
            return
        if opcode in _QUEUE_SEND_OPS:
            target = op.attrs["target_core"]
            if not self.network.can_send(core.id, target):
                core.stats.stall("send")
                self.network.send_stalls += 1
                return
        entry = frame.block.decoded
        if entry is not None:
            reg_ready = core.reg_ready
            for src in entry[2][slot]:
                if reg_ready.get(src, 0) > cycle:
                    core.stats.stall("latency")
                    return
        elif not core.srcs_ready(op, cycle):
            core.stats.stall("latency")
            return

        handler = (
            entry[0][slot] if entry is not None else self._dispatch.get(opcode)
        )
        if handler is None:
            raise SimulatorError(f"unimplemented opcode {opcode!r}")
        outcome = handler(self, core, op)
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

    def _arrive_call_barrier(self, core: Core, op: Operation) -> None:
        """Decoupled-mode CALL: wait for every live core, then call in
        lock-step (the paper's call/return synchronization)."""
        arrived = self._barrier.setdefault("call", set())
        arrived.add(core.id)
        core.status = BARRIER_WAIT
        core.stats.busy += 1  # the arrival cycle issues the (pending) call
        live = {c.id for c in self._live_cores()}
        if arrived >= live:
            del self._barrier["call"]
            callee_names = set()
            for member_id in sorted(arrived):
                member = self.cores[member_id]
                self._deferred_release.add(member_id)
                call_op = member.current_op()
                assert call_op is not None and call_op.opcode is Opcode.CALL
                callee_names.add(call_op.attrs["function"])
                self._do_call(member, call_op)
            if len(callee_names) != 1:
                raise SimulatorError(
                    f"cycle {self.cycle}: cores joined a call barrier for "
                    f"different callees {sorted(callee_names)}"
                )
            self._mode_restore.append((self.cores[0].call_depth - 1, "decoupled"))
            self._mode_next = "coupled"

    # -- operation semantics ----------------------------------------------------------

    @staticmethod
    def _recv_category(op: Operation) -> str:
        sync = op.attrs.get("sync")
        if sync == "call":
            return "call_sync"
        if op.dests and op.dests[0].file is RegFile.PR:
            return "recv_pred"
        return "recv_data"

    def _do_load(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
        cycles, miss = self.bus.access(core.id, addr, is_store=False)
        value = self.tm.load(core.id, addr)
        core.write_reg(op.dest, value, self.cycle + 1 + cycles)
        core.stats.loads += 1
        if self.on_load is not None:
            self.on_load(core.id, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_store(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
        cycles, miss = self.bus.access(core.id, addr, is_store=True)
        self.tm.store(core.id, addr, read(op.srcs[2]))
        core.stats.stores += 1
        if self.on_store is not None:
            self.on_store(core.id, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_branch(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        taken = len(op.srcs) == 1 or bool(read(op.srcs[1]))
        if taken:
            core.jump(read(op.srcs[0]))
        else:
            if core.frame.block.fall is None:
                raise SimulatorError(
                    f"core {core.id} fell through a branch with no fall "
                    f"edge in {core.frame.block.label}"
                )
            core.jump(core.frame.block.fall)
        return "redirect"

    def _do_call_op(self, core: Core, op: Operation) -> str:
        self._do_call(core, op)
        return "redirect"

    def _do_call(self, core: Core, op: Operation) -> None:
        callee = self.compiled.core_function(core.id, op.attrs["function"])
        # Copy arguments into the callee's formal registers on this core.
        formals = self.compiled.program.function(op.attrs["function"]).params
        values = [core.read_operand(src) for src in op.srcs]
        core.frame.slot += 1  # resume after the call
        core.push_frame(callee, return_dest=op.dest)
        for reg, value in zip(formals, values):
            core.write_reg(reg, value, self.cycle + 1)

    def _do_ret(self, core: Core, op: Operation) -> str:
        value = core.read_operand(op.srcs[0]) if op.srcs else None
        finished = core.pop_frame()
        if not core.stack:
            core.status = HALTED
            self._halted_count += 1
            if core.id == 0:
                self.return_value = value
            return "redirect"
        if finished.return_dest is not None and op.srcs:
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

    def _do_halt(self, core: Core, op: Operation) -> str:
        if self.tm.in_transaction(core.id):
            raise SimulatorError(f"core {core.id} halted inside a transaction")
        core.status = HALTED
        self._halted_count += 1
        return "redirect"

    def _do_put(self, core: Core, op: Operation) -> str:
        self.network.direct.put(
            core.id, op.attrs["direction"], core.read_operand(op.srcs[0]),
            self.cycle,
        )
        return "ok"

    def _do_bcast(self, core: Core, op: Operation) -> str:
        self.network.direct.bcast(
            core.id, core.read_operand(op.srcs[0]), self.cycle
        )
        return "ok"

    def _do_get(self, core: Core, op: Operation) -> str:
        value = self.network.direct.get(
            core.id,
            op.attrs["direction"],
            self.cycle,
            bcast_src=op.attrs.get("bcast_src"),
        )
        core.write_reg(op.dest, value, self.cycle + 1)
        return "ok"

    def _do_send(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id,
            op.attrs["target_core"],
            core.read_operand(op.srcs[0]),
            self.cycle,
            tag=op.attrs.get("tag"),
        )
        core.stats.messages_sent += 1
        return "ok"

    def _do_recv(self, core: Core, op: Operation) -> str:
        message = self.network.try_receive(
            core.id,
            op.attrs["source_core"],
            self.cycle,
            tag=op.attrs.get("tag"),
        )
        if message is None:
            core.stats.stall(self._recv_category(op))
            return "stall"
        if op.dests:
            core.write_reg(op.dest, message.value, self.cycle + 1)
        core.stats.messages_received += 1
        return "ok"

    def _do_spawn(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id,
            op.attrs["target_core"],
            op.attrs["target_block"],
            self.cycle,
            kind="spawn",
        )
        self.stats.spawns += 1
        return "ok"

    def _do_release(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id, op.attrs["target_core"], None, self.cycle, kind="release"
        )
        return "ok"

    def _do_sleep(self, core: Core, op: Operation) -> str:
        assert core.listen_return is not None, "SLEEP outside a spawned thread"
        block, slot = core.listen_return
        core.frame.block = block
        core.frame.slot = slot
        core._fetched = None
        core.status = LISTENING
        return "redirect"

    def _do_listen(self, core: Core, op: Operation) -> str:
        core.listen_return = (core.frame.block, core.frame.slot)
        core.status = LISTENING
        return "redirect"

    def _do_tx_begin(self, core: Core, op: Operation) -> str:
        self.tm.begin(
            core.id,
            op.attrs["region"],
            op.attrs["order"],
            op.attrs.get("chunks", 0),
        )
        core.checkpoint_registers(op.attrs["restart"])
        return "ok"

    def _do_tx_commit(self, core: Core, op: Operation) -> str:
        if self.tm.try_commit(core.id):
            core.block_until(
                self.cycle + 1 + self.config.tm_commit_latency, "tx_wait"
            )
            core.tx_checkpoint = None
            return "ok"
        core.jump(core.rollback_registers())
        return "redirect"

    def _do_mode_switch(self, core: Core, op: Operation) -> str:
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
        live = {c.id for c in self._live_cores()}
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
    """Build the opcode dispatch table: every handler closes over its
    result latency (resolved once through :func:`resolved_latencies`), so
    the execute path performs no opcode branching or latency lookups."""
    latency = resolved_latencies()
    table: Dict[Opcode, Handler] = {}

    def alu_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, _fn=fn, _lat=lat):
            core.write_reg(
                op.dest,
                _fn(*map(core.read_operand, op.srcs)),
                machine.cycle + _lat,
            )
            return "ok"

        return run

    def cmp_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, _fn=fn, _lat=lat):
            core.write_reg(
                op.dest,
                bool(_fn(*map(core.read_operand, op.srcs))),
                machine.cycle + _lat,
            )
            return "ok"

        return run

    def convert_entry(convert, lat: int) -> Handler:
        def run(machine, core, op, _cv=convert, _lat=lat):
            core.write_reg(
                op.dest, _cv(core.read_operand(op.srcs[0])), machine.cycle + _lat
            )
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

    def pand(machine, core, op):
        read = core.read_operand
        core.write_reg(
            op.dest, bool(read(op.srcs[0]) and read(op.srcs[1])),
            machine.cycle + 1,
        )
        return "ok"

    def por(machine, core, op):
        read = core.read_operand
        core.write_reg(
            op.dest, bool(read(op.srcs[0]) or read(op.srcs[1])),
            machine.cycle + 1,
        )
        return "ok"

    def pnot(machine, core, op):
        core.write_reg(
            op.dest, not core.read_operand(op.srcs[0]), machine.cycle + 1
        )
        return "ok"

    def select(machine, core, op):
        pred, a, b = map(core.read_operand, op.srcs)
        core.write_reg(op.dest, a if pred else b, machine.cycle + 1)
        return "ok"

    def pbr(machine, core, op):
        core.write_reg(op.dest, op.attrs["target"], machine.cycle + 1)
        return "ok"

    def nop(machine, core, op):
        return "ok"

    table[Opcode.PAND] = pand
    table[Opcode.POR] = por
    table[Opcode.PNOT] = pnot
    table[Opcode.SELECT] = select
    table[Opcode.PBR] = pbr
    table[Opcode.NOP] = nop
    table[Opcode.LOAD] = VoltronMachine._do_load
    table[Opcode.STORE] = VoltronMachine._do_store
    table[Opcode.BR] = VoltronMachine._do_branch
    table[Opcode.CALL] = VoltronMachine._do_call_op
    table[Opcode.RET] = VoltronMachine._do_ret
    table[Opcode.HALT] = VoltronMachine._do_halt
    table[Opcode.PUT] = VoltronMachine._do_put
    table[Opcode.BCAST] = VoltronMachine._do_bcast
    table[Opcode.GET] = VoltronMachine._do_get
    table[Opcode.SEND] = VoltronMachine._do_send
    table[Opcode.RECV] = VoltronMachine._do_recv
    table[Opcode.SPAWN] = VoltronMachine._do_spawn
    table[Opcode.RELEASE] = VoltronMachine._do_release
    table[Opcode.SLEEP] = VoltronMachine._do_sleep
    table[Opcode.LISTEN] = VoltronMachine._do_listen
    table[Opcode.MODE_SWITCH] = VoltronMachine._do_mode_switch
    table[Opcode.TX_BEGIN] = VoltronMachine._do_tx_begin
    table[Opcode.TX_COMMIT] = VoltronMachine._do_tx_commit
    return table
