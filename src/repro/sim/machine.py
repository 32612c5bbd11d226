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

Four layers keep the cycle loop fast without changing any observable
statistic (``tests/properties/test_prop_fastpath.py`` holds them to the
``fast_forward=False`` reference, which takes neither sleeps nor windows):

* **Pre-decoded dispatch on dense registers.**  ``__init__`` walks the
  code once, numbering registers densely as it meets them (a
  :class:`RegisterLayout`; immediates get constant slots) and decoding
  every slot into its handler (latency pre-resolved), kind (plain,
  direct-wire, or special: tested by the decoupled kernel before issue)
  and flat operand indices: the execute path is list lookups, and a
  never-written register is ready at ``UNWRITTEN``, so the scoreboard
  probe raises on reading it.  The walk also proves every coupled block
  fit for lock-step (equal slot counts on every core, no queue op) and
  every op issuable; a violation raises at construction.
* **Column lock-step.**  Coupled mode steps the whole machine as one
  ensemble, by slot rather than by core: each coupled block gets
  per-slot columns (once per machine and set of running cores) naming
  the cores whose I-fetch line starts there, the real ops, and the
  cores padded with a NOP.  A cycle probes the I-cache on the
  line-start cores only (on every running core after a block entry or
  a return, and on every slot under a fault plan, whose I-fetch channel
  fires per fetch), probes the scoreboard and issues over the real ops
  only, and never touches a padded core.  Alignment is checked
  only after a redirect, a block boundary, a barrier release, a mode
  change or a recovery.  The ensemble's ``busy`` is counted once per
  issued cycle and credited to every member when the running set
  changes (or at ``settle``), and the stall bus is walked only while
  some core may be held (a :class:`StallWatermark` every ``next_free``
  write raises) or a cluster penalty flag may be left to clear.
* **The awake set.**  Decoupled mode steps only the cores that can act
  (:class:`AwakeSet`).  A core charged a stall its next cycles repeat
  sleeps -- at a barrier, in a ``next_free`` hold, listening, or on a
  plain op's scoreboard, an empty RECV or commit order, never where a
  blackout probe would fall -- until its release cycle, the barrier
  release, or a send to it or a commit, and is then credited in bulk.
* **Stall fast-forwarding.**  Each stall rule lives once, in the kernel
  that takes the stall; it stamps an issue-ready core with ``(cycle,
  category, release)`` (``Core.stall``; ``release`` is None when only
  another core's progress can end it).  After a cycle in which no core
  issued, or when no core is awake, the window reads the coupled stall
  bus, that cycle's stamps and the first wake; if every live core is
  stalled it jumps the clock to the earliest release, bulk-crediting
  exactly the categories single-stepping would have charged.  Under a
  fault plan a window also ends at the next stall-bus or blackout fire
  and at the recovery layer's next action, consuming the skipped probes
  in bulk.  With *no* release cycle it raises :class:`Deadlock`.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.config import MachineConfig
from ..arch.mesh import Mesh
from ..isa.latencies import resolved_latencies
from ..isa.machinecode import CompiledProgram
from ..isa.operations import (
    ALU_SEMANTICS, COMPARISONS, QUEUE_OPS, Opcode, Operation, RegFile,
)
from ..isa.registers import RegisterLayout, Value
from .caches import L1ICache, make_coherence
from .core import (
    BARRIER_WAIT, HALTED, LISTENING, RUNNING, UNWRITTEN, AwakeSet, Core,
    StallWatermark,
)
from .faults import FaultPlan
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

#: Ops that enqueue onto the operand network (back-pressure checked).
#: Tuples, not sets: enum membership in a short tuple is an identity scan,
#: while a set lookup pays a Python-level Enum.__hash__ call.
_QUEUE_SEND_OPS = (Opcode.SEND, Opcode.SPAWN, Opcode.RELEASE)
#: A decoded entry's kind, by opcode name: plain, a direct-wire PUT/BCAST
#: (coupled phase A), or a special op the decoupled kernel tests first.
_PLAIN, _WIRE, _SPECIAL = 0, 1, 2
_KINDS = {"PUT": _WIRE, "BCAST": _WIRE, "CALL": _SPECIAL, "TX_COMMIT": _SPECIAL,
          "TX_BEGIN": _SPECIAL, **{op.name: _SPECIAL for op in _QUEUE_SEND_OPS}}


class SimulatorError(Exception):
    pass


class OutOfCycles(SimulatorError):
    """The cycle budget was exhausted (likely deadlock or livelock)."""


class Deadlock(SimulatorError):
    pass


def _unfit(name: str, block, core_id: int, problem: str) -> SimulatorError:
    """Code the kernels cannot run (see _predecode)."""
    return SimulatorError(
        f"{block.mode} block {name}:{block.label} on core {core_id}: {problem}"
    )


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
        # Fault injection (chaos testing): every subsystem with an
        # injection site gets the plan.  Destructive faults add a recovery
        # subsystem: the link layer, the blackout watchdog, the degradation
        # scheduler.  With neither, every hook is a single is-None check.
        self.faults = faults
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(self, faults)
            if faults is not None and faults.destructive else None
        )
        self.bus = make_coherence(config, faults)
        self.icaches = [L1ICache(config.l1i, faults) for _ in range(config.n_cores)]
        self.network = OperandNetwork(
            self.mesh, config.network, faults, self.recovery
        )
        self.tm = TransactionalMemory(self.memory, faults)

        self._memory_latency = config.memory_latency
        self._predecode()

        self.watermark = StallWatermark()  # see _step_group
        self.cores = [
            Core(i, self.layout, self.watermark) for i in range(config.n_cores)
        ]
        self.awake = AwakeSet(self.cores)  # decoupled mode steps these
        self.stats = MachineStats(n_cores=config.n_cores)
        main_params = self._formals[compiled.program.entry]
        if len(args) != len(main_params):
            raise ValueError(
                f"main expects {len(main_params)} args, got {len(args)}"
            )
        # A core probes its I-cache once per line (a repeated hit changes
        # nothing); fault plans fire per fetch, so they probe every slot.
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
        # HALTED is terminal: a counter ends the main loop, not a scan.
        self._halted_count = 0
        self.return_value: Value = None
        # Barriers: kind -> set of arrived core ids.
        self._barrier: Dict[str, Set[int]] = {}
        # Cores released from a barrier run from the next cycle on (a
        # mid-cycle release would let later cores run an extra op).
        self._deferred_release: Set[int] = set()
        # (call depth to restore at, mode to restore) entries.
        self._mode_restore: List[Tuple[int, str]] = []
        self._restore_done_this_cycle = False
        # Coupled mode steps the whole machine as ONE lock-step ensemble
        # (the DVLIW schedule spans every core).  Past one stall-bus group,
        # a stall crossing clusters pays the cluster-level stall network's
        # latency, once per stall episode per blocked core.
        self._cluster_penalty = (
            config.cluster_stall_latency
            if config.n_cores > config.coupled_group_size else 0
        )
        # The coupled kernel's view, refreshed when positions move: the
        # running cores, their frames, and their block's columns.
        self._running: List[Core] = []
        self._frames: List = []
        self._block_columns: tuple = ()
        self._column_cache: Dict[tuple, tuple] = {}
        # Coupled cycles issued by ``_running`` not yet credited to its
        # cores' ``busy`` (see settle).
        self._issued = 0
        # True once a stall-bus walk of ``_running`` found every core free
        # (every ``Core.penalized`` clear), until the next walk that finds
        # one blocked or the next rebuild of ``_running``.
        self._bus_clear = False
        # Set wherever positions may diverge (a redirect, a block end, a
        # barrier release, a mode change, a recovery); see _step_group.
        self._positions_moved = True

        # The one observer, attached last (repro.sim.probe.bind sets every
        # on_<event> to the observer's handler, or None).
        self.obs = obs
        bind(self, obs)

    # -- pre-decode ----------------------------------------------------------------

    def _predecode(self) -> None:
        """One walk over every core's stream: number the registers as they
        appear (``self.layout``) and decode each slot into an entry
        ``(op, handler, kind, srcs, dest)`` on its block
        (``CoreBlock.decoded``; NOP padding decodes to None) -- the
        handler, the op's kind (``_PLAIN``, ``_WIRE`` or ``_SPECIAL``),
        and the flat indices of the sources (also the scoreboard probe)
        and of the destination.  Raises, naming the function, block, core and op,
        unless every op has a handler and every block marked coupled has
        one slot count on all cores and no queue op (``QUEUE_OPS``,
        voltlint's ``queue-op-in-coupled`` rule): the lock-step kernel
        relies on both and checks neither."""
        self.layout = layout = RegisterLayout()
        index = layout.index
        #: Function name -> flat indices of its formal parameters.
        self._formals = {
            name: tuple(map(index, function.params))
            for name, function in self.compiled.program.functions.items()
        }
        slot_counts: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for core_id, stream in enumerate(self.compiled.streams):
            for name, function in stream.items():
                for block in function.blocks.values():
                    coupled = block.mode == "coupled"
                    decoded = []
                    for op in block.slots:
                        if op is None:
                            decoded.append(None)
                            continue
                        opcode = op.opcode
                        handler = _DISPATCH.get(opcode._name_)
                        if handler is None or coupled and opcode in QUEUE_OPS:
                            raise _unfit(name, block, core_id, f"{op!r} " + (
                                "has no handler" if handler is None else
                                "is a queue op, which lock-step cannot wait on"
                            ))
                        decoded.append((
                            op, handler, _KINDS.get(opcode._name_, _PLAIN),
                            tuple(map(index, op.srcs)),
                            index(op.dests[0]) if op.dests else None,
                        ))
                    block.decoded = tuple(decoded)
                    # The per-cycle block accounting key, built once.
                    block.stat_key = key = (name, block.label)
                    if coupled:
                        first = slot_counts.setdefault(key, (core_id, len(decoded)))
                        if first[1] != len(decoded):
                            raise _unfit(name, block, core_id, (
                                f"{len(decoded)} slots, but core {first[0]} "
                                f"schedules it in {first[1]}"
                            ))

    # -- public API ---------------------------------------------------------------

    def run(self) -> MachineStats:
        cores = self.cores
        block_cycles = self.stats.block_cycles
        mode_cycles = self.stats.mode_cycles
        master = cores[0]
        # Mode residency and block attribution accumulate in locals,
        # flushed on change; fast-forward credits add to the same dicts
        # directly (both only add, so interleaving is safe).
        mode_count = 0
        block_key = None
        block_count = 0
        # Fast-forward is tried only after a cycle in which no core issued
        # (the kernels report it), or with no decoupled core awake: the
        # first cycle of every stall is stepped, stamping what windows read.
        stalled_prev = True
        on_cycle = self.on_cycle
        self.awake.dozing = self.fast_forward
        try:
            while self._halted_count < len(cores):
                if self.cycle >= self.max_cycles:
                    raise OutOfCycles(
                        f"exceeded {self.max_cycles} cycles "
                        f"(likely deadlock or livelock)\n"
                        + self._core_diagnostics()
                    )
                # A deadlock needs every live core listening (core 0
                # running rules it out on its own).
                status0 = master.status
                if status0 == HALTED or status0 == LISTENING:
                    self._check_deadlock()
                self.network.deliver(self.cycle)
                if self.recovery is not None:
                    self.recovery.tick(self.cycle)
                self._restore_done_this_cycle = False
                if self._deferred_release:
                    for core_id in self._deferred_release:
                        core = cores[core_id]
                        if core.status == BARRIER_WAIT:
                            self.awake.wake(core, self.cycle)
                            core.status = RUNNING
                    self._deferred_release.clear()
                    self._positions_moved = True
                if self.mode == "coupled":
                    if stalled_prev and self.fast_forward and self._try_fast_forward():
                        continue
                    stalled_prev = not self._step_group()
                else:
                    awake = self.awake.due(self.cycle)
                    if (stalled_prev or not awake) and self.fast_forward and self._try_fast_forward():
                        continue
                    stalled_prev = True
                    for core in awake:
                        if self._step_decoupled(core):
                            stalled_prev = False
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
            self.settle(self.cycle)
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
                # Destructive runs scrub dead cores from the sharer
                # vectors: prove the directory still mirrors the L1s.
                check_directory()
        if self.on_finalize is not None:
            self.on_finalize(self)
        return self.stats

    def settle(self, end: int) -> None:
        """Bring every core's ``busy`` and stall counters up to ``end``:
        credit what decoupled sleepers owe (:meth:`AwakeSet.settle`) and
        the coupled cycles the running ensemble issued, which
        ``_step_group`` counts once per cycle instead of per core."""
        self.awake.settle(end)
        self._credit_issued()

    def _credit_issued(self) -> None:
        issued = self._issued
        if issued:
            self._issued = 0
            for core in self._running:
                core.stats.busy += issued

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
            where = "pc={}:{}:{}".format(*core.position()) if core.stack else "pc=<no frame>"
            stall = (
                f"blocked[{core.pending_cause or 'latency'}] until cycle {core.next_free}"
                if core.next_free > self.cycle else "free"
            )
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
        cycle (nothing a stamp depends on changes inside it); sleepers end
        it at the first wake.  Else it declines: single-stepping is the reference.
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
            running = [c for c in self.cores if c.status == RUNNING]
            if not running:
                return False  # nothing to account for: not a provable stall
            stall_probes = 1
            if faults is not None and faults.horizon(stall_probes, 0) == 0:
                # This cycle's stall-bus probe fires: single-step it,
                # before the penalty below (the hold's block_until
                # and the penalty do not commute).
                return False
            # An istall opens a stall episode without an issue, so the
            # window can be first to see it (and charge the penalty).
            stalls = self._stall_bus(running, cycle)
            if stalls is not None:
                # Constant until the first blocked member's fill returns.
                credits.extend((c.stats, cat) for c, cat in stalls)
                releases.append(min(
                    c.next_free for c in running if c.next_free > cycle
                ))
            else:
                stamped = running  # stalled only on the scoreboard
        else:
            stamped = self.awake.cores
            if self.awake.wakes:
                releases.append(self.awake.wakes[0][0])

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

        if not releases:
            # Every live core is blocked, and barrier arrivals, commits,
            # sends and control messages all need some core to issue first.
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
                    core.block_until(core.next_free + penalty, core.pending_cause)
                if first is None:
                    first = core
                    if not penalty:
                        break
            elif core.penalized:
                core.penalized = False
        if first is None:
            return None
        self._bus_clear = False
        cause = first.pending_cause or "latency"
        return [
            (core, (core.pending_cause or "latency")
             if core.next_free > cycle else cause)
            for core in running
        ]

    def _step_group(self) -> bool:
        """One lock-step cycle of the coupled ensemble, by slot column
        (see _columns); True when it issued."""
        cycle = self.cycle
        moved = self._positions_moved
        if moved:
            self._credit_issued()
            self._running = [core for core in self.cores if core.status == RUNNING]
            self._bus_clear = False  # a core may rejoin still penalized
        running = self._running
        if not running:
            return False

        # Fault injection: a transient stall-bus assertion holds the
        # ensemble as if a member were blocked (nobody moves).
        if self.faults is not None:
            hold = self.faults.stall_hold()
            if hold:
                for core in running:
                    core.block_until(cycle + hold, "latency")

        # The stall bus: walked unless the last walk found every core free
        # and clear of its penalty and no core has been held past now.
        if not self._bus_clear or cycle < self.watermark.until:
            stalls = self._stall_bus(running, cycle)
            if stalls is not None:
                for core, category in stalls:
                    core.stats.stall(category)
                return False
            self._bus_clear = True

        if moved:
            # Zero-length blocks (pure structure) fall through without
            # cost; only a redirect can leave a core at a block end.
            # (Falling through changes no core's status.)
            for core in running:
                self._finish_block(core)
            # The lock-step check a data-dependent branch leaves dynamic.
            self._frames = frames = [core.frame for core in running]
            lead = frames[0]
            key = lead.block.stat_key
            if any(f.slot != lead.slot or f.block.stat_key != key for f in frames):
                raise SimulatorError(
                    f"cycle {cycle}: coupled cores diverged: "
                    + ", ".join(repr(core) for core in running)
                )
            key = (key, tuple(core.id for core in running))
            columns = self._column_cache.get(key)
            if columns is None:
                columns = self._column_cache[key] = self._columns(running)
            self._block_columns = columns
            self._positions_moved = False
        slot = self._frames[0].slot
        fetch, wires, ops, probes = self._block_columns[slot]

        # Fetch: an I-miss on any core stalls all.  Past a block entry or
        # a return, only the cores whose line starts here can fetch.
        missed = False
        for core in running if moved else fetch:
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
            return False

        # Scoreboard: one unready source stalls all, until the last is ready.
        release = 0
        for core, get, srcs in probes:
            ready = max(map(get, srcs))
            if ready > release:
                release = ready
        if release > cycle:
            if release >= UNWRITTEN:
                for core, _, srcs in probes:
                    core.check_sources(srcs)
            for core in running:
                core.stall(cycle, "latency", release)
            return False

        on_issue = self.on_issue
        # Issue phase A drives the direct wires; phase B (everything
        # else) reads them.
        redirected = []
        for phase in (wires, ops):
            for core, stats, op, handler, srcs, dest in phase:
                if handler(self, core, op, srcs, dest) != "ok":
                    redirected.append(core)
                stats.ops_executed += 1
                if on_issue is not None:
                    on_issue(cycle, core.id, op)
        # Every member issued (an op or a NOP pad): busy, credited in bulk.
        self._issued += 1

        # Retire the slot: every core that was not redirected moves on.
        if not redirected and slot + 1 < len(self._block_columns):
            for frame in self._frames:
                frame.slot += 1
        else:
            self._positions_moved = True
            for core in running:
                if core.status == RUNNING and core not in redirected:
                    core.advance_slot()
                    self._finish_block(core)
        return True

    def _columns(self, running: List[Core]) -> tuple:
        """Per-slot columns of the coupled block ``running`` stands at:
        ``(fetch, wires, ops, probes)`` over ``running`` in core order --
        the cores whose I-fetch line starts at the slot, the PUT/BCAST
        and the other real ops as ``(core, stats, op, handler, srcs,
        dest)``, and each real op's scoreboard probe ``(core, reg_ready
        getter, srcs)``; a NOP-padded core appears in none but ``fetch``."""
        blocks = [core.frame.block for core in running]
        if blocks[0].mode != "coupled":
            raise SimulatorError(
                f"cycle {self.cycle}: coupled mode reached "
                "{}:{}, a {} block".format(*blocks[0].stat_key, blocks[0].mode)
            )
        getters = [core.reg_ready.__getitem__ for core in running]
        shared: Dict[tuple, tuple] = {}

        def share(group: list) -> tuple:  # slots with equal groups share one
            return shared.setdefault(tuple(map(id, group)), tuple(group))

        columns = []
        for slot in range(len(blocks[0].slots)):
            fetch, wires, ops, probes = [], [], [], []
            for core, block, get in zip(running, blocks, getters):
                if (core.fetch_base + block.base_addr + slot) % core.fetch_span == 0:
                    fetch.append(core)
                entry = block.decoded[slot]
                if entry is None:
                    continue
                op, handler, kind, srcs, dest = entry
                (wires if kind == _WIRE else ops).append((core, core.stats, op, handler, srcs, dest))
                if srcs:
                    probes.append((core, get, srcs))
            columns.append((share(fetch), tuple(wires), tuple(ops), tuple(probes)))
        return tuple(columns)

    # -- decoupled stepping --------------------------------------------------------

    def _doze_stamped(self, core: Core) -> None:
        """Doze on the stall just stamped, unless a blackout probe is due."""
        if self.recovery is None or not self.recovery.blackout_eligible(core):
            self.awake.doze(core, *core.stall_stamp)

    def _step_decoupled(self, core: Core) -> bool:
        """One decoupled cycle of ``core``; True when it issued."""
        cycle = self.cycle
        if core.status == BARRIER_WAIT:
            core.stats.stall(core.barrier_cause)
            self.awake.doze(core, cycle, core.barrier_cause)
            return False
        if core.next_free > cycle:
            cause = core.pending_cause or "latency"
            core.stats.stall(cause)
            self.awake.doze(core, cycle, cause, core.next_free)
            return False
        if core.status == LISTENING:
            message = self.network.peek_control(core.id, cycle)
            if message is None:
                core.stats.stall("idle")
                if self.fast_forward:  # (spare the reference kernel the scan)
                    self.awake.doze(core, cycle, "idle", self.network.next_control_arrival(core.id))
                return False
            core.stats.busy += 1
            core.status = RUNNING
            if message.kind == "spawn":
                core.jump(message.value)
            else:  # release: move past the LISTEN op
                core.advance_slot()
                self._finish_block(core)
            return True

        # Destructive faults: a RUNNING, issue-ready core inside a
        # speculative chunk may black out this cycle (wiping registers
        # and scoreboard); the watchdog recovers it via TM rollback.
        if self.recovery is not None and self.recovery.maybe_blackout(core, cycle):
            core.stats.stall("latency")
            return False

        # Zero-length blocks (pure structure) fall through without cost.
        frame = core.frame
        if frame.slot >= len(frame.block.slots):
            self._finish_block(core)
            if core.status != RUNNING:
                return False
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
                return False

        slot = frame.slot
        entry = frame.block.decoded[slot]
        if entry is None:
            core.stats.busy += 1
            frame.slot = slot + 1
            self._finish_block(core)
            return True

        op, handler, kind, srcs, dest = entry
        if kind == _SPECIAL:
            opcode = op.opcode
            if opcode is Opcode.CALL:
                self._arrive_call_barrier(core)
                return True
            if opcode is Opcode.TX_COMMIT and not self.tm.may_commit(core.id):
                core.stall(cycle, "tx_wait")  # until an earlier chunk commits
                self._doze_stamped(core)
                return False
            if (
                opcode is Opcode.TX_BEGIN
                and self.recovery is not None
                and self.recovery.defer_tx_begin(core, op)
            ):
                # Graceful degradation: a degraded core issues its chunks
                # under the serialized fewer-core schedule.
                core.stall(cycle, "tx_wait")
                return False
            if opcode in _QUEUE_SEND_OPS:
                if not self.network.can_send(core.id, op.attrs["target_core"]):
                    # Back-pressure lifts when the receiver drains or, under
                    # the link layer, when a failed arrival's requeue returns
                    # a Virtual-Link pool slot (at the next arrival).
                    release = None if self.recovery is None else self.network.next_arrival()
                    core.stall(cycle, "send", release)
                    return False
        if srcs:
            release = max(map(core.reg_ready.__getitem__, srcs))
            if release > cycle:
                if release >= UNWRITTEN:
                    core.check_sources(srcs)
                core.stall(cycle, "latency", release)
                if kind != _SPECIAL:  # the tests above may change their verdict
                    self._doze_stamped(core)
                return False

        outcome = handler(self, core, op, srcs, dest)
        if outcome == "stall":  # an empty receive queue, already stamped
            self._doze_stamped(core)
            return False
        core.stats.busy += 1
        core.stats.ops_executed += 1
        if self.on_issue is not None:
            self.on_issue(cycle, core.id, op)
        if core.status == RUNNING and outcome == "ok":
            frame = core.frame
            frame.slot += 1
            if frame.slot >= len(frame.block.slots):
                self._finish_block(core)
        return True

    def _arrive_call_barrier(self, core: Core) -> None:
        """Decoupled-mode CALL: wait for every live core, then call in
        lock-step (the paper's call/return synchronization)."""
        core.stats.busy += 1  # the arrival cycle issues the (pending) call
        arrived = self._arrive(core, "call", "call_sync")
        if arrived is None:
            return
        callee_names = set()
        for member_id in sorted(arrived):
            member = self.cores[member_id]
            if member.owed is not None:
                # In id order, lower members were charged call_sync this cycle.
                self.awake.settle(self.cycle + (member_id < core.id), member)
                member.owed = "barrier"
            # Waiting out this cycle, a member is past the call barrier.
            member.barrier_cause = "barrier"
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

    def _arrive(self, core: Core, kind: str, cause: str) -> Optional[Set[int]]:
        """``core`` waits at barrier ``kind``; the members once all live cores do."""
        arrived = self._barrier.setdefault(kind, set())
        arrived.add(core.id)
        core.status = BARRIER_WAIT
        core.barrier_cause = cause
        if not arrived >= {c.id for c in self.cores if c.status != HALTED}:
            return None
        del self._barrier[kind]
        self._deferred_release.update(arrived)
        self._mode_next = "coupled"
        return arrived

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
            self.awake.stale = True
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
        self.awake.stale = True
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

    def _send(self, core: Core, op: Operation, value, **kind) -> str:
        target = op.attrs["target_core"]
        self.network.send(core.id, target, value, self.cycle, **kind)
        self.awake.rouse(self.cores[target], self.cycle)  # a RECV may sleep on it
        return "ok"

    def _do_send(self, core: Core, op: Operation, srcs, dest) -> str:
        core.stats.messages_sent += 1
        return self._send(core, op, core.values[srcs[0]], tag=op.attrs.get("tag"))

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
        self.stats.spawns += 1
        return self._send(core, op, op.attrs["target_block"], kind="spawn")

    def _do_release(self, core: Core, op: Operation, srcs, dest) -> str:
        return self._send(core, op, None, kind="release")

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
            for other in self.cores:  # the chunks waiting on commit order
                if other.owed == "tx_wait" and other.wake is None:
                    self.awake.rouse(other, self.cycle, other.id > core.id)
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
        self._arrive(core, "mode", "barrier")
        return "redirect"

    def _finish_block(self, core: Core) -> None:
        """Fall through block ends (possibly several empty blocks)."""
        while core.status == RUNNING and core.at_block_end():
            if not core.fall_through():
                raise SimulatorError(
                    f"core {core.id} ran off the end of block "
                    f"{core.frame.block.label} in {core.frame.function.name}"
                )


def build_dispatch_table() -> Dict[str, Handler]:
    """Build the opcode dispatch table, keyed by opcode name (a ``str``
    key: an ``Opcode`` key would hash its Enum in Python): the ALU,
    comparison, predicate and conversion handlers close over their
    result latency (resolved once through :func:`resolved_latencies`),
    so the execute path performs no opcode branching or latency lookups;
    any other opcode ``X`` runs ``VoltronMachine._do_<x>``."""
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
    return {opcode.name: handler for opcode, handler in table.items()}


#: The handlers depend on nothing but the ISA, so every machine shares one table.
_DISPATCH = build_dispatch_table()
