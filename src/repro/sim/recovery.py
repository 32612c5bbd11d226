"""Architectural detection and recovery for destructive faults.

The destructive channels of :mod:`repro.sim.faults` damage events the
timing channels merely delay: operand-network payloads arrive scrambled,
SEND/SPAWN/RELEASE messages vanish in the router, and a core executing a
speculative DOALL chunk blacks out mid-flight, wiping its register file
and scoreboard.  This module is the architecture's answer -- the
mechanisms the paper's design already implies, made explicit:

* **Link layer (CRC + NACK/retransmit).**  Every queue-mode message is
  stamped with a CRC over (src, dst, kind, tag, seq, payload) at SEND
  time.  Delivery is a *transmission attempt*: a corrupted attempt fails
  the receiver's CRC check and is NACKed; a dropped attempt trips the
  sender's retransmission timer.  Either way the original message is
  retransmitted under bounded exponential backoff, and per-(src, dst)
  FIFO order is preserved by dragging every later message of the pair
  behind the retransmission.  After ``retransmit_budget`` failed
  attempts the final retransmission is sent *reliably* (fault sampling
  suppressed) -- the deadlock escape that bounds every RECV stall.

* **Watchdog (stall-bus heartbeats) + checkpoint rollback.**  Each core
  pulses the 1-bit stall bus every cycle; a blacked-out core goes
  silent.  After ``HEARTBEAT_MISSES`` missed pulses the watchdog
  declares the core dead and recovers its chunk through the existing TM
  path: abort the transaction (discarding the write buffer), restore
  the compiler's register checkpoint, and re-execute from the chunk's
  restart label -- exactly the machinery a conflict abort uses, which is
  why a blackout can never corrupt architectural state.  When the dark
  window outlasts the restore latency the orphaned chunk is *remapped*:
  the checkpoint travels to the nearest surviving core and execution
  resumes there after the migration latency.  (Compiled instruction
  streams are per-core, so the remap is modelled at the timing and
  placement level: :attr:`RecoveryManager.placement` records the new
  physical home and the resume time pays the migration; the logical
  core object keeps executing the chunk.)

* **Graceful degradation.**  A core exceeding ``blackout_budget``
  blackouts is demoted at the next MODE_SWITCH barrier: further
  blackouts on it are masked (it is assumed re-initialized
  conservatively), and its speculative chunks issue under a serialized
  "fewer-core" schedule -- a chunk may only begin once every logically
  earlier chunk of the region entry has committed, which is the timing
  shape of rescheduling the region onto the surviving cores.

Every hook sits behind the established single ``is None`` check: a
machine without destructive faults never constructs a
:class:`RecoveryManager`, and the chaos-differential suite proves final
memory stays bit-identical to the fault-free golden under any plan.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Dict

from .core import RUNNING

#: Fixed restore cost once the watchdog fires: re-initializing the
#: pipeline and reloading the register checkpoint.
RESTORE_LATENCY = 8

#: Cycles of the first retransmission backoff; each further failed
#: attempt of the same message doubles it.
BACKOFF_BASE = 2

#: Missed stall-bus heartbeats the watchdog tolerates before it declares
#: a core dead.
HEARTBEAT_MISSES = 4

#: Horizon of a recovery layer with nothing pending (no run gets there).
_FAR = 1 << 62

#: Poison written over a blacked-out core's registers; recovery must
#: fully replace it (reads of poisoned state would change results, which
#: the chaos differential would catch).
_POISON = 0x0DEAD0DEAD

#: Stable counter keys, in report order.  ``counters_dict`` and
#: ``MachineStats.recovery`` use exactly these.
RECOVERY_COUNTERS = (
    "crc_errors",
    "drops",
    "retransmits",
    "fallbacks",
    "blackouts",
    "blackout_cycles",
    "watchdog_detections",
    "chunk_rollbacks",
    "chunks_remapped",
    "regions_degraded",
    "directory_scrubs",
    "vlink_reclaims",
)

#: Dynamic histogram keys beside the stable counters: one
#: ``remap_hops_<n>`` key per remap distance seen (mesh hops from the
#: dead core to its adopter).  Like ``blackout_cycles`` they are an
#: aggregate, not an event count, and ``events_recorded`` skips them.
REMAP_HOPS_PREFIX = "remap_hops_"

#: Recovery-event kind -> MachineStats.recovery counter it increments.
#: :func:`repro.obs.timeline.reconcile` asserts the per-kind event
#: counts equal these counters exactly.
EVENT_COUNTER_FOR_KIND = {
    "crc_error": "crc_errors",
    "msg_drop": "drops",
    "retransmit": "retransmits",
    "fallback": "fallbacks",
    "blackout": "blackouts",
    "watchdog": "watchdog_detections",
    "chunk_rollback": "chunk_rollbacks",
    "remap": "chunks_remapped",
    "degrade": "regions_degraded",
    "scrub": "directory_scrubs",
    "vlink_reclaim": "vlink_reclaims",
}


def payload_crc(src, dst, kind, tag, seq, value) -> int:
    """CRC-32 over a message's identifying fields and payload, computed
    on a stable textual encoding (no randomized ``hash()``)."""
    return zlib.crc32(repr((src, dst, kind, tag, seq, value)).encode())


def message_crc(message) -> int:
    return payload_crc(
        message.src, message.dst, message.kind, message.tag, message.seq,
        message.value,
    )


def scramble(value):
    """The wire-corruption model: a deterministic burst error applied to
    a payload in flight.  Deterministic so fault schedules replay
    exactly; always value-changing so the CRC check has something to
    catch."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return -(value + 1.0)
    if isinstance(value, int):
        return value ^ 0x2BAD
    if isinstance(value, str):
        return value + "\x00"
    return 0x2BAD  # None and anything exotic


class RecoveryManager:
    """Detection and repair of destructive faults for one machine run.

    Constructed by ``VoltronMachine.__init__`` when the attached
    :class:`~repro.sim.faults.FaultPlan` has destructive channels armed;
    holds the watchdog state, the per-core blackout ledger, the
    degradation set, and the recovery counters that land in
    ``MachineStats.recovery``.
    """

    def __init__(self, machine, plan) -> None:
        # A weak back-reference: the machine owns this manager, and a
        # strong cycle would keep every faulted machine alive until a
        # full garbage collection.
        self.machine = weakref.proxy(machine)
        self.plan = plan
        self.counters: Dict[str, int] = {
            key: 0 for key in RECOVERY_COUNTERS
        }
        #: Probe event (bound by the machine, see :mod:`repro.sim.probe`).
        self.on_recovery = None
        #: Blacked-out cores: core id -> {"wake": ..., "detect": ...}.
        self._down: Dict[int, Dict[str, int]] = {}
        #: Blackouts suffered per core (feeds the degradation budget).
        self.blackout_count: Dict[int, int] = {}
        #: Cores past their blackout budget, awaiting the next barrier.
        self._degrade_pending: set = set()
        #: Degraded cores: blackouts masked, chunk issue serialized.
        self.degraded: set = set()
        #: Logical core -> physical core after the last recovery (the
        #: remap ledger; identity until a remap happens).
        self.placement: Dict[int, int] = {}
        #: Coupled-cluster geometry: the stall-bus heartbeat only reaches
        #: ``coupled_group_size`` cores, so on clustered machines the
        #: watchdog's view of a remote cluster rides the (slower)
        #: cluster-level stall network and detection pays
        #: ``cluster_stall_latency`` extra (``machine._cluster_penalty``
        #: is that latency, 0 on single-cluster machines).
        config = machine.config
        self._cluster_size = max(1, config.coupled_group_size)
        #: Watchdog detections per coupled cluster (the per-cluster
        #: heartbeat ledger; introspection and tests).
        self.watchdog_by_cluster: Dict[int, int] = {}
        #: Budgets scaled to the machine shape.  The per-config knobs
        #: were tuned for the paper's 4-core machine; a mesh64 running
        #: the same absolute budgets would degrade (serialize) after a
        #: single unlucky core and fall back to reliable delivery on
        #: every contended link.  Scaling keeps the *per-core* tolerance
        #: constant: blackout budget grows with the core count, the
        #: retransmit budget with the mesh diameter (longer routes, more
        #: attempts in flight).  Both factors are exactly 1 for every
        #: machine up to 4 cores, so small-machine schedules are
        #: untouched.
        rows, cols = config.mesh_shape
        self.blackout_budget = (
            plan.config.blackout_budget * max(1, config.n_cores // 4)
        )
        self.retransmit_budget = (
            plan.config.retransmit_budget * max(1, (rows + cols) // 4)
        )

    # -- event plumbing ----------------------------------------------------------

    def _event(self, cycle: int, kind: str, core: int, detail: str,
               cycles: int = 0) -> None:
        if self.on_recovery is not None:
            self.on_recovery(cycle, kind, core, detail, cycles)

    def counters_dict(self) -> Dict[str, int]:
        return dict(self.counters)

    def events_recorded(self) -> int:
        """Total detection/repair events (equals total counter bumps
        minus the aggregates: blackout_cycles and the remap-distance
        histogram)."""
        return sum(
            value for key, value in self.counters.items()
            if key != "blackout_cycles"
            and not key.startswith(REMAP_HOPS_PREFIX)
        )

    # -- link layer: CRC + NACK/retransmit ---------------------------------------

    def link_accept(self, network, message, cycle: int) -> bool:
        """Adjudicate one transmission attempt at delivery time.

        Returns True when the attempt lands intact (the message enters
        the receive CAM); False when it failed -- the message has then
        already been requeued as a retransmission and the caller must
        hold every later message of the same (src, dst) pair behind it.
        """
        budget = self.retransmit_budget
        if message.attempts > budget:
            # Deadlock escape: past the budget the retransmission rides
            # a reliable (ECC-protected, non-droppable) slot -- fault
            # sampling is suppressed, so delivery is guaranteed.
            return True
        outcome = self.plan.xmit_outcome()
        if outcome is None:
            return True
        net = network.config
        hops = network.mesh.hops(message.src, message.dst)
        one_way = net.queue_entry_cycles + hops * net.queue_cycles_per_hop
        backoff = BACKOFF_BASE * (1 << (message.attempts - 1))
        if outcome == "corrupt":
            wire = scramble(message.value)
            if payload_crc(
                message.src, message.dst, message.kind, message.tag,
                message.seq, wire,
            ) == message.crc:
                # A CRC-32 collision between the scrambled and original
                # payloads: undetectable by construction, astronomically
                # unlikely, and the chaos differential would flag the
                # divergence.  Deliver what the wire carried.
                message.value = wire
                return True
            self.counters["crc_errors"] += 1
            self._event(
                cycle, "crc_error", message.dst,
                f"seq={message.seq} src={message.src} kind={message.kind}",
            )
            # Detection is immediate at the receiver; the NACK travels
            # back, the sender backs off, the retransmission travels
            # forward again.
            resend_ready = cycle + one_way + backoff + one_way
        else:  # drop
            self.counters["drops"] += 1
            self._event(
                cycle, "msg_drop", message.src,
                f"seq={message.seq} dst={message.dst} kind={message.kind}",
            )
            # No NACK for a vanished message: the sender's timer waits a
            # conservative round trip past the expected ack.
            resend_ready = cycle + 2 * one_way + backoff + one_way
        message.attempts += 1
        self.counters["retransmits"] += 1
        if message.attempts > budget:
            self.counters["fallbacks"] += 1
            self._event(
                cycle, "fallback", message.src,
                f"seq={message.seq} attempts={message.attempts} reliable",
            )
        message.ready_cycle = resend_ready
        network.requeue(message, cycle)
        self._event(
            cycle, "retransmit", message.src,
            f"seq={message.seq} attempt={message.attempts} "
            f"ready={resend_ready}",
        )
        return False

    def vlink_reclaim(self, message, cycle: int) -> None:
        """Called by :meth:`OperandNetwork.requeue` when a retransmitted
        vlink message moves from the shared pool into its producer's
        (now free) reserved slot: the pool credit is returned instead of
        riding dark through the whole backoff window."""
        self.counters["vlink_reclaims"] += 1
        self._event(
            cycle, "vlink_reclaim", message.src,
            f"seq={message.seq} dst={message.dst} pool credit returned",
        )

    # -- blackouts: injection, watchdog, rollback, remap -------------------------

    def maybe_blackout(self, core, cycle: int) -> bool:
        """Probe the blackout channel for a RUNNING, issue-ready core in
        decoupled mode.  Injection is gated to the architecturally
        recoverable window -- an active transaction whose register
        checkpoint matches the current call depth -- which is exactly the
        window where all in-flight state is covered by the TM abort /
        register-rollback path.  Returns True when the core went dark
        this cycle (the caller attributes the stall and skips the step).
        """
        if not self.blackout_eligible(core):
            return False
        core_id = core.id
        duration = self.plan.blackout_cycles()
        if not duration:
            return False
        self.counters["blackouts"] += 1
        self.counters["blackout_cycles"] += duration
        count = self.blackout_count.get(core_id, 0) + 1
        self.blackout_count[core_id] = count
        # Wipe the in-flight architectural state: poison every written
        # register and clear the scoreboard.  Recovery must fully rebuild
        # both -- any poisoned value that leaked into results would break
        # the chaos differential's bit-identity.
        core.poison_registers(_POISON)
        core._fetch_block = None
        # The watchdog hears the missed heartbeats over the stall
        # fabric; on clustered machines the silence must propagate up
        # the cluster-level stall network first.
        detect = (
            cycle + HEARTBEAT_MISSES
            + self.machine._cluster_penalty
        )
        self._down[core_id] = {"wake": cycle + duration, "detect": detect}
        # Hold the pipeline at least until the watchdog fires; the
        # detection handler sets the final resume time.
        core.block_until(detect, "latency")
        self._event(
            cycle, "blackout", core_id, f"dark for {duration} cycles",
            cycles=duration,
        )
        if (
            count > self.blackout_budget
            and core_id not in self._degrade_pending
        ):
            self._degrade_pending.add(core_id)
        return True

    def blackout_eligible(self, core) -> bool:
        """The recoverable-window gate of :meth:`maybe_blackout`: a live,
        undegraded core inside a transaction whose register checkpoint
        matches its call depth."""
        core_id = core.id
        if core_id in self._down or core_id in self.degraded:
            return False
        checkpoint = core.tx_checkpoint
        return (
            checkpoint is not None
            and self.machine.tm.in_transaction(core_id)
            and core.call_depth == checkpoint.call_depth
        )

    def blackout_probes(self, cycle: int) -> int:
        """How many times one stalled cycle probes the blackout channel:
        once per RUNNING, issue-ready decoupled core that passes the
        gate (coupled cycles never probe it).  A fast-forward window
        leaves every term constant, so this is the per-cycle rate
        :meth:`~repro.sim.faults.FaultPlan.horizon` takes."""
        if self.machine.mode == "coupled":
            return 0
        return sum(
            1 for core in self.machine.cores
            if core.status == RUNNING and core.next_free <= cycle
            and self.blackout_eligible(core)
        )

    def horizon(self, cycle: int) -> int:
        """The first cycle after ``cycle`` at which the recovery layer
        acts on its own: the earliest pending watchdog deadline, or the
        earliest in-flight arrival (:meth:`link_accept` samples its fate
        and times any retransmission from the delivery cycle).  A
        fast-forward window must end there."""
        deadlines = [entry["detect"] for entry in self._down.values()]
        arrival = self.machine.network.next_arrival()
        if arrival is not None:
            deadlines.append(arrival)
        return min(deadlines, default=cycle + _FAR)

    def tick(self, cycle: int) -> None:
        """The watchdog: called once per stepped cycle.  A core whose
        stall-bus heartbeat has been silent for ``HEARTBEAT_MISSES``
        cycles is declared dead and its chunk recovered."""
        if not self._down:
            return
        for core_id in list(self._down):
            entry = self._down[core_id]
            if cycle < entry["detect"]:
                continue
            del self._down[core_id]
            self.counters["watchdog_detections"] += 1
            cluster = core_id // self._cluster_size
            self.watchdog_by_cluster[cluster] = (
                self.watchdog_by_cluster.get(cluster, 0) + 1
            )
            self._event(
                cycle, "watchdog", core_id,
                f"missed {HEARTBEAT_MISSES} heartbeats "
                f"(cluster {cluster})",
            )
            self._recover(core_id, entry, cycle)

    def _recover(self, core_id: int, entry: Dict[str, int],
                 cycle: int) -> None:
        machine = self.machine
        core = machine.cores[core_id]
        machine.awake.wake(core, cycle)  # settle a sleeper before changing it
        # The existing TM recovery path: abort (discard the write
        # buffer), restore the compiler's register checkpoint, restart
        # the chunk -- identical to a conflict abort at commit.
        machine.tm.abort(core_id)
        restart = core.rollback_registers()
        core.jump(restart)
        machine._positions_moved = True
        self.counters["chunk_rollbacks"] += 1
        self._event(cycle, "chunk_rollback", core_id, f"restart={restart}")
        # Directory fabrics must forget the dead core: a presence vector
        # still naming it would route later misses to a supplier that is
        # dark (and its M/O data would go stale once it re-executes).
        # M/O lines write back, everything else invalidates, and the
        # directory invariant is re-asserted after every recovery.
        scrub = getattr(machine.bus, "scrub_core", None)
        if scrub is not None:
            lines = scrub(core_id)
            self.counters["directory_scrubs"] += 1
            self._event(
                cycle, "scrub", core_id,
                f"{lines} line(s) written back or invalidated",
            )
            machine.bus.check_directory()
        resume = cycle + RESTORE_LATENCY
        if entry["wake"] > resume and machine.config.n_cores > 1:
            # The core is still dark when the checkpoint is ready:
            # remap the orphaned chunk onto the nearest surviving core.
            # The checkpoint travels over the operand network, so the
            # migration pays one queue traversal -- plus the cluster
            # stall-network hop when the adopter lives in a different
            # coupled cluster.
            adopter = self._adopter(core_id)
            hops = machine.mesh.hops(core_id, adopter)
            net = machine.network.config
            migration = (
                net.queue_entry_cycles + hops * net.queue_cycles_per_hop
            )
            if adopter // self._cluster_size != core_id // self._cluster_size:
                migration += machine._cluster_penalty
            resume += migration
            self.placement[core_id] = adopter
            self.counters["chunks_remapped"] += 1
            key = f"{REMAP_HOPS_PREFIX}{hops}"
            self.counters[key] = self.counters.get(key, 0) + 1
            self._event(
                cycle, "remap", core_id,
                f"onto physical core {adopter} ({hops} hop(s))",
                cycles=hops,
            )
        else:
            resume = max(resume, entry["wake"])
            self.placement[core_id] = core_id
        # Recovery owns this core's stall window end to end, so a direct
        # hold (not block_until) may shorten the provisional one.
        core.hold(resume, "latency")

    def _adopter(self, core_id: int) -> int:
        """The nearest surviving core by mesh distance (ties break to
        the lowest core id, so the choice is deterministic).  On holey
        near-square meshes "next index" can be a worst-case route away;
        the checkpoint should travel the fewest hops that reach a live
        core."""
        mesh = self.machine.mesh
        best = core_id
        best_key = None
        for candidate in range(self.machine.config.n_cores):
            if candidate == core_id or candidate in self._down:
                continue
            key = (mesh.hops(core_id, candidate), candidate)
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
        return best

    # -- graceful degradation ----------------------------------------------------

    def on_mode_switch(self, cycle: int) -> None:
        """Degradation re-arms at MODE_SWITCH barriers: cores past their
        blackout budget are demoted here, never mid-region."""
        if not self._degrade_pending:
            return
        for core_id in sorted(self._degrade_pending):
            self.degraded.add(core_id)
            self.counters["regions_degraded"] += 1
            self._event(
                cycle, "degrade", core_id,
                f"blackout budget {self.blackout_budget} exceeded; "
                "serialized chunk schedule",
            )
        self._degrade_pending.clear()

    def defer_tx_begin(self, core, op) -> bool:
        """Whether a degraded core must hold its TX_BEGIN: under the
        fewer-core schedule its chunk may only begin once every
        logically earlier chunk of the region entry has committed.  The
        next-to-commit chunk is never deferred, so progress holds even
        with every core degraded."""
        if core.id not in self.degraded:
            return False
        attrs = op.attrs
        order = attrs["order"]
        n_chunks = attrs.get("chunks", 0) or order + 1
        return not self.machine.tm.serial_slot_ready(
            attrs["region"], order, n_chunks
        )
