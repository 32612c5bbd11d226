"""The dual-mode scalar operand network (paper Section 3.1).

Direct mode: each pair of adjacent cores shares two uni-directional wires.
A ``PUT`` drives a wire during a cycle; the neighbouring core's ``GET``
executed the same cycle latches the value (the compiler aligns the pair;
misalignment is a compiler bug the simulator reports).  ``BCAST`` drives a
one-cycle broadcast seen by every core in the coupled group -- the same
single-cycle global-wire assumption the paper's 1-bit stall bus makes.

Queue mode: ``SEND`` writes a message into the core's send queue (1 cycle);
the router moves it one hop per cycle along the XY route; the receiver's
``RECV`` matches on the sender id (the receive queue is a CAM) and spends
one cycle reading it out -- 2 cycles + 1/hop end to end, as in the paper.
``SPAWN`` and ``RELEASE`` ride the same network as control messages.

Two receive-queue organizations (``NetworkConfig.queue_policy``):

* ``pair`` -- the paper's machine: one private ``queue_depth``-entry
  FIFO per (src, dst) pair.  Storage grows with the square of the core
  count, which is what the scaled meshes cannot afford.
* ``vlink`` -- a Virtual-Link-style multi-producer queue: each receiver
  owns a single ``queue_depth``-entry pool shared by every sender, plus
  one architecturally reserved slot per producer.  The reservation is
  the deadlock-freedom argument: a producer with nothing outstanding
  can always send one message, so a consumer draining channels in an
  order that differs from arrival order (e.g. a DOALL merge reading
  workers in index order) can never wedge the producer it is waiting
  for out of a pool filled by the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..arch.config import NetworkConfig
from ..arch.mesh import Mesh, opposite
from ..isa.registers import Value
from .recovery import message_crc


class NetworkError(Exception):
    """A protocol violation -- always indicates a compiler bug."""


@dataclass
class Message:
    """A queue-mode message."""

    src: int
    dst: int
    value: Value
    kind: str = "data"  # 'data' | 'spawn' | 'release'
    ready_cycle: int = 0  # cycle at which RECV may consume it
    #: Optional channel tag: loop-carried value channels are primed with a
    #: prologue message, so they must not share FIFO order with ordinary
    #: transfers from the same sender (RAW-style static channels).
    tag: object = None
    #: Send serial number.  Delivery is ordered by (ready_cycle, seq) so a
    #: bulk deliver after a fast-forwarded stall window lands messages in
    #: exactly the order per-cycle delivery would have.
    seq: int = 0
    #: Link-layer CRC over (src, dst, kind, tag, seq, value), stamped at
    #: SEND time when destructive faults are armed (0 otherwise).
    crc: int = 0
    #: Transmission attempts so far (1 = the original send).  Past the
    #: retransmit budget the final attempt is delivered reliably.
    attempts: int = 1
    #: Which receive-side storage this message occupies under the vlink
    #: policy: ``'pool'`` (a shared-pool slot) or ``'reserved'`` (the
    #: producer's architecturally reserved slot).  None under the
    #: per-pair policy.  Exact per-message accounting is what lets the
    #: link layer reclaim slots instead of leaking credits on
    #: retransmission.
    slot: Optional[str] = None


class DirectWires:
    """Direct-mode wires: values driven for exactly one cycle."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self._links = mesh.links
        # (core, direction) -> the wire a GET there latches: the
        # neighbour's, driven back toward ``core``.
        self._feeds = {
            (core, direction): (driver, opposite(direction))
            for (core, direction), driver in mesh.links.items()
        }
        # (core, direction) -> (value, cycle driven)
        self._wires: Dict[Tuple[int, str], Tuple[Value, int]] = {}
        # src core -> (value, cycle driven)
        self._bcast: Dict[int, Tuple[Value, int]] = {}

    def put(self, core: int, direction: str, value: Value, cycle: int) -> None:
        wire = (core, direction)
        if wire not in self._links:
            self.mesh.neighbor(core, direction)  # raises: no hop that way
        self._wires[wire] = (value, cycle)

    def get(
        self,
        core: int,
        direction: str,
        cycle: int,
        bcast_src: Optional[int] = None,
    ) -> Value:
        """Read the wire driven *toward* ``core`` from ``direction``."""
        if direction == "bcast":
            if bcast_src is None:
                fresh = [
                    value
                    for value, when in self._bcast.values()
                    if when == cycle
                ]
                if len(fresh) != 1:
                    raise NetworkError(
                        f"core {core} GET bcast at cycle {cycle} found "
                        f"{len(fresh)} broadcasts and no source id"
                    )
                return fresh[0]
            entry = self._bcast.get(bcast_src)
            if entry is None or entry[1] != cycle:
                raise NetworkError(
                    f"core {core} GET bcast at cycle {cycle} found no "
                    f"broadcast from core {bcast_src}"
                )
            return entry[0]
        wire = self._feeds.get((core, direction))
        if wire is None:
            self.mesh.neighbor(core, direction)  # raises: no hop that way
        entry = self._wires.get(wire)
        if entry is None or entry[1] != cycle:
            raise NetworkError(
                f"core {core} GET {direction} at cycle {cycle} found no PUT "
                f"from core {wire[0]}"
            )
        return entry[0]

    def bcast(self, core: int, value: Value, cycle: int) -> None:
        self._bcast[core] = (value, cycle)

    def read_bcast(self, core: int, cycle: int, src: Optional[int] = None) -> Value:
        return self.get(core, "bcast", cycle, bcast_src=src)


class OperandNetwork:
    """Queue-mode transport plus the direct wires."""

    def __init__(self, mesh: Mesh, config: NetworkConfig, faults=None,
                 recovery=None) -> None:
        self.mesh = mesh
        self.config = config
        self.direct = DirectWires(mesh)
        self.receive_queues: List[List[Message]] = [
            [] for _ in range(mesh.n_cores)
        ]
        # Messages still travelling.
        self._in_flight: List[Message] = []
        # Credit-based flow control: a sender may have at most
        # ``queue_depth`` messages outstanding (in flight or queued) toward
        # one receiver; SEND stalls otherwise.  Per-pair credits keep a
        # flooding sender from head-of-line-blocking another sender's
        # messages out of the receive CAM.
        self._outstanding: Dict[Tuple[int, int], int] = {}
        # Virtual-Link policy: exact per-slot accounting (see module
        # docstring).  ``_pool_load`` counts only shared-pool occupancy
        # per receiver; ``_reserved`` holds the (src, dst) pairs whose
        # architecturally reserved slot is occupied.  A message is
        # tagged with the slot it took at send time (``Message.slot``),
        # so releases and retransmissions never double-charge the pool.
        # Both are unused under the per-pair policy.
        self._vlink = config.queue_policy == "vlink"
        self._pool_load: Dict[int, int] = {}
        self._reserved: set = set()
        self._seq = 0
        #: Optional :class:`~repro.sim.faults.FaultPlan`: when attached,
        #: messages occasionally spend extra cycles in flight (a chaos
        #: model of router contention); queue-mode RECVs must tolerate it.
        #: Delays never reorder a (src, dst) pair -- the physical channel
        #: is a FIFO, so a delayed message also delays its successors
        #: (_fifo_floor tracks the pair's latest arrival).
        self.faults = faults
        self._fifo_floor: Dict[Tuple[int, int], int] = {}
        #: Optional :class:`~repro.sim.recovery.RecoveryManager`: when
        #: attached (destructive faults armed), SENDs stamp a CRC and
        #: every delivery becomes a transmission attempt the link layer
        #: adjudicates (CRC check / drop detection / retransmission).
        self.recovery = recovery
        #: Probe events (bound by the machine, see :mod:`repro.sim.probe`).
        self.on_net_send = None
        self.on_net_recv = None

    # -- queue mode -----------------------------------------------------------

    def can_send(self, src: int, dst: int) -> bool:
        if self._vlink:
            # Reserved slot first: a producer with nothing outstanding
            # may always send (the deadlock-freedom invariant); beyond
            # that it competes for the receiver's shared pool.
            return (
                self._outstanding.get((src, dst), 0) == 0
                or self._pool_load.get(dst, 0) < self.config.queue_depth
            )
        return (
            self._outstanding.get((src, dst), 0) < self.config.queue_depth
        )

    def send(
        self,
        src: int,
        dst: int,
        value: Value,
        cycle: int,
        kind: str = "data",
        tag: object = None,
    ) -> None:
        """SEND executed at ``cycle``: enters the send queue this cycle,
        routes one hop per cycle, then needs one read-out cycle."""
        if src == dst and kind == "data":
            raise NetworkError(f"core {src} sent a message to itself")
        if not self.can_send(src, dst):
            raise NetworkError(
                f"core {src} sent to core {dst} without credit "
                "(callers must check can_send and stall)"
            )
        self._outstanding[(src, dst)] = self._outstanding.get((src, dst), 0) + 1
        slot = None
        if self._vlink:
            # Exact slot assignment: take a shared-pool slot while one is
            # free; otherwise this send was admitted through the
            # producer's reserved slot (can_send guarantees it is free --
            # the producer had nothing outstanding).
            if self._pool_load.get(dst, 0) < self.config.queue_depth:
                slot = "pool"
                self._pool_load[dst] = self._pool_load.get(dst, 0) + 1
            else:
                slot = "reserved"
                self._reserved.add((src, dst))
        hops = self.mesh.hops(src, dst)
        arrival = (
            cycle
            + self.config.queue_entry_cycles
            + hops * self.config.queue_cycles_per_hop
        )
        if self.faults is not None:
            key = (src, dst)
            arrival += self.faults.net_delay()
            if self._vlink:
                # Pool contention: the message occasionally waits extra
                # cycles for its slot at the receiver.
                arrival += self.faults.vlink_hold()
            floor = self._fifo_floor.get(key)
            if floor is not None and arrival < floor:
                arrival = floor
            self._fifo_floor[key] = arrival
        self._seq += 1
        message = Message(
            src=src,
            dst=dst,
            value=value,
            kind=kind,
            ready_cycle=arrival,
            tag=tag,
            seq=self._seq,
            slot=slot,
        )
        if self.recovery is not None:
            message.crc = message_crc(message)
        self._in_flight.append(message)
        if self.on_net_send is not None:
            self.on_net_send(cycle, src, dst, kind, self._seq, arrival)

    def deliver(self, cycle: int) -> None:
        """Move arrived messages into receive queues (per-pair credits bound
        the queue population, so arrival is never refused).

        Arrivals land ordered by (ready_cycle, seq): with per-cycle
        delivery that is the natural append order, and it keeps a bulk
        deliver after a fast-forwarded stall window bit-identical to
        delivering cycle by cycle.
        """
        if not self._in_flight:
            return
        matured = [m for m in self._in_flight if m.ready_cycle <= cycle]
        if not matured:
            return
        self._in_flight = [m for m in self._in_flight if m.ready_cycle > cycle]
        matured.sort(key=lambda m: (m.ready_cycle, m.seq))
        recovery = self.recovery
        if recovery is None:
            for message in matured:
                self.receive_queues[message.dst].append(message)
            return
        # Destructive-fault link layer: each arrival is one transmission
        # attempt.  A failed attempt re-enters flight as a retransmission
        # and -- the physical channel being a FIFO -- drags every later
        # message of the same (src, dst) pair behind it: matured
        # successors are held here, in-flight successors inside
        # ``requeue`` (delivery sorts by (ready_cycle, seq), so equal
        # arrivals still unload in send order).
        held: Dict[Tuple[int, int], int] = {}
        for message in matured:
            key = (message.src, message.dst)
            floor = held.get(key)
            if floor is not None:
                message.ready_cycle = floor
                self._in_flight.append(message)
                continue
            if recovery.link_accept(self, message, cycle):
                self.receive_queues[message.dst].append(message)
            else:
                held[key] = message.ready_cycle

    def requeue(self, message: Message, cycle: int = 0) -> None:
        """Re-enter a failed transmission attempt as a retransmission
        arriving at its (already advanced) ``ready_cycle``.  Later
        messages of the same (src, dst) pair still in flight are pushed
        to arrive no earlier, and the pair's FIFO floor advances so
        future sends queue up behind the retransmission.

        Under the vlink policy the retransmission's slot is
        re-adjudicated: a message that was holding a shared-pool slot
        moves into its producer's reserved slot when that slot has freed
        up in the meantime (the producer's earlier reserved message was
        consumed during the backoff window).  The pool credit is
        returned immediately -- the retransmission buffers in the
        reserved slot -- instead of being held dark for the whole
        backoff, which on a contended 64-core pool is a real slot leak.
        """
        arrival = message.ready_cycle
        self._in_flight.append(message)
        if self._vlink and message.slot == "pool":
            key = (message.src, message.dst)
            if key not in self._reserved:
                self._pool_load[message.dst] = (
                    self._pool_load.get(message.dst, 1) - 1
                )
                self._reserved.add(key)
                message.slot = "reserved"
                if self.recovery is not None:
                    self.recovery.vlink_reclaim(message, cycle)
        for other in self._in_flight:
            if (
                other.seq > message.seq
                and other.src == message.src
                and other.dst == message.dst
                and other.ready_cycle < arrival
            ):
                other.ready_cycle = arrival
        key = (message.src, message.dst)
        floor = self._fifo_floor.get(key)
        if floor is None or arrival > floor:
            self._fifo_floor[key] = arrival

    def try_receive(
        self,
        core: int,
        src: int,
        cycle: int,
        kind: str = "data",
        tag: object = None,
    ) -> Optional[Message]:
        """CAM lookup by sender id (and channel tag); consumes and returns
        the oldest match."""
        queue = self.receive_queues[core]
        for i, message in enumerate(queue):
            if message.kind != kind:
                continue
            if kind == "data" and (message.src != src or message.tag != tag):
                continue
            if message.ready_cycle > cycle:
                continue
            del queue[i]
            self._consume(message, cycle)
            return message
        return None

    def peek_control(self, core: int, cycle: int) -> Optional[Message]:
        """Oldest spawn/release message for a listening core."""
        queue = self.receive_queues[core]
        for i, message in enumerate(queue):
            if message.kind in ("spawn", "release") and message.ready_cycle <= cycle:
                del queue[i]
                self._consume(message, cycle)
                return message
        return None

    def _consume(self, message: Message, cycle: int) -> None:
        """A message left its receive CAM: return its credit and report it."""
        if self.on_net_recv is not None:
            self.on_net_recv(cycle, message.seq)
        key = (message.src, message.dst)
        self._outstanding[key] = self._outstanding.get(key, 1) - 1
        if self._vlink:
            # Free exactly the slot this message occupied.
            if message.slot == "reserved":
                self._reserved.discard(key)
            else:
                self._pool_load[message.dst] = (
                    self._pool_load.get(message.dst, 1) - 1
                )

    def next_data_arrival(
        self, core: int, src: int, tag: object = None
    ) -> Optional[int]:
        """Earliest ready_cycle of a data message matching a RECV on
        ``core`` from ``src`` with ``tag`` -- queued or still in flight --
        or None when no such message exists anywhere in the network: the
        release a blocked RECV stamps for the fast-forward window."""
        best: Optional[int] = None
        for message in self.receive_queues[core]:
            if (
                message.kind == "data"
                and message.src == src
                and message.tag == tag
                and (best is None or message.ready_cycle < best)
            ):
                best = message.ready_cycle
        for message in self._in_flight:
            if (
                message.dst == core
                and message.kind == "data"
                and message.src == src
                and message.tag == tag
                and (best is None or message.ready_cycle < best)
            ):
                best = message.ready_cycle
        return best

    def next_control_arrival(self, core: int) -> Optional[int]:
        """Earliest ready_cycle of a spawn/release message for a listening
        ``core`` (queued or in flight), or None when there is none."""
        best: Optional[int] = None
        for message in self.receive_queues[core]:
            if message.kind in ("spawn", "release") and (
                best is None or message.ready_cycle < best
            ):
                best = message.ready_cycle
        for message in self._in_flight:
            if (
                message.dst == core
                and message.kind in ("spawn", "release")
                and (best is None or message.ready_cycle < best)
            ):
                best = message.ready_cycle
        return best

    def next_arrival(self) -> Optional[int]:
        """Earliest ready_cycle of any message still in flight, or None."""
        return min((m.ready_cycle for m in self._in_flight), default=None)

    def pending_for(self, core: int) -> int:
        return len(self.receive_queues[core]) + sum(
            1 for message in self._in_flight if message.dst == core
        )

    def quiescent(self) -> bool:
        return not self._in_flight and all(
            not queue for queue in self.receive_queues
        )

    def credits_balanced(self) -> bool:
        """Whether every flow-control credit has been returned: no
        outstanding per-pair credits, an empty shared pool, and no
        occupied reserved slots.  On a quiescent network anything else
        is a slot leak -- the chaos suite asserts this after every
        destructive run."""
        return (
            not any(self._outstanding.values())
            and not any(self._pool_load.values())
            and not self._reserved
        )
