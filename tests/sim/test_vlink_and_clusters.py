"""Virtual-Link operand queues and clustered coupled mode.

The vlink policy trades the paper's per-pair receive FIFOs (storage
quadratic in the core count) for one shared pool per receiver plus a
reserved slot per producer -- the reservation is the deadlock-freedom
argument the unit tests below pin down.  Clustered coupled mode lets
meshes beyond the 4-core stall-bus reach run DVLIW schedules as one
lockstep ensemble with a cluster-network stall penalty.
"""

import dataclasses

from repro.arch.config import NetworkConfig, four_core, mesh
from repro.arch.mesh import Mesh
from repro.compiler.driver import VoltronCompiler
from repro.sim.machine import VoltronMachine
from repro.sim.network import OperandNetwork
from repro.workloads.suite import build


def make_net(policy, depth=2, n_cores=4):
    config = mesh(n_cores)
    net_config = dataclasses.replace(
        config.network, queue_policy=policy, queue_depth=depth
    )
    rows, cols = config.mesh_shape
    return OperandNetwork(Mesh(rows, cols, n_cores), net_config)


class TestVlinkFlowControl:
    def test_pair_policy_caps_per_pair(self):
        net = make_net("pair", depth=2)
        net.send(0, 3, 1, cycle=0)
        net.send(0, 3, 2, cycle=0)
        assert not net.can_send(0, 3)
        assert net.can_send(1, 3)  # a different pair has its own queue

    def test_vlink_shares_one_receiver_pool(self):
        net = make_net("vlink", depth=2)
        net.send(0, 3, 1, cycle=0)
        net.send(0, 3, 2, cycle=0)
        # Core 0 filled the pool; its next send must wait...
        assert not net.can_send(0, 3)
        # ...and core 1 competes for the same pool, but its reserved
        # slot admits one message even though the pool is full.
        assert net.can_send(1, 3)
        net.send(1, 3, 3, cycle=0)
        assert not net.can_send(1, 3)

    def test_reserved_slot_is_per_producer(self):
        """Every producer with nothing outstanding can send one message
        regardless of pool pressure -- a consumer draining producers in
        index order can never wedge the awaited one out."""
        net = make_net("vlink", depth=1)
        net.send(0, 3, 1, cycle=0)  # pool is now full
        for src in (1, 2):
            assert net.can_send(src, 3)
            net.send(src, 3, src, cycle=0)
            assert not net.can_send(src, 3)

    def test_receive_releases_pool_capacity(self):
        net = make_net("vlink", depth=1)
        net.send(0, 3, 7, cycle=0)
        net.send(1, 3, 8, cycle=0)  # via core 1's reserved slot
        assert not net.can_send(0, 3)
        net.deliver(20)
        message = net.try_receive(3, 0, 20)
        assert message is not None and message.value == 7
        assert net.can_send(0, 3)

    def test_out_of_order_drain_never_deadlocks(self):
        """DOALL-merge shape: every worker sends, the merge reads them
        in index order while the pool is saturated."""
        n = 9
        net = make_net("vlink", depth=2, n_cores=n)
        for src in range(1, n):
            assert net.can_send(src, 0), f"producer {src} wedged"
            net.send(src, 0, src, cycle=0)
        net.deliver(50)
        for src in range(1, n):
            message = net.try_receive(0, src, 50)
            assert message is not None and message.value == src
        assert net.credits_balanced()

    def test_reserved_slot_message_does_not_charge_the_pool(self):
        """The double-reserve audit: a message admitted through its
        producer's reserved slot must not also consume a shared-pool
        credit.  Before exact slot accounting, core 1's reserved-slot
        message below also counted against the pool, so draining core
        0's pool message left the pool looking full."""
        net = make_net("vlink", depth=1)
        net.send(0, 3, 7, cycle=0)  # takes the one pool slot
        net.send(1, 3, 8, cycle=0)  # admitted via core 1's reserved slot
        assert net._pool_load[3] == 1  # not 2: the reserved send is free
        net.deliver(20)
        message = net.try_receive(3, 0, 20)
        assert message is not None and message.value == 7
        # The pool is genuinely empty even though core 1's message is
        # still unread in its reserved slot.
        assert net._pool_load[3] == 0
        assert (1, 3) in net._reserved

    def test_release_frees_exactly_the_occupied_slot(self):
        net = make_net("vlink", depth=1)
        net.send(0, 3, 7, cycle=0)
        net.send(1, 3, 8, cycle=0)
        net.deliver(20)
        assert net.try_receive(3, 1, 20).value == 8
        assert (1, 3) not in net._reserved  # reserved slot released
        assert net._pool_load[3] == 1       # pool slot still held
        assert net.try_receive(3, 0, 20).value == 7
        assert net.credits_balanced()


class TestVlinkRetransmission:
    """The link layer's slot reclamation on retransmission
    (``OperandNetwork.requeue`` with destructive faults armed)."""

    class _RecoveryStub:
        def __init__(self):
            self.reclaims = []

        def vlink_reclaim(self, message, cycle):
            self.reclaims.append((message.seq, cycle))

        def link_accept(self, network, message, cycle):
            return True  # every delivery attempt lands intact

    def test_requeued_pool_message_moves_to_free_reserved_slot(self):
        """A retransmission whose producer's reserved slot is free moves
        into it, returning the pool credit for the whole backoff window
        instead of holding it dark."""
        net = make_net("vlink", depth=1)
        stub = self._RecoveryStub()
        net.recovery = stub
        net.send(1, 3, 9, cycle=0)          # pool slot
        assert not net.can_send(1, 3)        # outstanding, pool full
        message = net._in_flight.pop()       # the link layer's view of a
        message.ready_cycle = 40             # failed attempt, backed off
        net.requeue(message, cycle=5)
        assert message.slot == "reserved"
        assert net._pool_load[3] == 0        # pool credit returned
        assert (1, 3) in net._reserved
        assert stub.reclaims == [(message.seq, 5)]
        # The freed pool slot admits core 1's next message behind the
        # retransmission -- the re-credit is architecturally visible.
        assert net.can_send(1, 3)

    def test_requeued_reserved_message_keeps_its_slot(self):
        """A retransmission already in the reserved slot stays there:
        no pool charge, no double reservation."""
        net = make_net("vlink", depth=1)
        stub = self._RecoveryStub()
        net.recovery = stub
        net.send(0, 3, 7, cycle=0)           # pool
        net.send(1, 3, 8, cycle=0)           # reserved
        message = next(m for m in net._in_flight if m.src == 1)
        net._in_flight.remove(message)
        message.ready_cycle = 40
        net.requeue(message, cycle=5)
        assert message.slot == "reserved"
        assert net._pool_load[3] == 1
        assert stub.reclaims == []

    def test_requeue_without_free_reservation_competes_for_the_pool(self):
        """Two pool messages from one producer: the retransmitted one
        cannot move (the producer's reserved slot would only free once
        its other message drains), so it keeps its pool slot."""
        net = make_net("vlink", depth=2)
        stub = self._RecoveryStub()
        net.recovery = stub
        net.send(1, 3, 9, cycle=0)           # pool
        net.send(1, 3, 10, cycle=0)          # pool
        first = next(m for m in net._in_flight if m.value == 9)
        net._in_flight.remove(first)
        first.ready_cycle = 40
        net.requeue(first, cycle=5)
        assert first.slot == "reserved"      # slot WAS free: reclaimed
        assert net._pool_load[3] == 1
        # ...but a second failure from the same producer finds the
        # reservation occupied and must keep competing for the pool.
        second = next(m for m in net._in_flight if m.value == 10)
        net._in_flight.remove(second)
        second.ready_cycle = 50
        net.requeue(second, cycle=6)
        assert second.slot == "pool"
        assert net._pool_load[3] == 1
        assert len(stub.reclaims) == 1
        # Draining everything returns every credit.
        net.deliver(60)
        assert net.try_receive(3, 1, 60).value == 9
        assert net.try_receive(3, 1, 60).value == 10
        assert net.credits_balanced()


class TestClusteredCoupledMode:
    def test_small_machines_have_no_cluster_penalty(self):
        bench = build("rawcaudio")
        config = four_core()
        compiled = VoltronCompiler(bench.program).compile("ilp", config)
        machine = VoltronMachine(compiled, config)
        assert machine._cluster_penalty == 0

    def test_large_machines_step_one_ensemble(self):
        bench = build("rawcaudio")
        config = mesh(16)
        compiled = VoltronCompiler(bench.program).compile("ilp", config)
        machine = VoltronMachine(compiled, config)
        assert config.n_cores == 4 * config.coupled_group_size
        assert machine._cluster_penalty == config.cluster_stall_latency

    def test_cluster_penalty_costs_cycles_not_correctness(self):
        bench = build("rawcaudio")
        base = mesh(16)
        free = dataclasses.replace(base, cluster_stall_latency=0)
        slow = dataclasses.replace(base, cluster_stall_latency=6)
        compiled = VoltronCompiler(bench.program).compile("ilp", base)
        results = {}
        for label, config in (("free", free), ("slow", slow)):
            machine = VoltronMachine(compiled, config)
            machine.run()
            results[label] = (machine.stats.cycles, machine.final_memory())
        assert results["slow"][0] >= results["free"][0]
        assert results["slow"][1] == results["free"][1]
