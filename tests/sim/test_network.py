"""Unit tests for the dual-mode scalar operand network."""

import pytest

from repro.arch.config import NetworkConfig
from repro.arch.mesh import Mesh
from repro.sim.network import DirectWires, NetworkError, OperandNetwork


def make_network(rows=2, cols=2, n=4, **kwargs):
    return OperandNetwork(Mesh(rows, cols, n), NetworkConfig(**kwargs))


class TestDirectWires:
    def test_put_get_same_cycle(self):
        wires = DirectWires(Mesh(1, 2, 2))
        wires.put(0, "east", 42, cycle=5)
        assert wires.get(1, "west", cycle=5) == 42

    def test_value_is_not_latched_across_cycles(self):
        wires = DirectWires(Mesh(1, 2, 2))
        wires.put(0, "east", 42, cycle=5)
        with pytest.raises(NetworkError):
            wires.get(1, "west", cycle=6)

    def test_get_without_put_raises(self):
        wires = DirectWires(Mesh(1, 2, 2))
        with pytest.raises(NetworkError):
            wires.get(1, "west", cycle=0)

    def test_put_off_mesh_raises(self):
        wires = DirectWires(Mesh(1, 2, 2))
        with pytest.raises(ValueError):
            wires.put(0, "west", 1, cycle=0)

    def test_put_toward_missing_neighbor_raises_every_time(self):
        # Before and after a valid PUT from the same core: the wire
        # table never learns a hop the mesh lacks.
        wires = DirectWires(Mesh(2, 2, 3))  # no core south of core 1
        for cycle in (0, 0):
            with pytest.raises(ValueError, match="no neighbor east of core 1"):
                wires.put(1, "east", 1, cycle)
            with pytest.raises(ValueError, match="no core south of core 1"):
                wires.put(1, "south", 1, cycle)
        wires.put(1, "west", 7, cycle=1)
        assert wires.get(0, "east", cycle=1) == 7
        for cycle in (1, 2):
            with pytest.raises(ValueError, match="no neighbor east of core 1"):
                wires.put(1, "east", 1, cycle)
            with pytest.raises(ValueError, match="no core south of core 1"):
                wires.put(1, "south", 1, cycle)

    def test_get_from_missing_neighbor_raises(self):
        wires = DirectWires(Mesh(2, 2, 3))
        wires.put(0, "east", 7, cycle=0)
        for _ in range(2):
            with pytest.raises(ValueError, match="no core south of core 1"):
                wires.get(1, "south", cycle=0)
        assert wires.get(1, "west", cycle=0) == 7

    def test_get_names_the_silent_driver(self):
        wires = DirectWires(Mesh(2, 2, 4))
        with pytest.raises(NetworkError, match="found no PUT from core 2"):
            wires.get(3, "west", cycle=0)

    def test_both_directions_simultaneously(self):
        wires = DirectWires(Mesh(1, 2, 2))
        wires.put(0, "east", 1, cycle=0)
        wires.put(1, "west", 2, cycle=0)
        assert wires.get(1, "west", 0) == 1
        assert wires.get(0, "east", 0) == 2

    def test_broadcast(self):
        wires = DirectWires(Mesh(2, 2, 4))
        wires.bcast(1, True, cycle=3)
        for core in (0, 2, 3):
            assert wires.read_bcast(core, 3, src=1) is True

    def test_two_broadcasts_same_cycle_need_source_ids(self):
        wires = DirectWires(Mesh(2, 2, 4))
        wires.bcast(0, 1, cycle=3)
        wires.bcast(1, 2, cycle=3)
        assert wires.read_bcast(2, 3, src=0) == 1
        assert wires.read_bcast(2, 3, src=1) == 2
        with pytest.raises(NetworkError):
            wires.read_bcast(2, 3)  # ambiguous without a source


class TestQueueMode:
    def test_end_to_end_latency_adjacent(self):
        """2 cycles + 1 per hop (paper Section 3.1)."""
        net = make_network()
        net.send(0, 1, 42, cycle=0)
        net.deliver(1)
        # Arrival is at entry(1) + hops(1) = cycle 2; not before.
        assert net.try_receive(1, 0, cycle=1) is None
        net.deliver(2)
        message = net.try_receive(1, 0, cycle=2)
        assert message is not None and message.value == 42

    def test_two_hop_latency(self):
        net = make_network()
        net.send(0, 3, 7, cycle=0)
        net.deliver(2)
        assert net.try_receive(3, 0, cycle=2) is None
        net.deliver(3)
        assert net.try_receive(3, 0, cycle=3).value == 7

    def test_cam_matches_sender(self):
        net = make_network()
        net.send(0, 2, "from0", cycle=0)
        net.send(1, 2, "from1", cycle=0)
        net.deliver(10)
        assert net.try_receive(2, 1, cycle=10).value == "from1"
        assert net.try_receive(2, 0, cycle=10).value == "from0"

    def test_fifo_per_sender(self):
        net = make_network()
        net.send(0, 1, "first", cycle=0)
        net.send(0, 1, "second", cycle=1)
        net.deliver(10)
        assert net.try_receive(1, 0, cycle=10).value == "first"
        assert net.try_receive(1, 0, cycle=10).value == "second"

    def test_tags_isolate_channels(self):
        net = make_network()
        net.send(0, 1, "tagged", cycle=0, tag="carried")
        net.send(0, 1, "plain", cycle=1)
        net.deliver(10)
        assert net.try_receive(1, 0, cycle=10).value == "plain"
        assert net.try_receive(1, 0, cycle=10, tag="carried").value == "tagged"

    def test_self_send_rejected(self):
        net = make_network()
        with pytest.raises(NetworkError):
            net.send(2, 2, 1, cycle=0)

    def test_spawn_and_release_are_control_messages(self):
        net = make_network()
        net.send(0, 1, "entry_label", cycle=0, kind="spawn")
        net.send(0, 1, None, cycle=1, kind="release")
        net.deliver(10)
        assert net.try_receive(1, 0, cycle=10) is None  # not data
        spawn = net.peek_control(1, cycle=10)
        assert spawn.kind == "spawn" and spawn.value == "entry_label"
        release = net.peek_control(1, cycle=10)
        assert release.kind == "release"
        assert net.peek_control(1, cycle=10) is None


class TestFlowControl:
    def test_credit_exhaustion(self):
        net = make_network(queue_depth=4)
        for k in range(4):
            assert net.can_send(0, 1)
            net.send(0, 1, k, cycle=0)
        assert not net.can_send(0, 1)
        with pytest.raises(NetworkError):
            net.send(0, 1, 99, cycle=0)

    def test_credits_are_per_destination(self):
        net = make_network(queue_depth=2)
        net.send(0, 1, 1, cycle=0)
        net.send(0, 1, 2, cycle=0)
        assert not net.can_send(0, 1)
        assert net.can_send(0, 2)

    def test_credits_are_per_sender(self):
        """A flooding sender must not block another sender's channel."""
        net = make_network(queue_depth=2)
        net.send(0, 2, 1, cycle=0)
        net.send(0, 2, 2, cycle=0)
        assert not net.can_send(0, 2)
        assert net.can_send(1, 2)
        net.send(1, 2, "urgent", cycle=0)
        net.deliver(10)
        assert net.try_receive(2, 1, cycle=10).value == "urgent"

    def test_receive_returns_credit(self):
        net = make_network(queue_depth=1)
        net.send(0, 1, 1, cycle=0)
        assert not net.can_send(0, 1)
        net.deliver(10)
        net.try_receive(1, 0, cycle=10)
        assert net.can_send(0, 1)

    def test_quiescent(self):
        net = make_network()
        assert net.quiescent()
        net.send(0, 1, 1, cycle=0)
        assert not net.quiescent()
        net.deliver(10)
        assert not net.quiescent()
        net.try_receive(1, 0, cycle=10)
        assert net.quiescent()
