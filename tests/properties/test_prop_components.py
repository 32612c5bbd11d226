"""Property-based tests on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.arch.config import CacheConfig, NetworkConfig, four_core
from repro.arch.mesh import Mesh
from repro.sim.caches import EXCLUSIVE, MODIFIED, SetAssocCache, SnoopBus
from repro.sim.faults import FaultConfig, FaultPlan, _Channel
from repro.sim.memory import MainMemory
from repro.sim.network import OperandNetwork
from repro.sim.tm import TransactionalMemory


@st.composite
def meshes(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=rows * cols))
    return Mesh(rows, cols, n)


class TestMeshProperties:
    @settings(max_examples=50, deadline=None)
    @given(meshes(), st.data())
    def test_route_reaches_destination_in_hops_steps(self, mesh, data):
        src = data.draw(st.integers(min_value=0, max_value=mesh.n_cores - 1))
        dst = data.draw(st.integers(min_value=0, max_value=mesh.n_cores - 1))
        route = mesh.route(src, dst)
        assert len(route) == mesh.hops(src, dst)
        current = src
        for nxt in route:
            assert mesh.hops(current, nxt) == 1
            current = nxt
        assert current == dst

    @settings(max_examples=50, deadline=None)
    @given(meshes(), st.data())
    def test_hops_symmetric_and_triangle(self, mesh, data):
        cores = st.integers(min_value=0, max_value=mesh.n_cores - 1)
        a, b, c = data.draw(cores), data.draw(cores), data.draw(cores)
        assert mesh.hops(a, b) == mesh.hops(b, a)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)


class TestCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 255), st.booleans()),
            min_size=1,
            max_size=120,
        )
    )
    def test_moesi_single_writer_invariant(self, accesses):
        """After any access sequence, at most one cache holds a line in a
        writable (M/E) state, and M/E excludes any other copies."""
        bus = SnoopBus(four_core())
        lines = set()
        for core, addr, is_store in accesses:
            bus.access(core, addr, is_store)
            lines.add(addr // bus.config.l1d.line_words)
        for line in lines:
            states = [bus.l1ds[c].state_of(line) for c in range(4)]
            writable = [s for s in states if s in ("M", "E")]
            assert len(writable) <= 1
            if writable:
                others = [s for s in states if s not in ("M", "E")]
                assert all(s == "I" for s in others)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=100),
        st.integers(1, 4),
    )
    def test_set_assoc_capacity_respected(self, lines, ways):
        cache = SetAssocCache(
            CacheConfig(size_words=2 * ways * 8, associativity=ways)
        )
        for line in lines:
            cache.insert(line, EXCLUSIVE)
            for cache_set in cache.sets:
                assert len(cache_set) <= ways


class TestNetworkProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 99)),
            min_size=1,
            max_size=32,
        )
    )
    def test_messages_arrive_in_fifo_order_per_pair(self, sends):
        network = OperandNetwork(Mesh(2, 2, 4), NetworkConfig(queue_depth=64))
        sent = {}
        for cycle, (src, dst, value) in enumerate(sends):
            if src == dst:
                continue
            network.send(src, dst, value, cycle)
            sent.setdefault((src, dst), []).append(value)
        network.deliver(10_000)
        for (src, dst), values in sent.items():
            received = []
            while True:
                message = network.try_receive(dst, src, 10_000)
                if message is None:
                    break
                received.append(message.value)
            assert received == values

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8))
    def test_credits_conserved(self, depth):
        network = OperandNetwork(Mesh(1, 2, 2), NetworkConfig(queue_depth=depth))
        for k in range(depth):
            network.send(0, 1, k, cycle=0)
        assert not network.can_send(0, 1)
        network.deliver(100)
        for _ in range(depth):
            assert network.try_receive(1, 0, cycle=100) is not None
        assert network.can_send(0, 1)


class TestTMProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 7), st.booleans()),
            min_size=0,
            max_size=24,
        )
    )
    def test_speculative_execution_serializes(self, accesses):
        """Whatever the chunks read/write, retry-on-abort must converge to
        the serial order's final memory state.

        Chunk k performs its slice of the accesses; value written is a
        function of (chunk, position) so orderings are distinguishable."""
        chunks = {k: [] for k in range(4)}
        for position, (chunk, addr, is_store) in enumerate(accesses):
            chunks[chunk].append((position, addr, is_store))

        # Serial semantics: chunk 0's accesses, then chunk 1's, ...
        serial = MainMemory()
        for k in range(4):
            for position, addr, is_store in chunks[k]:
                if is_store:
                    serial.store(addr, position)

        memory = MainMemory()
        tm = TransactionalMemory(memory)

        # Execute all four chunks "concurrently", then commit in order,
        # retrying aborted chunks (which is what the machine does).
        def run_chunk(k):
            tm.begin(k, region=1, order=k, n_chunks=4)
            for position, addr, is_store in chunks[k]:
                if is_store:
                    tm.store(k, addr, position)
                else:
                    tm.load(k, addr)

        for k in range(4):
            run_chunk(k)
        for k in range(4):
            while not tm.try_commit(k):
                run_chunk(k)

        for addr in {a for _c, a, _s in accesses}:
            assert memory.load(addr) == serial.load(addr)


#: Channel rates: the disabled and always-firing edges plus the range
#: the chaos suite and the ledger use.
rates = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.001, max_value=0.5)
)


def _channel(rate, seed):
    plan = FaultPlan(FaultConfig(seed=seed))
    return _Channel(plan, "stall-bus", rate, 8)


def _fires(channel, probes):
    return [
        (channel.fire(), channel.fires, channel.injected_cycles)
        for _ in range(probes)
    ]


class TestFaultCountdownProperties:
    """The countdown arithmetic that lets fault runs fast-forward:
    ``horizon`` is exact and ``skip`` is indistinguishable from the
    zero-returning probes it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(rates, st.integers(0, 2**32), st.integers(1, 16),
           st.integers(0, 500), st.integers(1, 64))
    def test_skip_equals_the_probes_it_replaces(self, rate, seed, k, w, tail):
        stepped, skipped = _channel(rate, seed), _channel(rate, seed)
        w = min(w, stepped.horizon(k))  # k*w probes below the horizon
        assert all(fired == 0 for fired, _, _ in _fires(stepped, k * w))
        skipped.skip(k * w)
        assert skipped.countdown == stepped.countdown
        assert _fires(skipped, tail) == _fires(stepped, tail)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.002, max_value=1.0), st.integers(0, 2**32),
           st.integers(1, 16))
    def test_horizon_is_the_next_fire_cycle(self, rate, seed, k):
        channel = _channel(rate, seed)
        horizon = channel.horizon(k)
        for _ in range(horizon):
            assert all(fired == 0 for fired, _, _ in _fires(channel, k))
        assert any(fired for fired, _, _ in _fires(channel, k))

    @given(st.integers(0, 2**32))
    def test_unprobed_and_disabled_channels_never_fire(self, seed):
        assert _channel(0.5, seed).horizon(0) >= 1 << 60
        assert _channel(0.0, seed).horizon(1) >= 1 << 60
