"""Advanced machine behaviors: transactions, observers, group limits,
credit stalls, and mode restoration around calls."""

import pytest

from repro.arch import mesh
from repro.compiler import VoltronCompiler, compile_program
from repro.isa import ProgramBuilder, run_program
from repro.isa.operations import Opcode
from repro.sim import VoltronMachine
from repro.workloads.kernels import KernelContext, doall_kernel, strand_kernel


def _doall_program(trips=40):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=3)
    out = doall_kernel(ctx, trips=trips)
    fb.halt()
    return pb.finish(), out


class TestTransactionsThroughTheMachine:
    def test_commit_counts_match_chunks(self):
        program, out = _doall_program()
        compiled = compile_program(program, 4, "llp")
        machine = VoltronMachine(compiled, mesh(4))
        stats = machine.run()
        assert stats.tx_commits == 4
        assert stats.tx_aborts == 0
        assert stats.spawns == 3

    def test_tx_wait_stalls_enforce_ordered_commit(self):
        program, out = _doall_program()
        compiled = compile_program(program, 4, "llp")
        machine = VoltronMachine(compiled, mesh(4))
        stats = machine.run()
        # Later chunks usually wait for earlier ones at commit.
        total_tx_wait = sum(c.stalls["tx_wait"] for c in stats.cores)
        assert total_tx_wait > 0

    def test_rollback_reexecutes_to_correct_result(self):
        pb = ProgramBuilder("conflict")
        n = 32
        perm = pb.alloc("perm", n, init=[(i * 5) % n for i in range(n)])
        same = pb.alloc("same", n, init=[3] * n)
        cells = pb.alloc("cells", n)
        fb = pb.function("main", n_params=1)
        fb.block("entry")
        (which,) = fb.function.params
        clean = fb.cmp_eq(which, 0)
        base = fb.select(clean, perm.base, same.base)
        with fb.counted_loop("L", 0, n) as i:
            k = fb.load(base, i)
            v = fb.load(cells.base, k)
            fb.store(cells.base, k, fb.add(v, 1))
        fb.halt()
        program = pb.finish()
        compiled = compile_program(program, 4, "llp", profile_args=(0,))
        machine = VoltronMachine(compiled, mesh(4), args=(1,))
        stats = machine.run()
        assert stats.tx_aborts > 0
        reference = run_program(program, (1,))
        assert machine.array_values("cells") == reference.array_values(
            program, "cells"
        )


class _IssueLog:
    """A probe consumer implementing only the ``issue`` event."""

    def __init__(self):
        self.seen = []

    def issue(self, cycle, core, op):
        self.seen.append((cycle, core, op.opcode))


def _strand_program():
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=3)
    strand_kernel(ctx, trips=24)
    doall_kernel(ctx, trips=16)
    fb.halt()
    return pb.finish()


class TestObservers:
    def test_observer_sees_executed_ops(self):
        program, out = _doall_program(trips=16)
        compiled = compile_program(program, 2, "ilp")
        log = _IssueLog()
        stats = VoltronMachine(compiled, mesh(2), obs=log).run()
        assert len(log.seen) == stats.total_ops()
        assert any(opcode is Opcode.PUT for _c, _k, opcode in log.seen)
        cycles = [c for c, _k, _o in log.seen]
        assert cycles == sorted(cycles)

    @pytest.mark.parametrize("strategy", ["tlp", "hybrid"])
    def test_issue_trace_is_the_same_with_fast_forward(self, strategy):
        """A RECV still waiting for its message stalls, it does not
        issue; so skipping stalled cycles changes nothing in the trace."""
        compiled = compile_program(_strand_program(), 4, strategy)
        traces = []
        for fast_forward in (True, False):
            log = _IssueLog()
            stats = VoltronMachine(
                compiled, mesh(4), fast_forward=fast_forward, obs=log
            ).run()
            assert sum(c.stalls["recv_data"] for c in stats.cores) > 0
            assert len(log.seen) == stats.total_ops()
            traces.append(log.seen)
        assert traces[0] == traces[1]

    def test_no_observer_overhead_path(self):
        program, out = _doall_program(trips=16)
        compiled = compile_program(program, 2, "ilp")
        machine = VoltronMachine(compiled, mesh(2))
        stats = machine.run()
        assert stats.cycles > 0  # plain run without observers works


class TestGroupLimit:
    def test_compiling_beyond_stall_bus_group_runs_clustered(self):
        """Past the 4-core stall-bus group the compiler no longer
        rejects the machine: coupled regions execute as one clustered
        ensemble with the same final memory as the paper's grid."""
        program, _ = _doall_program()
        compiler = VoltronCompiler(program)
        small = VoltronMachine(compiler.compile("hybrid", mesh(4)), mesh(4))
        small.run()
        config = mesh(8)
        large = VoltronMachine(compiler.compile("hybrid", config), config)
        assert large._cluster_penalty == config.cluster_stall_latency
        large.run()
        assert large.final_memory() == small.final_memory()


class TestCreditStalls:
    def test_send_stall_counted_under_tiny_queues(self):
        import dataclasses

        from repro.arch.config import NetworkConfig

        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("entry")
        ctx = KernelContext(pb=pb, fb=fb, seed=3)
        out = strand_kernel(ctx, trips=48)
        fb.halt()
        program = pb.finish()
        config = dataclasses.replace(
            mesh(4), network=NetworkConfig(queue_depth=1)
        )
        compiled = VoltronCompiler(program).compile("tlp", config)
        machine = VoltronMachine(compiled, config, max_cycles=5_000_000)
        stats = machine.run()
        reference = run_program(program)
        assert machine.array_values(out) == reference.array_values(program, out)
        # depth-1 queues force rendezvous: the machine must still finish
        # (flow control can slow it down but never deadlock it).
        assert stats.cycles > 0


class TestModeRestoreAroundCalls:
    def test_call_in_decoupled_region_restores_decoupled_mode(self):
        pb = ProgramBuilder("t")
        a = pb.alloc("a", 32, init=range(32))
        o = pb.alloc("o", 32)
        helper = pb.function("twist", n_params=1)
        helper.block("h")
        (x,) = helper.function.params
        helper.ret(helper.xor(helper.mul(x, 3), 5))
        fb = pb.function("main")
        fb.block("entry")
        with fb.counted_loop("L", 0, 32) as i:
            v = fb.load(a.base, i)
            w = fb.call("twist", [v])
            fb.store(o.base, i, w)
        fb.halt()
        program = pb.finish()
        reference = run_program(program)
        compiled = compile_program(program, 4, "tlp")
        machine = VoltronMachine(compiled, mesh(4))
        stats = machine.run()
        assert machine.array_values("o") == reference.array_values(program, "o")
        # Both modes really ran, and call sync stalls were paid.
        assert stats.mode_cycles["decoupled"] > 0
        assert sum(c.stalls["call_sync"] for c in stats.cores) > 0
