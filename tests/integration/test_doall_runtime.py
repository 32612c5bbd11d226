"""Runtime behavior of speculative DOALL codegen: dynamic bounds, chunk
coverage, live-outs, and the spawn/join protocol."""

import pytest

from repro.arch import mesh
from repro.compiler import compile_program
from repro.isa import ProgramBuilder, run_program
from repro.isa.operations import Opcode
from repro.sim import VoltronMachine


def _dynamic_bound_program():
    """The loop bound is loaded from memory: chunk bounds must be computed
    at run time on every core."""
    pb = ProgramBuilder("dyn")
    meta = pb.alloc("meta", 1, init=[37])  # bound lives in memory
    a = pb.alloc("a", 64, init=range(64))
    o = pb.alloc("o", 64)
    fb = pb.function("main")
    fb.block("entry")
    bound = fb.load(meta.base, 0)
    with fb.counted_loop("L", 0, bound) as i:
        fb.store(o.base, i, fb.add(fb.load(a.base, i), 7))
    fb.halt()
    return pb.finish()


class TestDynamicBounds:
    def test_dynamic_bound_doall_correct(self):
        program = _dynamic_bound_program()
        compiled = compile_program(program, 4, "llp")
        strategies = {
            e["strategy"] for e in compiled.attrs["regions"].values()
        }
        assert "doall" in strategies  # the dynamic bound was accepted
        reference = run_program(program)
        machine = VoltronMachine(compiled, mesh(4))
        stats = machine.run()
        assert machine.array_values("o") == reference.array_values(program, "o")
        assert stats.tx_commits == 4

    def test_dynamic_bound_untouched_tail(self):
        program = _dynamic_bound_program()
        compiled = compile_program(program, 4, "llp")
        machine = VoltronMachine(compiled, mesh(4))
        machine.run()
        # Iterations beyond the dynamic bound (37) must not be touched.
        assert machine.array_values("o")[37:] == [0] * (64 - 37)

    @pytest.mark.parametrize("bound", [9, 16, 23, 31])
    def test_various_dynamic_bounds_via_arg(self, bound):
        pb = ProgramBuilder("dynarg")
        a = pb.alloc("a", 64, init=range(64))
        o = pb.alloc("o", 64)
        fb = pb.function("main", n_params=1)
        fb.block("entry")
        (n,) = fb.function.params
        with fb.counted_loop("L", 0, n) as i:
            fb.store(o.base, i, fb.mul(fb.load(a.base, i), 2))
        fb.halt()
        program = pb.finish()
        # Profile with a bound big enough to clear the trip threshold.
        compiled = compile_program(program, 4, "llp", profile_args=(32,))
        reference = run_program(program, (bound,))
        machine = VoltronMachine(compiled, mesh(4), args=(bound,))
        machine.run()
        assert machine.array_values("o") == reference.array_values(
            program, "o"
        )


class TestLiveOuts:
    def test_accumulator_and_induction_usable_after_loop(self):
        pb = ProgramBuilder("liveout")
        n = 32
        a = pb.alloc("a", n, init=range(1, n + 1))
        o = pb.alloc("o", 4)
        fb = pb.function("main")
        fb.block("entry")
        acc = fb.mov(100)
        with fb.counted_loop("L", 0, n) as i:
            fb.add(acc, fb.load(a.base, i), dest=acc)
        # Both the reduction result and the final induction value are
        # consumed after the region, on whatever cores the fabric picks.
        fb.store(o.base, 0, acc)
        fb.store(o.base, 1, i)
        fb.store(o.base, 2, fb.mul(acc, i))
        fb.halt()
        program = pb.finish()
        reference = run_program(program)
        want = reference.array_values(program, "o")
        assert want[0] == 100 + n * (n + 1) // 2
        assert want[1] == n
        for n_cores in (2, 4):
            for strategy in ("llp", "hybrid"):
                compiled = compile_program(program, n_cores, strategy)
                machine = VoltronMachine(
                    compiled, mesh(4) if n_cores == 4 else mesh(2)
                )
                machine.run()
                assert machine.array_values("o") == want, (n_cores, strategy)

    def test_strand_region_liveout_reaches_fabric(self):
        pb = ProgramBuilder("strandout")
        from repro.workloads.kernels import KernelContext, strand_kernel

        fb = pb.function("main")
        fb.block("entry")
        ctx = KernelContext(pb=pb, fb=fb, seed=5)
        out = strand_kernel(ctx, trips=32)
        # The kernel's accumulator is stored by the kernel itself; chain an
        # extra post-region computation on the stored value.
        final = pb.alloc("final", 1)
        sym = pb.program.array(out)
        v = fb.load(sym.base, 0)
        fb.store(final.base, 0, fb.add(v, 1))
        fb.halt()
        program = pb.finish()
        reference = run_program(program)
        compiled = compile_program(program, 4, "tlp")
        machine = VoltronMachine(compiled, mesh(4))
        machine.run()
        assert machine.array_values("final") == reference.array_values(
            program, "final"
        )


class TestSpawnJoinProtocol:
    def test_workers_listen_then_sleep_then_release(self):
        program = _dynamic_bound_program()
        compiled = compile_program(program, 4, "llp")
        machine = VoltronMachine(compiled, mesh(4))
        stats = machine.run()
        # Workers idled while listening, and every spawn found a listener.
        assert stats.spawns == 3
        idle = sum(stats.cores[c].stalls["idle"] for c in (1, 2, 3))
        assert idle > 0
        # The network drained completely.
        assert machine.network.quiescent()
