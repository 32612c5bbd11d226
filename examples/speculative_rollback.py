"""Statistical DOALL mis-speculation in action (paper Section 3, TM).

The paper's compiler parallelizes loops that *profiling* says are
independent, even when the compiler cannot prove it.  This example builds
a histogram-update loop whose conflict behaviour depends on the input:
the profiling input is a permutation (no two iterations touch the same
bin), so the loop is classified statistical DOALL -- but the production
input funnels many updates into one bin, so the speculative chunks
conflict, the transactional memory rolls them back, and execution still
produces exactly the serial result.

    python examples/speculative_rollback.py
"""

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder, run_program
from repro.sim import VoltronMachine

N = 64


def build_program():
    pb = ProgramBuilder("histogram")
    clean = pb.alloc("clean_idx", N, init=[(i * 7) % N for i in range(N)])
    hot = pb.alloc("hot_idx", N, init=[i % 4 for i in range(N)])
    bins = pb.alloc("bins", N)
    fb = pb.function("main", n_params=1)
    fb.block("entry")
    (which,) = fb.function.params
    use_clean = fb.cmp_eq(which, 0)
    base = fb.select(use_clean, clean.base, hot.base)
    with fb.counted_loop("hist", 0, N) as i:
        bin_index = fb.load(base, i)
        count = fb.load(bins.base, bin_index)
        fb.store(bins.base, bin_index, fb.add(count, 1))
    fb.halt()
    return pb.finish()


def main():
    program = build_program()

    # Profile with the clean (conflict-free) input, as the paper profiles
    # with a train input.
    compiler = VoltronCompiler(program, profile_args=(0,))
    compiled = compiler.compile("llp", mesh(4))
    strategies = {e["strategy"] for e in compiled.attrs["regions"].values()}
    print(f"compiler classified the loop as: {sorted(strategies)}")

    for which, label in ((0, "clean permutation"), (1, "hot-bin input")):
        reference = run_program(program, (which,))
        machine = VoltronMachine(compiled, mesh(4), args=(which,))
        stats = machine.run()
        ok = machine.array_values("bins") == reference.array_values(
            program, "bins"
        )
        print(
            f"{label:18s}: {stats.tx_commits} commits, "
            f"{stats.tx_aborts} rollbacks, correct={ok}, "
            f"{stats.cycles} cycles"
        )
        assert ok


if __name__ == "__main__":
    main()
