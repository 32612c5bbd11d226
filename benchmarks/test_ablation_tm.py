"""Ablation: speculative DOALL under mis-speculation.

Paper Section 3/4.1: statistical DOALL loops run speculatively on the
low-cost TM; when the profile's independence claim fails at run time, the
TM rolls chunks back and ordered commit serializes them.  This bench
quantifies the cost curve: clean speculation ~ the DOALL win, heavy
conflicts degrade toward (but never below a constant factor of) serial
execution, and results stay exact throughout.
"""

from repro.arch.config import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder, run_program
from repro.sim import VoltronMachine

N = 96


def _histogram_program():
    """Histogram whose conflict rate depends on main's argument: arg is
    the number of hot iterations all hitting bin 0."""
    pb = ProgramBuilder("hist")
    idx = pb.alloc("idx", N, init=[(i * 11) % N for i in range(N)])
    bins = pb.alloc("bins", N)
    fb = pb.function("main", n_params=1)
    fb.block("entry")
    (hot,) = fb.function.params
    with fb.counted_loop("hist", 0, N) as i:
        raw = fb.load(idx.base, i)
        is_hot = fb.cmp_lt(i, hot)
        bin_index = fb.select(is_hot, 0, raw)
        count = fb.load(bins.base, bin_index)
        fb.store(bins.base, bin_index, fb.add(count, 1))
    fb.halt()
    return pb.finish()


def test_ablation_misspeculation_cost(benchmark):
    program = _histogram_program()
    compiler = VoltronCompiler(program, profile_args=(0,))
    compiled = compiler.compile("llp", mesh(4))
    table = compiled.attrs["regions"]
    assert any(e["strategy"] == "doall" for e in table.values())

    serial = VoltronMachine(
        compiler.compile("baseline", mesh(1)), mesh(1), args=(0,)
    ).run().cycles

    print()
    print("Ablation: DOALL mis-speculation cost (4 cores)")
    rows = []
    for hot in (0, 8, 48, N):
        reference = run_program(program, (hot,))
        machine = VoltronMachine(compiled, mesh(4), args=(hot,))
        stats = machine.run()
        assert machine.array_values("bins") == reference.array_values(
            program, "bins"
        )
        rows.append((hot, stats.tx_aborts, serial / stats.cycles))
        print(
            f"  hot={hot:3d}: {stats.tx_aborts} rollbacks, "
            f"speedup {serial / stats.cycles:.2f}"
        )

    clean_speedup = rows[0][2]
    worst_speedup = min(r[2] for r in rows)
    # Clean speculation wins; conflicts cost rollbacks; even fully
    # conflicting execution stays within a bounded factor of serial.
    assert clean_speedup > 1.2
    assert rows[-1][1] > 0  # the hot input really mis-speculates
    assert worst_speedup > 0.4

    benchmark.pedantic(
        lambda: VoltronMachine(compiled, mesh(4), args=(N,)).run().cycles,
        rounds=1, iterations=1, warmup_rounds=0,
    )
