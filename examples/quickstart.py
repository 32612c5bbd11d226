"""Quickstart: author a program, compile it for Voltron, simulate it.

Runs the same little kernel as the paper's Fig. 7 sketch -- an elementwise
loop -- through the whole stack: reference interpretation, hybrid
compilation for a 4-core Voltron, cycle simulation, and a correctness
check, printing speedup and mode statistics.

    python examples/quickstart.py
"""

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder, run_program
from repro.sim import VoltronMachine


def build_program(n=128):
    pb = ProgramBuilder("quickstart")
    u = pb.alloc("u", n, init=range(1, n + 1))
    rp = pb.alloc("rp", n, init=range(2, n + 2))
    uf = pb.alloc("uf", n)
    rpf = pb.alloc("rpf", n)
    fb = pb.function("main")
    fb.block("entry")
    scalef = fb.mov(3)
    # The gsmdecode loop of paper Fig. 7:
    #   for (i = 0; i < n; ++i) { uf[i] = u[i]; rpf[i] = rp[i] * scalef; }
    with fb.counted_loop("fig7_loop", 0, n) as i:
        fb.store(uf.base, i, fb.load(u.base, i))
        fb.store(rpf.base, i, fb.mul(fb.load(rp.base, i), scalef))
    fb.halt()
    return pb.finish()


def main():
    program = build_program()

    # 1. Reference semantics (and the profile the compiler will use).
    reference = run_program(program)
    print(f"interpreter executed {reference.dynamic_ops} operations")

    # 2. Compile: profiling -> region selection -> partitioning ->
    #    scheduling -> per-core machine code.
    compiler = VoltronCompiler(program)
    baseline = compiler.compile("baseline", mesh(1))
    hybrid = compiler.compile("hybrid", mesh(4))
    regions = {
        entry["strategy"] for entry in hybrid.attrs["regions"].values()
    }
    print(f"hybrid compile chose region strategies: {sorted(regions)}")

    # 3. Simulate both machines.
    base_machine = VoltronMachine(baseline, mesh(1))
    base_stats = base_machine.run()
    machine = VoltronMachine(hybrid, mesh(4))
    stats = machine.run()

    # 4. Check correctness against the interpreter.
    for array in ("uf", "rpf"):
        assert machine.array_values(array) == reference.array_values(
            program, array
        ), f"array {array} diverged!"
    print("outputs match the reference interpreter")

    # 5. Report.
    print(f"baseline (1 core): {base_stats.cycles} cycles")
    print(f"voltron  (4 core): {stats.cycles} cycles")
    print(f"speedup: {base_stats.cycles / stats.cycles:.2f}x")
    print(
        "time in modes: "
        f"{stats.mode_fraction('coupled'):.0%} coupled, "
        f"{stats.mode_fraction('decoupled'):.0%} decoupled; "
        f"transactions: {stats.tx_commits} committed, "
        f"{stats.tx_aborts} aborted"
    )


if __name__ == "__main__":
    main()
