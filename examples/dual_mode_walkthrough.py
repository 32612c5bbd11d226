"""A walkthrough of dual-mode execution (the paper's Fig. 6 scenario).

Builds a program whose regions pull the compiler in different directions
-- a high-ILP block (coupled mode), a miss-heavy strand loop and a
pipelined pointer loop (decoupled mode), and a DOALL loop (speculative LLP)
-- then shows the per-region strategy decisions, a disassembly excerpt of
the per-core streams, and the runtime mode/stall statistics.

    python examples/dual_mode_walkthrough.py
"""

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder, run_program
from repro.sim import VoltronMachine
from repro.workloads.kernels import (
    KernelContext,
    doall_kernel,
    dswp_kernel,
    ilp_kernel,
    strand_kernel,
)


def build_program():
    pb = ProgramBuilder("walkthrough")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=42)
    outputs = [
        ilp_kernel(ctx, trips=96, chains=4, depth=4),
        strand_kernel(ctx, trips=64),
        dswp_kernel(ctx, trips=96),
        doall_kernel(ctx, trips=128),
    ]
    fb.halt()
    return pb.finish(), outputs


def main():
    program, outputs = build_program()
    compiler = VoltronCompiler(program)
    compiled = compiler.compile("hybrid", mesh(4))

    print("== region decisions ==")
    seen = set()
    for (fn, label), entry in sorted(compiled.attrs["regions"].items()):
        key = (entry["rid"], entry["strategy"], entry["origin"])
        if key in seen:
            continue
        seen.add(key)
        print(f"  region {entry['rid']:2d}: {entry['strategy']:8s}"
              f" (loop at {fn}:{entry['origin']})")

    print("\n== per-core stream sizes ==")
    for core in range(4):
        ops = sum(
            sum(1 for _ in block.ops())
            for function in compiled.streams[core].values()
            for block in function.ordered_blocks()
        )
        print(f"  core {core}: {ops} static ops")

    reference = run_program(program)
    baseline = VoltronMachine(
        compiler.compile("baseline", mesh(1)), mesh(1)
    )
    base_cycles = baseline.run().cycles
    machine = VoltronMachine(compiled, mesh(4))
    stats = machine.run()
    for out in outputs:
        assert machine.array_values(out) == reference.array_values(program, out)

    print("\n== execution ==")
    print(f"  baseline: {base_cycles} cycles; hybrid 4-core: {stats.cycles} "
          f"cycles; speedup {base_cycles / stats.cycles:.2f}x")
    print(f"  mode time: {stats.mode_fraction('coupled'):.0%} coupled / "
          f"{stats.mode_fraction('decoupled'):.0%} decoupled "
          f"({stats.mode_switches} switches)")
    print(f"  transactions: {stats.tx_commits} commits, "
          f"{stats.tx_aborts} aborts; {stats.spawns} thread spawns")
    print("\n== per-core stall profile (cycles) ==")
    for core_id, core in enumerate(stats.cores):
        interesting = {
            name: value for name, value in core.stalls.items() if value
        }
        print(f"  core {core_id}: busy={core.busy} stalls={interesting}")


if __name__ == "__main__":
    main()
