"""Visualize dual-mode execution cycle by cycle.

Traces a tiny program with one coupled (ILP) region and one DOALL region
and prints a per-core timeline around each region, making the lock-step
PUT/GET alignment, the MODE_SWITCH brackets, the SPAWN/SLEEP protocol,
and the TX_BEGIN/TX_COMMIT envelopes visible.

    python examples/trace_dual_mode.py
"""

from repro.arch import mesh
from repro.compiler import compile_program
from repro.harness import Tracer
from repro.isa import ProgramBuilder
from repro.isa.operations import Opcode
from repro.sim import VoltronMachine
from repro.workloads.kernels import KernelContext, doall_kernel, ilp_kernel


def main():
    pb = ProgramBuilder("traced")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=8)
    ilp_kernel(ctx, trips=12, chains=4)
    doall_kernel(ctx, trips=32)
    fb.halt()
    program = pb.finish()

    compiled = compile_program(program, 4, "hybrid")
    tracer = Tracer(limit=50_000)
    VoltronMachine(compiled, mesh(4), obs=tracer).run()

    # Find the first mode switch: the coupled->decoupled boundary.
    switch = next(
        e for e in tracer.events if e.op.opcode is Opcode.MODE_SWITCH
    )
    spawn = next(e for e in tracer.events if e.op.opcode is Opcode.SPAWN)

    print("== coupled ILP execution (lock-step; P>/ <G are the direct")
    print("   network; B* broadcasts the branch predicate) ==")
    print(tracer.render(start=tracer.events[0].cycle + 230, width=44))
    print()
    print("== entering the DOALL region (MS = mode switch, sp = spawn,")
    print("   T( )T = transaction bracket, zz = sleep, li = listen) ==")
    print(tracer.render(start=spawn.cycle - 4, width=44))
    print()
    histogram = tracer.opcode_histogram()
    interesting = (
        Opcode.PUT, Opcode.GET, Opcode.BCAST, Opcode.SEND, Opcode.RECV,
        Opcode.SPAWN, Opcode.SLEEP, Opcode.MODE_SWITCH,
        Opcode.TX_BEGIN, Opcode.TX_COMMIT,
    )
    print("== dynamic op counts (communication & mode machinery) ==")
    for opcode in interesting:
        if histogram.get(opcode):
            print(f"  {opcode.value:12s} {histogram[opcode]}")


if __name__ == "__main__":
    main()
