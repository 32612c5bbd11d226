"""Property-based differential testing: randomly generated programs must
produce identical architectural state under the interpreter and under
every compilation strategy on the simulator.

This is the reproduction's strongest correctness property: partitioning,
scheduling, communication insertion, speculation, and the cycle-level
machine all have to agree with sequential semantics for arbitrary
dependence patterns.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import mesh
from repro.compiler import compile_program
from repro.isa import ProgramBuilder, run_program
from repro.sim import VoltronMachine

BINOPS = ("add", "sub", "mul", "xor", "or_", "and_")


@st.composite
def loop_programs(draw):
    """A program with one or two loops of random dependence structure."""
    n = draw(st.integers(min_value=8, max_value=24))
    n_loops = draw(st.integers(min_value=1, max_value=2))
    specs = []
    for _ in range(n_loops):
        specs.append({
            "ops": draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(BINOPS),
                        st.integers(min_value=0, max_value=3),
                        st.integers(min_value=1, max_value=9),
                    ),
                    min_size=1,
                    max_size=6,
                )
            ),
            "reduce": draw(st.booleans()),
            "writes_random": draw(st.booleans()),
        })
    init = draw(
        st.lists(
            st.integers(min_value=1, max_value=60), min_size=n, max_size=n
        )
    )
    return n, specs, init


def build_program(n, specs, init):
    pb = ProgramBuilder("prop")
    a = pb.alloc("a", n, init=init)
    idx = pb.alloc("idx", n, init=[(7 * i + 3) % n for i in range(n)])
    outs = []
    fb = pb.function("main")
    fb.block("entry")
    for loop_id, spec in enumerate(specs):
        out = pb.alloc(f"out{loop_id}", n + 1)
        outs.append(f"out{loop_id}")
        acc = fb.mov(0)
        with fb.counted_loop(f"L{loop_id}", 0, n) as i:
            v = fb.load(a.base, i)
            regs = [v, fb.load(idx.base, i), i, fb.mov(5)]
            t = v
            for op_name, src_index, const in spec["ops"]:
                fn = getattr(fb, op_name)
                t = fn(t, regs[src_index]) if src_index < 3 else fn(t, const)
            if spec["writes_random"]:
                k = fb.and_(regs[1], n - 1)
                fb.store(out.base, k, t)
            else:
                fb.store(out.base, i, t)
            if spec["reduce"]:
                fb.add(acc, t, dest=acc)
        fb.store(out.base, n, acc)
    fb.halt()
    return pb.finish(), outs


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loop_programs())
def test_all_strategies_match_interpreter(data):
    n, specs, init = data
    program, outs = build_program(n, specs, init)
    reference = run_program(program)
    expected = {name: reference.array_values(program, name) for name in outs}
    for n_cores, strategy in [
        (2, "ilp"), (2, "tlp"), (2, "llp"), (2, "hybrid"),
        (4, "hybrid"),
    ]:
        compiled = compile_program(program, n_cores, strategy)
        config = mesh(n_cores)
        machine = VoltronMachine(compiled, config, max_cycles=2_000_000)
        machine.run()
        for name, values in expected.items():
            assert machine.array_values(name) == values, (
                f"{n_cores}-core {strategy} diverged on {name}"
            )


@settings(max_examples=20, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=5),
    bound=st.integers(min_value=8, max_value=40),
    step=st.integers(min_value=1, max_value=4),
)
def test_doall_chunking_covers_exactly_the_iteration_space(start, bound, step):
    """Chunked speculative execution touches exactly the iterations the
    serial loop touches, for arbitrary (start, bound, step)."""
    pb = ProgramBuilder("chunks")
    size = bound + step + 1
    out = pb.alloc("out", size)
    fb = pb.function("main")
    fb.block("entry")
    with fb.counted_loop("L", start, bound, step=step) as i:
        fb.store(out.base, i, fb.add(i, 100))
    fb.halt()
    program = pb.finish()
    reference = run_program(program)
    compiled = compile_program(program, 4, "llp")
    machine = VoltronMachine(compiled, mesh(4), max_cycles=2_000_000)
    machine.run()
    assert machine.array_values("out") == reference.array_values(program, "out")


@settings(max_examples=15, deadline=None)
@given(
    trips=st.integers(min_value=8, max_value=48),
    chase=st.integers(min_value=1, max_value=3),
    work=st.integers(min_value=1, max_value=6),
)
def test_dswp_pipeline_correct_for_random_shapes(trips, chase, work):
    from repro.workloads.kernels import KernelContext, dswp_kernel

    pb = ProgramBuilder("pipe")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=trips * 31 + chase)
    out = dswp_kernel(ctx, trips=trips, work_depth=work, chase_depth=chase)
    fb.halt()
    program = pb.finish()
    reference = run_program(program)
    compiled = compile_program(program, 4, "tlp")
    machine = VoltronMachine(compiled, mesh(4), max_cycles=2_000_000)
    machine.run()
    assert machine.array_values(out) == reference.array_values(program, out)
