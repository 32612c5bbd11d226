"""Unit tests for the workload kernels: each must exhibit the parallelism
class it is designed for, and all must run correctly serially."""

import pytest

from repro.compiler import (
    VoltronCompiler,
    find_loops,
    plan_doall,
    profile_program,
    select_regions,
)
from repro.isa import ProgramBuilder, run_program
from repro.workloads.kernels import (
    KERNELS,
    KernelContext,
    MISS_ARRAY,
    doall_kernel,
    dswp_kernel,
    ilp_kernel,
    match_kernel,
    reduction_kernel,
    serial_kernel,
    strand_kernel,
)


def build_with(kernel, **kwargs):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=9)
    out = kernel(ctx, **kwargs)
    fb.halt()
    return pb.finish(), out


class TestKernelBasics:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_runs_and_produces_output(self, name):
        program, out = build_with(KERNELS[name])
        result = run_program(program)
        values = result.array_values(program, out)
        assert any(v != 0 for v in values), f"{name} produced all zeros"

    def test_kernels_compose_in_one_program(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("entry")
        ctx = KernelContext(pb=pb, fb=fb, seed=9)
        outs = [KERNELS[name](ctx) for name in sorted(KERNELS)]
        fb.halt()
        program = pb.finish()
        result = run_program(program)
        assert len(outs) == len(KERNELS)
        assert result.dynamic_ops > 1000

    def test_rand_init_deterministic(self):
        ctx_args = dict(pb=None, fb=None, seed=7)
        a = KernelContext(**ctx_args).rand_init(16)
        b = KernelContext(**ctx_args).rand_init(16)
        assert a == b
        assert all(v > 0 for v in a)

    def test_rand_init_seed_sensitivity(self):
        a = KernelContext(pb=None, fb=None, seed=7).rand_init(16)
        b = KernelContext(pb=None, fb=None, seed=8).rand_init(16)
        assert a != b


class TestKernelCharacter:
    def test_doall_kernel_is_statistical_doall(self):
        program, _ = build_with(doall_kernel, trips=64)
        profile = profile_program(program)
        function = program.main()
        loop = find_loops(function)[0]
        assert plan_doall(function, loop, profile, 4) is not None

    def test_reduction_kernel_has_accumulator(self):
        program, _ = build_with(reduction_kernel, trips=64)
        profile = profile_program(program)
        function = program.main()
        loop = find_loops(function)[0]
        plan = plan_doall(function, loop, profile, 4)
        assert plan is not None and len(plan.accumulators) == 1

    def test_serial_kernel_resists_all_parallelization(self):
        program, _ = build_with(serial_kernel, trips=64)
        profile = profile_program(program)
        regions = select_regions(program, program.main(), profile, 4, "hybrid")
        assert all(r.strategy not in ("doall", "dswp") for r in regions)

    def test_dswp_kernel_selected_for_pipeline(self):
        program, _ = build_with(dswp_kernel, trips=64)
        profile = profile_program(program)
        regions = select_regions(program, program.main(), profile, 4, "hybrid")
        assert any(r.strategy == "dswp" for r in regions)

    def test_strand_kernel_misses_heavily(self):
        program, _ = build_with(strand_kernel, trips=64)
        profile = profile_program(program)
        from repro.isa.operations import Opcode

        loop_block = next(
            b
            for b in program.main().ordered_blocks()
            if b.attrs.get("loop_name")
        )
        loads = [op for op in loop_block.ops if op.opcode is Opcode.LOAD]
        assert loads
        assert any(profile.likely_missing(load) for load in loads)

    def test_match_kernel_terminates_at_mismatch(self):
        program, out = build_with(match_kernel, length=64, mismatch_at=20)
        result = run_program(program)
        count = result.array_values(program, out)[0]
        # Strided by 2: the loop stops once the planted mismatch is read.
        assert 0 < count <= 32

    def test_ilp_kernel_width_scales_chains(self):
        program4, _ = build_with(ilp_kernel, trips=16, chains=4)
        program2, _ = build_with(ilp_kernel, trips=16, chains=2)
        ops4 = sum(len(b.ops) for b in program4.main().ordered_blocks())
        ops2 = sum(len(b.ops) for b in program2.main().ordered_blocks())
        assert ops4 > ops2

    def test_call_kernel_defines_helper_function(self):
        program, _ = build_with(KERNELS["call"], trips=8)
        assert len(program.functions) == 2

    def test_stencil_kernel_is_statistical_doall(self):
        program, _ = build_with(KERNELS["stencil"], trips=64)
        profile = profile_program(program)
        function = program.main()
        loop = find_loops(function)[0]
        assert plan_doall(function, loop, profile, 4) is not None

    def test_stencil_matches_reference_formula(self):
        program, out = build_with(KERNELS["stencil"], trips=16)
        result = run_program(program)
        values = result.array_values(program, out)
        symbol = next(
            s for n, s in program.arrays.items() if n.endswith("_a")
        )
        image = program.memory_image()
        a = [image.get(symbol.base + k, 0) for k in range(18)]
        for i in range(1, 17):
            assert values[i] == (a[i - 1] + 2 * a[i] + a[i + 1]) // 4

    def test_histogram_kernel_rejected_for_speculation(self):
        """Colliding keys are observed by the profile, so the scatter loop
        must NOT be classified statistical DOALL."""
        program, _ = build_with(KERNELS["histogram"], trips=96, bins=16)
        profile = profile_program(program)
        function = program.main()
        loop = find_loops(function)[0]
        assert plan_doall(function, loop, profile, 4) is None

    def test_histogram_counts_sum_to_trips(self):
        program, out = build_with(KERNELS["histogram"], trips=48, bins=8)
        result = run_program(program)
        assert sum(result.array_values(program, out)) == 48
