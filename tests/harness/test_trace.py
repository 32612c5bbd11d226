"""Tests for the execution tracer."""

from repro.arch import mesh
from repro.compiler import compile_program
from repro.harness.trace import Tracer
from repro.isa import ProgramBuilder
from repro.isa.operations import Opcode
from repro.sim import VoltronMachine


def _traced(**kwargs):
    """Run the two-core ILP kernel under a fresh Tracer(**kwargs)."""
    from repro.workloads.kernels import KernelContext, ilp_kernel

    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=1)
    ilp_kernel(ctx, trips=16, chains=4)
    fb.halt()
    compiled = compile_program(pb.finish(), 2, "ilp")
    tracer = Tracer(**kwargs)
    VoltronMachine(compiled, mesh(2), obs=tracer).run()
    return tracer


class TestTracer:
    def test_events_collected_in_cycle_order(self):
        tracer = _traced()
        cycles = [event.cycle for event in tracer.events]
        assert cycles == sorted(cycles)
        assert tracer.cycles_spanned() > 0

    def test_events_cover_both_cores(self):
        tracer = _traced()
        assert tracer.events_for(0)
        assert tracer.events_for(1)

    def test_histogram_counts_comm_ops(self):
        tracer = _traced()
        histogram = tracer.opcode_histogram()
        assert histogram.get(Opcode.PUT, 0) > 0
        assert histogram[Opcode.HALT] == 2

    def test_limit_truncates(self):
        tracer = _traced(limit=10)
        assert len(tracer.events) == 10
        assert tracer.truncated
        assert "truncated" in tracer.render()

    def test_truncation_counts_dropped_events(self):
        full = _traced()
        capped = _traced(limit=10)
        assert capped.dropped == len(full.events) - capped.limit
        assert f"{capped.dropped} dropped" in capped.render()

    def test_untruncated_trace_drops_nothing(self):
        tracer = _traced()
        assert not tracer.truncated
        assert tracer.dropped == 0
        assert "truncated" not in tracer.render()

    def test_render_grid_shape(self):
        tracer = _traced()
        first = tracer.events[0].cycle
        text = tracer.render(start=first, end=first + 40)
        lines = text.splitlines()
        assert lines[0] == f"cycles {first}..{first + 39}"
        core_rows = [l for l in lines if l.startswith("core")]
        assert len(core_rows) == 2
        # Each row: "coreN " + 2 chars per cycle.
        assert all(len(row) <= 6 + 2 * 40 for row in core_rows)
        assert "legend:" in text

    def test_render_empty_window(self):
        tracer = _traced()
        text = tracer.render(start=10**9, width=10)
        assert "core0" in text  # renders blanks, no crash
