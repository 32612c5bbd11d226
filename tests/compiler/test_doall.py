"""Unit tests for statistical DOALL detection and planning."""

import pytest

from repro.compiler.doall import plan_doall
from repro.compiler.loops import find_loops
from repro.compiler.profiling import profile_program
from repro.isa import ProgramBuilder


def _plan(build, n_cores=4, trip_threshold=None, args=()):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    build(pb, fb)
    fb.halt()
    program = pb.finish()
    profile = profile_program(program, args)
    function = program.main()
    loops = find_loops(function)
    assert loops, "test program must contain a loop"
    return plan_doall(
        function, loops[0], profile, n_cores,
        trip_threshold=trip_threshold,
    )


def elementwise(pb, fb, trips=32):
    a = pb.alloc("a", trips, init=range(trips))
    o = pb.alloc("o", trips)
    with fb.counted_loop("L", 0, trips) as i:
        v = fb.load(a.base, i)
        fb.store(o.base, i, fb.mul(v, 2))


class TestEligibility:
    def test_elementwise_loop_accepted(self):
        plan = _plan(elementwise)
        assert plan is not None
        assert plan.static_bounds == (0, 32)
        assert plan.static_trip_count() == 32
        assert plan.accumulators == []

    def test_reduction_accepted_with_accumulator(self):
        def build(pb, fb):
            a = pb.alloc("a", 32, init=range(32))
            o = pb.alloc("o", 1)
            acc = fb.mov(0)
            with fb.counted_loop("L", 0, 32) as i:
                fb.add(acc, fb.load(a.base, i), dest=acc)
            fb.store(o.base, 0, acc)

        plan = _plan(build)
        assert plan is not None
        assert len(plan.accumulators) == 1

    def test_cross_iteration_store_rejected(self):
        def build(pb, fb):
            a = pb.alloc("a", 40, init=[1] * 40)
            with fb.counted_loop("L", 0, 32) as i:
                v = fb.load(a.base, i)
                nxt = fb.add(i, 1)
                fb.store(a.base, nxt, v)

        assert _plan(build) is None

    def test_short_trip_count_rejected(self):
        def build(pb, fb):
            a = pb.alloc("a", 8, init=range(8))
            o = pb.alloc("o", 8)
            with fb.counted_loop("L", 0, 4) as i:
                fb.store(o.base, i, fb.load(a.base, i))

        # 4 iterations < 2 * 4 cores.
        assert _plan(build) is None
        # ... but passes with a lower threshold.
        assert _plan(build, trip_threshold=2) is not None

    def test_call_in_body_rejected(self):
        def build(pb, fb):
            helper = pb.function("h", n_params=1)
            helper.block("h_entry")
            (x,) = helper.function.params
            helper.ret(helper.add(x, 1))
            o = pb.alloc("o", 32)
            with fb.counted_loop("L", 0, 32) as i:
                fb.store(o.base, i, fb.call("h", [i]))

        assert _plan(build) is None

    def test_general_carried_register_rejected(self):
        def build(pb, fb):
            o = pb.alloc("o", 32)
            prev = fb.mov(0)
            with fb.counted_loop("L", 0, 32) as i:
                fb.store(o.base, i, prev)
                fb.mul(i, 3, dest=prev)  # not an accumulator shape

        assert _plan(build) is None

    def test_non_accumulator_liveout_rejected(self):
        def build(pb, fb):
            a = pb.alloc("a", 32, init=range(32))
            o = pb.alloc("o", 1)
            last = fb.mov(0)
            with fb.counted_loop("L", 0, 32) as i:
                v = fb.load(a.base, i)
                fb.mov(v, dest=last)  # last iteration's value escapes
            fb.store(o.base, 0, last)

        assert _plan(build) is None

    def test_down_loop_rejected(self):
        def build(pb, fb):
            o = pb.alloc("o", 33)
            with fb.counted_loop("L", 32, 0, down=True) as i:
                fb.store(o.base, i, i)

        assert _plan(build) is None

    def test_single_core_rejected(self):
        assert _plan(elementwise, n_cores=1) is None

    def test_dynamic_bound_accepted_without_static_bounds(self):
        def build(pb, fb):
            a = pb.alloc("a", 64, init=range(64))
            o = pb.alloc("o", 64)
            n = fb.load(a.base, 63)  # dynamic bound (= 63)
            with fb.counted_loop("L", 0, n) as i:
                fb.store(o.base, i, fb.load(a.base, i))

        plan = _plan(build)
        assert plan is not None
        assert plan.static_bounds is None
        assert plan.static_trip_count() is None


class TestPlanDetails:
    def test_average_trip_from_profile(self):
        plan = _plan(elementwise)
        assert plan.average_trip == 32

    def test_step_exposed(self):
        def build(pb, fb):
            o = pb.alloc("o", 64)
            with fb.counted_loop("L", 0, 64, step=2) as i:
                fb.store(o.base, i, i)

        plan = _plan(build)
        assert plan is not None
        assert plan.step == 2
        assert plan.static_trip_count() == 32
