"""Unit tests for the reference interpreter."""

import pytest

from repro.isa import Interpreter, ProgramBuilder, run_program
from repro.isa.interp import InterpreterError, OutOfFuel


def _simple_loop_program(n=8):
    pb = ProgramBuilder("t")
    arr = pb.alloc("a", n, init=range(n))
    out = pb.alloc("o", n)
    fb = pb.function("main")
    fb.block("entry")
    with fb.counted_loop("L", 0, n) as i:
        v = fb.load(arr.base, i)
        fb.store(out.base, i, fb.add(v, 100))
    fb.halt()
    return pb.finish()


class TestBasics:
    def test_memory_defaults_to_zero(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("entry")
        v = fb.load(12345, 0)
        fb.ret(v)
        assert run_program(pb.finish()).return_value == 0

    def test_store_then_load(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("entry")
        fb.store(100, 0, 77)
        fb.ret(fb.load(100, 0))
        assert run_program(pb.finish()).return_value == 77

    def test_array_values_helper(self):
        program = _simple_loop_program(4)
        result = run_program(program)
        assert result.array_values(program, "o") == [100, 101, 102, 103]

    def test_dynamic_op_count_grows_with_trip_count(self):
        small = run_program(_simple_loop_program(4)).dynamic_ops
        large = run_program(_simple_loop_program(16)).dynamic_ops
        assert large > small

    def test_halt_stops_execution(self):
        pb = ProgramBuilder("t")
        arr = pb.alloc("o", 1)
        fb = pb.function("main")
        fb.block("entry")
        fb.halt()
        fb.block("unreachable")
        fb.store(arr.base, 0, 1)
        fb.halt()
        result = run_program(pb.finish())
        assert result.memory.get(arr.base, 0) == 0

    def test_main_args(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main", n_params=2)
        fb.block("entry")
        a, b = fb.function.params
        fb.ret(fb.add(a, b))
        assert run_program(pb.finish(), (30, 12)).return_value == 42

    def test_wrong_arity_raises(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main", n_params=1)
        fb.block("entry")
        fb.ret(0)
        with pytest.raises(InterpreterError):
            run_program(pb.finish(), ())


class TestFuelAndErrors:
    def test_infinite_loop_hits_fuel(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("spin")
        fb.jump("spin")
        interp = Interpreter(pb.finish(), fuel=500)
        with pytest.raises(OutOfFuel):
            interp.run()

    def test_fall_off_function_raises(self):
        pb = ProgramBuilder("t")
        helper = pb.function("h")
        helper.block("entry")
        helper.mov(1)  # no ret
        fb = pb.function("main")
        fb.block("entry")
        fb.call("h", [])
        fb.halt()
        with pytest.raises(InterpreterError):
            run_program(pb.finish())


class TestObservers:
    def test_dynamic_ops_counts_every_executed_op(self):
        result = run_program(_simple_loop_program(4))
        assert result.dynamic_ops == sum(result.op_counts.values()) > 0

    def test_memory_observer_sees_loads_and_stores(self):
        program = _simple_loop_program(4)
        events = []

        class Observer:
            def memory(self, op, addr, is_store, frame):
                events.append((addr, is_store))

        Interpreter(program, observer=Observer()).run()
        loads = [e for e in events if not e[1]]
        stores = [e for e in events if e[1]]
        assert len(loads) == 4
        assert len(stores) == 4

    def test_block_counts(self):
        program = _simple_loop_program(6)
        result = run_program(program)
        assert result.block_counts[("main", "L")] == 6

    def test_frame_depth_tracks_calls(self):
        pb = ProgramBuilder("t")
        helper = pb.function("h")
        helper.block("entry")
        helper.ret(1)
        fb = pb.function("main")
        fb.block("entry")
        fb.call("h", [])
        fb.halt()
        depths = []

        class Observer:
            def block(self, block, frame):
                depths.append((frame.function.name, frame.depth))

        Interpreter(pb.finish(), observer=Observer()).run()
        assert ("main", 0) in depths
        assert ("h", 1) in depths


class TestCallSemantics:
    def test_nested_calls(self):
        pb = ProgramBuilder("t")
        inner = pb.function("inner", n_params=1)
        inner.block("i_entry")
        (x,) = inner.function.params
        inner.ret(inner.add(x, 1))
        outer = pb.function("outer", n_params=1)
        outer.block("o_entry")
        (y,) = outer.function.params
        t = outer.call("inner", [y])
        outer.ret(outer.mul(t, 2))
        fb = pb.function("main")
        fb.block("entry")
        fb.ret(fb.call("outer", [20]))
        assert run_program(pb.finish()).return_value == 42

    def test_call_result_used_after_loop_of_calls(self):
        pb = ProgramBuilder("t")
        helper = pb.function("inc", n_params=1)
        helper.block("entry_h")
        (x,) = helper.function.params
        helper.ret(helper.add(x, 1))
        fb = pb.function("main")
        fb.block("entry")
        acc = fb.mov(0)
        with fb.counted_loop("L", 0, 5):
            w = fb.call("inc", [acc])
            fb.mov(w, dest=acc)
        fb.ret(acc)
        assert run_program(pb.finish()).return_value == 5
