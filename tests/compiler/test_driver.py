"""Tests for the compiler façade."""

import pytest

from repro.arch import mesh
from repro.compiler.driver import VoltronCompiler, compile_program
from repro.isa import ProgramBuilder


def _program():
    pb = ProgramBuilder("t")
    a = pb.alloc("a", 32, init=range(32))
    o = pb.alloc("o", 32)
    fb = pb.function("main")
    fb.block("entry")
    with fb.counted_loop("L", 0, 32) as i:
        fb.store(o.base, i, fb.mul(fb.load(a.base, i), 3))
    fb.halt()
    return pb.finish()


class TestVoltronCompiler:
    def test_profile_computed_once_and_cached(self):
        compiler = VoltronCompiler(_program())
        first = compiler.profile
        second = compiler.profile
        assert first is second

    def test_compile_each_strategy(self):
        compiler = VoltronCompiler(_program())
        for strategy in ("ilp", "tlp", "llp", "hybrid"):
            compiled = compiler.compile(strategy, mesh(4))
            assert compiled.attrs["strategy"] == strategy
            assert compiled.n_cores == 4

    def test_baseline_requires_single_core(self):
        compiler = VoltronCompiler(_program())
        with pytest.raises(ValueError):
            compiler.compile("baseline", mesh(2))
        assert compiler.compile("baseline").n_cores == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            VoltronCompiler(_program()).compile("warp")

    def test_default_config_is_four_cores(self):
        compiled = VoltronCompiler(_program()).compile("hybrid")
        assert compiled.n_cores == 4


class TestCompileProgram:
    def test_single_core_forces_baseline(self):
        compiled = compile_program(_program(), n_cores=1, strategy="hybrid")
        assert compiled.n_cores == 1
        assert compiled.attrs["strategy"] == "baseline"

    def test_core_count_respected(self):
        compiled = compile_program(_program(), n_cores=2, strategy="ilp")
        assert compiled.n_cores == 2

    def test_compiled_validates(self):
        compiled = compile_program(_program(), 4, "hybrid")
        compiled.validate()  # should not raise
        assert compiled.static_op_count() > 0

    def test_describe_is_renderable(self):
        compiled = compile_program(_program(), 2, "ilp")
        text = compiled.describe()
        assert "core 0" in text and "core 1" in text
        assert "mode_switch" not in text  # pure-ILP compile has no switches
