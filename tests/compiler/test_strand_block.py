"""Lowering of ``strand_block`` regions: a miss-heavy straight-line
block compiled as decoupled strands between MODE_SWITCH brackets.

No suite benchmark or generated program selects this shape, so a
hand-built program (``conftest.build_strand_block``) drives it."""

import pytest

from conftest import build_strand_block
from repro.analysis import verify_compiled
from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import run_program
from repro.sim import VoltronMachine


@pytest.mark.parametrize("n_cores", [2, 4])
@pytest.mark.parametrize("strategy", ["tlp", "hybrid"])
def test_strand_block_compiles_verifies_and_matches_reference(strategy, n_cores):
    program, out = build_strand_block()
    config = mesh(n_cores)
    compiled = VoltronCompiler(program).compile(strategy, config)

    strand_blocks = {
        label
        for (function, label), info in compiled.attrs["regions"].items()
        if info["strategy"] == "strand_block"
    }
    assert strand_blocks, "the helper's entry block was not made a strand_block region"
    assert "gather_entry" in strand_blocks

    report = verify_compiled(compiled, config)
    assert report.ok, report.render()

    machine = VoltronMachine(compiled, config)
    machine.run()
    expected = run_program(program).array_values(program, out)
    assert machine.array_values(out) == expected
