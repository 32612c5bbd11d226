"""Golden compiled streams: one cell per region shape codegen lowers.

Each case compiles a small program and pins the complete per-core
machine code -- every block's mode, region, successors and every
occupied slot -- to a text file under ``tests/compiler/golden/``.  Any
change to partitioning, communication insertion, scheduling or region
lowering shows up as a diff.  The rendering drops each op's ``origin``
(a process-wide uid) and renumbers ``align`` ids by first appearance,
so the text does not depend on what ran earlier in the process.
Deliberate lowering changes regenerate the files with::

    PYTHONPATH=src python -m pytest tests/compiler/test_codegen_golden.py --update-golden
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

from conftest import build_strand_block
from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import Program, ProgramBuilder
from repro.isa.machinecode import CompiledProgram
from repro.workloads.generator import build_recipe

GOLDEN_DIR = Path(__file__).parent / "golden"


def _kernel(kernel: str, **kwargs) -> Program:
    return build_recipe(((kernel, kwargs),), f"golden_{kernel}", 7).program


def _doall_dynamic_bound() -> Program:
    """A reduction DOALL whose trip count is loaded at run time, so the
    chunk bounds and the final induction value are computed in code."""
    pb = ProgramBuilder("doall_dynamic")
    a = pb.alloc("a", 64, init=range(64))
    out = pb.alloc("out", 64)
    fb = pb.function("main")
    fb.block("entry")
    n = fb.load(a.base, 40)
    total = fb.mov(0)
    with fb.counted_loop("L", 0, n) as i:
        v = fb.load(a.base, i)
        fb.store(out.base, i, fb.mul(v, 3))
        fb.add(total, v, dest=total)
    fb.store(out.base, 63, total)
    fb.halt()
    return pb.finish()


#: name -> (program builder, strategy, cores, region strategy it lowers).
CASES: Dict[str, Tuple[Callable[[], Program], str, int, Optional[str]]] = {
    "coupled_bug": (lambda: _kernel("ilp", trips=16, chains=3), "ilp", 4, None),
    "strand": (lambda: _kernel("match", length=32), "tlp", 2, "strand"),
    "dswp_carried": (
        lambda: _kernel("dswp", trips=16, work_depth=5), "tlp", 4, "dswp"
    ),
    "doall": (lambda: _kernel("doall", trips=16), "llp", 2, "doall"),
    "doall_accumulators": (
        lambda: _kernel("reduction", trips=32), "hybrid", 16, "doall"
    ),
    "doall_dynamic_bound": (_doall_dynamic_bound, "llp", 4, "doall"),
    "strand_block": (
        lambda: build_strand_block()[0], "hybrid", 2, "strand_block"
    ),
}


def render(compiled: CompiledProgram) -> str:
    """Every core's blocks and occupied slots, origin-free and with
    align ids numbered by first appearance."""
    aligns: Dict[int, int] = {}
    lines = []
    for (function, label), info in sorted(compiled.attrs["regions"].items()):
        lines.append(
            f"region {function}:{label} rid={info['rid']} "
            f"{info['strategy']} origin={info['origin']}"
        )
    for core in range(compiled.n_cores):
        for name, function in compiled.streams[core].items():
            lines.append(f"core {core} {name} entry={function.entry}")
            for block in function.ordered_blocks():
                lines.append(
                    f"  {block.label} {block.mode} region={block.region} "
                    f"taken={block.taken} fall={block.fall} "
                    f"slots={len(block.slots)}"
                )
                for slot, op in enumerate(block.slots):
                    if op is None:
                        continue
                    shown = copy.copy(op)
                    shown.attrs = {
                        key: value for key, value in op.attrs.items() if key != "origin"
                    }
                    if "align" in shown.attrs:
                        shown.attrs["align"] = aligns.setdefault(
                            shown.attrs["align"], len(aligns) + 1
                        )
                    lines.append(f"    {slot}: {shown!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_streams_match_golden(case, update_golden):
    build, strategy, n_cores, shape = CASES[case]
    compiled = VoltronCompiler(build()).compile(strategy, mesh(n_cores))
    strategies = {info["strategy"] for info in compiled.attrs["regions"].values()}
    assert strategies == ({shape} if shape else set())
    text = render(compiled)
    path = GOLDEN_DIR / f"{case}.txt"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest with --update-golden "
        "to create it"
    )
    assert text == path.read_text(), (
        f"{case} [{n_cores}-core {strategy}] compiled streams drifted from "
        f"{path.name}; if the lowering change is intentional, regenerate "
        "with --update-golden"
    )
