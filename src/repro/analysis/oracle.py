"""The full fuzzing oracle: voltlint + race sanitizer + bit-identity.

The generator (:mod:`repro.workloads.generator`) emits programs no one
has ever hand-checked, so "correct" has to be decided mechanically.
This module chains the three independent referees the repo already
trusts into one verdict per program:

1. **Static** -- every compiled cell passes the voltlint verifier
   (channel balance, DVLIW alignment, sync coverage, mode barriers, TM
   brackets).
2. **Dynamic** -- the cell executes under the vector-clock race
   sanitizer with no findings and a quiescent network at halt.
3. **Bit-identity** -- every output array's final memory matches the
   sequential reference interpreter exactly.

A program that passes all three on every requested cell is a valid data
point for the sweep driver; a program that fails any is a compiler bug
find, and the failure string is precise enough for the shrinker to
minimize against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..arch.config import mesh
from ..compiler.driver import VoltronCompiler
from ..isa.interp import run_program
from ..isa.program import Program
from .findings import Finding
from .sanitizer import run_sanitized
from .verifier import verify_compiled

#: Cells the oracle checks by default: the static pass sweeps every
#: paper strategy on both mesh sizes; the (more expensive) dynamic +
#: bit-identity pass exercises the hybrid cell, whose mode switches
#: cover all communication flavours at once.
STATIC_CELLS: Tuple[Tuple[int, str], ...] = tuple(
    (n, s) for n in (2, 4) for s in ("ilp", "tlp", "llp", "hybrid")
)
DYNAMIC_CELLS: Tuple[Tuple[int, str], ...] = ((4, "hybrid"),)


@dataclass
class OracleVerdict:
    """One program's pass/fail, with enough context to debug a fail."""

    ok: bool
    #: Which referee rejected: "static", "dynamic", or "bit-identity"
    #: (empty on a pass).
    stage: str = ""
    #: The offending (cores, strategy) cell, or None on a pass.
    cell: Optional[Tuple[int, str]] = None
    detail: str = ""
    #: Cells checked, for the fuzz suite's coverage accounting.
    static_cells: int = 0
    dynamic_cells: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return (
                f"ok ({self.static_cells} static, "
                f"{self.dynamic_cells} dynamic cells)"
            )
        cores, strategy = self.cell if self.cell else ("?", "?")
        return f"{self.stage} failure [{cores}-core {strategy}]: {self.detail}"


def check_program(
    program: Program,
    outputs: Sequence[str],
    *,
    static_cells: Sequence[Tuple[int, str]] = STATIC_CELLS,
    dynamic_cells: Sequence[Tuple[int, str]] = DYNAMIC_CELLS,
    max_cycles: int = 50_000_000,
    mutate: Optional[Callable[[object], object]] = None,
) -> OracleVerdict:
    """Run the full oracle over one program; stops at the first failure.

    ``outputs`` names the arrays whose final contents define functional
    correctness (``Benchmark.outputs``).  One compiler instance is
    shared across cells so the profile is computed once, mirroring the
    experiment runner.

    ``mutate`` is the adversarial hook: a callable applied to every
    freshly compiled cell before it is checked.  Tests plant the PR-5
    mutation-harness miscompiles through it to prove the oracle (and
    the shrinker driving it) still has teeth.
    """
    compiler = VoltronCompiler(program)
    checked_static = checked_dynamic = 0

    def compile_cell(cores: int, strategy: str):
        config = mesh(cores)
        compiled = compiler.compile(strategy, config)
        if mutate is not None:
            mutate(compiled)
        return compiled, config

    def failed(stage: str, cell: Tuple[int, str], detail: str) -> OracleVerdict:
        return OracleVerdict(
            ok=False,
            stage=stage,
            cell=tuple(cell),
            detail=detail,
            static_cells=checked_static,
            dynamic_cells=checked_dynamic,
        )

    for cell in static_cells:
        compiled, config = compile_cell(*cell)
        report = verify_compiled(compiled, config)
        checked_static += 1
        if not report.ok:
            return failed("static", cell, _summary(report.active_findings()))

    reference = run_program(program)
    expected = {
        name: reference.array_values(program, name) for name in outputs
    }
    for cell in dynamic_cells:
        compiled, config = compile_cell(*cell)
        machine, findings = run_sanitized(compiled, config, max_cycles)
        checked_dynamic += 1
        races = [f for f in findings if f.kind != "message-leak"]
        if races:
            return failed("dynamic", cell, _summary(races))
        if findings:
            return failed(
                "dynamic", cell, "messages still queued or in flight after halt"
            )
        mismatched: List[str] = [
            name
            for name, values in expected.items()
            if machine.array_values(name) != values
        ]
        if mismatched:
            return failed(
                "bit-identity",
                cell,
                "final memory diverged from the reference interpreter "
                f"in array(s): {', '.join(mismatched)}",
            )
    return OracleVerdict(
        ok=True,
        static_cells=checked_static,
        dynamic_cells=checked_dynamic,
    )


def _summary(findings: Sequence[Finding]) -> str:
    """The first three findings, as the shrinker's failure detail."""
    return "; ".join(f"{f.kind} in {f.function}:{f.block}" for f in findings[:3])


def check_benchmark(bench, **kwargs) -> OracleVerdict:
    """Oracle over anything with ``.program`` and ``.outputs`` (a suite
    :class:`~repro.workloads.suite.Benchmark` or a generated one)."""
    return check_program(bench.program, bench.outputs, **kwargs)
