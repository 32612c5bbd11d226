"""The compiler façade: profile once, compile for any strategy/machine.

Strategies (matching the paper's experiments):

* ``baseline`` -- serial code for the single-core baseline machine;
* ``ilp``      -- coupled-mode ILP only (BUG across all cores, Fig. 10/11
  first bars);
* ``tlp``      -- fine-grain TLP only (DSWP + eBUG strands in decoupled
  mode; non-region code stays coupled, second bars);
* ``llp``      -- statistical DOALL loops only; all remaining code runs on
  one core (third bars);
* ``hybrid``   -- the full region-by-region selection policy with
  MODE_SWITCH-bracketed decoupled regions (Fig. 13/14).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..arch.config import MachineConfig, mesh, single_core
from ..isa.interp import InterpResult
from ..isa.machinecode import CompiledProgram
from ..isa.program import Program
from ..isa.registers import Value
from .codegen import Codegen
from .profiling import ExecutionProfile, Profiler
from .regions import STRATEGIES


class VoltronCompiler:
    """Profiles a program once, then lowers it for any machine/strategy."""

    def __init__(
        self, program: Program, profile_args: Tuple[Value, ...] = ()
    ) -> None:
        program.validate()
        self.program = program
        self.profile_args = profile_args
        self._profile: Optional[ExecutionProfile] = None
        #: The argument-free profile run's final state, until taken.
        self._run: Optional[InterpResult] = None

    @property
    def profile(self) -> ExecutionProfile:
        if self._profile is None:
            profiler = Profiler(self.program)
            self._profile = profiler.run(self.profile_args)
            self._run = None if self.profile_args else profiler.result
        return self._profile

    def take_profile_run(self) -> Optional[InterpResult]:
        """The argument-free profile run's final state, handed over once
        (profiling first); None after that or for a profile with arguments."""
        self.profile
        run, self._run = self._run, None
        return run

    def compile(
        self,
        strategy: str = "hybrid",
        config: Optional[MachineConfig] = None,
    ) -> CompiledProgram:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}"
            )
        if strategy == "baseline":
            config = config or single_core()
            if config.n_cores != 1:
                raise ValueError("the baseline strategy targets one core")
        elif config is None:
            config = mesh(4)
        return Codegen(
            self.program, config, self.profile, strategy=strategy
        ).compile()


def compile_program(
    program: Program,
    n_cores: int = 4,
    strategy: str = "hybrid",
    profile_args: Tuple[Value, ...] = (),
) -> CompiledProgram:
    """One-shot convenience wrapper around :class:`VoltronCompiler`."""
    compiler = VoltronCompiler(program, profile_args)
    if strategy == "baseline" or n_cores == 1:
        return compiler.compile("baseline", single_core())
    return compiler.compile(strategy, mesh(n_cores))
