"""Execution tracing: a per-cycle, per-core timeline of a simulation.

A :class:`Tracer` is a probe consumer (:mod:`repro.sim.probe`), attached
like every simulator observer, and renders what it collected as a text
timeline -- a poor man's pipeline diagram, invaluable for seeing
lock-step PUT/GET alignment, queue-mode decoupling, barriers, and
transaction retries at a glance::

    tracer = Tracer(limit=4000)
    VoltronMachine(compiled, config, obs=tracer).run()
    print(tracer.render(start=0, end=80))

It implements one event of the contract:

===========================  ==============================================
event                        emitted by
===========================  ==============================================
``issue(cycle, core, op)``   the machine, once per issued op -- exactly
                             where ``CoreStats.ops_executed`` counts it
===========================  ==============================================

So the trace holds ``stats.total_ops()`` events (until ``limit``), a
RECV still waiting for its message is a blank stall cell, and the trace
is the same with stall fast-forwarding on or off (skipped cycles issue
nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.operations import Opcode, Operation

#: Compact one/two-character mnemonics for the timeline cells.
_GLYPHS = {
    Opcode.PUT: "P>",
    Opcode.GET: "<G",
    Opcode.BCAST: "B*",
    Opcode.SEND: "s>",
    Opcode.RECV: "<r",
    Opcode.SPAWN: "sp",
    Opcode.SLEEP: "zz",
    Opcode.LISTEN: "li",
    Opcode.RELEASE: "rl",
    Opcode.MODE_SWITCH: "MS",
    Opcode.TX_BEGIN: "T(",
    Opcode.TX_COMMIT: ")T",
    Opcode.LOAD: "ld",
    Opcode.STORE: "st",
    Opcode.BR: "br",
    Opcode.PBR: "pb",
    Opcode.CALL: "cl",
    Opcode.RET: "rt",
    Opcode.HALT: "HH",
    Opcode.NOP: "..",
    Opcode.ADD: "+ ",
    Opcode.SUB: "- ",
    Opcode.MUL: "* ",
    Opcode.DIV: "/ ",
    Opcode.REM: "% ",
    Opcode.AND: "& ",
    Opcode.OR: "| ",
    Opcode.XOR: "^ ",
    Opcode.SHL: "<<",
    Opcode.SHR: ">>",
    Opcode.MOV: "mv",
    Opcode.FMOV: "fv",
    Opcode.FADD: "f+",
    Opcode.FSUB: "f-",
    Opcode.FMUL: "f*",
    Opcode.FDIV: "f/",
    Opcode.ITOF: "if",
    Opcode.FTOI: "fi",
    Opcode.CMP_EQ: "==",
    Opcode.CMP_NE: "!=",
    Opcode.CMP_LT: "c<",
    Opcode.CMP_LE: "<=",
    Opcode.CMP_GT: "c>",
    Opcode.CMP_GE: ">=",
    Opcode.PAND: "p&",
    Opcode.POR: "p|",
    Opcode.PNOT: "p!",
    Opcode.PMOV: "pv",
    Opcode.SELECT: "?:",
}


@dataclass
class TraceEvent:
    cycle: int
    core: int
    op: Operation

    @property
    def glyph(self) -> str:
        return _GLYPHS.get(self.op.opcode, "##")


@dataclass
class Tracer:
    """Collects (cycle, core, op) issue events from one machine run."""

    limit: int = 100_000
    n_cores: int = 0
    events: List[TraceEvent] = field(default_factory=list)
    truncated: bool = False
    #: Events discarded after the limit was hit (so a truncated render
    #: says how much of the run it is blind to).
    dropped: int = 0

    def attach(self, machine) -> None:
        self.n_cores = machine.config.n_cores

    def issue(self, cycle: int, core: int, op: Operation) -> None:
        if len(self.events) >= self.limit:
            self.truncated = True
            self.dropped += 1
            return
        self.events.append(TraceEvent(cycle, core, op))

    # -- queries -----------------------------------------------------------------

    def events_for(self, core: int) -> List[TraceEvent]:
        return [event for event in self.events if event.core == core]

    def cycles_spanned(self) -> int:
        if not self.events:
            return 0
        return self.events[-1].cycle - self.events[0].cycle + 1

    def opcode_histogram(self) -> Dict[Opcode, int]:
        histogram: Dict[Opcode, int] = {}
        for event in self.events:
            histogram[event.op.opcode] = histogram.get(event.op.opcode, 0) + 1
        return histogram

    # -- rendering -----------------------------------------------------------------

    def render(
        self,
        start: int = 0,
        end: Optional[int] = None,
        width: int = 40,
    ) -> str:
        """Text timeline: one row per core, one 2-char cell per cycle.

        Empty cells are stall/idle cycles ("  "); the glyph legend is
        appended below the grid.
        """
        if end is None:
            end = start + width
        grid: Dict[int, Dict[int, str]] = {
            core: {} for core in range(self.n_cores)
        }
        used = set()
        for event in self.events:
            if start <= event.cycle < end:
                grid[event.core][event.cycle] = event.glyph
                used.add(event.op.opcode)
        lines = [f"cycles {start}..{end - 1}"]
        header = "      " + "".join(
            f"{c % 100:02d}" if c % 5 == 0 else "  " for c in range(start, end)
        )
        lines.append(header)
        for core in range(self.n_cores):
            row = "".join(
                grid[core].get(cycle, "  ") for cycle in range(start, end)
            )
            lines.append(f"core{core} {row}")
        legend = ", ".join(
            f"{_GLYPHS.get(op, '##')}={op.value}" for op in sorted(
                used, key=lambda o: o.value
            )
        )
        if legend:
            lines.append(f"legend: {legend} (blank = stall/idle)")
        if self.truncated:
            lines.append(
                f"[trace truncated at {self.limit} events; "
                f"{self.dropped} dropped]"
            )
        return "\n".join(lines)
