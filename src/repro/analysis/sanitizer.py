"""Dynamic race sanitizer: happens-before over cross-core memory traffic.

The static verifier proves sync coverage for the dependences the compiler
can *see*; this sanitizer checks the same property on a real execution,
where every address is concrete.  It maintains FastTrack-style vector
clocks per core, shadow read/write maps per address, and the sender's
clock snapshot per in-flight message, and reports any cross-core
conflicting access pair not ordered by the happens-before relation
generated by:

* per-core program order,
* matched SEND/RECV (and SPAWN/RELEASE -> LISTEN) pairs, matched by the
  network's message sequence number,
* the lock-step cycle barrier while the machine runs coupled (every core
  is implicitly synchronized at each cycle boundary; two conflicting
  accesses in the *same* cycle stay unordered and are reported),
* mode-switch barriers,
* ordered transaction commits (a DOALL chunk's stores publish at commit,
  ordered behind every earlier chunk -- speculation is not a race).

It is a probe consumer (:mod:`repro.sim.probe`), attached like any other:
``VoltronMachine(..., obs=RaceSanitizer())``.  The events it implements:

=================================================  =================================================
event                                              emitted by
=================================================  =================================================
``load`` / ``store(core, op, addr)``               the machine's LOAD / STORE handlers
``net_send(cycle, src, dst, kind, seq, arr.)``     ``OperandNetwork.send``
``net_recv(cycle, seq)``                           ``OperandNetwork.try_receive`` / ``peek_control``
``tx_commit`` / ``tx_abort(core, region, order)``  ``TransactionalMemory.try_commit``
``mode_switch(cycle, old, new)``                   the machine's cycle loop
=================================================  =================================================

:func:`run_sanitized` runs a compiled cell under the sanitizer and adds
the halt-time ``message-leak`` check; the API, ``cli verify --dynamic``
and the fuzzing oracle all go through it.

Every other site stays a single ``is None`` check, and the sanitizer
only *reads* machine state -- a sanitized run is bit-identical in final
memory and MachineStats to a plain run (asserted by the differential
tests).  Runs with destructive faults are refused: their recovery
rollbacks (and TM aborts outside ``try_commit``) would need their own
happens-before model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..arch.config import MachineConfig
from ..isa.machinecode import CompiledProgram
from ..isa.operations import Operation
from ..sim.machine import VoltronMachine

from .findings import Finding


class RaceSanitizer:
    """Attachable happens-before checker for :class:`VoltronMachine`.

    Findings accumulate in :attr:`findings` (bounded by ``max_findings``;
    further races only bump :attr:`dropped`); the run itself is never
    interrupted, so a racy program still produces its (nondeterministic)
    result for inspection.
    """

    def __init__(self, max_findings: int = 25) -> None:
        self.max_findings = max_findings
        self.findings: List[Finding] = []
        self.dropped = 0
        self.machine = None
        self.checked_accesses = 0

    # -- attachment ---------------------------------------------------------------

    def attach(self, machine) -> None:
        if machine.faults is not None and machine.faults.destructive:
            raise ValueError(
                "the race sanitizer does not support destructive-fault "
                "runs (recovery rollbacks re-execute work and would need "
                "their own happens-before model)"
            )
        self.machine = machine
        n = machine.config.n_cores
        # vc[c][k]: core c's knowledge of core k's logical time.
        self.vc: List[List[int]] = [[0] * n for _ in range(n)]
        # Shadow state: addr -> {core: clock at last write/read}.
        self.writes: Dict[int, Dict[int, int]] = {}
        self.reads: Dict[int, Dict[int, int]] = {}
        # seq -> (receiver, sender's clock at send) per in-flight message.
        self.in_flight: Dict[int, Tuple[int, List[int]]] = {}
        # Per-core write sets buffered inside an open transaction.
        self.tx_writes: Dict[int, List[int]] = {}
        # Commit-order clock: joining it orders a commit behind every
        # previously committed chunk (the TM commits in chunk order).
        self.commit_clock = [0] * n
        self._joined_cycle = -1

    # -- clock plumbing ------------------------------------------------------------

    @staticmethod
    def _join(into: List[int], other: List[int]) -> None:
        into[:] = map(max, into, other)

    def _lockstep_join(self) -> None:
        """In coupled mode every cycle boundary is a barrier: before the
        first access of a new cycle, merge all live cores' clocks and tick
        each core so same-cycle accesses stay mutually unordered."""
        machine = self.machine
        if machine.mode != "coupled" or machine.cycle == self._joined_cycle:
            return
        self._joined_cycle = machine.cycle
        self._barrier_join()

    def _barrier_join(self) -> None:
        """Global barrier (mode switch): every core's clock joins every
        other's, then ticks."""
        merged = [max(column) for column in zip(*self.vc)]
        for c, row in enumerate(self.vc):
            row[:] = merged
            row[c] += 1

    # -- race reporting ------------------------------------------------------------

    def _report(self, core_id: int, op: Operation, addr: int, other: int, access: str) -> None:
        if len(self.findings) >= self.max_findings:
            self.dropped += 1
            return
        machine = self.machine
        core = machine.cores[core_id]
        block = core.frame.block if core.stack else None
        function, label = (
            block.stat_key if block is not None and block.stat_key else ("?", "?")
        )
        self.findings.append(
            Finding(
                kind="dynamic-race",
                function=function,
                block=label,
                region=block.region if block is not None else 0,
                core=core.id,
                message=(
                    f"cycle {machine.cycle}: {access} of address {addr} on "
                    f"core {core.id} races with an unordered prior access "
                    f"on core {other} (no SEND/RECV sync path between them)"
                ),
                op=repr(op),
            )
        )

    def _check_against(
        self, shadow: Dict[int, int], core_id: int, vc_row: List[int]
    ) -> Optional[int]:
        for other, clk in shadow.items():
            if other != core_id and clk > vc_row[other]:
                return other
        return None

    # -- memory events -------------------------------------------------------------

    def load(self, core: int, op: Operation, addr: int) -> None:
        if self.machine.tm.in_transaction(core):
            return  # speculative reads are the TM's to police
        self._lockstep_join()
        self.checked_accesses += 1
        row = self.vc[core]
        conflict = self._check_against(self.writes.get(addr, {}), core, row)
        if conflict is not None:
            self._report(core, op, addr, conflict, "load")
        self.reads.setdefault(addr, {})[core] = row[core]

    def store(self, core: int, op: Operation, addr: int) -> None:
        if self.machine.tm.in_transaction(core):
            self.tx_writes.setdefault(core, []).append(addr)
            return
        self._lockstep_join()
        self.checked_accesses += 1
        row = self.vc[core]
        conflict = self._check_against(self.writes.get(addr, {}), core, row)
        if conflict is None:
            conflict = self._check_against(self.reads.get(addr, {}), core, row)
        if conflict is not None:
            self._report(core, op, addr, conflict, "store")
        self.writes.setdefault(addr, {})[core] = row[core]

    # -- communication events --------------------------------------------------------

    def net_send(
        self, cycle: int, src: int, dst: int, kind: str, seq: int, arrival: int
    ) -> None:
        """Data (SEND) and control (SPAWN/RELEASE) messages alike."""
        self._lockstep_join()
        row = self.vc[src]
        self.in_flight[seq] = (dst, list(row))
        row[src] += 1

    def net_recv(self, cycle: int, seq: int) -> None:
        """RECV or LISTEN consumed message ``seq``."""
        self._lockstep_join()
        dst, clock = self.in_flight.pop(seq)
        self._join(self.vc[dst], clock)

    # -- transaction events ----------------------------------------------------------

    def tx_commit(self, core: int, region: int, order: int) -> None:
        """Successful commit: ordered behind every earlier commit, then
        the buffered write set becomes visible at the commit clock."""
        row = self.vc[core]
        self._join(row, self.commit_clock)
        row[core] += 1
        for addr in self.tx_writes.pop(core, []):
            self.writes.setdefault(addr, {})[core] = row[core]
        self.commit_clock = list(row)

    def tx_abort(self, core: int, region: int, order: int) -> None:
        self.tx_writes.pop(core, None)

    # -- machine events --------------------------------------------------------------

    def mode_switch(self, cycle: int, old: str, new: str) -> None:
        self._barrier_join()

    # -- results ---------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "dropped": self.dropped,
            "checked_accesses": self.checked_accesses,
        }


def run_sanitized(
    compiled: CompiledProgram,
    config: MachineConfig,
    max_cycles: int = 50_000_000,
) -> Tuple[VoltronMachine, List[Finding]]:
    """Execute one compiled cell under a :class:`RaceSanitizer`.

    Returns the halted machine (its ``obs`` is the sanitizer) and every
    dynamic finding: the races, then one ``message-leak`` when messages
    are still queued or in flight after halt (an orphaned SEND reached
    the network).  Nothing is suppressed here; callers apply their own
    suppressions."""
    sanitizer = RaceSanitizer()
    machine = VoltronMachine(
        compiled, config, max_cycles=max_cycles, obs=sanitizer
    )
    machine.run()
    findings = list(sanitizer.findings)
    if not machine.network.quiescent():
        findings.append(
            Finding(
                kind="message-leak",
                function="<machine>",
                block="<halt>",
                region=0,
                core=None,
                message="messages still queued or in flight after halt "
                "(orphaned SEND reached the network)",
            )
        )
    return machine, findings
