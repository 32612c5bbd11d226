"""The observability event bus: a probe consumer that records a timeline.

:class:`Observability` is attached the one way every simulator observer
is (:mod:`repro.sim.probe`): ``VoltronMachine(..., obs=Observability())``.
It implements these events of the probe contract:

==============================================  ================================================
event                                           emitted by
==============================================  ================================================
``stall(core, category, cycles, start)``        ``CoreStats.stall``, stepped, fast-forwarded or slept
``net_send(cycle, src, dst, kind, seq, arr.)``  ``OperandNetwork.send``
``net_recv(cycle, seq)``                        ``OperandNetwork.try_receive`` / ``peek_control``
``tx_begin`` / ``tx_commit`` / ``tx_abort``     ``TransactionalMemory``
``cache_miss`` / ``icache_miss``                data-cache fabric / ``L1ICache``
``fault(channel, delay)``                       ``FaultPlan``, per landed injection
``recovery(cycle, kind, core, ...)``            ``RecoveryManager``
``mode_switch`` / ``cycle`` / ``finalize``      the machine's cycle loop
``fast_forward_window(start, end)``             the machine's fast-forward kernel
==============================================  ================================================

Design constraints (in priority order):

1. **Zero overhead when disabled.**  With no consumer every emitting
   site is a single ``is None`` check; nothing is wrapped or patched.
2. **Reconciles exactly.**  Stall spans come from the very
   ``CoreStats.stall`` calls that build ``MachineStats`` -- both the
   per-cycle attributions and the fast-forward bulk credits -- so the
   timeline totals equal the aggregate stats *by construction*, and
   :func:`repro.obs.timeline.reconcile` asserts it per run.
3. **Bounded memory.**  Discrete event lists (transactions, messages,
   cache misses, faults) stop growing at ``ObsConfig.max_events`` and
   set ``truncated`` -- mirroring :class:`repro.harness.trace.Tracer`.
   Stall spans and mode segments are exempt: they are run-length merged
   (one entry per contiguous window), stay small, and reconciliation
   needs them complete.

An :class:`Observability` instance observes exactly one machine run;
attach a fresh one per simulation (``repro.api.run_cell`` does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .series import MetricsSeries


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for one observability session.

    ``sample_stride`` is the metrics-series sampling period in cycles;
    ``max_events`` bounds the discrete event lists (spans are run-length
    merged and exempt).  To see every cycle individually in the series,
    run the machine with ``fast_forward=False`` (stats are bit-identical
    either way -- the differential suite's guarantee).
    """

    sample_stride: int = 64
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if self.sample_stride < 1:
            raise ValueError(
                f"sample_stride must be >= 1, got {self.sample_stride}"
            )
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")


@dataclass
class TxEvent:
    """One transaction lifecycle edge: begin, commit, or abort."""

    cycle: int
    core: int
    region: int
    order: int
    kind: str  # 'begin' | 'commit' | 'abort'


@dataclass
class NetSend:
    """A queue-mode message entering the operand network."""

    cycle: int
    src: int
    dst: int
    kind: str  # 'data' | 'spawn' | 'release'
    seq: int
    arrival: int  # earliest consumable cycle


@dataclass
class NetRecv:
    """A queue-mode message leaving a receive CAM (RECV or LISTEN)."""

    cycle: int
    seq: int


@dataclass
class MissEvent:
    """A cache miss and the latency it cost the requesting core."""

    cycle: int
    core: int
    where: str  # 'l1d' | 'l1i'
    latency: int


@dataclass
class FaultEvent:
    """One landed fault injection (channel name + injected delay)."""

    cycle: int
    channel: str
    delay: int


@dataclass
class RecoveryEvent:
    """One destructive-fault detection or repair action.

    ``kind`` is one of the keys of
    :data:`repro.sim.recovery.EVENT_COUNTER_FOR_KIND` (crc_error,
    msg_drop, retransmit, fallback, blackout, watchdog, chunk_rollback,
    remap, degrade); ``core`` is the detecting/affected core; ``cycles``
    carries a blackout's dark-window length (0 for instantaneous
    events).  Per-kind event counts reconcile exactly against
    ``MachineStats.recovery`` (:func:`repro.obs.timeline.reconcile`).
    """

    cycle: int
    kind: str
    core: int
    detail: str
    cycles: int = 0


class Observability:
    """Event bus for one simulation run.

    Create one, pass it to ``VoltronMachine(..., obs=...)`` (or
    ``repro.api.run_cell(..., obs=...)``), run, then read the collected
    spans/events or hand the instance to
    :func:`~repro.obs.perfetto.perfetto_trace` /
    :func:`~repro.obs.timeline.summarize`.
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.machine = None
        self.n_cores = 0
        #: Per-core run-length-merged stall spans: [start, cycles, category].
        self.stall_spans: List[List[list]] = []
        #: Closed mode-residency segments: (start, end, mode), end exclusive.
        self.mode_segments: List[Tuple[int, int, str]] = []
        self._mode_open: Tuple[int, str] = (0, "coupled")
        #: Fast-forwarded stall windows: (start, end), end exclusive.
        self.ff_windows: List[Tuple[int, int]] = []
        self.tx_events: List[TxEvent] = []
        self.net_sends: List[NetSend] = []
        self.net_recvs: List[NetRecv] = []
        self.cache_misses: List[MissEvent] = []
        self.fault_events: List[FaultEvent] = []
        self.recovery_events: List[RecoveryEvent] = []
        self.series: Optional[MetricsSeries] = None
        self.truncated = False
        self._n_events = 0
        self.final_cycle: Optional[int] = None

    # -- attachment ---------------------------------------------------------------

    def attach(self, machine) -> None:
        """Called by ``VoltronMachine.__init__``; an instance observes
        exactly one run."""
        if self.machine is not None:
            raise RuntimeError(
                "this Observability instance already observed a machine; "
                "create a fresh one per run"
            )
        self.machine = machine
        self.n_cores = machine.config.n_cores
        self.stall_spans = [[] for _ in range(self.n_cores)]
        self.series = MetricsSeries(self.config.sample_stride, self.n_cores)
        self._mode_open = (machine.cycle, machine.mode)

    # -- bounded event storage -----------------------------------------------------

    def _append(self, bucket: list, event) -> None:
        if self._n_events >= self.config.max_events:
            self.truncated = True
            return
        self._n_events += 1
        bucket.append(event)

    # -- probe events (see repro.sim.probe) ----------------------------------------

    def stall(self, core: int, category: str, cycles: int, start=None) -> None:
        """Run-length merge contiguous same-category stall cycles into
        spans; bulk credits arrive here too, a sleeping core's with the
        cycle they start at."""
        spans = self.stall_spans[core]
        cycle = self.machine.cycle if start is None else start
        if spans:
            last = spans[-1]
            if last[2] == category and last[0] + last[1] == cycle:
                last[1] += cycles
                return
        spans.append([cycle, cycles, category])

    def cycle(self, cycle: int) -> None:
        """Per-cycle hook from the machine's run loop (stepped cycles
        only; fast-forwarded windows arrive via :meth:`fast_forward_window`)."""
        if cycle % self.config.sample_stride == 0:
            # Sleeping decoupled cores are credited lazily: bring their
            # stall counters up to this cycle before reading them.
            self.machine.awake.settle(cycle + 1)
            self.series.sample(self.machine, cycle)

    def mode_switch(self, cycle: int, old: str, new: str) -> None:
        """The machine committed a mode change effective at ``cycle``."""
        start, mode = self._mode_open
        if cycle > start:
            self.mode_segments.append((start, cycle, mode))
        self._mode_open = (cycle, new)

    def fast_forward_window(self, start: int, end: int) -> None:
        """The clock jumped from ``start`` to ``end`` over a provable stall."""
        self._append(self.ff_windows, (start, end))

    def _tx(self, core: int, region: int, order: int, kind: str) -> None:
        self._append(
            self.tx_events, TxEvent(self.machine.cycle, core, region, order, kind)
        )

    def tx_begin(self, core: int, region: int, order: int) -> None:
        self._tx(core, region, order, "begin")

    def tx_commit(self, core: int, region: int, order: int) -> None:
        self._tx(core, region, order, "commit")

    def tx_abort(self, core: int, region: int, order: int) -> None:
        self._tx(core, region, order, "abort")

    def net_send(
        self, cycle: int, src: int, dst: int, kind: str, seq: int, arrival: int
    ) -> None:
        self._append(self.net_sends, NetSend(cycle, src, dst, kind, seq, arrival))

    def net_recv(self, cycle: int, seq: int) -> None:
        self._append(self.net_recvs, NetRecv(cycle, seq))

    def cache_miss(self, core: int, latency: int) -> None:
        self._append(
            self.cache_misses,
            MissEvent(self.machine.cycle, core, "l1d", latency),
        )

    def icache_miss(self, core: int, latency: int) -> None:
        self._append(
            self.cache_misses,
            MissEvent(self.machine.cycle, core, "l1i", latency),
        )

    def fault(self, channel: str, delay: int) -> None:
        self._append(
            self.fault_events, FaultEvent(self.machine.cycle, channel, delay)
        )

    def recovery(
        self, cycle: int, kind: str, core: int, detail: str, cycles: int = 0
    ) -> None:
        self._append(
            self.recovery_events, RecoveryEvent(cycle, kind, core, detail, cycles)
        )

    # -- finalization --------------------------------------------------------------

    def finalize(self, machine) -> None:
        """Close the open mode segment and flush a final series sample.
        Called by ``VoltronMachine.run`` after the cycle loop completes."""
        self.final_cycle = machine.cycle
        start, mode = self._mode_open
        if machine.cycle > start:
            self.mode_segments.append((start, machine.cycle, mode))
        self._mode_open = (machine.cycle, mode)
        self.series.sample(machine, machine.cycle)

    def metrics(self) -> Dict[str, object]:
        """The JSON-safe metrics payload embedded in ``RunResult.metrics``
        and written by ``--metrics-out``: the sampled series plus the
        reconciled timeline summary."""
        from .timeline import summarize

        return {
            "series": self.series.to_dict() if self.series else None,
            "timeline": summarize(self).to_dict(),
            "truncated": self.truncated,
        }
