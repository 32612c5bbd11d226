"""Observability: cycle-accurate probes, metrics time series, trace export.

The package is a zero-overhead-when-disabled instrumentation layer for
the Voltron simulator.  An :class:`Observability` instance is the event
bus: pass one to ``VoltronMachine(..., obs=...)`` (or through
``repro.api.run_cell(..., obs=...)``) and it consumes the simulator's
probe events (:mod:`repro.sim.probe`) -- mode switches, stall
attribution, fast-forward windows, operand-network traffic, cache
misses, transactions, fault injections, and recovery actions.  With no
observer attached every emitting site is a single ``is None`` check, so
performance runs and the fast-forward differential suite are untouched.

On top of the bus:

* :class:`MetricsSeries` -- per-cycle samples (queue occupancy, live
  cores, cumulative stalls by category) at a configurable stride;
* :func:`summarize` / :func:`reconcile` -- a per-mode / per-category
  timeline summary that must agree *exactly* with
  :class:`~repro.sim.stats.MachineStats` (asserted in tests and on every
  ``repro.api.run_cell`` profiling run);
* :func:`perfetto_trace` / :func:`write_trace` -- a Chrome-trace-event /
  Perfetto JSON export: one track per core, a machine track for mode
  residency and fast-forward windows, async spans for transactions and
  operand-network messages, and counter tracks from the series.
"""

from .events import ObsConfig, Observability, RecoveryEvent
from .perfetto import perfetto_trace, write_trace
from .series import MetricsSeries
from .timeline import ReconciliationError, TimelineSummary, reconcile, summarize

__all__ = [
    "MetricsSeries",
    "Observability",
    "ObsConfig",
    "ReconciliationError",
    "RecoveryEvent",
    "TimelineSummary",
    "perfetto_trace",
    "reconcile",
    "summarize",
    "write_trace",
]
