"""The probe contract: one event vocabulary for every simulator observer.

Every read-only observer of a run -- the observability bus
(:class:`repro.obs.Observability`), the race sanitizer
(:class:`repro.analysis.RaceSanitizer`), the per-op timeline
(:class:`repro.harness.Tracer`) -- is a *consumer* attached one way::

    VoltronMachine(compiled, config, obs=consumer)

At construction the machine calls ``consumer.attach(machine)`` (when the
consumer has one) and binds each event below that the consumer
implements -- a method of the event's name -- at the site that emits
it.  Events the consumer lacks stay ``None``, so every site is a single
``is None`` check, a consumer may implement any subset, and a run with
no consumer pays only those checks.  Consumers only read machine state:
an observed run is bit-identical to an unobserved one.  The one write
allowed is ``machine.settle(end)``, which a consumer calls before it
reads ``busy`` or stall counters in ``cycle``.  It covers both counters
the machine credits lazily: the stall cycles of sleeping decoupled cores
(otherwise credited when they wake) and the ``busy`` cycles of the
coupled ensemble (otherwise credited to its members when the running set
changes and when the run ends), brought up to ``end``.

=============================================  =================================================
event                                          emitted by
=============================================  =================================================
issue(cycle, core, op)                         machine, where ``ops_executed`` counts an op
stall(core, category, cycles, start)           ``CoreStats.stall``, stepped, fast-forwarded or slept
load / store(core, op, addr)                   machine, LOAD / STORE handlers
net_send(cycle, src, dst, kind, seq, arrival)  ``OperandNetwork.send`` (SEND, SPAWN, RELEASE)
net_recv(cycle, seq)                           ``OperandNetwork.try_receive`` / ``peek_control``
tx_begin(core, region, order)                  ``TransactionalMemory.begin``
tx_commit(core, region, order)                 ``TransactionalMemory.try_commit``
tx_abort(core, region, order)                  ``TransactionalMemory.abort``
cache_miss(core, latency)                      ``SnoopBus`` / ``DirectoryCoherence`` access
icache_miss(core, latency)                     ``L1ICache.access``
fault(channel, delay)                          ``FaultPlan``, per landed injection
recovery(cycle, kind, core, detail, cycles)    ``RecoveryManager``, per detection or repair
mode_switch(cycle, old, new)                   machine, per committed mode change
cycle(cycle)                                   machine, per single-stepped cycle
fast_forward_window(start, end)                machine, per fast-forwarded stall window
finalize(machine)                              machine, once after the cycle loop
=============================================  =================================================

``core`` is always a core id.  Events without a ``cycle`` argument
happen at ``machine.cycle``; during a fast-forward credit that is still
the window's first cycle.  A ``stall`` credit covers ``cycles`` cycles
from ``start`` on: None means ``machine.cycle``, and a sleeping
decoupled core's bulk credit names the first cycle it slept through
(it is settled later, at its wake).
"""

from __future__ import annotations

from functools import partial

EVENTS = (
    "issue", "stall", "load", "store", "net_send", "net_recv",
    "tx_begin", "tx_commit", "tx_abort", "cache_miss", "icache_miss",
    "fault", "recovery", "mode_switch", "cycle", "fast_forward_window",
    "finalize",
)


def bind(machine, consumer) -> None:
    """Attach ``consumer`` (or nothing, for None) to a constructed
    machine: bind every event at its emitting site."""
    attach = getattr(consumer, "attach", None)
    if attach is not None:
        attach(machine)
    on = {name: getattr(consumer, name, None) for name in EVENTS}
    machine.on_issue = on["issue"]
    machine.on_load = on["load"]
    machine.on_store = on["store"]
    machine.on_mode_switch = on["mode_switch"]
    machine.on_cycle = on["cycle"]
    machine.on_fast_forward_window = on["fast_forward_window"]
    machine.on_finalize = on["finalize"]
    machine.network.on_net_send = on["net_send"]
    machine.network.on_net_recv = on["net_recv"]
    machine.tm.on_tx_begin = on["tx_begin"]
    machine.tm.on_tx_commit = on["tx_commit"]
    machine.tm.on_tx_abort = on["tx_abort"]
    machine.bus.on_cache_miss = on["cache_miss"]
    if machine.faults is not None:
        machine.faults.on_fault = on["fault"]
    if machine.recovery is not None:
        machine.recovery.on_recovery = on["recovery"]
    # Per-core sites carry no core id of their own: bind it here.
    stall, icache_miss = on["stall"], on["icache_miss"]
    for core in machine.cores:
        core.stats.on_stall = None if stall is None else partial(stall, core.id)
        machine.icaches[core.id].on_icache_miss = (
            None if icache_miss is None else partial(icache_miss, core.id)
        )
