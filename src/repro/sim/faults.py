"""Seeded, deterministic fault injection for the Voltron simulator.

Voltron's headline claims are *robustness* claims: queue-mode
communication tolerates variable latency, the TM rolls back speculative
DOALL chunks on conflict with guaranteed progress, and decoupled cores
resynchronize at MODE_SWITCH barriers.  This module adversarially
exercises those recovery paths in the spirit of STM torture testing and
the timing-perturbation fuzzing used by architecture simulators.

A :class:`FaultPlan` is a deterministic realization of a
:class:`FaultConfig`: every injection channel draws from its own
sha256-seeded stream, so the same (seed, rate) knobs replay the same
fault schedule in any process (Python's randomized ``hash()`` is never
involved).  Injection sites:

* **memory/cache latency** -- extra fill cycles on data accesses
  (:meth:`repro.sim.caches.SnoopBus.access`) and instruction fetches
  (:meth:`repro.sim.caches.L1ICache.access`);
* **queue-mode delivery delay** -- extra in-flight cycles on SEND /
  SPAWN / RELEASE messages (:meth:`repro.sim.network.OperandNetwork.send`);
* **spurious TM conflicts** -- a validation-passing chunk is aborted
  anyway, forcing the abort -> register-rollback -> re-execute path
  (:meth:`repro.sim.tm.TransactionalMemory.try_commit`); the TM's
  livelock guard bounds consecutive injected aborts so the paper's
  progress guarantee survives any rate, including 1.0;
* **transient stall-bus assertions** -- a coupled group is held for a
  few cycles as if a member were blocked
  (:meth:`repro.sim.machine.VoltronMachine._step_group`);
* **directory-latency inflation** -- a directory transaction (miss or
  upgrade indirection) occasionally waits extra cycles at the home node
  (:meth:`repro.sim.caches.DirectoryCoherence.access`); a no-op on the
  snoop bus, which has no directory to congest;
* **Virtual-Link pool contention** -- a vlink SEND occasionally waits
  extra cycles for a shared-pool slot at the receiver
  (:meth:`repro.sim.network.OperandNetwork.send`); a no-op under the
  per-pair queue policy.

A second family of channels is *destructive*: instead of perturbing
timing they damage architectural events, and the recovery subsystem
(:mod:`repro.sim.recovery`) must detect and repair every one:

* **payload corruption** -- a queue-mode message arrives with a
  scrambled payload; the receiver's CRC check catches it and NACKs,
  forcing a retransmission under bounded exponential backoff;
* **message drops** -- a SEND/SPAWN/RELEASE message vanishes in the
  router; the sender's retransmission timer recovers it;
* **core blackouts** -- a core executing a speculative DOALL chunk goes
  dark for a bounded window, wiping its register file and in-flight
  scoreboard state; the stall-bus watchdog detects the missed
  heartbeats and recovers the chunk through the TM
  abort -> register-rollback -> re-execute path.

``FaultConfig.profile`` selects the family: ``"timing"`` (the default,
exactly the pre-existing behaviour), ``"destructive"``, or ``"both"``.

Every fault -- timing *or* destructive -- leaves architectural results
intact; the chaos-differential suite
(``tests/properties/test_prop_chaos.py``) proves the strongest possible
property: under any fault plan, final memory images and reference
outputs are bit-identical to the fault-free run.

Channels sample geometric inter-arrival gaps (the exact distribution of
"number of Bernoulli(rate) trials until the first hit"), so a disabled
or sparse channel costs one integer decrement per probe instead of an
RNG draw.  With no plan attached the hooks are a single ``is None``
check.

Because every channel is a countdown, fault runs keep the machine's
stall fast-forward kernel.  Inside a provable stall window only the
stall-bus and blackout channels are probed, a fixed number of times per
cycle, so :meth:`FaultPlan.horizon` says how many whole cycles pass
before either fires; the machine caps the window there and
:meth:`FaultPlan.skip` consumes the window's probes in bulk, leaving the
fault schedule exactly as single-stepping would.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict

#: A countdown no run ever reaches (rate-0 channels never fire).
_NEVER = 1 << 62

#: Valid values for :attr:`FaultConfig.profile`.
FAULT_PROFILES = ("timing", "destructive", "both")

#: Delay bounds in cycles of the timing channels: memory latency (data
#: accesses and instruction fetches alike), queue-mode delivery,
#: stall-bus holds, directory indirection and vlink pool contention.
MAX_MEM_DELAY = 24
MAX_NET_DELAY = 12
MAX_STALL_HOLD = 8
MAX_DIRECTORY_DELAY = 16
MAX_VLINK_HOLD = 8

#: Every injection channel, in :meth:`FaultPlan.summary` order: its
#: stream name (the sha256 seed of its schedule; the probe event, the
#: summary key and the plan attribute spell "-" as "_"), the
#: :class:`FaultConfig` field holding its rate, the profile family that
#: arms it, and its delay bound in cycles (None: ``max_blackout``).
CHANNELS = (
    ("mem", "rate", "timing", MAX_MEM_DELAY),
    ("ifetch", "rate", "timing", MAX_MEM_DELAY),
    ("net", "rate", "timing", MAX_NET_DELAY),
    ("stall-bus", "rate", "timing", MAX_STALL_HOLD),
    ("directory", "rate", "timing", MAX_DIRECTORY_DELAY),
    ("vlink", "rate", "timing", MAX_VLINK_HOLD),
    ("tm", "tm_rate", "timing", 1),
    ("corrupt", "corrupt_rate", "destructive", 1),
    ("drop", "drop_rate", "destructive", 1),
    ("blackout", "blackout_rate", "destructive", None),
)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs deriving a deterministic fault schedule.

    ``rate`` is the per-site firing probability of the latency channels
    (memory, instruction fetch, network, stall bus, directory, vlink);
    ``tm_rate`` is the per-commit probability of a spurious conflict.
    Each injected delay is capped by its channel's fixed bound
    (:data:`CHANNELS`).

    ``profile`` selects the channel family: ``"timing"`` arms only the
    latency channels above (the default, and exactly the pre-existing
    behaviour), ``"destructive"`` arms only the destructive channels,
    ``"both"`` arms everything.  Destructive knobs: ``corrupt_rate`` /
    ``drop_rate`` are per-transmission-attempt probabilities of payload
    corruption / message loss; ``blackout_rate`` is the per-eligible-
    core-cycle probability of a transient blackout lasting up to
    ``max_blackout`` cycles.  ``retransmit_budget`` bounds failed
    attempts per message before the final retransmission is sent
    reliably (the deadlock escape); ``blackout_budget`` is how many
    blackouts one core may suffer before the scheduler degrades it at
    the next MODE_SWITCH barrier.  The retransmission backoff and the
    watchdog's heartbeat tolerance are fixed
    (:data:`repro.sim.recovery.BACKOFF_BASE`,
    :data:`repro.sim.recovery.HEARTBEAT_MISSES`).
    """

    seed: int = 0
    rate: float = 0.01
    tm_rate: float = 0.25
    profile: str = "timing"
    corrupt_rate: float = 0.02
    drop_rate: float = 0.02
    blackout_rate: float = 0.0001
    max_blackout: int = 64
    retransmit_budget: int = 4
    blackout_budget: int = 2

    def __post_init__(self) -> None:
        if self.profile not in FAULT_PROFILES:
            raise ValueError(
                f"profile must be one of {FAULT_PROFILES}, "
                f"got {self.profile!r}"
            )
        for name in dict.fromkeys(field for _, field, _, _ in CHANNELS):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("max_blackout", "retransmit_budget", "blackout_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _stream(seed: int, channel: str) -> random.Random:
    """A per-channel RNG seeded through sha256, stable across processes."""
    digest = hashlib.sha256(f"voltron-fault:{seed}:{channel}".encode())
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))


class _Channel:
    """One injection channel: geometric inter-arrival, bounded delays.
    Every fire is reported as the plan's ``fault`` probe event."""

    __slots__ = ("plan", "event", "rng", "rate", "max_delay", "countdown",
                 "fires", "injected_cycles")

    def __init__(self, plan: "FaultPlan", name: str, rate: float,
                 max_delay: int) -> None:
        self.plan = plan
        # The stream is keyed by the channel name; the event carries its
        # identifier spelling ("stall-bus" -> "stall_bus").
        self.event = name.replace("-", "_")
        self.rng = _stream(plan.config.seed, name)
        self.rate = rate
        self.max_delay = max_delay
        self.fires = 0
        self.injected_cycles = 0
        self.countdown = self._gap()

    def _gap(self) -> int:
        """Trials until the next fire: Geometric(rate) via inverse CDF."""
        if self.rate <= 0.0:
            return _NEVER
        if self.rate >= 1.0:
            return 1
        u = self.rng.random()
        return max(1, math.ceil(math.log(1.0 - u) / math.log(1.0 - self.rate)))

    def fire(self) -> int:
        """Probe the channel: 0 almost always, else the delay to inject."""
        self.countdown -= 1
        if self.countdown > 0:
            return 0
        self.countdown = self._gap()
        delay = self.rng.randint(1, self.max_delay)
        self.fires += 1
        self.injected_cycles += delay
        if self.plan.on_fault is not None:
            self.plan.on_fault(self.event, delay)
        return delay

    def horizon(self, probes_per_cycle: int) -> int:
        """Whole cycles before the next fire when each cycle probes the
        channel ``probes_per_cycle`` times (0: a probe this cycle fires;
        an unprobed channel never fires)."""
        if probes_per_cycle <= 0:
            return _NEVER
        return (self.countdown - 1) // probes_per_cycle

    def skip(self, probes: int) -> None:
        """``probes`` non-firing probes at once: the countdown after
        ``probes`` calls of :meth:`fire`, which must all have returned 0
        (:meth:`horizon` bounds how many that may be)."""
        self.countdown -= probes


class FaultPlan:
    """A deterministic fault schedule, consumed site by site as the
    machine runs.  Attach one via ``VoltronMachine(..., faults=plan)``
    (a plan, never a bare :class:`FaultConfig`); the machine hands it
    to the bus, the instruction caches, the operand network, and the
    TM.  Stall fast-forwarding stays on: each
    window is capped at :meth:`horizon` and its probes consumed by
    :meth:`skip`, so a fast-forwarded run draws the same schedule as a
    single-stepped one."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        #: Probe event (bound by the machine, see :mod:`repro.sim.probe`).
        self.on_fault = None
        armed = {
            "timing": config.profile in ("timing", "both"),
            "destructive": config.profile in ("destructive", "both"),
        }
        #: The channels in :data:`CHANNELS` order; each is also the
        #: attribute ``_<event>`` its accessor reads.
        self._channels = tuple(
            _Channel(
                self, name,
                getattr(config, field) if armed[family] else 0.0,
                config.max_blackout if bound is None else bound,
            )
            for name, field, family, bound in CHANNELS
        )
        for channel in self._channels:
            setattr(self, "_" + channel.event, channel)
        #: True when any destructive channel is armed: the machine then
        #: builds a :class:`~repro.sim.recovery.RecoveryManager` and the
        #: operand network stamps CRCs onto outgoing messages.
        self.destructive = armed["destructive"] and any(
            getattr(config, field) > 0.0
            for _, field, family, _ in CHANNELS if family == "destructive"
        )

    # -- injection probes (one per site kind) ----------------------------------

    def mem_delay(self) -> int:
        """Extra cycles for a data-cache access (0 = no fault)."""
        return self._mem.fire()

    def ifetch_delay(self) -> int:
        """Extra cycles for an instruction fetch (0 = no fault)."""
        return self._ifetch.fire()

    def net_delay(self) -> int:
        """Extra in-flight cycles for a queue-mode message (0 = no fault)."""
        return self._net.fire()

    def stall_hold(self) -> int:
        """Cycles to assert the stall bus over a coupled group (0 = none)."""
        return self._stall_bus.fire()

    def directory_delay(self) -> int:
        """Extra cycles for a directory transaction -- a miss or upgrade
        indirection waiting at a congested home node (0 = no fault).
        Probed only by :class:`~repro.sim.caches.DirectoryCoherence`, so
        snoop-bus machines never consume this stream."""
        return self._directory.fire()

    def vlink_hold(self) -> int:
        """Extra in-flight cycles for a vlink SEND contending for the
        receiver's shared pool (0 = no fault).  Probed only under the
        ``vlink`` queue policy, so per-pair machines never consume this
        stream."""
        return self._vlink.fire()

    def spurious_conflict(self) -> bool:
        """Whether to abort a validation-passing commit anyway."""
        return self._tm.fire() > 0

    # -- destructive probes ------------------------------------------------------

    def xmit_outcome(self) -> "str | None":
        """Fate of one message transmission attempt: None (intact, the
        overwhelmingly common case), ``'drop'`` (lost in the router), or
        ``'corrupt'`` (delivered with a scrambled payload).  Drops are
        sampled first so the two channels stay independent streams."""
        if self._drop.fire():
            return "drop"
        if self._corrupt.fire():
            return "corrupt"
        return None

    def blackout_cycles(self) -> int:
        """Duration of a transient core blackout starting this cycle
        (0 = no fault).  Probed once per eligible core-cycle."""
        return self._blackout.fire()

    # -- stall fast-forward windows -----------------------------------------------

    def horizon(self, stall_probes: int, blackout_probes: int) -> int:
        """Whole cycles before the stall-bus or blackout channel next
        fires, when each stalled cycle probes them ``stall_probes`` times
        (once per coupled ensemble with a running core) and
        ``blackout_probes`` times (once per decoupled core reaching the
        blackout gate).  No other channel is probed by a stalled cycle."""
        return min(self._stall_bus.horizon(stall_probes),
                   self._blackout.horizon(blackout_probes))

    def skip(self, stall_probes: int, blackout_probes: int) -> None:
        """Consume a fast-forwarded window's non-firing probes in bulk."""
        self._stall_bus.skip(stall_probes)
        self._blackout.skip(blackout_probes)

    def clip_window(self, cycle: int, target: int, stall_probes: int,
                    recovery) -> int:
        """End the stall window ``[cycle, target)`` at the next stall-bus
        or blackout fire and, with a
        :class:`~repro.sim.recovery.RecoveryManager`, at its next
        action; consume the probes of a non-empty window (the machine
        commits every one) and return its new end."""
        blackout_probes = 0
        if recovery is not None:
            target = min(target, recovery.horizon(cycle))
            blackout_probes = recovery.blackout_probes(cycle)
        target = min(
            target, cycle + self.horizon(stall_probes, blackout_probes)
        )
        if target > cycle:
            cycles = target - cycle
            self.skip(stall_probes * cycles, blackout_probes * cycles)
        return target

    # -- accounting -------------------------------------------------------------

    def injections(self) -> int:
        return sum(channel.fires for channel in self._channels)

    def injected_cycles(self) -> int:
        return sum(channel.injected_cycles for channel in self._channels)

    def summary(self) -> Dict[str, int]:
        """Per-channel fire counts plus totals (stable key order)."""
        out = {channel.event: channel.fires for channel in self._channels}
        out["injections"] = self.injections()
        out["injected_cycles"] = self.injected_cycles()
        return out

    def __repr__(self) -> str:
        return f"FaultPlan({self.config!r}, injections={self.injections()})"
