"""Cycle accounting for the simulator.

Stall categories follow the paper's Figure 12 breakdown:

* ``istall`` -- instruction cache miss cycles,
* ``dstall`` -- data cache miss cycles,
* ``recv_data`` -- cycles stalled in RECV waiting for a data message,
* ``recv_pred`` -- cycles stalled in RECV waiting for a branch predicate,
* ``call_sync`` -- synchronization before function calls and returns,

plus categories the paper folds into the text: ``barrier`` (MODE_SWITCH
joins), ``tx_wait`` (ordered transaction commit), ``latency`` (scoreboard
interlocks -- near zero with a correct static schedule), and ``idle``
(a core listening with no fine-grain thread to run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

STALL_CATEGORIES = (
    "istall",
    "dstall",
    "recv_data",
    "recv_pred",
    "call_sync",
    "barrier",
    "tx_wait",
    "send",
    "latency",
    "idle",
)


@dataclass
class CoreStats:
    """Per-core cycle accounting."""

    busy: int = 0  # cycles issuing an operation (including NOP padding)
    stalls: Dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in STALL_CATEGORIES}
    )
    ops_executed: int = 0
    loads: int = 0
    stores: int = 0
    l1d_misses: int = 0
    l1i_misses: int = 0
    messages_sent: int = 0
    messages_received: int = 0

    #: The probe's ``stall`` event with this core's id bound (set by the
    #: machine, see :mod:`repro.sim.probe`); not a dataclass field.
    on_stall = None

    def stall(self, category: str, cycles: int = 1, start=None) -> None:
        """Charge ``cycles`` of ``category`` from cycle ``start`` on (None:
        the machine's current cycle)."""
        try:
            self.stalls[category] += cycles
        except KeyError:
            raise ValueError(
                f"unknown stall category {category!r}; expected one of "
                f"{STALL_CATEGORIES}"
            ) from None
        if self.on_stall is not None:
            self.on_stall(category, cycles, start)

    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "busy": self.busy,
            "stalls": dict(self.stalls),
            "ops_executed": self.ops_executed,
            "loads": self.loads,
            "stores": self.stores,
            "l1d_misses": self.l1d_misses,
            "l1i_misses": self.l1i_misses,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CoreStats":
        stats = cls(**{k: v for k, v in data.items() if k != "stalls"})
        stats.stalls = {c: 0 for c in STALL_CATEGORIES}
        stats.stalls.update(data["stalls"])
        return stats


@dataclass
class MachineStats:
    """Whole-machine statistics for one simulation."""

    n_cores: int
    cycles: int = 0
    mode_cycles: Dict[str, int] = field(
        default_factory=lambda: {"coupled": 0, "decoupled": 0}
    )
    cores: List[CoreStats] = field(default_factory=list)
    tx_commits: int = 0
    tx_aborts: int = 0
    spawns: int = 0
    mode_switches: int = 0
    #: Cycles attributed to core 0's current (function, block label) --
    #: used for the per-region accounting behind the Fig. 3 breakdown.
    block_cycles: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Destructive-fault recovery counters (keys from
    #: ``repro.sim.recovery.RECOVERY_COUNTERS``).  Empty -- and omitted
    #: from serialization -- unless a RecoveryManager ran, so fault-free
    #: payloads stay bit-identical to pre-recovery goldens.
    recovery: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.cores:
            self.cores = [CoreStats() for _ in range(self.n_cores)]

    def mean_stalls(self, category: str) -> float:
        """Average stall cycles per core (the paper reports per-core means)."""
        return sum(core.stalls[category] for core in self.cores) / self.n_cores

    def total_ops(self) -> int:
        return sum(core.ops_executed for core in self.cores)

    def mode_fraction(self, mode: str) -> float:
        total = sum(self.mode_cycles.values())
        if total == 0:
            return 0.0
        return self.mode_cycles[mode] / total

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "ops": self.total_ops(),
            "coupled_frac": self.mode_fraction("coupled"),
            "decoupled_frac": self.mode_fraction("decoupled"),
            "tx_commits": self.tx_commits,
            "tx_aborts": self.tx_aborts,
            **{
                f"stall_{category}": self.mean_stalls(category)
                for category in STALL_CATEGORIES
            },
        }

    # -- (de)serialization for the on-disk experiment cache ------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dump round-tripping every field (tuple keys in
        ``block_cycles`` become tab-joined strings)."""
        data = {
            "n_cores": self.n_cores,
            "cycles": self.cycles,
            "mode_cycles": dict(self.mode_cycles),
            "cores": [core.to_dict() for core in self.cores],
            "tx_commits": self.tx_commits,
            "tx_aborts": self.tx_aborts,
            "spawns": self.spawns,
            "mode_switches": self.mode_switches,
            "block_cycles": {
                f"{function}\t{label}": cycles
                for (function, label), cycles in self.block_cycles.items()
            },
        }
        if self.recovery:
            data["recovery"] = dict(self.recovery)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineStats":
        stats = cls(
            n_cores=data["n_cores"],
            cycles=data["cycles"],
            mode_cycles=dict(data["mode_cycles"]),
            cores=[CoreStats.from_dict(core) for core in data["cores"]],
            tx_commits=data["tx_commits"],
            tx_aborts=data["tx_aborts"],
            spawns=data["spawns"],
            mode_switches=data["mode_switches"],
        )
        stats.block_cycles = {
            tuple(key.split("\t", 1)): cycles
            for key, cycles in data["block_cycles"].items()
        }
        stats.recovery = dict(data.get("recovery", {}))
        return stats
