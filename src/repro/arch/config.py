"""Machine configuration for Voltron systems.

Defaults follow the paper's evaluation setup (Section 5.1): single-issue
cores, 4 kB 2-way L1 instruction and data caches, a shared 128 kB 4-way L2,
direct-mode network latency of 1 cycle/hop, queue-mode latency of
2 cycles + 1 cycle/hop, and coupled groups of at most 4 cores.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import Dict, List, Mapping, Optional, Tuple, Union


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level (sizes in words; 1 word = 4 bytes)."""

    size_words: int
    associativity: int
    line_words: int = 8
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_words % (self.line_words * self.associativity):
            raise ValueError("cache size must be a multiple of way size")

    @property
    def n_sets(self) -> int:
        return self.size_words // (self.line_words * self.associativity)


@dataclass(frozen=True)
class NetworkConfig:
    """Scalar operand network parameters (paper Section 3.1).

    Direct mode has no knob: a PUT/GET pair moves its value one hop in
    the same lock-step cycle.  A queue-mode value lands
    ``queue_entry_cycles + hops * queue_cycles_per_hop`` cycles after its
    SEND, and the RECV that reads it takes its own issue cycle: 2 + hops
    at the defaults.
    """

    queue_entry_cycles: int = 1  # write into the send queue
    queue_cycles_per_hop: int = 1
    queue_depth: int = 16
    #: Receive-queue organization.  ``pair`` is the paper's machine: one
    #: private FIFO per (src, dst) pair, each ``queue_depth`` deep --
    #: storage grows quadratically with the mesh.  ``vlink`` models a
    #: Virtual-Link-style multi-producer queue: every receiver owns one
    #: ``queue_depth``-entry pool shared by all senders, plus one
    #: reserved slot per producer so an arbitrary consumption order can
    #: never deadlock a producer out of the pool.
    queue_policy: str = "pair"

    def __post_init__(self) -> None:
        if self.queue_policy not in ("pair", "vlink"):
            raise ValueError(
                f"unknown queue_policy {self.queue_policy!r}; "
                "expected 'pair' or 'vlink'"
            )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")


@dataclass(frozen=True)
class MachineConfig:
    """A Voltron machine: cores on a 2-D mesh plus memory system parameters."""

    n_cores: int = 4
    mesh_shape: Tuple[int, int] = (2, 2)
    # The sub-configs are frozen, so every machine can share one default
    # instance of each instead of building its own.
    l1d: CacheConfig = CacheConfig(size_words=1024, associativity=2)
    l1i: CacheConfig = CacheConfig(size_words=1024, associativity=2)
    l2: CacheConfig = CacheConfig(size_words=32768, associativity=4, hit_latency=7)
    memory_latency: int = 100
    network: NetworkConfig = NetworkConfig()
    coupled_group_size: int = 4  # stall bus reaches at most 4 cores (Sec. 3.2)
    tm_commit_latency: int = 4  # low-cost TM commit check
    #: Cache-coherence organization.  ``snoop`` is the paper's bus-snooping
    #: MOESI; ``directory`` tracks sharers/owner in an explicit directory
    #: so the protocol scales past a handful of cores.  Timing-only: the
    #: two protocols are architecturally equivalent and must produce
    #: bit-identical final memory.
    coherence: str = "snoop"
    #: Cycles per directory lookup/update on an L1 miss or upgrade
    #: (charged instead of the free broadcast snoop).
    directory_latency: int = 2
    #: Extra cycles a cross-cluster stall costs in clustered coupled
    #: mode: within a 4-core cluster the 1-bit stall bus is free, but
    #: propagating a stall through the cluster-level network above it
    #: is not.  Charged once per stall episode per blocked core.
    cluster_stall_latency: int = 2

    def __post_init__(self) -> None:
        rows, cols = self.mesh_shape
        if rows * cols < self.n_cores:
            raise ValueError(
                f"mesh {self.mesh_shape} too small for {self.n_cores} cores"
            )
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        if self.coherence not in ("snoop", "directory"):
            raise ValueError(
                f"unknown coherence {self.coherence!r}; "
                "expected 'snoop' or 'directory'"
            )
        if self.directory_latency < 0:
            raise ValueError("directory_latency cannot be negative")
        if self.cluster_stall_latency < 0:
            raise ValueError("cluster_stall_latency cannot be negative")
        if self.coupled_group_size < 1:
            raise ValueError("coupled_group_size must be at least 1")

    @cached_property
    def rendered(self) -> str:
        """``repr(self)``, rendered once per config object: every cell's
        cache key embeds it, and a runner keeps one config per core
        count (the config is frozen, so the text never goes stale)."""
        return repr(self)


#: Flat override keys accepted by :func:`apply_overrides`, split by the
#: dataclass they land on.  Network knobs are addressable without the
#: ``network.`` prefix so sweep specs stay one flat mapping.  The core
#: count and mesh shape are the machine itself, not knobs on it.
_NETWORK_FIELDS = frozenset(f.name for f in fields(NetworkConfig))
_MACHINE_FIELDS = frozenset(
    f.name for f in fields(MachineConfig)
    if f.name not in ("network", "n_cores", "mesh_shape")
)


def apply_overrides(
    config: MachineConfig, overrides: Optional[Mapping[str, object]]
) -> MachineConfig:
    """A copy of ``config`` with flat field overrides applied.

    Accepts top-level :class:`MachineConfig` fields other than the core
    count and mesh shape (``memory_latency``, ``tm_commit_latency``,
    ...) and :class:`NetworkConfig` fields (``queue_depth``,
    ``queue_cycles_per_hop``, ...) in one mapping -- the shape the
    design-space sweep driver explores.  Unknown keys raise so a typo'd
    axis never silently sweeps nothing.
    """
    if not overrides:
        return config
    unknown = sorted(
        key
        for key in overrides
        if key not in _NETWORK_FIELDS and key not in _MACHINE_FIELDS
    )
    if unknown:
        raise ValueError(
            f"unknown machine-config override(s): {', '.join(unknown)}"
        )
    network_kwargs = {
        key: value
        for key, value in overrides.items()
        if key in _NETWORK_FIELDS
    }
    machine_kwargs = {
        key: value
        for key, value in overrides.items()
        if key in _MACHINE_FIELDS
    }
    if network_kwargs:
        machine_kwargs["network"] = replace(config.network, **network_kwargs)
    return replace(config, **machine_kwargs)


@lru_cache(maxsize=None)
def mesh(n_cores: int) -> MachineConfig:
    """A machine with ``n_cores`` on the smallest near-square mesh.

    Composite counts get their most square *exact* rectangle.  Counts
    with no square-ish factorization (primes, 2*prime, ...) would
    degenerate to a 1xN chain with worst-case hop latency, so they get
    the smallest enclosing near-square rectangle instead: cores fill
    row-major and the unoccupied tail positions are holes the router
    detours around (XY falls back to YX, which always works because
    holes only ever occupy the end of the last row).  The paper's
    machines come out as 1x1, 1x2 and 2x2.  Built once per count: the
    config is frozen, so every caller can share it.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    root = int(n_cores**0.5)
    best: Optional[Tuple[Tuple[int, int, int], Tuple[int, int]]] = None
    for rows in range(max(1, root - 1), root + 2):
        cols = -(-n_cores // rows)  # ceil division
        # Rank by mesh diameter, then fewest holes, then the repo's
        # wider-than-tall convention (2x3, not 3x2).
        key = (rows + cols, rows * cols - n_cores, rows)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    assert best is not None
    return MachineConfig(n_cores=n_cores, mesh_shape=best[1])


#: Named machine presets, each the :func:`mesh` of its core count: the
#: paper's three machines plus the scaled meshes this repo adds beyond
#: the paper's grid.  Each base name also exists in ``-snoop`` /
#: ``-directory`` coherence variants (the bare name is the snoop default).
_BASE_PRESETS: Dict[str, int] = {
    "single": 1,
    "two": 2,
    "four": 4,
    "mesh16": 16,
    "mesh32": 32,
    "mesh64": 64,
}

_COHERENCE_VARIANTS = ("snoop", "directory")


def list_presets() -> List[str]:
    """Every accepted preset name, base names first."""
    names = list(_BASE_PRESETS)
    for base in _BASE_PRESETS:
        names.extend(f"{base}-{variant}" for variant in _COHERENCE_VARIANTS)
    return names


def preset(name: str) -> MachineConfig:
    """Look up a named machine preset (see :func:`list_presets`).

    ``"<base>"`` is the snoop-coherence machine; ``"<base>-directory"``
    and ``"<base>-snoop"`` pin the coherence protocol explicitly.
    """
    base, dash, variant = name.partition("-")
    if base not in _BASE_PRESETS or (dash and variant not in _COHERENCE_VARIANTS):
        raise KeyError(
            f"unknown machine preset {name!r}; "
            f"expected one of: {', '.join(list_presets())}"
        )
    config = mesh(_BASE_PRESETS[base])
    if dash:
        config = replace(config, coherence=variant)
    return config


MachineSpec = Union[int, str, MachineConfig]


def resolve_machine(machine: MachineSpec) -> MachineConfig:
    """Normalize any machine spelling to a :class:`MachineConfig`.

    Accepts a core count (the standard mesh preset for that count), a
    preset name from :func:`list_presets`, or a full config (returned
    as-is).  This is the single entry point behind every ``machine=``
    API parameter.
    """
    if isinstance(machine, MachineConfig):
        return machine
    if isinstance(machine, bool):
        raise TypeError(f"machine spec cannot be a bool: {machine!r}")
    if isinstance(machine, int):
        return mesh(machine)
    if isinstance(machine, str):
        try:
            return preset(machine)
        except KeyError as error:
            raise ValueError(str(error)) from None
    raise TypeError(
        "machine must be an int core count, a preset name, or a "
        f"MachineConfig, not {type(machine).__name__}"
    )

