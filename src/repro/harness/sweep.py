"""Design-space sweep driver: machine configs x workloads -> Pareto JSON.

The paper evaluates one machine shape per core count; this driver
explores the surrounding hardware design space.  A :class:`SweepSpec`
crosses up to seven machine axes -- mesh size (core count), coherence
protocol, operand-queue policy, operand-queue depth, queue-mode hop
latency, memory latency, and the TM commit budget -- against any mix of
named and generated workloads, runs every cell
through the cached parallel :class:`~repro.harness.experiments.ExperimentRunner`
(one runner per machine point, all sharing one content-hash result
cache, so a re-sweep only simulates what changed), and reduces the
results to per-strategy Pareto frontiers.

Dominance is resource-aware rather than scalarized: machine point A
dominates B for a strategy when A's geomean speedup is at least B's
while A spends no more of any *resource* (cores, queue entries) and
enjoys no better *penalty* figure (hop latency, memory latency, TM
commit cost) -- i.e. A performs at least as well on hardware that is no
more expensive in any dimension, strictly better somewhere.
*Categorical* axes (coherence protocol, queue policy) have no price
tag, so dominance additionally requires category equality and each
category contributes its own slice of the frontier.  The
surviving points are the interesting cost/performance trade-offs, and
the whole result (every point + the frontiers) serializes to one JSON
artifact for CI upload or notebook analysis.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .experiments import ExperimentRunner, FailureSummary
from .figures import speedup_grid
from .journal import RunJournal, flush_on_signals
from .reporting import geomean

#: Artifact schema: bump the major on breaking layout changes.
#: 1.1 added the categorical ``coherence``/``queue_policy`` machine axes;
#: 1.2 the ``failures`` record and the cache's ``quarantined`` count.
SWEEP_SCHEMA_VERSION = "1.2"

#: Machine axes and their dominance direction.  ``resource`` axes are
#: hardware you pay for (less is cheaper); ``penalty`` axes are
#: slowness you suffer (more is cheaper hardware); ``categorical``
#: axes (coherence protocol, queue policy) have no cost ordering, so
#: dominance requires equality -- each category keeps its own frontier.
AXIS_KINDS: Dict[str, str] = {
    "cores": "resource",
    "coherence": "categorical",
    "queue_policy": "categorical",
    "queue_depth": "resource",
    "queue_cycles_per_hop": "penalty",
    "memory_latency": "penalty",
    "tm_commit_latency": "penalty",
}

#: Axis name -> MachineConfig override key (cores shapes the mesh
#: preset instead of overriding a field).
_OVERRIDE_AXES = (
    "coherence",
    "queue_policy",
    "queue_depth",
    "queue_cycles_per_hop",
    "memory_latency",
    "tm_commit_latency",
)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: workloads x strategies x machine axes."""

    workloads: Tuple[str, ...]
    strategies: Tuple[str, ...] = ("ilp", "tlp", "llp", "hybrid")
    cores: Tuple[int, ...] = (2, 4)
    coherences: Tuple[str, ...] = ("snoop",)
    queue_policies: Tuple[str, ...] = ("pair",)
    queue_depths: Tuple[int, ...] = (16,)
    queue_cycles_per_hop: Tuple[int, ...] = (1,)
    memory_latencies: Tuple[int, ...] = (100,)
    tm_commit_latencies: Tuple[int, ...] = (4,)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload")
        for name, values in self.axes().items():
            if not values:
                raise ValueError(f"axis {name} has no values")

    def axes(self) -> Dict[str, Tuple[object, ...]]:
        """Axis name -> swept values, in canonical order."""
        return {
            "cores": self.cores,
            "coherence": self.coherences,
            "queue_policy": self.queue_policies,
            "queue_depth": self.queue_depths,
            "queue_cycles_per_hop": self.queue_cycles_per_hop,
            "memory_latency": self.memory_latencies,
            "tm_commit_latency": self.tm_commit_latencies,
        }

    def varied_axes(self) -> List[str]:
        """Axes with more than one value (the sweep's real dimensions)."""
        return [name for name, values in self.axes().items() if len(values) > 1]

    def machine_points(self) -> List[Dict[str, object]]:
        """Every machine configuration in the cross product, as flat
        ``{axis: value}`` mappings."""
        names = list(self.axes())
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes().values())
        ]


@dataclass
class SweepPoint:
    """One (machine point, strategy) result, aggregated over workloads."""

    machine: Dict[str, object]
    strategy: str
    #: Per-workload speedup over the same machine point's 1-core baseline.
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Per-workload simulated cycles.
    cycles: Dict[str, int] = field(default_factory=dict)
    geomean_speedup: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "strategy": self.strategy,
            "speedups": self.speedups,
            "cycles": self.cycles,
            "geomean_speedup": self.geomean_speedup,
        }


def dominates(a: SweepPoint, b: SweepPoint) -> bool:
    """Resource-aware Pareto dominance (same strategy assumed)."""
    if a.geomean_speedup < b.geomean_speedup:
        return False
    strictly_better = a.geomean_speedup > b.geomean_speedup
    for axis, kind in AXIS_KINDS.items():
        va, vb = a.machine[axis], b.machine[axis]
        if kind == "categorical":
            # No cost ordering between protocols/policies: points only
            # compete within the same category.
            if va != vb:
                return False
        elif kind == "resource":
            if va > vb:
                return False
            strictly_better = strictly_better or va < vb
        else:  # penalty: tolerating more latency = cheaper hardware
            if va < vb:
                return False
            strictly_better = strictly_better or va > vb
    return strictly_better


def pareto_frontier(points: Sequence[SweepPoint]) -> List[int]:
    """Indices (into ``points``) of the non-dominated set, stable order."""
    return [
        index
        for index, point in enumerate(points)
        if not any(
            dominates(other, point)
            for j, other in enumerate(points)
            if j != index
        )
    ]


def run_sweep(
    spec: SweepSpec,
    *,
    seed: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> Dict[str, object]:
    """Execute the sweep and assemble the JSON-ready result document.

    One :class:`ExperimentRunner` per distinct override combination (so
    every core count at that point shares the runner's builds and the
    1-core baseline), all pointed at the same ``cache_dir``.  Returns::

        {
          "schema_version": ..., "spec": {...}, "axes": {...},
          "points": [SweepPoint...],             # every cell, aggregated
          "frontiers": {strategy: [point index...]},
          "cache": {"hits": ..., "misses": ..., "quarantined": ...},
          "failures": {FailureSummary fields..., "attempts": [...]},
          "journal": {...},                      # only when journaling
        }

    ``failures`` sums what every runner's hardened prefetch absorbed
    (worker crashes, timeouts, retries, serial re-runs, abandoned
    cells); ``attempts`` lists the attempt count of each cell that
    needed more than one.

    With ``journal=`` every runner writes through one shared write-ahead
    :class:`RunJournal` (content-hash keys disambiguate cells across
    machine points), SIGTERM/SIGINT flush it before exit, and
    ``resume=True`` replays an interrupted journal against the result
    cache so only cells without a durable ``completed`` record are
    re-dispatched -- the resumed document is identical to an
    uninterrupted sweep's modulo the ``cache``/``failures``/``journal``
    tallies (each describes its own session).
    """
    axes = spec.axes()
    override_combos = [
        dict(zip(_OVERRIDE_AXES, combo))
        for combo in itertools.product(
            *(axes[name] for name in _OVERRIDE_AXES)
        )
    ]
    run_journal: Optional[RunJournal] = None
    if journal is not None:
        run_journal = RunJournal(
            journal, resume=resume, context={"driver": "sweep"}
        )
    points: List[SweepPoint] = []
    cache = {"hits": 0, "misses": 0, "quarantined": 0}
    failures = FailureSummary()
    attempts: List[int] = []
    journal_stats = {"replayed": 0, "rerun": 0, "abandoned": 0}
    try:
        with flush_on_signals(run_journal):
            for overrides in override_combos:
                runner = ExperimentRunner(
                    benchmarks=list(spec.workloads),
                    seed=seed,
                    cache_dir=cache_dir,
                    jobs=jobs,
                    cell_timeout=cell_timeout,
                    config_overrides=overrides,
                    journal=run_journal,
                )
                grid = speedup_grid(runner, spec.cores, spec.strategies)
                for n_cores in spec.cores:
                    for strategy in spec.strategies:
                        point = SweepPoint(
                            machine={"cores": n_cores, **overrides},
                            strategy=strategy,
                        )
                        for name in spec.workloads:
                            point.cycles[name] = runner.run(
                                name, n_cores, strategy
                            ).cycles
                            point.speedups[name] = grid[name][n_cores][strategy]
                        point.geomean_speedup = geomean(
                            list(point.speedups.values())
                        )
                        points.append(point)
                if runner.cache is not None:
                    for stat, value in runner.cache.tallies.items():
                        cache[stat] += value
                absorbed = runner.failure_summary()
                for name, value in vars(absorbed).items():
                    setattr(failures, name, getattr(failures, name) + value)
                attempts.extend(
                    count for count in runner.lifecycle.attempts.values()
                    if count > 1
                )
                for stat, value in runner.journal_stats.items():
                    journal_stats[stat] += value
    finally:
        if run_journal is not None:
            run_journal.close()
    frontiers = {
        strategy: [
            by_strategy[local]
            for local in pareto_frontier(
                [points[i] for i in by_strategy]
            )
        ]
        for strategy, by_strategy in _indices_by_strategy(points).items()
    }
    document = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "spec": {
            "workloads": list(spec.workloads),
            "strategies": list(spec.strategies),
        },
        "axes": {name: list(values) for name, values in axes.items()},
        "varied_axes": spec.varied_axes(),
        "points": [point.to_dict() for point in points],
        "frontiers": frontiers,
        "cache": cache,
        "failures": {**dataclasses.asdict(failures), "attempts": attempts},
    }
    if run_journal is not None:
        document["journal"] = {
            "path": str(run_journal.path),
            "resumed": run_journal.replay is not None,
            **journal_stats,
        }
    return document


def _indices_by_strategy(points: Sequence[SweepPoint]) -> Dict[str, List[int]]:
    table: Dict[str, List[int]] = {}
    for index, point in enumerate(points):
        table.setdefault(point.strategy, []).append(index)
    return table


def write_sweep(document: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write one sweep document as the JSON artifact CI uploads."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return path


def render_frontiers(document: Dict[str, object]) -> str:
    """Human summary of a sweep document's Pareto frontiers."""
    points = document["points"]
    lines = [
        f"sweep     : {len(points)} points over axes "
        + ", ".join(document["varied_axes"] or ["(none varied)"])
    ]
    for strategy, indices in sorted(document["frontiers"].items()):
        lines.append(f"frontier [{strategy}] ({len(indices)} points):")
        for index in indices:
            point = points[index]
            machine = point["machine"]
            shape = " ".join(f"{k}={v}" for k, v in machine.items())
            lines.append(
                f"  {point['geomean_speedup']:6.2f}x  {shape}"
            )
    return "\n".join(lines)
