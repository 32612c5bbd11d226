"""The paper's figures, as one table over an :class:`ExperimentRunner`.

Each figure is a function from a runner (the cell engine) and core
counts to a data table.  :data:`FIGURES` maps every figure id to its
default core counts, that function, and its CLI title and renderer;
``repro.run_figure`` and ``cli figure`` both look up the same entry.
A caller's single core count replaces the defaults unless the entry
fixes them (Figures 7-9, 10 and 11).  Figures 10, 11, 13 and scaling
are projections of one speedup grid (:func:`speedup_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..arch.config import mesh
from ..compiler.driver import VoltronCompiler
from ..isa.interp import run_program
from ..sim.machine import VoltronMachine
from ..sim.stats import STALL_CATEGORIES
from ..workloads.suite import build_recipe
from .experiments import SINGLE_STRATEGIES, ExperimentRunner, RunResult
from .reporting import render_bar_breakdown, render_table

#: Every strategy a speedup grid covers by default.
ALL_STRATEGIES = SINGLE_STRATEGIES + ("hybrid",)


def _prefetch(
    runner: ExperimentRunner,
    counts: Sequence[int],
    strategies: Sequence[str],
    baseline: bool = True,
) -> None:
    runner.prefetch(
        ([(name, 1, "baseline") for name in runner.names] if baseline else [])
        + [
            (name, n, strategy)
            for name in runner.names
            for n in counts
            for strategy in strategies
        ]
    )


def speedup_grid(
    runner: ExperimentRunner,
    cores: Sequence[int] = (4, 16, 32),
    strategies: Sequence[str] = ALL_STRATEGIES,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Per-benchmark speedup over the 1-core baseline,
    ``{name: {cores: {strategy: x}}}``.  With the defaults this is the
    scaling table: which strategies keep scaling on 16/32-core meshes
    (statistical LLP regions with wide DOALL loops) and which saturate
    (ILP limited by the program's dependence height)."""
    _prefetch(runner, cores, strategies)
    return {
        name: {
            n: {
                strategy: runner.speedup(name, n, strategy)
                for strategy in strategies
            }
            for n in cores
        }
        for name in runner.names
    }


def fig10_11_speedups(
    runner: ExperimentRunner, cores: int = 4
) -> Dict[str, Dict[str, float]]:
    """Figure 10 (2 cores) / Figure 11 (4 cores): per-benchmark speedup
    when exploiting each parallelism type individually."""
    grid = speedup_grid(runner, (cores,), SINGLE_STRATEGIES)
    return {name: row[cores] for name, row in grid.items()}


def fig13_hybrid(
    runner: ExperimentRunner, cores: Sequence[int] = (2, 4)
) -> Dict[str, Dict[int, float]]:
    """Figure 13: hybrid speedups on 2- and 4-core Voltron (or any
    other set of core counts, e.g. ``(16, 32)`` for scaled meshes)."""
    grid = speedup_grid(runner, cores, ("hybrid",))
    return {
        name: {n: speedups["hybrid"] for n, speedups in row.items()}
        for name, row in grid.items()
    }


def fig12_stalls(
    runner: ExperimentRunner, cores: int = 4
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 12: stall cycles (per-core mean) under coupled-mode ILP
    vs decoupled fine-grain TLP, normalized to serial execution time."""
    _prefetch(runner, (cores,), ("ilp", "tlp"))
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in runner.names:
        serial = runner.baseline(name).cycles
        row: Dict[str, Dict[str, float]] = {}
        for strategy, label in (("ilp", "coupled"), ("tlp", "decoupled")):
            stats = runner.run(name, cores, strategy).stats
            row[label] = {
                category: stats.mean_stalls(category) / serial
                for category in STALL_CATEGORIES
            }
        table[name] = row
    return table


def fig14_mode_time(
    runner: ExperimentRunner, cores: int = 4
) -> Dict[str, Dict[str, float]]:
    """Figure 14: fraction of hybrid execution spent in each mode."""
    _prefetch(runner, (cores,), ("hybrid",), baseline=False)
    table = {}
    for name in runner.names:
        stats = runner.run(name, cores, "hybrid").stats
        table[name] = {
            "coupled": stats.mode_fraction("coupled"),
            "decoupled": stats.mode_fraction("decoupled"),
        }
    return table


def fig3_breakdown(
    runner: ExperimentRunner, cores: int = 4
) -> Dict[str, Dict[str, float]]:
    """Figure 3: fraction of serial execution best accelerated by each
    parallelism type on a 4-core system.

    Methodology mirrors the paper: each region is timed under each
    single-strategy compilation; the region's serial-time fraction is
    attributed to the type that ran it fastest (or to "single core"
    when no strategy beats the baseline)."""
    _prefetch(runner, (cores,), SINGLE_STRATEGIES)
    table: Dict[str, Dict[str, float]] = {}
    for name in runner.names:
        base_groups = _group_cycles(runner.baseline(name))
        total = sum(base_groups.values()) or 1
        strategy_groups = {
            strategy: _group_cycles(runner.run(name, cores, strategy))
            for strategy in SINGLE_STRATEGIES
        }
        fractions = {"ilp": 0.0, "tlp": 0.0, "llp": 0.0, "single": 0.0}
        for origin, serial_cycles in base_groups.items():
            times = {
                strategy: groups.get(origin, serial_cycles)
                for strategy, groups in strategy_groups.items()
            }
            best_strategy = min(times, key=lambda s: times[s])
            weight = serial_cycles / total
            if times[best_strategy] < serial_cycles:
                fractions[best_strategy] += weight
            else:
                fractions["single"] += weight
        table[name] = fractions
    return table


def _group_cycles(result: RunResult) -> Dict[str, int]:
    """Aggregate block cycles by original region label."""
    groups: Dict[str, int] = {}
    for (function, label), cycles in result.stats.block_cycles.items():
        descriptor = result.region_table.get((function, label))
        origin = descriptor["origin"] if descriptor else label
        key = f"{function}:{origin}"
        groups[key] = groups.get(key, 0) + cycles
    return groups


def figure7_9_examples() -> Dict[str, float]:
    """Paper Sections 4.2 examples: measured 2-core speedups for the
    Fig. 7 (DOALL), Fig. 8 (strands), and Fig. 9 (ILP) loop shapes,
    computed from the kernels that embody them (no suite benchmark, so
    no runner)."""
    results = {}
    for label, kernel, kwargs, strategy in (
        ("fig7_gsm_llp", "doall", {"trips": 256, "work": 3}, "llp"),
        ("fig8_gzip_strands", "match", {"length": 320}, "tlp"),
        (
            "fig9_gsm_ilp",
            "ilp",
            # The paper's Fig. 9 filter: four independent multiply
            # chains (no cross-chain shuffle), compiled coupled.
            {"trips": 200, "chains": 4, "depth": 5, "shuffle": False},
            "ilp",
        ),
    ):
        bench = build_recipe(((kernel, kwargs),), label, data_seed=7)
        program, (out,) = bench.program, bench.outputs
        reference = run_program(program)
        compiler = VoltronCompiler(program)
        base_machine = VoltronMachine(
            compiler.compile("baseline", mesh(1)), mesh(1)
        )
        base = base_machine.run().cycles
        config = mesh(2)
        machine = VoltronMachine(compiler.compile(strategy, config), config)
        cycles = machine.run().cycles
        assert machine.array_values(out) == reference.array_values(
            program, out
        )
        results[label] = base / cycles
    return results


# -- CLI renderers: (title, table, core counts) -> text ----------------------


def _at(compute):
    """A single-count figure function as a ``(runner, counts)`` one."""
    return lambda runner, counts: compute(runner, counts[0])


def _columns(render, columns: Sequence[str]):
    """A renderer drawing ``columns`` of a single-count table."""
    return lambda title, table, counts: render(
        title.format(n=counts[0]), table, columns=columns
    )


def _render_examples(title: str, table: Dict, counts: Tuple[int, ...]) -> str:
    return "\n".join(f"{label:22s} {value:.2f}x" for label, value in table.items())


def _render_stalls(title: str, table: Dict, counts: Tuple[int, ...]) -> str:
    flat = {
        f"{name} [{mode[:3]}]": row[mode]
        for name, row in table.items()
        for mode in ("coupled", "decoupled")
    }
    return render_table(
        title.format(n=counts[0]),
        flat,
        columns=("istall", "dstall", "recv_data", "recv_pred", "call_sync"),
        fmt="{:.3f}",
        average_row=False,
    )


def _render_hybrid(title: str, table: Dict, counts: Tuple[int, ...]) -> str:
    rows = {
        name: {f"{c}core": row[c] for c in counts} for name, row in table.items()
    }
    return render_table(title, rows, columns=tuple(f"{c}core" for c in counts))


def _render_scaling(title: str, table: Dict, counts: Tuple[int, ...]) -> str:
    return "\n".join(
        render_table(
            title.format(n=count),
            {name: row[count] for name, row in table.items()},
            columns=ALL_STRATEGIES,
        )
        for count in counts
    )


@dataclass(frozen=True)
class Figure:
    """One figure: its default core counts, the function computing its
    table from ``(runner, counts)``, and its CLI title (``{n}`` is the
    core count drawn) and renderer."""

    cores: Tuple[int, ...]
    compute: Callable[[ExperimentRunner, Tuple[int, ...]], Dict]
    title: str
    render: Callable[[str, Dict, Tuple[int, ...]], str]
    #: The core counts define the figure (10 is the 2-core one), so a
    #: caller's count does not replace them.
    fixed: bool = False

    def counts(self, cores: Optional[int] = None) -> Tuple[int, ...]:
        return self.cores if cores is None or self.fixed else (cores,)


FIGURES: Dict[str, Figure] = {
    "3": Figure(
        (4,), _at(fig3_breakdown), "Figure 3: parallelism breakdown ({n} cores)",
        _columns(render_bar_breakdown, ("ilp", "tlp", "llp", "single")),
    ),
    "7-9": Figure(
        (2,), lambda runner, counts: figure7_9_examples(), "", _render_examples,
        fixed=True,
    ),
    "10": Figure(
        (2,), _at(fig10_11_speedups), "Figure 10: {n}-core speedups per type",
        _columns(render_table, SINGLE_STRATEGIES), fixed=True,
    ),
    "11": Figure(
        (4,), _at(fig10_11_speedups), "Figure 11: {n}-core speedups per type",
        _columns(render_table, SINGLE_STRATEGIES), fixed=True,
    ),
    "12": Figure(
        (4,), _at(fig12_stalls), "Figure 12: stalls / serial time ({n} cores)",
        _render_stalls,
    ),
    "13": Figure((2, 4), fig13_hybrid, "Figure 13: hybrid speedups", _render_hybrid),
    "14": Figure(
        (4,), _at(fig14_mode_time),
        "Figure 14: time per execution mode (hybrid, {n} cores)",
        _columns(render_bar_breakdown, ("coupled", "decoupled")),
    ),
    "scaling": Figure(
        (4, 16, 32), speedup_grid, "Scaling: {n}-core speedups per strategy",
        _render_scaling,
    ),
}


def figure_table(
    figure: str, runner: ExperimentRunner, cores: Optional[int] = None
) -> Dict:
    """Figure ``figure``'s data table over ``runner``; ``cores``
    replaces its default core counts unless the figure fixes them."""
    entry = FIGURES[figure]
    return entry.compute(runner, entry.counts(cores))


def render_figure(
    figure: str, runner: ExperimentRunner, cores: Optional[int] = None
) -> str:
    """Figure ``figure`` as the CLI prints it."""
    entry = FIGURES[figure]
    counts = entry.counts(cores)
    return entry.render(entry.title, entry.compute(runner, counts), counts)
