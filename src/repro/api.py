"""The stable public API of the reproduction.

Everything a script, notebook, or test needs lives behind four calls --
no consumer has to reach into harness internals or remember constructor
spellings:

    import repro

    repro.list_benchmarks()
    result = repro.run_cell("gsmdecode", machine=4, strategy="hybrid")
    table = repro.run_figure("13")

Profiling a run attaches an observability bus (see :mod:`repro.obs`):

    from repro.obs import Observability, write_trace

    obs = Observability()
    result = repro.run_cell("rawcaudio", 4, "hybrid", obs=obs)
    write_trace(obs, "trace.json")     # load in ui.perfetto.dev
    result.metrics["timeline"]         # reconciled per-mode summary

These signatures are the compatibility contract, and each keyword
on them is one some caller sets.  The one machine spelling is
``machine=`` everywhere -- an int core count, a preset name
(``"mesh16"``, ``"mesh32-directory"``, see :func:`list_presets`), or a
full :class:`~repro.arch.MachineConfig` -- and serialized results
carry ``schema_version`` (see
:data:`repro.harness.experiments.SCHEMA_VERSION`).

Run settings are spelled once, on the session.  :func:`session` is
:class:`~repro.harness.experiments.ExperimentRunner` itself, whose
docstring lists its keywords (seed, cache, pool, deadline, faults,
journal, resume): a session resolves ``machine=`` and
``config_overrides=`` into one machine template, and simulates each
core count on that template's knobs (at the template's own core count,
on the template as given).  :func:`run_cell` and :func:`run_figure`
take only what picks their cell or figure; a figure under any other
setting runs on ``runner=repro.session(...)``.  Sessions run their pool
work under one liveness rule: ``cell_timeout`` seconds per cell,
counted from the moment a worker task is submitted.  Overdue or crashed
work is retried with exponential backoff, then re-run serially
in-process.

The facade re-implements none of the harness: :func:`run_figure` looks
its figure up in the one figure table
(:data:`repro.harness.figures.FIGURES`, which ``cli figure`` renders),
and :func:`verify_benchmark` runs the same static and dynamic checks as
``cli verify`` (:func:`repro.analysis.verify_cell`).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .arch.config import MachineSpec, list_presets, mesh, resolve_machine
from .compiler.driver import VoltronCompiler
from .harness import figures
from .harness.experiments import ExperimentRunner, RunResult
from .workloads.generator import GenKnobs, generate_handles, make_handle
from .workloads.suite import BENCHMARKS, build

#: Figure identifiers accepted by :func:`run_figure`, in table order
#: (:data:`repro.harness.figures.FIGURES`).  ``"3"``-``"14"`` reproduce
#: the paper; ``"scaling"`` is this repo's extension column set
#: (speedups at 4/16/32 cores for every strategy).
FIGURES = tuple(figures.FIGURES)

#: A reusable experiment session (shared builds, cache, worker pool):
#: the runner itself, under the API's name.
session = ExperimentRunner


def list_benchmarks(*, generated: int = 0, gen_seed: int = 1) -> List[str]:
    """Names of the benchmark suite, in canonical order.

    With ``generated=N`` the list additionally surfaces N generated
    workload handles (``gen:<seed>:<knobs-hash>`` for consecutive seeds
    starting at ``gen_seed``, default knobs), interchangeable with named
    benchmarks in every ``benchmark=`` slot of this API, the CLI, and
    the result cache.  :func:`generate_workload` mints a handle under
    custom knobs.
    """
    names = list(BENCHMARKS)
    if generated:
        names.extend(generate_handles(generated, gen_seed))
    return names


def generate_workload(seed: int = 1, knobs: Optional[GenKnobs] = None) -> str:
    """Mint (and register) the handle of one generated workload.

    The returned ``gen:<seed>:<knobs-hash>`` string is a first-class
    benchmark name: pass it to :func:`run_cell`, :func:`verify_benchmark`,
    :func:`compile_benchmark`, :func:`sweep`, or the CLI.  The handle
    alone pins the program bit-for-bit (generation never consults global
    randomness), so its cache keys are stable across sessions.
    """
    return make_handle(seed, knobs)


def compile_benchmark(
    benchmark: str, machine: MachineSpec = 4, strategy: str = "hybrid"
):
    """Build one benchmark and compile it for a machine spec.

    ``machine`` is an int core count, a preset name, or a full
    :class:`~repro.arch.MachineConfig` (default: the 4-core mesh).
    Returns the :class:`~repro.isa.machinecode.CompiledProgram` -- useful
    for inspecting per-core instruction streams or constructing a
    :class:`~repro.sim.machine.VoltronMachine` directly.
    """
    config = resolve_machine(machine)
    bench = build(benchmark)
    return VoltronCompiler(bench.program).compile(strategy, config)


def verify_benchmark(
    benchmark: str,
    machine: MachineSpec = 4,
    strategy: str = "hybrid",
    *,
    dynamic: bool = False,
):
    """Statically verify one compiled cell's communication structure.

    Runs the voltlint checks (:mod:`repro.analysis`): queue-channel
    balance (orphan SEND = leak, orphan RECV = deadlock), lock-step
    PUT/GET alignment, sync coverage of cross-core memory dependences,
    MODE_SWITCH bracketing, and DOALL speculation brackets.  Returns the
    :class:`~repro.analysis.VerificationReport`; ``report.ok`` is the
    pass/fail verdict and ``report.render()`` the human summary.

    With ``dynamic=True`` the cell is additionally *executed* under the
    race sanitizer (shadow-memory happens-before over cross-core
    accesses); any dynamic race and any message left in a queue at halt
    are appended to the same report.  To tolerate findings, use ``cli
    verify --suppress`` or :func:`repro.analysis.verify_cell`'s
    ``suppressions``.
    """
    from .analysis import verify_cell

    config = resolve_machine(machine)
    compiled = compile_benchmark(benchmark, config, strategy)
    report = verify_cell(compiled, config, dynamic=dynamic)
    report.benchmark = benchmark
    return report


def run_cell(
    benchmark: str,
    machine: MachineSpec,
    strategy: str = "hybrid",
    *,
    obs=None,
) -> RunResult:
    """Simulate one (benchmark, machine, strategy) cell end to end.

    ``machine`` is required: an int core count, a preset name (e.g.
    ``"mesh16-directory"``), or a full
    :class:`~repro.arch.MachineConfig`.  The run is functionally checked
    against the reference interpreter.  Pass an
    :class:`~repro.obs.Observability` bus via ``obs=`` to profile
    the run: the result then carries ``metrics`` (sampled series plus a
    timeline summary reconciled against the machine stats), and the bus
    itself can be exported with :func:`repro.obs.write_trace`.  The cell
    always simulates fresh and uncached; a cell under a cache, faults or
    another seed runs on a :func:`session`.
    """
    config = resolve_machine(machine)
    runner = ExperimentRunner(benchmarks=[benchmark], machine=config, obs=obs)
    return runner.run(benchmark, config.n_cores, strategy)


def run_figure(
    figure: str,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict:
    """Reproduce one paper figure at its own core counts; returns its
    data table.

    ``figure`` is one of :data:`FIGURES`.  Without ``runner`` the figure
    runs on a fresh default session over ``benchmarks`` (default: the
    whole suite).  Pass an existing ``runner`` (from :func:`session`,
    which then supplies the benchmarks) to share builds and cache across
    several figures, or to run under a machine, seed, cache, pool,
    faults or journal: each is a keyword of the session.
    :func:`repro.harness.figures.figure_table` also moves a figure's
    core counts, as ``cli figure --machine`` does.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    if runner is None:
        runner = session(benchmarks)
    return figures.figure_table(figure, runner)


def sweep(
    workloads: Sequence[str],
    *,
    machines: Optional[Sequence[MachineSpec]] = None,
    strategies: Sequence[str] = ("ilp", "tlp", "llp", "hybrid"),
    coherences: Optional[Sequence[str]] = None,
    queue_policies: Sequence[str] = ("pair",),
    queue_depths: Sequence[int] = (16,),
    queue_cycles_per_hop: Sequence[int] = (1,),
    memory_latencies: Sequence[int] = (100,),
    tm_commit_latencies: Sequence[int] = (4,),
    seed: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    out: Optional[Union[str, Path]] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> Dict:
    """Sweep machine configurations across workloads; Pareto per strategy.

    ``workloads`` mixes named benchmarks and generated handles freely.
    ``machines`` spans the mesh-size axis: each entry is an int core
    count, a preset name, or a :class:`~repro.arch.MachineConfig`
    (default ``(2, 4)``, the paper's grid); entries naming a coherence
    variant seed the coherence axis unless ``coherences=`` pins it
    explicitly.  The machine axes (mesh size, coherence protocol,
    operand-queue policy and depth, queue-mode hop latency, memory
    latency, TM commit budget) are crossed into a full grid; every
    (workload, machine, strategy) cell runs through the cached parallel
    runner, so repeated sweeps only simulate new points.  Returns the
    sweep document (see :mod:`repro.harness.sweep` for the schema) and,
    with ``out=``, writes it as a JSON artifact.

    ``journal=`` makes the sweep crash-safe: every cell's lifecycle is
    write-ahead journaled (fsynced JSONL), Ctrl-C/SIGTERM flush before
    exit, and ``resume=True`` replays an interrupted sweep so only
    cells without a durable ``completed`` record re-simulate; the
    resulting Pareto document matches an uninterrupted sweep's.
    """
    from .harness.sweep import SweepSpec, run_sweep, write_sweep

    resolved = [
        resolve_machine(machine)
        for machine in (machines if machines is not None else (2, 4))
    ]
    core_axis = tuple(dict.fromkeys(config.n_cores for config in resolved))
    for config in resolved:
        if replace(config, coherence="snoop") != mesh(config.n_cores):
            raise ValueError(
                "sweep machine entries may only vary core count and "
                f"coherence; the {config.n_cores}-core entry's other knobs "
                "belong on the dedicated sweep axes"
            )
    if coherences is None:
        coherences = tuple(
            dict.fromkeys(config.coherence for config in resolved)
        )
    spec = SweepSpec(
        workloads=tuple(workloads),
        strategies=tuple(strategies),
        cores=core_axis,
        coherences=tuple(coherences),
        queue_policies=tuple(queue_policies),
        queue_depths=tuple(queue_depths),
        queue_cycles_per_hop=tuple(queue_cycles_per_hop),
        memory_latencies=tuple(memory_latencies),
        tm_commit_latencies=tuple(tm_commit_latencies),
    )
    document = run_sweep(
        spec,
        seed=seed,
        cache_dir=cache_dir,
        jobs=jobs,
        cell_timeout=cell_timeout,
        journal=journal,
        resume=resume,
    )
    if out is not None:
        write_sweep(document, out)
    return document


__all__ = [
    "FIGURES",
    "RunResult",
    "compile_benchmark",
    "generate_workload",
    "list_benchmarks",
    "list_presets",
    "run_cell",
    "run_figure",
    "session",
    "sweep",
    "verify_benchmark",
]
