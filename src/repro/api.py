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

These signatures are the compatibility contract: the canonical machine
spelling is ``machine=`` everywhere -- an int core count, a preset name
(``"mesh16"``, ``"mesh32-directory"``, see :func:`list_presets`), or a
full :class:`~repro.arch.MachineConfig`.  The former ``cores=`` keyword
still works with a ``DeprecationWarning`` (passing both spellings is a
``TypeError``), following the same migration pattern as the retired
``n_cores=`` / ``name=`` / ``fault_config=`` aliases.  ``faults=`` is
canonical for fault configs, and serialized results carry
``schema_version`` (see
:data:`repro.harness.experiments.SCHEMA_VERSION`).
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .arch.config import (
    MachineSpec,
    machine_overrides,
    resolve_machine,
)
from .arch.config import list_presets as _arch_list_presets
from .compiler.driver import VoltronCompiler
from .harness.experiments import ExperimentRunner, RunResult
from .sim.faults import FaultConfig
from .workloads.generator import GenKnobs, generate_handles, make_handle
from .workloads.suite import BENCHMARKS, build

#: Figure identifiers accepted by :func:`run_figure`.  ``"3"``-``"14"``
#: reproduce the paper; ``"scaling"`` is this repo's extension column
#: set (speedups at 4/16/32 cores for every strategy).
FIGURES = ("3", "7-9", "10", "11", "12", "13", "14", "scaling")

#: Sentinel distinguishing "not passed" from any real value in the
#: machine=/cores= deprecation shims.
_UNSET = object()


def _machine_arg(caller, machine, cores, *, default=None):
    """Resolve the ``machine=``/deprecated ``cores=`` pair one way.

    Exactly mirrors the PR 3/4 kwarg-unification pattern: both
    spellings together is a :class:`TypeError`, ``cores=`` alone warns
    and is honored, and a missing spec falls back to ``default`` (or
    raises when there is none).
    """
    if cores is not _UNSET:
        if machine is not _UNSET:
            raise TypeError(
                f"{caller}() got both 'machine' and the deprecated "
                "'cores'; pass only machine="
            )
        warnings.warn(
            f"{caller}(cores=...) is deprecated; pass machine= "
            "(a core count, preset name, or MachineConfig)",
            DeprecationWarning,
            stacklevel=3,
        )
        machine = cores
    if machine is _UNSET:
        if default is None:
            raise TypeError(
                f"{caller}() needs a machine spec: pass machine="
            )
        machine = default
    return resolve_machine(machine)


def list_presets() -> List[str]:
    """Names accepted wherever ``machine=`` takes a preset string:
    ``single``/``two``/``four``/``mesh16``/``mesh32``/``mesh64``, each
    also in ``-snoop``/``-directory`` coherence variants."""
    return _arch_list_presets()


def list_benchmarks(
    *,
    generated: int = 0,
    gen_seed: int = 1,
    knobs: Optional[GenKnobs] = None,
) -> List[str]:
    """Names of the benchmark suite, in canonical order.

    With ``generated=N`` the list additionally surfaces N generated
    workload handles (``gen:<seed>:<knobs-hash>`` for consecutive seeds
    starting at ``gen_seed``), interchangeable with named benchmarks in
    every ``benchmark=`` slot of this API, the CLI, and the result
    cache.  ``knobs`` selects a custom generator configuration
    (registered as a side effect so the returned handles resolve).
    """
    names = list(BENCHMARKS)
    if generated:
        names.extend(generate_handles(generated, gen_seed, knobs))
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
    benchmark: str,
    machine: MachineSpec = _UNSET,
    strategy: str = "hybrid",
    *,
    seed: int = 1,
    cores=_UNSET,
):
    """Build one benchmark and compile it for a machine spec.

    ``machine`` is an int core count, a preset name, or a full
    :class:`~repro.arch.MachineConfig` (default: the 4-core mesh).
    Returns the :class:`~repro.isa.machinecode.CompiledProgram` -- useful
    for inspecting per-core instruction streams or constructing a
    :class:`~repro.sim.machine.VoltronMachine` directly.
    """
    config = _machine_arg("compile_benchmark", machine, cores, default=4)
    bench = build(benchmark, seed)
    return VoltronCompiler(bench.program).compile(strategy, config)


def verify_benchmark(
    benchmark: str,
    machine: MachineSpec = _UNSET,
    strategy: str = "hybrid",
    *,
    seed: int = 1,
    dynamic: bool = False,
    suppressions: Sequence[str] = (),
    max_cycles: int = 50_000_000,
    cores=_UNSET,
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
    are appended to the same report.

    ``suppressions`` entries name findings to tolerate, as ``kind``,
    ``kind:function``, or ``kind:function:block``.
    """
    from .analysis import RaceSanitizer, verify_compiled
    from .analysis.findings import Finding, match_suppression

    config = _machine_arg("verify_benchmark", machine, cores, default=4)
    bench = build(benchmark, seed)
    compiled = VoltronCompiler(bench.program).compile(strategy, config)
    report = verify_compiled(compiled, config, suppressions)
    report.benchmark = benchmark
    report.strategy = strategy
    if dynamic:
        from .sim.machine import VoltronMachine

        sanitizer = RaceSanitizer()
        machine = VoltronMachine(
            compiled, config, max_cycles=max_cycles, obs=sanitizer
        )
        machine.run()
        report.count("dynamic_accesses", sanitizer.checked_accesses)
        for finding in sanitizer.findings:
            finding.suppressed = match_suppression(finding, suppressions)
            report.add(finding)
        if not machine.network.quiescent():
            leak = Finding(
                kind="message-leak",
                function="<machine>",
                block="<halt>",
                region=0,
                core=None,
                message="messages still queued or in flight after halt "
                "(orphaned SEND reached the network)",
            )
            leak.suppressed = match_suppression(leak, suppressions)
            report.add(leak)
    return report


def session(
    benchmarks: Optional[Sequence[str]] = None,
    *,
    machine: Optional[MachineSpec] = None,
    seed: int = 1,
    max_cycles: int = 50_000_000,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    faults: Optional[FaultConfig] = None,
    config_overrides: Optional[Dict[str, object]] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    heartbeat_timeout: Optional[float] = None,
    backoff_seed: Optional[int] = None,
    max_abandoned: int = 0,
) -> ExperimentRunner:
    """A reusable experiment session (shared builds, cache, worker pool).

    Use this instead of constructing :class:`ExperimentRunner` directly;
    the keyword names here are the stable ones.  ``machine=`` shapes
    every cell the session runs: its non-default knobs (coherence
    protocol, queue policy, latencies, ...) apply at *every* core count
    the session touches -- a session serves figures spanning several
    core counts, so the spec's own core count and mesh shape stay per
    cell.  ``config_overrides`` applies flat machine-config tweaks
    (``queue_depth``, ``queue_cycles_per_hop``, ``memory_latency``,
    ``tm_commit_latency``, ...) on top -- the knob the design-space
    sweep turns; explicit overrides win over ``machine=``-derived ones.

    ``journal=`` arms the crash-safe write-ahead
    :class:`~repro.harness.journal.RunJournal`: one fsynced JSONL record
    per cell lifecycle event, so an interrupted session resumes with
    ``resume=True`` (cells with a durable ``completed`` record replay
    from the cache, bit-identical, with zero re-simulation).
    ``heartbeat_timeout`` arms worker supervision (hung/frozen pool
    workers are detected and retried before their full deadline);
    ``backoff_seed`` pins the deterministic retry-backoff jitter;
    ``max_abandoned`` bounds how many poisoned cells a prefetch absorbs
    as ``abandoned`` before raising.
    """
    if machine is not None:
        derived = machine_overrides(
            resolve_machine(machine), include_shape=False
        )
        config_overrides = {**derived, **(config_overrides or {})} or None
    return ExperimentRunner(
        benchmarks=benchmarks,
        seed=seed,
        max_cycles=max_cycles,
        cache_dir=cache_dir,
        jobs=jobs,
        cell_timeout=cell_timeout,
        faults=faults,
        config_overrides=config_overrides,
        journal=journal,
        resume=resume,
        heartbeat_timeout=heartbeat_timeout,
        backoff_seed=backoff_seed,
        max_abandoned=max_abandoned,
    )


def run_cell(
    benchmark: str,
    machine: MachineSpec = _UNSET,
    strategy: str = "hybrid",
    *,
    faults: Optional[FaultConfig] = None,
    obs=None,
    seed: int = 1,
    max_cycles: int = 50_000_000,
    cache_dir: Optional[Union[str, Path]] = None,
    cores=_UNSET,
) -> RunResult:
    """Simulate one (benchmark, machine, strategy) cell end to end.

    ``machine`` is required: an int core count, a preset name (e.g.
    ``"mesh16-directory"``), or a full
    :class:`~repro.arch.MachineConfig`.  The run is functionally checked
    against the reference interpreter.  Pass an
    :class:`~repro.obs.Observability` bus via ``obs=`` to profile
    the run: the result then carries ``metrics`` (sampled series plus a
    timeline summary reconciled against the machine stats), and the bus
    itself can be exported with :func:`repro.obs.write_trace`.  Profiled
    runs always simulate fresh -- ``cache_dir`` must stay None with
    ``obs`` (cached results cannot carry a cycle-accurate event record).
    """
    config = _machine_arg("run_cell", machine, cores)
    runner = ExperimentRunner(
        benchmarks=[benchmark],
        seed=seed,
        max_cycles=max_cycles,
        cache_dir=None if obs is not None else cache_dir,
        faults=faults,
        obs=obs,
        config_overrides=machine_overrides(config) or None,
    )
    return runner.run(benchmark, config.n_cores, strategy)


def run_figure(
    figure: str,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    machine: Optional[MachineSpec] = None,
    seed: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    faults: Optional[FaultConfig] = None,
    runner: Optional[ExperimentRunner] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    cores=_UNSET,
) -> Dict:
    """Reproduce one paper figure; returns its data table.

    ``figure`` is one of :data:`FIGURES`.  ``machine`` overrides the
    figure's default core count where it has one (figures 3, 12, 13, 14,
    scaling; 10 and 11 fix their own) and applies the spec's non-default
    machine knobs (coherence, queue policy, ...) to every cell.  Pass an
    existing ``runner`` (from :func:`session`) to share builds and cache
    across several figures -- hand the machine spec to the session in
    that case.  ``journal=``/``resume=`` make the figure run crash-safe
    and resumable (see :func:`session`).
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    if cores is not _UNSET and cores is not None:
        if machine is not None:
            raise TypeError(
                "run_figure() got both 'machine' and the deprecated "
                "'cores'; pass only machine="
            )
        warnings.warn(
            "run_figure(cores=...) is deprecated; pass machine=",
            DeprecationWarning,
            stacklevel=2,
        )
        machine = cores
    config = resolve_machine(machine) if machine is not None else None
    overrides = (
        machine_overrides(config, include_shape=False)
        if config is not None
        else {}
    )
    if runner is None:
        runner = session(
            benchmarks,
            seed=seed,
            cache_dir=cache_dir,
            jobs=jobs,
            cell_timeout=cell_timeout,
            faults=faults,
            journal=journal,
            resume=resume,
            config_overrides=overrides or None,
        )
    elif overrides:
        raise ValueError(
            "this machine spec carries config overrides; pass machine= "
            "to session() instead when sharing a runner across figures"
        )
    n = config.n_cores if config is not None else None
    if figure == "3":
        return runner.fig3_breakdown(n if n is not None else 4)
    if figure == "7-9":
        return runner.figure7_9_examples()
    if figure == "10":
        return runner.fig10_11_speedups(2)
    if figure == "11":
        return runner.fig10_11_speedups(4)
    if figure == "12":
        return runner.fig12_stalls(n if n is not None else 4)
    if figure == "13":
        return runner.fig13_hybrid((n,) if n is not None else (2, 4))
    if figure == "scaling":
        return runner.fig_scaling((n,) if n is not None else (4, 16, 32))
    return runner.fig14_mode_time(n if n is not None else 4)


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
    max_cycles: int = 50_000_000,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    out: Optional[Union[str, Path]] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    heartbeat_timeout: Optional[float] = None,
    cores=_UNSET,
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

    if cores is not _UNSET:
        if machines is not None:
            raise TypeError(
                "sweep() got both 'machines' and the deprecated "
                "'cores'; pass only machines="
            )
        warnings.warn(
            "sweep(cores=...) is deprecated; pass machines= (core "
            "counts, preset names, or MachineConfigs)",
            DeprecationWarning,
            stacklevel=2,
        )
        machines = cores
    resolved = [
        resolve_machine(machine)
        for machine in (machines if machines is not None else (2, 4))
    ]
    core_axis = tuple(dict.fromkeys(config.n_cores for config in resolved))
    for config in resolved:
        extra = machine_overrides(config, include_shape=False)
        extra.pop("coherence", None)
        if extra:
            raise ValueError(
                "sweep machine entries may only vary core count and "
                f"coherence; put {sorted(extra)} on the dedicated sweep "
                "axes instead"
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
        max_cycles=max_cycles,
        cache_dir=cache_dir,
        jobs=jobs,
        cell_timeout=cell_timeout,
        journal=journal,
        resume=resume,
        heartbeat_timeout=heartbeat_timeout,
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
