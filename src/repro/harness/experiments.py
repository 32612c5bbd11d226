"""The cell engine: build, compile, simulate, check, and cache cells.

A cell is one (benchmark, cores, strategy) simulation.  Every cell is
functionally checked against the reference interpreter (a run with
wrong output arrays is a harness failure, not a data point), and
results are memoized per cell so several figures can share runs.  The
figures themselves are functions over a runner
(:mod:`repro.harness.figures`); this module only runs cells, through
:meth:`ExperimentRunner.run` and :meth:`ExperimentRunner.prefetch`.

Two optional layers speed up suite-scale experiments:

* ``cache_dir`` enables the on-disk :class:`~repro.harness.cache.ResultCache`
  (content-hash keyed, stable across processes), so repeated figure runs
  re-simulate only what changed;
* ``jobs > 1`` fans independent cells out to a ``ProcessPoolExecutor``;
  every figure prefetches its cell list through the pool before
  assembling the table.

The parallel path is hardened against a hostile environment.  Worker
liveness has one mechanism: a wall-clock deadline per task
(``cell_timeout`` per cell) that starts when the task is submitted, and
a round never has more tasks in flight than ``jobs``.  Overdue tasks are
retried in a fresh pool after a plain exponential backoff, up to
``RETRIES`` rounds; a broken pool (a worker killed by the OOM killer, a
segfault, an ``os._exit``) degrades the remaining work to an in-process
serial re-run instead of aborting the figure; and everything that went
wrong is tallied in a :class:`FailureSummary` the reporting layer
renders.

Every cell lifecycle event (planned, dispatched, completed, failed,
abandoned) goes through one method, which applies it to the runner's
live :class:`~repro.harness.journal.JournalReplay` state table and
appends it to the write-ahead journal when there is one.

An optional :class:`~repro.sim.faults.FaultConfig` runs every simulation
under deterministic fault injection (chaos mode).  The functional check
against the reference interpreter still applies -- faults must perturb
timing, never results -- so a chaos figure run doubles as a whole-suite
differential test.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..arch.config import MachineConfig, MachineSpec, apply_overrides, mesh, resolve_machine
from ..compiler.driver import VoltronCompiler
# ``run_program`` and ``reference_key`` are looked up on this module by
# name: the performance ledger wraps both to attribute the reference run
# and key rendering to their spans.
from ..isa.interp import run_program
from ..isa.registers import Value
from ..sim.faults import FaultConfig, FaultPlan
from ..sim.machine import VoltronMachine
from ..sim.stats import MachineStats
from ..workloads.suite import BENCHMARKS, Benchmark, build
from .cache import ProgramKey, ResultCache, cache_key, reference_key
from .journal import JournalReplay, RunJournal

#: Strategies evaluated per figure.
SINGLE_STRATEGIES = ("ilp", "tlp", "llp")

#: One simulation cell: (benchmark, n_cores, strategy).
Cell = Tuple[str, int, str]

#: Result-schema version carried by every serialized RunResult.  The
#: major is a compatibility contract: ``from_dict`` rejects payloads
#: from a different major (or from before versioning existed).  3.0:
#: added schema_version itself and the optional observability metrics.
SCHEMA_VERSION = "3.0"


@dataclass
class RunResult:
    benchmark: str
    n_cores: int
    strategy: str
    cycles: int
    stats: MachineStats
    correct: bool
    #: (function, machine label) -> region descriptor (rid/strategy/origin).
    region_table: Dict[Tuple[str, str], Dict[str, object]]
    #: Observability payload (series + reconciled timeline) when the run
    #: was profiled via ``obs=``; None for ordinary runs.
    metrics: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "n_cores": self.n_cores,
            "strategy": self.strategy,
            "cycles": self.cycles,
            "stats": self.stats.to_dict(),
            "correct": self.correct,
            "region_table": [
                [function, label, descriptor]
                for (function, label), descriptor in self.region_table.items()
            ],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        version = data.get("schema_version")
        major = str(version).split(".", 1)[0] if version is not None else None
        if major != SCHEMA_VERSION.split(".", 1)[0]:
            raise ValueError(
                f"unsupported RunResult schema_version {version!r} "
                f"(this release reads major {SCHEMA_VERSION.split('.')[0]})"
            )
        return cls(
            benchmark=data["benchmark"],
            n_cores=data["n_cores"],
            strategy=data["strategy"],
            cycles=data["cycles"],
            stats=MachineStats.from_dict(data["stats"]),
            correct=data["correct"],
            region_table={
                (function, label): descriptor
                for function, label, descriptor in data["region_table"]
            },
            metrics=data.get("metrics"),
        )


@dataclass
class FailureSummary:
    """What went wrong (and was absorbed) during a hardened prefetch.

    ``timed_out``/``retried``/``degraded`` hold human-readable cell or
    benchmark labels; ``worker_crashes`` counts pool breakages.  A clean
    run leaves every field empty -- ``any()`` gates the report line."""

    timed_out: List[str] = field(default_factory=list)
    retried: List[str] = field(default_factory=list)
    degraded: List[str] = field(default_factory=list)
    worker_crashes: int = 0
    #: Cache entries moved aside as unreadable (mirrors
    #: ``ResultCache.quarantined``; synced by ``failure_summary``).
    cache_quarantined: int = 0
    #: Cells given up on entirely (their serial run failed); the journal
    #: records them as ``abandoned``.
    abandoned: List[str] = field(default_factory=list)

    def any(self) -> bool:
        return bool(
            self.timed_out
            or self.retried
            or self.degraded
            or self.worker_crashes
            or self.cache_quarantined
            or self.abandoned
        )


def _cell_label(name: str, n_cores: int, strategy: str) -> str:
    return f"{name}[{n_cores}-{strategy}]"


#: Pool rounds after the first before the leftovers degrade to serial.
RETRIES = 2
#: Seconds slept before retry round r: ``RETRY_BACKOFF_S * 2 ** (r - 1)``.
RETRY_BACKOFF_S = 0.25


@dataclass(frozen=True)
class WorkerTask:
    """One pool task: a benchmark's cells plus everything a fresh
    worker-side runner needs to reproduce the driver's cache keys."""

    benchmark: str
    cells: Tuple[Tuple[int, str], ...]
    seed: int
    max_cycles: int
    cache_dir: Optional[str]
    faults: Optional[FaultConfig]
    machine: MachineConfig

    def cell_list(self) -> List[Cell]:
        return [(self.benchmark, n_cores, s) for n_cores, s in self.cells]


def _run_cells_worker(task: WorkerTask) -> List[Dict[str, object]]:
    """Pool worker: simulate one benchmark's cells in a fresh runner and
    hand the results back as plain dicts (JSON-safe, cheap to pickle).
    The fan-out unit is a benchmark, not a cell, so the build, the
    compiler, and the reference-interpreter run are paid once per worker
    task instead of once per (cores, strategy) point.  Top-level so
    ProcessPoolExecutor can address it by qualified name."""
    runner = ExperimentRunner(
        benchmarks=[task.benchmark],
        seed=task.seed,
        max_cycles=task.max_cycles,
        cache_dir=task.cache_dir,
        faults=task.faults,
        machine=task.machine,
    )
    return [
        runner.run(task.benchmark, n_cores, strategy).to_dict()
        for n_cores, strategy in task.cells
    ]


class ExperimentRunner:
    """Builds, compiles, simulates, and caches the whole suite: a
    reusable experiment session (shared builds, cache, worker pool),
    exported as ``repro.session``.  Its keyword names are the stable API.

    ``machine=`` is the session's machine: an int core count, a preset
    name, or a full :class:`~repro.arch.MachineConfig` (default: the
    standard mesh).  ``config_overrides`` applies flat machine-config tweaks
    (``queue_depth``, ``queue_cycles_per_hop``, ``memory_latency``,
    ``tm_commit_latency``, ...) on top -- the knob the design-space
    sweep turns.  The two resolve into one template, :attr:`machine`,
    whose knobs apply at every core count the session touches (see
    :meth:`machine_config`): a session serves figures spanning several
    core counts.

    ``journal=`` arms the crash-safe write-ahead
    :class:`~repro.harness.journal.RunJournal`: one fsynced JSONL record
    per cell lifecycle event, so an interrupted session resumes with
    ``resume=True`` (cells with a durable ``completed`` record replay
    from the cache, bit-identical, with zero re-simulation).
    ``cell_timeout`` is the pool's one liveness deadline: seconds per
    cell, counted from each worker task's submission.
    ``max_abandoned`` bounds how many poisoned cells the session absorbs
    as ``abandoned`` before raising.
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        *,
        machine: Optional[MachineSpec] = None,
        seed: int = 1,
        max_cycles: int = 50_000_000,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        cell_timeout: Optional[float] = None,
        faults: Optional[FaultConfig] = None,
        obs=None,
        config_overrides: Optional[Dict[str, object]] = None,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        replay: Optional[JournalReplay] = None,
        max_abandoned: int = 0,
    ) -> None:
        if obs is not None:
            # An Observability bus observes exactly one run, and a cached
            # or pooled result would come back without its events -- so a
            # profiling runner is strictly serial and uncached.
            if cache_dir is not None:
                raise ValueError(
                    "observability runs bypass the result cache; "
                    "pass cache_dir=None with obs"
                )
            if jobs > 1:
                raise ValueError(
                    "observability runs are single-process; pass jobs=1 "
                    "with obs"
                )
        self.names = list(benchmarks) if benchmarks is not None else list(
            BENCHMARKS
        )
        self.seed = seed
        self.max_cycles = max_cycles
        self.jobs = max(1, jobs)
        #: Wall-clock seconds each simulation cell may take on the pool,
        #: counted from its task's submission, before the task is
        #: abandoned and retried (None = no deadline).
        self.cell_timeout = cell_timeout
        self.fault_config = faults
        #: How many abandoned cells a runner absorbs before the next one
        #: re-raises (0 = the first failure propagates immediately,
        #: after being journaled).
        self.max_abandoned = max(0, max_abandoned)
        #: The machine template: ``machine=`` with ``config_overrides``
        #: applied.  Folded into every cache key via the config's repr.
        self.machine = apply_overrides(
            resolve_machine(1 if machine is None else machine),
            config_overrides,
        )
        #: Observability bus for the next simulated cell (single-use: the
        #: first uncached simulation consumes it).
        self.obs = obs
        #: Total injected perturbations across this runner's fault runs.
        self.fault_injections = 0
        self.failures = FailureSummary()
        self.cache = ResultCache(Path(cache_dir)) if cache_dir else None
        self._cache_dir = str(cache_dir) if cache_dir else None
        #: Replay state from a prior (interrupted) journal: loaded from
        #: the journal path under ``resume=True``, or injected directly
        #: (the sweep driver shares one replay across its runners).
        self._replay = replay
        self._owns_journal = False
        if journal is not None and not isinstance(journal, RunJournal):
            journal_path = Path(journal)
            if resume and self._replay is None and journal_path.exists():
                self._replay = JournalReplay.from_path(journal_path)
            journal = RunJournal(
                journal_path, resume=resume and journal_path.exists()
            )
            self._owns_journal = True
        #: Write-ahead run journal (driver-side single writer); every
        #: lifecycle record is fsynced before the run proceeds, so a
        #: SIGKILLed driver resumes from a consistent history.
        self.journal: Optional[RunJournal] = journal
        #: This run's cell lifecycle: every record ``_record`` writes is
        #: applied here first, so "planned this run", attempt numbers and
        #: abandonment all read one state machine (the journal's own).
        self.lifecycle = JournalReplay()
        #: Cells served from the cache on the prior journal's word.
        self._replayed = 0
        #: The pool entry point; tests swap in crashing/hanging doubles.
        self._worker_fn = _run_cells_worker
        self._built: Dict[str, Benchmark] = {}
        #: Core count -> its machine (a pure function of the core count
        #: and the template); every cell keys on it.
        self._configs: Dict[int, MachineConfig] = {}
        #: Benchmark name -> its program's key state: the fingerprint is
        #: rendered once per runner, and every key of that program hashes
        #: on from the rendered prefix.
        self._program_keys: Dict[str, ProgramKey] = {}
        #: Cell -> content-hash key; every cell is keyed at least twice
        #: (probe + store).
        self._keys: Dict[Cell, str] = {}
        self._compilers: Dict[str, VoltronCompiler] = {}
        self._references: Dict[str, Dict[str, List[Value]]] = {}
        self._runs: Dict[Cell, RunResult] = {}

    # -- building blocks -----------------------------------------------------------

    def benchmark(self, name: str) -> Benchmark:
        if name not in self._built:
            self._built[name] = build(name, self.seed)
        return self._built[name]

    def machine_config(self, n_cores: int) -> MachineConfig:
        """The machine simulated for ``n_cores``: the template itself at
        its own core count, elsewhere its knobs on ``mesh(n_cores)``'s
        shape.  A template equal to the standard mesh stands for the
        shared ``mesh(n_cores)``, whose rendered text every runner
        reuses."""
        config = self._configs.get(n_cores)
        if config is None:
            template = self.machine
            if template == mesh(template.n_cores):
                config = mesh(n_cores)
            elif n_cores == template.n_cores:
                config = template
            else:
                config = replace(template, n_cores=n_cores, mesh_shape=mesh(n_cores).mesh_shape)
            self._configs[n_cores] = config
        return config

    def compiler(self, name: str) -> VoltronCompiler:
        if name not in self._compilers:
            self._compilers[name] = VoltronCompiler(self.benchmark(name).program)
        return self._compilers[name]

    def _program_key(self, name: str) -> ProgramKey:
        if name not in self._program_keys:
            self._program_keys[name] = ProgramKey(self.benchmark(name).program)
        return self._program_keys[name]

    def reference_outputs(self, name: str) -> Dict[str, List[Value]]:
        """The output arrays of the reference run.  Not cached on disk: a
        cell is compiled before it is checked, and the compile's profile
        run is the reference run (same program, no arguments, the same
        interpreter), so a stored entry could never save a run."""
        if name not in self._references:
            bench = self.benchmark(name)
            result = self.compiler(name).take_profile_run() or run_program(bench.program)
            self._references[name] = {
                array: result.array_values(bench.program, array)
                for array in bench.outputs
            }
        return self._references[name]

    def _cell_key(self, name: str, n_cores: int, strategy: str) -> str:
        cell = (name, n_cores, strategy)
        key = self._keys.get(cell)
        if key is None:
            key = cache_key(
                self._program_key(name),
                self.machine_config(n_cores),
                self.seed,
                strategy,
                self.max_cycles,
                # FaultConfig is frozen, so its repr is a complete stable
                # rendering; chaos runs never share entries with clean ones.
                extra=(
                    f"faults {self.fault_config!r}"
                    if self.fault_config is not None
                    else ""
                ),
            )
            self._keys[cell] = key
        return key

    def _fault_plan(self, name: str, n_cores: int, strategy: str) -> Optional[FaultPlan]:
        """A fresh, deterministic plan for one cell: plans are stateful
        (countdowns advance as they fire), so each simulation needs its
        own, and the seed is decorrelated per cell so every cell sees a
        different arrival pattern while staying reproducible."""
        if self.fault_config is None:
            return None
        digest = hashlib.sha256(
            f"{self.fault_config.seed}:{name}:{n_cores}:{strategy}".encode()
        ).digest()
        cell_seed = int.from_bytes(digest[:4], "big")
        return FaultPlan(replace(self.fault_config, seed=cell_seed))

    # -- cell lifecycle ------------------------------------------------------------

    def close_journal(self) -> None:
        """Close the journal if this runner opened it (constructed from a
        path rather than handed a shared :class:`RunJournal`); a no-op
        otherwise -- the owner (e.g. the sweep driver) closes shared ones."""
        if self.journal is not None and self._owns_journal:
            self.journal.close()

    @property
    def journal_stats(self) -> Dict[str, int]:
        """Resume tallies for the report line and sweep artifact: cells
        replayed from the prior journal, cells that had prior history
        but were planned again (re-run), and cells abandoned this run."""
        prior = self._replay.states if self._replay is not None else {}
        return {
            "replayed": self._replayed,
            "rerun": sum(1 for key in self.lifecycle.states if key in prior),
            "abandoned": self.lifecycle.accounting()["abandoned"],
        }

    def _journal_key(self, cell: Cell) -> Optional[str]:
        """The cell's content-hash key, computed only when some layer
        (cache or journal) will use it."""
        if self.cache is None and self.journal is None and self._replay is None:
            return None
        return self._cell_key(*cell)

    def _record(self, event: str, cell: Cell, key: Optional[str], **fields) -> None:
        """The one write path for cell lifecycle events: build the
        record, apply it to the live state table, and append it to the
        journal.  ``planned`` is written once per cell per run; the
        attempt numbers of ``dispatched``/``completed``/``failed`` come
        from the live table's dispatch count."""
        record = {"cell": list(cell), "key": key}
        marker = JournalReplay.key_of(record)
        attempts = self.lifecycle.attempts.get(marker, 0)
        if event == "planned" and self.lifecycle.state(marker) is not None:
            return
        if event == "dispatched":
            record["attempt"] = attempts + 1
        record.update(fields)
        if event in ("completed", "failed"):
            record["attempt"] = attempts
        self.lifecycle.apply({"event": event, **record})
        if self.journal is not None:
            self.journal.record(event, **record)

    def run(self, benchmark: str, cores: int, strategy: str) -> RunResult:
        cell = (benchmark, cores, strategy)
        if cell not in self._runs:
            for pending in self._resolve_cached([cell]):
                self._run_serial(pending)
            if cell not in self._runs:
                raise RuntimeError(
                    f"{_cell_label(*cell)} was abandoned earlier in this run"
                )
        return self._runs[cell]

    def _simulate(self, name: str, n_cores: int, strategy: str) -> RunResult:
        config = self.machine_config(n_cores)
        compiled = self.compiler(name).compile(strategy, config)
        plan = self._fault_plan(name, n_cores, strategy)
        obs, self.obs = self.obs, None  # single-use: first simulation wins
        machine = VoltronMachine(
            compiled, config, max_cycles=self.max_cycles, faults=plan, obs=obs
        )
        stats = machine.run()
        if plan is not None:
            self.fault_injections += plan.injections()
        reference = self.reference_outputs(name)
        correct = all(
            machine.array_values(array) == values
            for array, values in reference.items()
        )
        if not correct:
            # Under fault injection this is the determinism invariant
            # breaking, not a data point -- fail loudly either way.
            raise AssertionError(
                f"{name} [{n_cores}-core {strategy}] produced wrong output"
            )
        metrics: Optional[Dict[str, object]] = None
        if obs is not None:
            # Reconcile the observed timeline against the simulator's own
            # accounting before anything downstream trusts the metrics.
            from ..obs import reconcile, summarize

            reconcile(summarize(obs), stats)
            metrics = obs.metrics()
        result = RunResult(
            benchmark=name,
            n_cores=n_cores,
            strategy=strategy,
            cycles=stats.cycles,
            stats=stats,
            correct=correct,
            region_table=compiled.attrs.get("regions", {}),
            metrics=metrics,
        )
        return result

    def prefetch(self, cells: Sequence[Cell]) -> None:
        """Populate the run memo for ``cells``, fanning cache misses out to
        a process pool when ``jobs > 1``.  Serial fallback otherwise -- the
        figures call this unconditionally."""
        pending = self._resolve_cached(cells)
        if self.jobs > 1 and len({name for name, _, _ in pending}) > 1:
            self._prefetch_parallel(pending)
        else:
            # The cache was already probed above, so simulate directly
            # (run() would re-probe and double-count the miss).
            for cell in pending:
                self._run_serial(cell)

    def _resolve_cached(self, cells: Sequence[Cell]) -> List[Cell]:
        """Memoize every cached cell in-process (where the reporting layer
        can see the hit/miss tallies) and return the true misses.

        This is also where the journal learns about cells: a cache hit
        whose key the replayed journal already marks ``completed`` is a
        pure *replay* (no new records, counted in ``journal_stats``);
        any other hit records ``planned`` + ``completed``; a miss
        records ``planned`` and joins the dispatch list.  A cell
        abandoned earlier in this run is terminal and is skipped."""
        pending: List[Cell] = []
        seen = set()
        for cell in cells:
            if cell in self._runs or cell in seen:
                continue
            seen.add(cell)
            key = self._journal_key(cell)
            state = self.lifecycle.state(
                key or JournalReplay.key_of({"cell": list(cell)})
            )
            if state == "abandoned":
                continue
            if self.cache is not None:
                payload = self.cache.load(key)
                if payload is not None:
                    self._runs[cell] = RunResult.from_dict(payload)
                    if (
                        self._replay is not None
                        and state is None
                        and self._replay.is_completed(key)
                    ):
                        # Journaled complete + durable in cache: replayed
                        # without re-simulation, exactly as promised.
                        self._replayed += 1
                    else:
                        self._record("planned", cell, key)
                        self._record("completed", cell, key, source="cache")
                    continue
            self._record("planned", cell, key)
            pending.append(cell)
        return pending

    def _run_serial(self, cell: Cell) -> None:
        """Simulate one cell in-process and publish it to the cache (the
        cache store is fsync-durable, so the ``completed`` record that
        follows it never lies).  This is the one abandonment site: a
        cell whose serial run fails is journaled ``abandoned``, and up to
        ``max_abandoned`` of those are absorbed before re-raising."""
        key = self._journal_key(cell)
        self._record("dispatched", cell, key, mode="serial")
        try:
            result = self._simulate(*cell)
            if self.cache is not None:
                self.cache.store(key, result.to_dict())
        except Exception as error:
            self.failures.abandoned.append(_cell_label(*cell))
            self._record(
                "abandoned", cell, key,
                reason=f"{type(error).__name__}: {error}",
            )
            if len(self.failures.abandoned) > self.max_abandoned:
                raise
            return
        self._runs[cell] = result
        self._record("completed", cell, key, source="serial")

    # -- hardened parallel prefetch ---------------------------------------------

    def _tasks_for(self, cells: Sequence[Cell]) -> List[WorkerTask]:
        by_name: Dict[str, List[Tuple[int, str]]] = {}
        for name, n_cores, strategy in cells:
            by_name.setdefault(name, []).append((n_cores, strategy))
        return [
            WorkerTask(
                benchmark=name,
                cells=tuple(name_cells),
                seed=self.seed,
                max_cycles=self.max_cycles,
                cache_dir=self._cache_dir,
                faults=self.fault_config,
                machine=self.machine,
            )
            for name, name_cells in by_name.items()
        ]

    def _prefetch_parallel(self, pending: List[Cell]) -> None:
        """Fan ``pending`` out to worker processes, surviving hangs and
        crashes: overdue tasks are retried in a fresh pool after an
        exponential backoff, and once ``RETRIES`` rounds are spent the
        leftovers run serially in-process -- slower, never wrong."""
        for round_index in range(RETRIES + 1):
            if round_index:
                time.sleep(RETRY_BACKOFF_S * 2 ** (round_index - 1))
                self.failures.retried.extend(
                    _cell_label(*cell) for cell in pending
                )
            leftovers = self._pool_round(self._tasks_for(pending))
            # A timed-out worker may still have finished the store before
            # we stopped waiting; the cache probe rescues those cells.
            pending = self._resolve_cached(
                [cell for task in leftovers for cell in task.cell_list()]
            )
            if not pending:
                return
        self._degrade(pending)

    def _degrade(self, cells: Sequence[Cell]) -> None:
        """Serial re-run of cells after pool trouble."""
        for cell in cells:
            self.failures.degraded.append(_cell_label(*cell))
            self._run_serial(cell)

    def _fail(self, task: WorkerTask, reason: str) -> None:
        for cell in task.cell_list():
            self._record("failed", cell, self._journal_key(cell), reason=reason)

    def _pool_round(self, tasks: List[WorkerTask]) -> List[WorkerTask]:
        """One pool over ``tasks`` with at most ``jobs`` in flight; each
        task's deadline (``cell_timeout`` per cell) starts at its own
        submission.  A timeout stops the pool taking tasks -- the hung
        worker still holds its slot -- so the timed-out and unsubmitted
        tasks are returned for the next round's fresh pool.  A broken
        pool sends every unfinished task to the serial fallback."""
        queue = deque(tasks)
        running: Dict[Future, Tuple[WorkerTask, Optional[float]]] = {}
        finished: List[Tuple[WorkerTask, List[Dict[str, object]]]] = []
        crashed: List[WorkerTask] = []
        retry: List[WorkerTask] = []
        broken = False
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            while True:
                submitted: List[WorkerTask] = []
                while queue and len(running) < self.jobs and not (
                    retry or broken
                ):
                    try:
                        future = pool.submit(self._worker_fn, queue[0])
                    except BrokenProcessPool:
                        broken = True  # a worker died between submits
                        break
                    task = queue.popleft()
                    deadline = None
                    if self.cell_timeout is not None:
                        allowed = self.cell_timeout * len(task.cells)
                        deadline = time.monotonic() + allowed
                    running[future] = (task, deadline)
                    submitted.append(task)
                # Journal the dispatches only once the free slots are
                # filled: an fsync between two submits would give an
                # instantly crashing worker time to break the pool
                # before its sibling is ever dispatched.
                for task in submitted:
                    for cell in task.cell_list():
                        self._record(
                            "dispatched", cell, self._journal_key(cell), mode="pool"
                        )
                # Absorb after refilling, so no worker idles while the
                # driver fsyncs the finished tasks' records.
                for task, payloads in finished:
                    self._absorb(task, payloads)
                finished = []
                if broken or not running:
                    break
                deadlines = [d for _, d in running.values() if d is not None]
                budget = None
                if deadlines:
                    budget = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(
                    running, timeout=budget, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future, (task, deadline) in list(running.items()):
                    if future in done:
                        del running[future]
                        try:
                            finished.append((task, future.result()))
                        except BrokenProcessPool:
                            # A worker died mid-task (segfault, OOM kill,
                            # os._exit); every sibling future is poisoned.
                            crashed.append(task)
                            broken = True
                    elif deadline is not None and deadline <= now:
                        # cancel() cannot interrupt a running worker, so
                        # the task is dropped and the pool torn down
                        # without waiting for it.
                        del running[future]
                        future.cancel()
                        retry.append(task)
                        self.failures.timed_out.append(task.benchmark)
                        self._fail(task, "timeout")
        finally:
            pool.shutdown(wait=not (retry or broken), cancel_futures=True)
        if not broken:
            return retry + list(queue)
        self.failures.worker_crashes += 1
        for task in crashed + [task for task, _ in running.values()]:
            reason = "worker-crashed" if task in crashed else "pool-broken"
            self._fail(task, reason)
            self._degrade(self._resolve_cached(task.cell_list()))
        for task in queue:  # never dispatched: nothing failed
            self._degrade(self._resolve_cached(task.cell_list()))
        return retry

    def _absorb(self, task: WorkerTask, payloads: List[Dict[str, object]]) -> None:
        for cell, payload in zip(task.cell_list(), payloads):
            self._runs[cell] = RunResult.from_dict(payload)
            # The worker stored the result durably before returning it
            # (same content-hash key), so completion is safe to journal.
            self._record(
                "completed", cell, self._journal_key(cell), source="worker"
            )

    def baseline(self, name: str) -> RunResult:
        return self.run(name, 1, "baseline")

    def speedup(self, benchmark: str, cores: int, strategy: str) -> float:
        return (
            self.baseline(benchmark).cycles
            / self.run(benchmark, cores, strategy).cycles
        )

    def failure_summary(self) -> FailureSummary:
        """The failure ledger with the cache's quarantine tally synced in
        (the cache counts its own quarantines; the summary mirrors them
        so one object describes everything absorbed)."""
        if self.cache is not None:
            self.failures.cache_quarantined = self.cache.quarantined
        return self.failures

    def recovery_totals(self) -> Dict[str, int]:
        """Destructive-fault recovery counters summed over every run this
        session has seen (memoized, cached, or pooled alike -- the
        counters ride ``MachineStats.recovery`` through serialization)."""
        totals: Dict[str, int] = {}
        for result in self._runs.values():
            for counter, value in result.stats.recovery.items():
                totals[counter] = totals.get(counter, 0) + value
        return totals
