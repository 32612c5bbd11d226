"""Layer spans recorded from outside the program.

The ledger times each layer by wrapping its public entry points -- class
methods and module attributes such as
``repro.compiler.codegen.select_regions`` -- from the benchmark's own
files, so nothing under ``src/`` changes.  One :class:`Tracer` per
process records a span per wrapped call::

    [name, start, end, parent index, extra]

``extra`` carries the counts measured at the same boundary (slots
scheduled, cache hit or miss, simulated cycles, ...).  Spans stay in
memory; pool workers, forked after the wrappers are installed, inherit
them and append each finished top-level batch to ``spans-<pid>.jsonl``
so the workload process can merge them when it ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of one cell's span tree sum to the cell's
wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Machine sizes the per-size simulator and compiler rows are split by.
SIZES = (1, 2, 4, 16, 32, 64)

#: A cell counts as coupled or decoupled when at least this share of
#: its simulated cycles ran in that mode; otherwise it is mixed.
MODE_MAJORITY = 0.9

#: Name of the host-speed probe spans (see ``Tracer.probe``).
PROBE = "host.probe"
#: Host seconds between probes in one process.
PROBE_EVERY_S = 0.1


class Tracer:
    """Span recorder for one process (and, after a fork, for the child).

    With ``probe`` set, the process calls it, as a ``host.probe`` span,
    after a top-level span ends once ``PROBE_EVERY_S`` have passed since
    its last probe: between cells, in the workload process and in each
    pool worker alike.
    """

    def __init__(self, span_dir: Path, probe=None) -> None:
        self.span_dir = Path(span_dir)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.worker = False
        self.recording = False
        self.probe = probe
        self.probed = perf_counter()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A pool worker starts with the parent's open spans on its copy
        # of the stack; its own spans are top level in its own process.
        self.spans = []
        self.stack = []
        self.worker = True

    def call(self, name: str, fn, args, kwargs, extra):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if extra is not None:
            record[4] = extra(args, result)
        if not stack:
            if (self.probe is not None and name != PROBE
                    and record[2] - self.probed >= PROBE_EVERY_S):
                self.call(PROBE, self.probe, (), {}, None)  # flushes both
                self.probed = perf_counter()
            elif self.worker:
                self._flush()
        return result

    def _flush(self) -> None:
        """Append this worker's finished batch (parent indices are local
        to the batch, which always starts with an empty stack)."""
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by
        a wrapper recording one ``name`` span per call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            func = original.__func__

            @functools.wraps(func)
            def wrapped_classmethod(cls, *args, **kwargs):
                return self.call(name, func, (cls,) + args, kwargs, extra)

            setattr(owner, attr, classmethod(wrapped_classmethod))
            return

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return self.call(name, original, args, kwargs, extra)

        setattr(owner, attr, wrapped)


class FastForwardProbe:
    """The part of :class:`repro.obs.Observability` the ledger needs:
    the cycles the machine fast-forwards (the same windows
    ``Observability.ff_windows`` records).

    The full event bus (a wrapper on every core's stall method, probes
    in every subsystem) cost 17% of simulation time on a 4-core cell and
    50% on a 64-core one, and would inflate every simulator number in
    the traced run; this probe only receives the machine-level calls.
    """

    def __init__(self) -> None:
        self.ff_cycles = 0

    def attach(self, machine) -> None:
        pass

    def cycle(self, cycle: int) -> None:
        pass

    def mode_switch(self, cycle: int, old: str, new: str) -> None:
        pass

    def fast_forward_window(self, start: int, end: int) -> None:
        self.ff_cycles += end - start

    def finalize(self, machine) -> None:
        pass


def _with_probe(init):
    @functools.wraps(init)
    def __init__(machine, *args, obs=None, **kwargs):
        init(machine, *args, obs=FastForwardProbe() if obs is None else obs, **kwargs)

    return __init__


def _program_ops(args, benchmark) -> Dict[str, int]:
    program = benchmark.program
    return {
        "ops": sum(
            len(block.ops)
            for function in program.functions.values()
            for block in function.ordered_blocks()
        )
    }


def _machine_run(args, stats) -> Dict[str, int]:
    machine = args[0]
    probe = machine.obs
    return {
        "n": machine.config.n_cores,
        "cycles": stats.cycles,
        "ff": probe.ff_cycles if isinstance(probe, FastForwardProbe) else 0,
        "coupled": stats.mode_cycles["coupled"],
        "decoupled": stats.mode_cycles["decoupled"],
        "injections": machine.faults.injections() if machine.faults is not None else 0,
    }


def _prefetch(args, result) -> Dict[str, int]:
    runner = args[0]
    return {
        "jobs": runner.jobs,
        "crashes": runner.failures.worker_crashes,
        "retried": len(runner.failures.retried),
    }


def install(tracer: Tracer, *, layers: bool) -> None:
    """Wrap the program's entry points.  ``runner.run`` (the cell clock)
    is always wrapped; ``layers`` adds every other layer."""
    from repro.harness.experiments import ExperimentRunner

    tracer.wrap(ExperimentRunner, "run", "runner.run")
    if not layers:
        return

    from repro.compiler import codegen
    from repro.compiler.driver import VoltronCompiler
    from repro.compiler.partition.bug import BugPartitioner
    from repro.compiler.partition.dswp import DswpPartitioner
    from repro.compiler.profiling import Profiler
    from repro.harness import experiments, sweep
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import RunResult
    from repro.harness.journal import JournalReplay, RunJournal
    from repro.sim.machine import VoltronMachine

    VoltronMachine.__init__ = _with_probe(VoltronMachine.__init__)
    for owner, attr, name, extra in (
        (ExperimentRunner, "prefetch", "runner.prefetch", _prefetch),
        (experiments, "build", "workloads.build", _program_ops),
        (Profiler, "run", "compiler.profile", None),
        (VoltronCompiler, "compile", "compiler.compile",
         lambda args, compiled: {"n": compiled.n_cores}),
        (codegen, "select_regions", "compiler.regions", None),
        (codegen, "build_block_dfg", "compiler.dfg", None),
        (BugPartitioner, "partition", "compiler.partition", None),
        (DswpPartitioner, "partition", "compiler.partition", None),
        (codegen, "memory_dependences", "compiler.memdep", None),
        (codegen, "schedule_coupled", "compiler.schedule",
         lambda args, slots: {"slots": sum(map(len, slots))}),
        (codegen, "schedule_decoupled", "compiler.schedule",
         lambda args, slots: {"slots": sum(map(len, slots))}),
        (experiments, "run_program", "interp.reference", None),
        (VoltronMachine, "__init__", "sim.construct", None),
        (VoltronMachine, "run", "sim.run", _machine_run),
        (experiments, "cache_key", "cache.key", None),
        (experiments, "reference_key", "cache.key", None),
        (ResultCache, "load", "cache.load",
         lambda args, payload: {"hit": payload is not None}),
        (ResultCache, "store", "cache.store", None),
        (RunResult, "to_dict", "result.encode", None),
        (RunResult, "from_dict", "result.decode", None),
        (RunJournal, "__init__", "journal.open", None),
        (RunJournal, "record", "journal.append", None),
        (JournalReplay, "from_path", "journal.replay", None),
        (sweep, "pareto_frontier", "sweep.pareto", None),
    ):
        tracer.wrap(owner, attr, name, extra)


def calibrate(tracer: Tracer, calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    target = types.SimpleNamespace(noop=lambda: None)
    bare = target.noop
    start = perf_counter()
    for _ in range(calls):
        bare()
    direct = perf_counter() - start
    tracer.wrap(target, "noop", "calibration")
    wrapped = target.noop
    kept = len(tracer.spans)
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    traced = perf_counter() - start
    del tracer.spans[kept:]
    return max(0.0, (traced - direct) / calls)


def read_worker_batches(span_dir: Path) -> List[List[list]]:
    batches: List[List[list]] = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            batches.extend(json.loads(line) for line in handle if line.strip())
    return batches


def self_times(batch: Sequence[list]) -> List[float]:
    """Per span: its duration minus its direct children's durations."""
    own = [span[2] - span[1] for span in batch]
    for span in batch:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def top_level(batch: Sequence[list], name: Optional[str] = None) -> List[list]:
    return [s for s in batch if s[3] < 0 and (name is None or s[0] == name)]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def layer_metrics(
    main: Sequence[list],
    workers: Sequence[Sequence[list]],
    window: Tuple[float, float],
    span_cost: float,
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced workload.

    ``main`` is the workload process's span list, ``workers`` the pool
    workers' batches, ``window`` the timed region (first cell to last
    result) and ``span_cost`` the calibrated cost of one span.
    """
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    extras: Dict[str, List[Tuple[float, dict]]] = {}
    for batch in [main, *workers]:
        for span, own in zip(batch, self_times(batch)):
            name = span[0]
            if name == "runner.prefetch" and span[4] is not None and span[4]["jobs"] > 1:
                name = "pool.prefetch"  # mostly waiting on the workers
            duration = span[2] - span[1]
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + duration
            count[name] = count.get(name, 0) + 1
            if span[4] is not None:
                extras.setdefault(name, []).append((duration, span[4]))

    def extra_sum(name: str, field: str) -> float:
        return sum(e[field] for _, e in extras.get(name, ()))

    metrics: Dict[str, float] = {
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "workloads.programs": count.get("workloads.build", 0),
        "workloads.ops": extra_sum("workloads.build", "ops"),
        "compiler.profile_s": self_s.get("compiler.profile", 0.0),
        "compiler.compile_s": total_s.get("compiler.compile", 0.0),
        "compiler.regions_s": self_s.get("compiler.regions", 0.0),
        "compiler.dfg_s": self_s.get("compiler.dfg", 0.0),
        "compiler.partition_s": self_s.get("compiler.partition", 0.0),
        "compiler.memdep_s": self_s.get("compiler.memdep", 0.0),
        "compiler.schedule_s": self_s.get("compiler.schedule", 0.0),
        "compiler.codegen_self_s": self_s.get("compiler.compile", 0.0),
        "compiler.slots": extra_sum("compiler.schedule", "slots"),
        "interp.reference_s": self_s.get("interp.reference", 0.0),
        "sim.construct_s": self_s.get("sim.construct", 0.0),
        "sim.run_s": self_s.get("sim.run", 0.0),
        "faults.injections": extra_sum("sim.run", "injections"),
        "cache.key_s": self_s.get("cache.key", 0.0),
        "cache.load_s": self_s.get("cache.load", 0.0),
        "cache.store_s": self_s.get("cache.store", 0.0),
        "result.decode_s": self_s.get("result.decode", 0.0),
        "result.encode_s": self_s.get("result.encode", 0.0),
        "journal.append_s": self_s.get("journal.append", 0.0),
        "journal.records": count.get("journal.append", 0),
        "journal.replay_s": self_s.get("journal.replay", 0.0) + self_s.get("journal.open", 0.0),
        "sweep.pareto_s": self_s.get("sweep.pareto", 0.0),
        "runner.self_s": self_s.get("runner.run", 0.0) + self_s.get("runner.prefetch", 0.0),
    }
    for n in SIZES:
        metrics[f"compiler.compile_s.n{n}"] = sum(
            d for d, e in extras.get("compiler.compile", ()) if e["n"] == n
        )

    hits = sum(1 for _, e in extras.get("cache.load", ()) if e["hit"])
    misses = len(extras.get("cache.load", ())) - hits
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    runs = extras.get("sim.run", [])

    def kcps(selected) -> float:
        seconds = sum(d for d, _ in selected)
        return sum(e["cycles"] for _, e in selected) / seconds / 1000 if seconds else 0.0

    def ff_share(selected) -> float:
        cycles = sum(e["cycles"] for _, e in selected)
        return sum(e["ff"] for _, e in selected) / cycles if cycles else 0.0

    def mode_of(extra: dict) -> str:
        cycles = extra["coupled"] + extra["decoupled"]
        if cycles and extra["coupled"] >= MODE_MAJORITY * cycles:
            return "coupled"
        if cycles and extra["decoupled"] >= MODE_MAJORITY * cycles:
            return "decoupled"
        return "mixed"

    for n in SIZES:
        sized = [r for r in runs if r[1]["n"] == n]
        metrics[f"sim.kcps.n{n}"] = kcps(sized)
        metrics[f"sim.ff_share.n{n}"] = ff_share(sized)
    for mode in ("coupled", "decoupled", "mixed"):
        metrics[f"sim.kcps.{mode}"] = kcps([r for r in runs if mode_of(r[1]) == mode])
    metrics["sim.ff_share"] = ff_share(runs)

    worker_spans = [(s[1], s[2]) for batch in workers for s in top_level(batch)]
    idle_s = busy_s = capacity_s = 0.0
    for s in main:
        if s[0] == "runner.prefetch" and s[4] is not None and s[4]["jobs"] > 1:
            lo, hi = s[1], s[2]
            inside = [(max(a, lo), min(b, hi)) for a, b in worker_spans if b > lo and a < hi]
            idle_s += (hi - lo) - _union_length(inside)
            busy_s += sum(b - a for a, b in inside)
            capacity_s += s[4]["jobs"] * (hi - lo)
    metrics["pool.prefetch_s"] = total_s.get("pool.prefetch", 0.0)
    metrics["pool.idle_s"] = idle_s
    metrics["pool.busy_share"] = busy_s / capacity_s if capacity_s else 0.0
    metrics["pool.worker_crashes"] = extra_sum("pool.prefetch", "crashes")
    metrics["pool.retried"] = extra_sum("pool.prefetch", "retried")

    lo, hi = window
    attributed = sum(
        s[2] - s[1] for s in top_level(main) if s[1] >= lo and s[2] <= hi
    )
    metrics["trace.unattributed_s"] = max(0.0, (hi - lo) - attributed)
    metrics["trace.overhead_s"] = span_cost * (len(main) + sum(map(len, workers)))
    return metrics
