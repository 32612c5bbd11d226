"""One ledger workload, run in a fresh interpreter by ``bench.py``.

    python benchmarks/ledger/workload.py --workload paper-grid --seed 1 \\
        --mode run --work DIR --out RESULT.json

``--mode`` is one of:

* ``run``   -- set up, then time the cells with only the cell clock
  (``runner.run``) wrapped;
* ``trace`` -- the same with every layer wrapped (see ``spans.py``);
* ``setup`` -- stop where the first cell would start: one more set-up
  sample;
* ``fill``  -- warm-replay's preparation: fill the cache and journal in
  ``--work`` (timed by nothing).

Every workload is a closed loop with one caller: the next cell starts
when the previous one returns.  The seed reaches the program only as
inputs: the suite's build seed, the fault plan's seed and the generated
programs.

``setup_s``, and in ``run`` mode the wall and cell times, are scaled to
a reference host speed (see :class:`HostClock`); the host seconds are
kept beside them as ``raw_*``.
"""

import hashlib
import time

#: The host-speed probe: fixed pure-Python work that uses none of the
#: program's code, in two parts.  Under contention the simulator slows
#: like an integer loop (interpreter dispatch), while cache-key
#: fingerprinting slows more, like building and hashing a large repr
#: (allocation, strings); the probe does both.  ``CAL_REF_S`` is the
#: time it takes at the reference speed every scaled time is expressed
#: in (about its time on a quiet 2-CPU x86_64 host, so scaled times stay
#: near host seconds there).
CAL_ITERATIONS = 30_000
CAL_TABLE = [(i, f"r{i}", (i * 0.5, i % 3), {"k": i}) for i in range(1500)]
CAL_REF_S = 0.0038
#: Probes on each side of a stretch whose mean time scales it.
PROBE_WINDOW = 10


def calibrate() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    hashlib.sha256(repr(CAL_TABLE).encode()).digest()
    return time.perf_counter() - start


T0 = time.perf_counter()
CAL0 = calibrate()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from repro import api  # noqa: E402
from repro.harness import arithmean  # noqa: E402
from repro.harness.sweep import SweepSpec  # noqa: E402
from repro.sim import RECOVERY_COUNTERS, STALL_CATEGORIES, FaultConfig  # noqa: E402
from repro.workloads.generator import GenKnobs, generate_recipe  # noqa: E402
from repro.workloads.suite import BENCHMARKS  # noqa: E402

STRATEGIES = ("ilp", "tlp", "llp", "hybrid")

#: The benchmarks of the large-mesh and chaos workloads: DOALL-rich
#: (alvinn, swim), miss-bound strands (art), pipelines (epic), the
#: paper's own gsmdecode and gzip loops, and the coupled-only rawcaudio.
SUITE8 = (
    "052.alvinn", "056.ear", "171.swim", "179.art",
    "epic", "gsmdecode", "rawcaudio", "164.gzip",
)

VLINK = (("queue_policy", "vlink"),)

#: Knobs of gen-sweep's programs: four regions each with pinned trip
#: counts and depths, so the seed picks each program's kernel sequence
#: (and its miss-heavy loops and data) but not its size.  With the mix
#: fixed too (``region_quotas``), the set's simulated cycles spread by
#: 0.9% over seeds 21-30 (quartile spread).
GEN_KNOBS = GenKnobs(
    regions=(4, 4), trips=(48, 48), doall_work=(3, 3), ilp_chains=(3, 3),
    ilp_depth=(3, 3), strand_streams=(2, 2), dswp_work=(4, 4), dswp_chase=(1, 1),
)
GEN_PROGRAMS = 24
#: The kernel families whose recipes draw a ``miss_heavy`` flag.
MISS_HEAVY_FAMILIES = ("doall", "reduction", "stencil")
#: Candidate seeds drawn before the region quotas are dropped.
GEN_DRAWS = 100_000
#: gen-sweep's machine grid (each with every strategy in STRATEGIES).
SWEEP_MACHINES = (2, 4)
SWEEP_DEPTHS = (8, 16)

#: Fresh sessions warm-replay opens over the filled cache.
REPLAY_SESSIONS = 20

Cell = Tuple[str, int, str]


class HostClock:
    """Times scaled by the host-speed probes taken around them.

    The host's speed drifts by up to 1.8x within minutes (other tenants
    share its cores), which no run length averages away.  The probes
    run between cells (``spans.Tracer.probe``), in this process and in
    pool workers.  A stretch of time between two probes is scaled by
    ``CAL_REF_S`` over the mean time of the ``PROBE_WINDOW`` probes on
    either side of it, so a slow host and a slow program read apart.
    The mean, not the median, because the host flips between a quiet
    and a contended speed and the program pays for the mix; the window,
    because one probe is too short a sample of that mix.  Probe time is
    left out.
    """

    def __init__(self, ticks: List[Tuple[float, float]]) -> None:
        self.ticks = sorted(ticks)  # (start, end) of each probe

    def _stretches(self):
        """(start, end, probe seconds) of the stretches between probes."""
        bounds = [-math.inf, *(t for tick in self.ticks for t in tick), math.inf]
        probes = [end - start for start, end in self.ticks]
        for i in range(len(probes) + 1):  # stretch i ends where probe i starts
            window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
            yield bounds[2 * i], bounds[2 * i + 1], statistics.fmean(window)

    def seconds(self, lo: float, hi: float, scaled: bool = True) -> float:
        """The part of [lo, hi] outside the probes, scaled or not."""
        total = 0.0
        for start, end, probe in self._stretches():
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap * (CAL_REF_S / probe if scaled else 1.0)
        return total


@dataclass(frozen=True)
class Session:
    """One ``api.session`` and the cells the workload runs on it."""

    label: str
    machine: Optional[str]
    overrides: Tuple[Tuple[str, object], ...]
    cells: Tuple[Cell, ...]


def paper_grid_sessions() -> List[Session]:
    cells = []
    for name in BENCHMARKS:
        cells.append((name, 1, "baseline"))
        cells.extend((name, n, s) for n in (2, 4) for s in STRATEGIES)
    return [Session("grid", None, (), tuple(cells))]


def mesh_scale_sessions() -> List[Session]:
    return [
        Session(label, preset, overrides, tuple(
            (name, n, s) for name in SUITE8 for s in ("ilp", "hybrid")
        ))
        for label, preset, overrides, n in (
            ("mesh16-snoop/pair", "mesh16-snoop", (), 16),
            ("mesh32-directory/vlink", "mesh32-directory", VLINK, 32),
            ("mesh64-snoop/pair", "mesh64-snoop", (), 64),
        )
    ]


def chaos_sessions() -> List[Session]:
    return [
        Session("4-core", None, (), tuple(
            (name, 4, s) for name in SUITE8 for s in STRATEGIES
        )),
        Session("mesh16-directory/vlink", "mesh16-directory", VLINK, tuple(
            (name, 16, s) for name in SUITE8 for s in ("tlp", "hybrid")
        )),
    ]


def take(sessions: Sequence[Session], limit: Optional[int]) -> List[Session]:
    """The first ``limit`` cells, in run order (all when None)."""
    if limit is None:
        return list(sessions)
    kept = []
    for session in sessions:
        cells = session.cells[:limit - sum(len(s.cells) for s in kept)]
        if cells:
            kept.append(Session(session.label, session.machine, session.overrides, cells))
    return kept


def open_sessions(sessions, args, *, faults=None, resume=False, jobs=1):
    return [
        api.session(
            list(dict.fromkeys(cell[0] for cell in session.cells)),
            machine=session.machine,
            seed=args.seed,
            cache_dir=args.work / "cache",
            jobs=jobs,
            faults=faults,
            config_overrides=dict(session.overrides) or None,
            journal=args.work / f"journal-{index}.jsonl",
            resume=resume,
        )
        for index, session in enumerate(sessions)
    ]


def run_cells(plan) -> Tuple[Dict[tuple, object], int]:
    """Run every cell of every (session, runner) pair; a cell that
    raises or comes back wrong is counted, not fatal."""
    results: Dict[tuple, object] = {}
    failed = 0
    for session, runner in plan:
        for name, n, strategy in session.cells:
            try:
                result = runner.run(name, n, strategy)
            except Exception:  # the loop goes on; the cell counts as failed
                print(f"{session.label} {name}[{n}-{strategy}] raised:", file=sys.stderr)
                traceback.print_exc()
                failed += 1
                continue
            if not result.correct:
                failed += 1
                continue
            results[(session.label, name, n, strategy)] = result
    return results, failed


class Cold:
    """Serial cells on fresh caches and journals: every cell compiles,
    simulates, is checked against the reference interpreter, is stored
    and journaled."""

    pooled = False
    #: Seconds of set-up spent drawing inputs (not counted in setup_s).
    inputs_s = 0.0

    def __init__(self, sessions: List[Session], chaos: bool = False) -> None:
        self.sessions = sessions
        self.chaos = chaos

    def setup(self, args) -> None:
        sessions = take(self.sessions, args.max_cells)
        faults = FaultConfig(profile="both", seed=args.seed) if self.chaos else None
        runners = open_sessions(sessions, args, faults=faults)
        for session, runner in zip(sessions, runners):
            for name in dict.fromkeys(cell[0] for cell in session.cells):
                runner.compiler(name).profile
                runner.reference_outputs(name)
        self.plan = list(zip(sessions, runners))

    def measure(self, args) -> None:
        self.results, self.failed = run_cells(self.plan)

    def collect(self, args):
        for _, runner in self.plan:
            runner.close_journal()
        attempted = sum(len(session.cells) for session, _ in self.plan)
        return self.results, attempted, self.failed


class WarmReplay:
    """Fresh ``resume=True`` sessions over paper-grid's filled cache and
    journal: no simulation, only key fingerprinting, JSON loads,
    ``RunResult.from_dict`` and journal replay."""

    pooled = False
    inputs_s = 0.0

    def setup(self, args) -> None:
        self.sessions = take(paper_grid_sessions(), args.max_cells)

    def fill(self, args):
        runners = open_sessions(self.sessions, args, jobs=2)
        for session, runner in zip(self.sessions, runners):
            runner.prefetch(session.cells)
        results, failed = run_cells(zip(self.sessions, runners))
        for runner in runners:
            runner.close_journal()
        return results, sum(len(s.cells) for s in self.sessions), failed

    def measure(self, args) -> None:
        self.failed = 0
        self.digests = set()
        for _ in range(REPLAY_SESSIONS):
            runners = open_sessions(self.sessions, args, resume=True)
            results, failed = run_cells(zip(self.sessions, runners))
            for session, runner in zip(self.sessions, runners):
                runner.close_journal()
                # A cell that was not replayed was simulated: the warm
                # path did not hold.
                failed += len(session.cells) - runner.journal_stats["replayed"]
            self.failed += failed
            self.digests.add(digest(results))
        self.results = results

    def collect(self, args):
        cells = sum(len(s.cells) for s in self.sessions)
        failed = self.failed + (cells if len(self.digests) > 1 else 0)
        return self.results, REPLAY_SESSIONS * cells, failed


def region_quotas(count: int) -> Dict[Tuple[str, Optional[bool]], int]:
    """Regions per (kernel family, miss-heavy flag) in ``count`` programs:
    in proportion to the knobs' family weights and ``miss_heavy_pct``,
    rounded by largest remainder so they add up to every region."""
    weights = dict(GEN_KNOBS.kernel_weights)
    regions = count * GEN_KNOBS.regions[1]
    miss = GEN_KNOBS.miss_heavy_pct / 100
    shares: Dict[Tuple[str, Optional[bool]], float] = {}
    for family, weight in weights.items():
        exact = regions * weight / sum(weights.values())
        if family in MISS_HEAVY_FAMILIES:
            shares[family, True] = exact * miss
            shares[family, False] = exact * (1 - miss)
        else:
            shares[family, None] = exact
    quotas = {label: math.floor(share) for label, share in shares.items()}
    by_remainder = sorted(shares, key=lambda label: quotas[label] - shares[label])
    for label in by_remainder[:regions - sum(quotas.values())]:
        quotas[label] += 1
    return quotas


def gen_seeds(seed: int, count: int) -> List[int]:
    """Seeds of ``count`` generated programs whose regions fill
    :func:`region_quotas` exactly, so every ``--seed`` sweeps the same
    mix of kernels and miss-heavy loops and a run's work varies little
    between seeds.  Candidates are drawn in seeded order; after
    ``GEN_DRAWS`` draws the quotas are dropped."""
    quotas = region_quotas(count)
    used = dict.fromkeys(quotas, 0)
    chosen: List[int] = []
    candidate = seed * GEN_DRAWS
    while len(chosen) < count:
        candidate += 1
        trial = dict(used)
        for family, kwargs in generate_recipe(candidate, GEN_KNOBS):
            trial[family, kwargs.get("miss_heavy")] += 1
        if candidate - seed * GEN_DRAWS > GEN_DRAWS or all(
            trial[label] <= quotas[label] for label in quotas
        ):
            used = trial
            chosen.append(candidate)
    return chosen


class GenSweep:
    """``api.sweep`` over generated programs with a two-process pool:
    pool dispatch, seeded program shapes outside the calibrated 25, and
    Pareto computation."""

    pooled = True

    def setup(self, args) -> None:
        count = GEN_PROGRAMS if args.max_cells is None else 2
        start = time.perf_counter()
        seeds = gen_seeds(args.seed, count)
        # Drawing the inputs is the benchmark's work, and its cost varies
        # with the seed (0.03-0.8 s): set-up time leaves it out.
        self.inputs_s = time.perf_counter() - start
        self.handles = [api.generate_workload(seed, GEN_KNOBS) for seed in seeds]

    def measure(self, args) -> None:
        self.raised = False
        try:
            api.sweep(
                self.handles, machines=SWEEP_MACHINES, queue_depths=SWEEP_DEPTHS,
                strategies=STRATEGIES, jobs=2, seed=args.seed,
                cache_dir=args.work / "cache", journal=args.work / "journal-sweep.jsonl",
            )
        except Exception:  # the run goes on; every cell counts as failed
            traceback.print_exc()
            self.raised = True

    def collect(self, args):
        """Read every cell back from the sweep's cache (the same keys the
        sweep's per-machine-point runners stored)."""
        spec = SweepSpec(
            workloads=tuple(self.handles),
            strategies=STRATEGIES,
            cores=SWEEP_MACHINES,
            queue_depths=SWEEP_DEPTHS,
        )
        points = sorted({
            tuple((k, v) for k, v in point.items() if k != "cores")
            for point in spec.machine_points()
        })
        cells = [(name, 1, "baseline") for name in self.handles] + [
            (name, n, s) for name in self.handles for n in spec.cores for s in STRATEGIES
        ]
        attempted = len(points) * len(cells)
        if self.raised:
            return {}, attempted, attempted
        results: Dict[tuple, object] = {}
        failed = 0
        for point in points:
            overrides = dict(point)
            label = f"queue_depth={overrides['queue_depth']}"
            runner = api.session(
                self.handles, seed=args.seed, cache_dir=args.work / "cache",
                config_overrides=overrides,
            )
            got, bad = run_cells([(Session(label, None, (), tuple(cells)), runner)])
            results.update(got)
            failed += bad + runner.cache.misses
        return results, attempted, failed


WORKLOADS = {
    "paper-grid": lambda: Cold(paper_grid_sessions()),
    "mesh-scale": lambda: Cold(mesh_scale_sessions()),
    "chaos": lambda: Cold(chaos_sessions(), chaos=True),
    "warm-replay": WarmReplay,
    "gen-sweep": GenSweep,
}


def digest(results: Dict[tuple, object]) -> str:
    """One sha256 over every cell's stats and region table."""
    hasher = hashlib.sha256()
    for key in sorted(results):
        result = results[key]
        regions = sorted([f, label, d] for (f, label), d in result.region_table.items())
        hasher.update(json.dumps(
            [list(key), result.stats.to_dict(), regions], sort_keys=True
        ).encode())
    return hasher.hexdigest()


def simulated_counts(results: Dict[tuple, object]) -> Dict[str, float]:
    """Simulated-time counts summed over the distinct cells."""
    stats = [result.stats for result in results.values()]
    cycles = sum(s.cycles for s in stats)
    core_cycles = sum(s.cycles * s.n_cores for s in stats)
    mode_cycles = sum(sum(s.mode_cycles.values()) for s in stats)
    cores = [core for s in stats for core in s.cores]
    counts = {
        "sim.cycles": cycles,
        "sim.ipc": sum(s.total_ops() for s in stats) / cycles if cycles else 0.0,
        "sim.coupled_share": (
            sum(s.mode_cycles["coupled"] for s in stats) / mode_cycles if mode_cycles else 0.0
        ),
        "sim.l1i_misses": sum(c.l1i_misses for c in cores),
        "sim.l1d_misses": sum(c.l1d_misses for c in cores),
        "sim.messages": sum(c.messages_sent for c in cores),
        "sim.tx_commits": sum(s.tx_commits for s in stats),
        "sim.tx_aborts": sum(s.tx_aborts for s in stats),
        "sim.mode_switches": sum(s.mode_switches for s in stats),
    }
    for category in STALL_CATEGORIES:
        stalled = sum(c.stalls[category] for c in cores)
        counts[f"sim.stall_share.{category}"] = stalled / core_cycles if core_cycles else 0.0
    for counter in RECOVERY_COUNTERS:
        counts[f"recovery.{counter}"] = sum(s.recovery.get(counter, 0) for s in stats)
    return counts


def model_errors(results: Dict[tuple, object]) -> Dict[str, float]:
    """Measured average speedup minus the paper's, for Figures 10 and 11.
    The reference is the paper's own simulator, not hardware.  Empty
    unless every paper-grid cell ran."""
    wanted = {("grid", *cell) for cell in paper_grid_sessions()[0].cells}
    if not wanted <= results.keys():
        return {}
    path = ROOT / "scripts" / "make_experiments_md.py"
    module_spec = importlib.util.spec_from_file_location("make_experiments_md", path)
    paper = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(paper)
    errors = {}
    for figure, n, reference in (("fig10", 2, paper.PAPER_FIG10), ("fig11", 4, paper.PAPER_FIG11)):
        for strategy in ("ilp", "tlp", "llp"):
            speedups = [
                results[("grid", name, 1, "baseline")].cycles
                / results[("grid", name, n, strategy)].cycles
                for name in BENCHMARKS
            ]
            errors[f"model.{figure}_{strategy}_err"] = arithmean(speedups) - reference[strategy]
    return errors


def interquartile_mean(latencies_ms: List[float]) -> float:
    """Mean of the middle half of the latencies.  Cell latencies come in
    clusters with gaps between them (cheap and dear cells), so their
    median jumps across a gap as the host's speed shifts; the middle
    half's mean moves smoothly."""
    ordered = sorted(latencies_ms)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return statistics.fmean(middle) if middle else 0.0


def tail(latencies_ms: List[float]) -> Dict[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it (p50 when there are too few samples)."""
    n = len(latencies_ms)
    for percentile in (99, 95, 90, 75):
        if n * (100 - percentile) / 100 >= 10:
            value = statistics.quantiles(latencies_ms, n=100)[percentile - 1]
            return {"percentile": percentile, "n": n, "ms": value}
    return {"percentile": 50, "n": n, "ms": statistics.median(latencies_ms) if n else 0.0}


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", required=True, choices=("run", "trace", "setup", "fill"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--max-cells", type=int)
    parser.add_argument("--spans", type=Path, help="write every span recorded (trace mode)")
    args = parser.parse_args(argv)

    span_dir = args.work / f"spans-{args.workload}-{args.mode}"
    span_dir.mkdir(parents=True, exist_ok=True)
    # Only the end-to-end run probes the host between cells: in the
    # traced run the probes would sit in the spans' window as
    # unattributed time, and its per-layer times are host seconds.
    scaled = args.mode == "run"
    tracer = spans.Tracer(span_dir, probe=calibrate if scaled else None)
    span_cost = 0.0
    if args.mode in ("run", "trace"):
        spans.install(tracer, layers=args.mode == "trace")
        tracer.recording = True
        if args.mode == "trace":
            span_cost = spans.calibrate(tracer)

    workload = WORKLOADS[args.workload]()
    workload.setup(args)
    t_setup = time.perf_counter()
    calibrate()
    t_first = time.perf_counter()
    raw_setup = t_setup - T0 - CAL0 - workload.inputs_s
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "raw_setup_s": raw_setup,
              "setup_s": raw_setup * CAL_REF_S / ((CAL0 + t_first - t_setup) / 2)}
    probes = [(t_setup, t_first)]
    if args.mode == "fill":
        results, attempted, failed = workload.fill(args)
    elif args.mode in ("run", "trace"):
        workload.measure(args)
        t_end = time.perf_counter()
        tracer.recording = False
        if scaled:
            calibrate()
            probes.append((t_end, time.perf_counter()))
        results, attempted, failed = workload.collect(args)
        workers = spans.read_worker_batches(span_dir)
        clock = HostClock(probes + [
            (s[1], s[2]) for batch in [tracer.spans, *workers]
            for s in spans.top_level(batch, spans.PROBE)
        ])
        clocked = (
            [s for batch in workers for s in spans.top_level(batch, "runner.run")]
            if workload.pooled
            else [s for s in spans.top_level(tracer.spans, "runner.run") if s[1] >= t_first]
        )
        latencies_ms = [clock.seconds(s[1], s[2], scaled) * 1000 for s in clocked]
        record.update(
            wall_s=clock.seconds(t_first, t_end, scaled),
            raw_wall_s=clock.seconds(t_first, t_end, scaled=False),
            cell_ms_iqm=interquartile_mean(latencies_ms),
            cell_ms_median=statistics.median(latencies_ms) if latencies_ms else 0.0,
            tail=tail(latencies_ms),
            probes={"n": len(clock.ticks), "median_ms": 1000 * statistics.median(
                end - start for start, end in clock.ticks)},
            peak_rss_mb=peak_rss_mb(),
            model=model_errors(results) if args.workload == "paper-grid" else {},
        )
        if args.mode == "trace":
            per_layer = spans.layer_metrics(tracer.spans, workers, (t_first, t_end), span_cost)
            per_layer.update(simulated_counts(results))
            per_layer["runner.cell_ms_tail"] = record["tail"]["ms"]
            record["per_layer"] = per_layer
            if args.spans is not None:
                batches = [{"process": "main", "spans": tracer.spans}] + [
                    {"process": "worker", "spans": batch} for batch in workers
                ]
                args.spans.write_text(json.dumps(batches))
    if args.mode != "setup":
        record.update(
            attempted=attempted,
            failed=failed,
            sim_cycles=sum(result.cycles for result in results.values()),
            digest=digest(results),
        )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
