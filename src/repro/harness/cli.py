"""Command-line interface to the reproduction.

    python -m repro.harness.cli list --generated 3
    python -m repro.harness.cli run --benchmark gsmdecode --machine 4 \
        --strategy hybrid
    python -m repro.harness.cli run --benchmark gen:7 --machine mesh16
    python -m repro.harness.cli run --benchmark epic \
        --machine mesh32-directory --strategy llp
    python -m repro.harness.cli figure --figure 10 --jobs 4
    python -m repro.harness.cli figure --figure 13 --benchmarks gsmdecode epic
    python -m repro.harness.cli figure --figure scaling --machine 16
    python -m repro.harness.cli verify --report findings.json
    python -m repro.harness.cli verify --machine mesh16-directory --dynamic
    python -m repro.harness.cli sweep --generated 4 --machines 2 4 mesh16 \
        --coherences snoop directory --queue-depths 4 16 --out sweep.json

Every ``--benchmark``/``--benchmarks``/``--workloads`` slot accepts
generated-workload handles (``gen:<seed>[:<knobs-hash>]``, see
:mod:`repro.workloads.generator`) interchangeably with suite names.

``--machine SPEC`` is the canonical machine spelling everywhere: an
integer core count (any size -- primes get a near-square mesh with
holes) or a preset name from ``repro.list_presets()`` such as
``four``, ``mesh16``, or ``mesh32-directory``.  The older ``--cores``
flags remain as aliases where they existed.

``sweep`` crosses machine-design axes (mesh size, coherence protocol,
operand-queue policy and depth, queue-mode hop latency, memory latency,
TM commit budget) against the selected workloads through the cached
parallel runner and writes the per-strategy Pareto frontiers --
resource-aware dominance over the swept axes, with categorical axes
(coherence, queue policy) keeping per-category frontiers -- as one JSON
artifact.

Simulation results are cached on disk (``.repro-cache/`` by default, keyed
by a content hash of program + config + seed) so a repeated figure run is
nearly free; pass ``--no-cache`` to force fresh simulations.  ``--jobs N``
fans independent (benchmark, cores, strategy) cells out over N worker
processes; ``--cell-timeout`` bounds each cell's wall-clock time on the
pool (overdue or crashed cells are retried, then re-run serially);
``--heartbeat-timeout`` additionally reaps workers that go silent.

``--journal FILE`` makes ``run``/``figure``/``sweep`` crash-safe: every
cell lifecycle event (planned/dispatched/completed/failed/abandoned) is
appended to a write-ahead JSONL journal and fsynced before the run
proceeds, and SIGTERM/Ctrl-C flush it before exiting.  After a crash or
kill, ``--resume FILE`` replays the journal against the result cache
and re-dispatches only the cells without a durable ``completed``
record -- the resumed output is identical to an uninterrupted run's.

``--faults`` turns on deterministic fault injection (chaos mode): every
simulation runs under a seeded fault plan (``--fault-seed``,
``--fault-rate``) that perturbs timing while the harness still checks
outputs against the reference interpreter.  ``--fault-profile`` selects
which fault families are armed: ``timing`` (the default delay-only
channels), ``destructive`` (corrupted/dropped messages and core
blackouts, repaired by the architectural recovery layer --
:mod:`repro.sim.recovery`), or ``both``.  Destructive runs print a
``recovery :`` report line tallying every detection and repair.

``run --trace-out trace.json`` profiles the run through the
observability layer (:mod:`repro.obs`) and writes a Perfetto-loadable
trace; ``--metrics-out metrics.json`` writes the sampled time series and
the reconciled per-mode timeline.  Profiled runs always simulate fresh
(the cache cannot carry a cycle-accurate event record).

``verify`` runs the voltlint static checks (:mod:`repro.analysis`) over
every compiled cell in the grid -- channel balance, DVLIW alignment,
memory-sync coverage, mode barriers, TM brackets -- and exits 1 on any
unsuppressed finding; ``--dynamic`` additionally executes each cell
under the happens-before race sanitizer, ``--report FILE`` writes the
merged findings document CI uploads, and ``--suppress
kind[:function[:block]]`` tolerates known findings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from .. import api
from ..arch.config import MachineConfig, resolve_machine
from ..sim.faults import FAULT_PROFILES, FaultConfig
from ..sim.stats import STALL_CATEGORIES
from ..workloads.generator import generate_handles, is_generated, parse_handle
from ..workloads.suite import BENCHMARKS
from .experiments import SINGLE_STRATEGIES
from .journal import flush_on_signals
from .reporting import (
    render_bar_breakdown,
    render_cache_line,
    render_failure_line,
    render_fault_line,
    render_journal_line,
    render_recovery_line,
    render_table,
)

FIGURES = api.FIGURES

DEFAULT_CACHE_DIR = ".repro-cache"


def _machine_spec(value: str):
    """argparse type for --machine: an int core count or a preset name."""
    try:
        return int(value)
    except ValueError:
        return value


def _add_machine_option(subparser: argparse.ArgumentParser, help_tail="") -> None:
    subparser.add_argument(
        "--machine",
        type=_machine_spec,
        default=None,
        metavar="SPEC",
        help="machine spec: a core count (any size) or a preset name "
        "from repro.list_presets(), e.g. mesh16 or mesh32-directory"
        + help_tail,
    )


def _resolve_machine_flag(args, out) -> Optional[MachineConfig]:
    """Resolve --machine/--cores to a MachineConfig, or None on error
    (already reported).  --cores stays as a legacy alias; passing both
    is an error."""
    machine = getattr(args, "machine", None)
    cores = getattr(args, "cores", None)
    if machine is not None and cores is not None:
        print("pass either --machine or --cores, not both", file=out)
        return None
    spec = machine if machine is not None else (cores or 4)
    try:
        return resolve_machine(spec)
    except (TypeError, ValueError) as error:
        print(f"bad --machine spec: {error}", file=out)
        return None


def _add_runner_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation cells (default 1)",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    subparser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    subparser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per simulation cell on the worker pool "
        "(overdue cells are retried, then run serially; default none)",
    )
    subparser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write-ahead run journal (fsynced JSONL, one record per cell "
        "lifecycle event) making this run crash-safe; starts a fresh "
        "journal at FILE -- use --resume to continue one",
    )
    subparser.add_argument(
        "--resume",
        default=None,
        metavar="FILE",
        help="resume an interrupted run from its journal: replay FILE "
        "against the result cache, re-dispatch only cells without a "
        "durable completed record, and keep journaling to FILE",
    )
    subparser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="arm worker supervision: a pool worker silent past this many "
        "seconds is declared hung/killed and its cells retried, without "
        "waiting out the full --cell-timeout (default off)",
    )
    subparser.add_argument(
        "--backoff-seed",
        type=int,
        default=None,
        help="seed of the deterministic retry-backoff jitter (default: "
        "the build seed)",
    )
    subparser.add_argument(
        "--faults",
        action="store_true",
        help="run every simulation under deterministic fault injection "
        "(chaos mode); outputs are still checked against the reference",
    )
    subparser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="fault-plan RNG seed (default 0); same seed => same faults",
    )
    subparser.add_argument(
        "--fault-rate",
        type=float,
        default=0.01,
        help="per-event fault probability for --faults (default 0.01)",
    )
    subparser.add_argument(
        "--fault-profile",
        choices=FAULT_PROFILES,
        default="timing",
        help="fault families armed under --faults: timing delays only, "
        "destructive (corrupt/drop/blackout with architectural recovery), "
        "or both (default timing)",
    )


def _make_runner(args, benchmarks, machine=None):
    faults = None
    if args.faults:
        faults = FaultConfig(
            seed=args.fault_seed,
            rate=args.fault_rate,
            profile=args.fault_profile,
        )
    return api.session(
        benchmarks,
        machine=machine,
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=args.jobs,
        cell_timeout=args.cell_timeout,
        faults=faults,
        journal=args.resume or args.journal,
        resume=bool(args.resume),
        heartbeat_timeout=args.heartbeat_timeout,
        backoff_seed=args.backoff_seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Voltron (HPCA 2007) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser(
        "list",
        help="list the benchmark suite (and generated handles)",
        description="Print the 25 named benchmarks; --generated N appends "
        "N generated-workload handles (gen:<seed>:<knobs-hash>) for "
        "consecutive seeds, usable anywhere a benchmark name is.",
    )
    listing.add_argument(
        "--generated",
        type=int,
        default=0,
        metavar="N",
        help="also print N generated-workload handles (default 0)",
    )
    listing.add_argument(
        "--gen-seed",
        type=int,
        default=1,
        help="first generator seed for --generated (default 1)",
    )

    run = sub.add_parser("run", help="run one benchmark end to end")
    run.add_argument(
        "--benchmark",
        required=True,
        metavar="NAME",
        help="a suite benchmark or a generated handle "
        "(gen:<seed>[:<knobs-hash>])",
    )
    _add_machine_option(run, help_tail=" (default: 4 cores)")
    run.add_argument(
        "--cores",
        type=int,
        default=None,
        metavar="N",
        help="legacy alias for --machine N",
    )
    run.add_argument(
        "--strategy",
        default="hybrid",
        choices=("baseline", "ilp", "tlp", "llp", "hybrid"),
    )
    run.add_argument(
        "--queue-policy",
        default=None,
        choices=("pair", "vlink"),
        help="override the machine's operand receive-queue policy: "
        "per-pair reserved FIFOs or shared Virtual-Link pools",
    )
    run.add_argument(
        "--stalls", action="store_true", help="print the stall breakdown"
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="profile the run and write a Perfetto/Chrome trace JSON",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="profile the run and write the metrics time series + "
        "reconciled timeline as JSON",
    )
    run.add_argument(
        "--obs-stride",
        type=int,
        default=64,
        metavar="CYCLES",
        help="metrics-series sampling period in cycles (default 64)",
    )
    _add_runner_options(run)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("--figure", required=True, choices=FIGURES)
    figure.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to a subset of names or generated handles "
        "(default: all 25)",
    )
    _add_machine_option(
        figure,
        help_tail="; overrides the figure's core count where it has one "
        "and applies the spec's machine knobs to every cell",
    )
    _add_runner_options(figure)

    sweep = sub.add_parser(
        "sweep",
        help="sweep machine configs x workloads; Pareto frontiers as JSON",
        description="Cross machine-design axes (mesh size, coherence "
        "protocol, operand-queue policy and depth, queue-mode hop "
        "latency, memory latency, TM commit budget) against named and/or "
        "generated workloads through the cached parallel runner, and "
        "report per-strategy Pareto frontiers (resource-aware dominance: "
        "at least the speedup on hardware no more expensive in any axis; "
        "categorical axes keep per-category frontiers).",
    )
    sweep.add_argument(
        "--workloads",
        nargs="*",
        default=(),
        metavar="NAME",
        help="suite benchmarks and/or generated handles to sweep",
    )
    sweep.add_argument(
        "--generated",
        type=int,
        default=0,
        metavar="N",
        help="additionally generate N seeded workloads (default 0)",
    )
    sweep.add_argument(
        "--gen-seed",
        type=int,
        default=1,
        help="first generator seed for --generated (default 1)",
    )
    sweep.add_argument(
        "--strategies",
        nargs="*",
        default=("ilp", "tlp", "llp", "hybrid"),
        choices=("ilp", "tlp", "llp", "hybrid"),
        help="strategies to frontier (default: all four)",
    )
    sweep.add_argument(
        "--machines",
        nargs="*",
        type=_machine_spec,
        default=None,
        metavar="SPEC",
        help="machine specs spanning the mesh-size axis: core counts "
        "and/or preset names (default 2 4); coherence-variant presets "
        "seed the coherence axis unless --coherences pins it",
    )
    sweep.add_argument(
        "--cores",
        nargs="*",
        type=int,
        default=None,
        metavar="N",
        help="legacy alias for --machines",
    )
    sweep.add_argument(
        "--coherences",
        nargs="*",
        default=None,
        choices=("snoop", "directory"),
        help="coherence protocols to sweep (default: those named by "
        "--machines entries, i.e. snoop unless a -directory preset "
        "appears)",
    )
    sweep.add_argument(
        "--queue-policies",
        nargs="*",
        default=("pair",),
        choices=("pair", "vlink"),
        help="operand-queue policies to sweep: per-pair reserved queues "
        "or Virtual-Link shared receiver pools (default pair)",
    )
    sweep.add_argument(
        "--queue-depths",
        nargs="*",
        type=int,
        default=(16,),
        help="operand-queue depths to sweep (default 16)",
    )
    sweep.add_argument(
        "--hop-latencies",
        nargs="*",
        type=int,
        default=(1,),
        metavar="CYCLES",
        help="queue-mode cycles per hop to sweep (default 1)",
    )
    sweep.add_argument(
        "--memory-latencies",
        nargs="*",
        type=int,
        default=(100,),
        metavar="CYCLES",
        help="main-memory latencies to sweep (default 100)",
    )
    sweep.add_argument(
        "--tm-commit-latencies",
        nargs="*",
        type=int,
        default=(4,),
        metavar="CYCLES",
        help="TM commit-check budgets to sweep (default 4)",
    )
    sweep.add_argument(
        "--out",
        default="sweep.json",
        metavar="FILE",
        help="Pareto/sweep JSON artifact path (default sweep.json)",
    )
    _add_runner_options(sweep)

    verify = sub.add_parser(
        "verify",
        help="statically verify compiled communication (voltlint)",
        description="Run the voltlint static verifier over every "
        "(benchmark, cores, strategy) cell: queue-channel balance, "
        "lock-step PUT/GET alignment, sync coverage of cross-core memory "
        "dependences, MODE_SWITCH bracketing, and DOALL speculation "
        "brackets.  Exit status 1 when any unsuppressed finding remains.",
    )
    verify.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to a subset (default: all 25)",
    )
    _add_machine_option(
        verify,
        help_tail="; sets the core counts to verify (unless --cores "
        "overrides them) and applies the spec's machine knobs "
        "(coherence, queue policy, ...) to every cell",
    )
    verify.add_argument(
        "--cores",
        nargs="*",
        type=int,
        default=None,
        metavar="N",
        help="restrict to these core counts, any mesh size "
        "(default: the paper grid 1 2 4, or --machine's count)",
    )
    verify.add_argument(
        "--strategies",
        nargs="*",
        default=None,
        choices=("baseline", "ilp", "tlp", "llp", "hybrid"),
        help="restrict to these strategies (default: the paper grid -- "
        "baseline on 1 core, ilp/tlp/llp on 2 and 4)",
    )
    verify.add_argument(
        "--dynamic",
        action="store_true",
        help="additionally execute each cell under the race sanitizer "
        "(shadow-memory happens-before over cross-core accesses)",
    )
    verify.add_argument(
        "--suppress",
        nargs="*",
        default=(),
        metavar="PATTERN",
        help="tolerate findings matching kind, kind:function, or "
        "kind:function:block",
    )
    verify.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the merged findings report as JSON (the CI artifact)",
    )
    verify.add_argument(
        "--verbose",
        action="store_true",
        help="print every cell's report, not just failures",
    )
    return parser


def _check_workloads(names, out) -> bool:
    """Validate a mixed list of suite names and generated handles; any
    bad entry is reported (a malformed handle says why)."""
    bad = []
    for name in names:
        if name in BENCHMARKS:
            continue
        if is_generated(name):
            try:
                parse_handle(name)
                continue
            except (KeyError, ValueError) as error:
                bad.append(f"{name} ({error})")
                continue
        bad.append(name)
    if bad:
        print(f"unknown benchmarks: {', '.join(bad)}", file=out)
    return not bad


def _cmd_list(args, out) -> int:
    for name in api.list_benchmarks(
        generated=args.generated, gen_seed=args.gen_seed
    ):
        print(name, file=out)
    return 0


def _cmd_run(args, out) -> int:
    if not _check_workloads([args.benchmark], out):
        return 2
    machine = _resolve_machine_flag(args, out)
    if machine is None:
        return 2
    policy = getattr(args, "queue_policy", None)
    if policy is not None and policy != machine.network.queue_policy:
        machine = dataclasses.replace(
            machine,
            network=dataclasses.replace(
                machine.network, queue_policy=policy
            ),
        )
    obs = None
    if args.trace_out or args.metrics_out:
        from ..obs import Observability, ObsConfig

        obs = Observability(ObsConfig(sample_stride=args.obs_stride))
        # Profiled runs always simulate fresh: a cached result would come
        # back without its cycle-accurate event record.
        args.no_cache = True
    runner = _make_runner(args, [args.benchmark], machine=machine)
    runner.obs = obs
    n_cores = machine.n_cores
    strategy = "baseline" if n_cores == 1 else args.strategy
    try:
        with flush_on_signals(runner.journal):
            result = runner.run(args.benchmark, n_cores, strategy)
            base = runner.baseline(args.benchmark)
    finally:
        runner.close_journal()
    stats = result.stats
    print(f"benchmark : {args.benchmark}", file=out)
    machine_line = f"{n_cores} core(s), strategy {strategy}"
    if machine.coherence != "snoop":
        machine_line += f", {machine.coherence} coherence"
    if machine.network.queue_policy != "pair":
        machine_line += f", {machine.network.queue_policy} queues"
    print(f"machine   : {machine_line}", file=out)
    print(f"cycles    : {stats.cycles} (baseline {base.cycles}, "
          f"speedup {base.cycles / stats.cycles:.2f}x)", file=out)
    print(f"mode time : {stats.mode_fraction('coupled'):.0%} coupled / "
          f"{stats.mode_fraction('decoupled'):.0%} decoupled", file=out)
    print(f"txns      : {stats.tx_commits} commits, {stats.tx_aborts} "
          f"aborts; {stats.spawns} spawns", file=out)
    print("correct   : outputs match the reference interpreter", file=out)
    print(render_cache_line(runner), file=out)
    fault_line = render_fault_line(runner)
    if fault_line:
        print(fault_line, file=out)
    recovery_line = render_recovery_line(runner)
    if recovery_line:
        print(recovery_line, file=out)
    print(render_failure_line(runner), file=out)
    journal_line = render_journal_line(runner)
    if journal_line:
        print(journal_line, file=out)
    if args.stalls:
        for category in STALL_CATEGORIES:
            mean = stats.mean_stalls(category)
            if mean:
                print(f"  stall {category:10s}: {mean:10.1f} "
                      "cycles/core", file=out)
    if obs is not None:
        if args.trace_out:
            from ..obs import write_trace

            write_trace(obs, args.trace_out)
            print(f"trace     : {args.trace_out} "
                  "(load in ui.perfetto.dev)", file=out)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(result.metrics, handle)
            print(f"metrics   : {args.metrics_out} (timeline reconciled "
                  "against machine stats)", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    from .sweep import render_frontiers

    if args.faults:
        # A chaos sweep would fold fault timing noise into every Pareto
        # point; keep the design-space story clean.
        print("sweep does not support --faults", file=out)
        return 2
    workloads = list(args.workloads)
    if args.generated:
        workloads.extend(generate_handles(args.generated, args.gen_seed))
    if not workloads:
        print("sweep needs --workloads and/or --generated N", file=out)
        return 2
    if not _check_workloads(workloads, out):
        return 2
    if args.machines is not None and args.cores is not None:
        print("pass either --machines or --cores, not both", file=out)
        return 2
    machines = args.machines if args.machines is not None else args.cores
    try:
        document = api.sweep(
            workloads,
            strategies=args.strategies,
            machines=machines,
            coherences=args.coherences,
            queue_policies=args.queue_policies,
            queue_depths=args.queue_depths,
            queue_cycles_per_hop=args.hop_latencies,
            memory_latencies=args.memory_latencies,
            tm_commit_latencies=args.tm_commit_latencies,
            cache_dir=None if args.no_cache else args.cache_dir,
            jobs=args.jobs,
            cell_timeout=args.cell_timeout,
            journal=args.resume or args.journal,
            resume=bool(args.resume),
            heartbeat_timeout=args.heartbeat_timeout,
            out=args.out,
        )
    except ValueError as error:
        print(f"bad sweep spec: {error}", file=out)
        return 2
    print(render_frontiers(document), file=out)
    cache = document["cache"]
    if args.no_cache:
        print("cache     : disabled", file=out)
    else:
        print(
            f"cache     : {cache['hits']} hit(s), {cache['misses']} miss(es) "
            f"({args.cache_dir})",
            file=out,
        )
    journal_doc = document.get("journal")
    if journal_doc:
        print(
            f"journal   : {journal_doc['replayed']} replayed / "
            f"{journal_doc['rerun']} re-run / "
            f"{journal_doc['abandoned']} abandoned "
            f"({journal_doc['path']})",
            file=out,
        )
    print(f"artifact  : {args.out}", file=out)
    return 0


def _cmd_figure(args, out) -> int:
    if args.benchmarks and not _check_workloads(args.benchmarks, out):
        return 2
    machine = None
    if args.machine is not None:
        try:
            machine = resolve_machine(args.machine)
        except (TypeError, ValueError) as error:
            print(f"bad --machine spec: {error}", file=out)
            return 2
    runner = _make_runner(args, args.benchmarks, machine=machine)
    try:
        with flush_on_signals(runner.journal):
            _render_figure(
                runner,
                args.figure,
                out,
                machine.n_cores if machine is not None else None,
            )
    finally:
        runner.close_journal()
    print(render_cache_line(runner), file=out)
    fault_line = render_fault_line(runner)
    if fault_line:
        print(fault_line, file=out)
    recovery_line = render_recovery_line(runner)
    if recovery_line:
        print(recovery_line, file=out)
    print(render_failure_line(runner), file=out)
    journal_line = render_journal_line(runner)
    if journal_line:
        print(journal_line, file=out)
    return 0


def _render_figure(runner, figure, out, n=None) -> None:
    if figure == "3":
        print(
            render_bar_breakdown(
                f"Figure 3: parallelism breakdown ({n or 4} cores)",
                runner.fig3_breakdown(n or 4),
                columns=("ilp", "tlp", "llp", "single"),
            ),
            file=out,
        )
    elif figure == "7-9":
        for label, value in runner.figure7_9_examples().items():
            print(f"{label:22s} {value:.2f}x", file=out)
    elif figure in ("10", "11"):
        n_cores = 2 if figure == "10" else 4
        print(
            render_table(
                f"Figure {figure}: {n_cores}-core speedups per type",
                runner.fig10_11_speedups(n_cores),
                columns=SINGLE_STRATEGIES,
            ),
            file=out,
        )
    elif figure == "12":
        table = runner.fig12_stalls(n)
        flat = {
            f"{name} [{mode[:3]}]": row[mode]
            for name, row in table.items()
            for mode in ("coupled", "decoupled")
        }
        print(
            render_table(
                f"Figure 12: stalls / serial time ({n or 4} cores)",
                flat,
                columns=("istall", "dstall", "recv_data", "recv_pred",
                         "call_sync"),
                fmt="{:.3f}",
                average_row=False,
            ),
            file=out,
        )
    elif figure == "13":
        counts = (n,) if n is not None else (2, 4)
        hybrid = runner.fig13_hybrid(counts)
        print(
            render_table(
                "Figure 13: hybrid speedups",
                {
                    name: {f"{c}core": row[c] for c in counts}
                    for name, row in hybrid.items()
                },
                columns=tuple(f"{c}core" for c in counts),
            ),
            file=out,
        )
    elif figure == "scaling":
        counts = (n,) if n is not None else (4, 16, 32)
        table = runner.fig_scaling(counts)
        strategies = SINGLE_STRATEGIES + ("hybrid",)
        for count in counts:
            print(
                render_table(
                    f"Scaling: {count}-core speedups per strategy",
                    {name: row[count] for name, row in table.items()},
                    columns=strategies,
                ),
                file=out,
            )
    elif figure == "14":
        print(
            render_bar_breakdown(
                f"Figure 14: time per execution mode (hybrid, {n or 4} "
                "cores)",
                runner.fig14_mode_time(n),
                columns=("coupled", "decoupled"),
            ),
            file=out,
        )


def _verify_grid(args, machine=None) -> List[tuple]:
    """(cores, strategy) cells to verify: the paper grid by default, or
    --machine's core count, or an explicit --cores list (any mesh size)."""
    if machine is None and args.cores is None and args.strategies is None:
        return [(1, "baseline")] + [
            (n, s) for n in (2, 4) for s in ("ilp", "tlp", "llp")
        ]
    if args.cores is not None:
        cores_list = args.cores
    elif machine is not None:
        cores_list = [machine.n_cores]
    else:
        cores_list = [1, 2, 4]
    strategies = args.strategies or ["baseline", "ilp", "tlp", "llp"]
    grid = []
    for n in cores_list:
        for strategy in strategies:
            # baseline is the 1-core cell; parallel strategies need >1.
            if (strategy == "baseline") != (n == 1):
                continue
            grid.append((n, strategy))
    return grid


def _cmd_verify(args, out) -> int:
    from ..analysis import merge_reports, verify_compiled
    from ..arch.config import (
        apply_overrides,
        machine_overrides,
        mesh,
        single_core,
    )
    from ..compiler.driver import VoltronCompiler
    from ..workloads.suite import build

    names = list(args.benchmarks or BENCHMARKS)
    if not _check_workloads(names, out):
        return 2
    machine = None
    if args.machine is not None:
        try:
            machine = resolve_machine(args.machine)
        except (TypeError, ValueError) as error:
            print(f"bad --machine spec: {error}", file=out)
            return 2
    overrides = (
        machine_overrides(machine, include_shape=False) if machine else {}
    )
    grid = _verify_grid(args, machine)
    reports = []
    failed = 0
    for name in names:
        bench = build(name)
        # One compiler per benchmark: the profile is computed once and
        # shared by every cell.
        compiler = VoltronCompiler(bench.program)
        for cores, strategy in grid:
            config = single_core() if cores == 1 else mesh(cores)
            config = apply_overrides(config, overrides)
            compiled = compiler.compile(strategy, config)
            report = verify_compiled(compiled, config, args.suppress)
            report.benchmark = name
            report.strategy = strategy
            if args.dynamic:
                from ..analysis import RaceSanitizer
                from ..analysis.findings import match_suppression
                from ..sim.machine import VoltronMachine

                sanitizer = RaceSanitizer()
                machine = VoltronMachine(compiled, config, obs=sanitizer)
                machine.run()
                report.count("dynamic_accesses", sanitizer.checked_accesses)
                for finding in sanitizer.findings:
                    finding.suppressed = match_suppression(
                        finding, args.suppress
                    )
                    report.add(finding)
            reports.append(report)
            if not report.ok:
                failed += 1
                print(report.render(), file=out)
            elif args.verbose:
                print(report.render(), file=out)
    document = merge_reports(reports)
    checks = "static" + (" + dynamic" if args.dynamic else "")
    print(
        f"verify    : {document['total_cells']} cells ({checks}), "
        f"{failed} with findings "
        f"({document['total_findings']} unsuppressed finding(s))",
        file=out,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"report    : {args.report}", file=out)
    return 0 if document["ok"] else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args, out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "figure":
            return _cmd_figure(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
    except KeyboardInterrupt:
        # SIGTERM/SIGINT land here after flush_on_signals has written a
        # durable ``interrupted`` record and closed the journal, so the
        # interrupted run is always resumable.
        journal = getattr(args, "resume", None) or getattr(
            args, "journal", None
        )
        if journal:
            print(
                f"interrupted: journal flushed -- resume with "
                f"--resume {journal}",
                file=out,
            )
        else:
            print("interrupted", file=out)
        return 130
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
