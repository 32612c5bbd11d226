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
``four``, ``mesh16``, or ``mesh32-directory``; ``sweep --machines``
takes a list of them.  (``verify --cores`` is not a machine spelling:
it filters the core counts to verify.)

``figure`` prints one entry of the figure table
(:data:`repro.harness.figures.FIGURES`), the same entry
``repro.run_figure`` computes; ``--machine`` replaces the figure's core
counts unless the figure fixes them (7-9, 10 and 11).

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
processes; ``--cell-timeout`` is the pool's one liveness deadline: each
worker task gets that many seconds per cell, counted from its own
submission (overdue or crashed cells are retried with exponential
backoff, then re-run serially).

``--journal FILE`` makes ``run``/``figure``/``sweep`` crash-safe: every
cell lifecycle event (planned/dispatched/completed/failed/abandoned) is
appended to a write-ahead JSONL journal and fsynced before the run
proceeds, and SIGTERM/Ctrl-C flush it before exiting.  After a crash or
kill, ``--resume FILE`` replays the journal against the result cache
and re-dispatches only the cells without a durable ``completed``
record -- the resumed output is identical to an uninterrupted run's.

``--faults`` (``run`` and ``figure`` only) turns on deterministic fault
injection (chaos mode): every simulation runs under a seeded fault plan
(``--fault-seed``, ``--fault-rate``) that perturbs timing while the
harness still checks outputs against the reference interpreter.  ``--fault-profile`` selects
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
under the happens-before race sanitizer and reports a ``message-leak``
when the network is not quiescent at halt (the same check as
``repro.verify_benchmark(..., dynamic=True)``), ``--report FILE``
writes the merged findings document CI uploads, and ``--suppress
kind[:function[:block]]`` tolerates known findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .. import api
from ..arch.config import apply_overrides, resolve_machine
from ..sim.faults import FAULT_PROFILES, FaultConfig
from ..sim.stats import STALL_CATEGORIES
from ..workloads.generator import generate_handles, is_generated, parse_handle
from ..workloads.suite import BENCHMARKS
from .experiments import FailureSummary
from .figures import render_figure
from .journal import flush_on_signals
from .reporting import (
    render_cache_line,
    render_failure_line,
    render_failures,
    render_fault_line,
    render_journal_line,
    render_recovery_line,
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


def _resolve_machine_flag(args, out) -> bool:
    """Resolve --machine in place to a MachineConfig (None stays None:
    each command has its own default); False on a bad spec (reported)."""
    if getattr(args, "machine", None) is None:
        return True
    try:
        args.machine = resolve_machine(args.machine)
    except (TypeError, ValueError) as error:
        print(f"bad --machine spec: {error}", file=out)
        return False
    return True


#: Flag groups several commands share, as ``(flag, add_argument keywords)``.
SHARED_FLAGS = {
    "runner": (
        ("--jobs", dict(
            type=int, default=1,
            help="worker processes for independent simulation cells (default 1)")),
        ("--no-cache", dict(action="store_true", help="bypass the on-disk result cache")),
        ("--cache-dir", dict(
            default=DEFAULT_CACHE_DIR,
            help=f"result cache directory (default {DEFAULT_CACHE_DIR})")),
        ("--cell-timeout", dict(
            type=float, default=None, metavar="SECONDS",
            help="wall-clock deadline per simulation cell on the worker pool, "
            "counted from its task's submission (overdue cells are retried, "
            "then run serially; default none)")),
        ("--journal", dict(
            default=None, metavar="FILE",
            help="write-ahead run journal (fsynced JSONL, one record per cell "
            "lifecycle event) making this run crash-safe; starts a fresh "
            "journal at FILE -- use --resume to continue one")),
        ("--resume", dict(
            default=None, metavar="FILE",
            help="resume an interrupted run from its journal: replay FILE "
            "against the result cache, re-dispatch only cells without a "
            "durable completed record, and keep journaling to FILE")),
    ),
    "faults": (
        ("--faults", dict(
            action="store_true",
            help="run every simulation under deterministic fault injection "
            "(chaos mode); outputs are still checked against the reference")),
        ("--fault-seed", dict(
            type=int, default=0,
            help="fault-plan RNG seed (default 0); same seed => same faults")),
        ("--fault-rate", dict(
            type=float, default=0.01,
            help="per-event fault probability for --faults (default 0.01)")),
        ("--fault-profile", dict(
            choices=FAULT_PROFILES, default="timing",
            help="fault families armed under --faults: timing delays only, "
            "destructive (corrupt/drop/blackout with architectural recovery), "
            "or both (default timing)")),
    ),
}


#: The sweep's integer machine axes: (flag, default value, metavar, what).
SWEEP_INT_AXES = (
    ("--queue-depths", 16, None, "operand-queue depths"),
    ("--hop-latencies", 1, "CYCLES", "queue-mode cycles per hop"),
    ("--memory-latencies", 100, "CYCLES", "main-memory latencies"),
    ("--tm-commit-latencies", 4, "CYCLES", "TM commit-check budgets"),
)


def _add_flags(subparser: argparse.ArgumentParser, *groups: str) -> None:
    for group in groups:
        for flag, keywords in SHARED_FLAGS[group]:
            subparser.add_argument(flag, **keywords)


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
    _add_flags(run, "runner", "faults")

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
    _add_flags(figure, "runner", "faults")

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
    for flag, default, metavar, what in SWEEP_INT_AXES:
        sweep.add_argument(
            flag, nargs="*", type=int, default=(default,), metavar=metavar,
            help=f"{what} to sweep (default {default})",
        )
    sweep.add_argument(
        "--out",
        default="sweep.json",
        metavar="FILE",
        help="Pareto/sweep JSON artifact path (default sweep.json)",
    )
    # No fault flags: a chaos sweep would fold fault timing noise into
    # every Pareto point.
    _add_flags(sweep, "runner")

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
    machine = args.machine if args.machine is not None else resolve_machine(4)
    if args.queue_policy is not None:
        machine = apply_overrides(machine, {"queue_policy": args.queue_policy})
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
    _print_session_lines(runner, out)
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

    workloads = list(args.workloads)
    if args.generated:
        workloads.extend(generate_handles(args.generated, args.gen_seed))
    if not workloads:
        print("sweep needs --workloads and/or --generated N", file=out)
        return 2
    if not _check_workloads(workloads, out):
        return 2
    try:
        document = api.sweep(
            workloads,
            strategies=args.strategies,
            machines=args.machines,
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
            f"cache     : {cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"quarantined={cache['quarantined']} in {args.cache_dir}",
            file=out,
        )
    failures = dict(document["failures"])
    attempts = failures.pop("attempts")
    print(render_failures(FailureSummary(**failures), attempts), file=out)
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
    runner = _make_runner(args, args.benchmarks, machine=args.machine)
    try:
        with flush_on_signals(runner.journal):
            text = render_figure(
                args.figure,
                runner,
                args.machine.n_cores if args.machine is not None else None,
            )
    finally:
        runner.close_journal()
    print(text, file=out)
    _print_session_lines(runner, out)
    return 0


def _print_session_lines(runner, out) -> None:
    """The report lines every run/figure command ends with: cache
    traffic, faults, recovery, failures and journal (the optional ones
    only when they have something to say)."""
    lines = [
        render_cache_line(runner),
        render_fault_line(runner),
        render_recovery_line(runner),
        render_failure_line(runner),
        render_journal_line(runner),
    ]
    for line in lines:
        if line:
            print(line, file=out)


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
    from ..analysis import merge_reports, verify_cell

    names = list(args.benchmarks or BENCHMARKS)
    if not _check_workloads(names, out):
        return 2
    grid = _verify_grid(args, args.machine)
    # A session supplies the builds, one compiler per benchmark (the
    # profile is computed once and shared by every cell), and each
    # cell's machine config with --machine's knobs applied.
    runner = api.session(names, machine=args.machine)
    reports = []
    failed = 0
    for name in names:
        for cores, strategy in grid:
            config = runner.machine_config(cores)
            compiled = runner.compiler(name).compile(strategy, config)
            report = verify_cell(
                compiled,
                config,
                args.suppress,
                dynamic=args.dynamic,
                max_cycles=runner.max_cycles,
            )
            report.benchmark = name
            reports.append(report)
            failed += not report.ok
            if args.verbose or not report.ok:
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
    if not _resolve_machine_flag(args, out):
        return 2
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
