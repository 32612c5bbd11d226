"""Performance ledger: five workloads, host-time end-to-end metrics, and
a traced per-layer run.

    python benchmarks/ledger/bench.py run [--workloads W ...] [--seed N] [--repeat N] [--out FILE]
    python benchmarks/ledger/bench.py trace [--workloads W ...] [--seed N] [--out FILE]
    python benchmarks/ledger/bench.py compare PARENT.json CHANGE.json [--trace FILE] [--out FILE]

One workload, with one JSON object as the last output line (``--trace 1``
reports the per-layer metrics instead of the end-to-end ones)::

    python benchmarks/ledger/bench.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh interpreter (``workload.py``).  Metric
names, units and bounds live in ``BENCHMARK.json`` at the repository
root; README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import verdict

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SCRATCH = ROOT / ".bench_build" / "ledger"
#: The workload processes' bytecode, written on first import and kept
#: for later runs in the checkout, so that ``setup_s`` times what a user
#: with a warm bytecode cache pays whether or not the environment lets
#: Python write bytecode (without it, every set-up recompiles the
#: program and took twice as long on the short ones).
PYCACHE = ROOT / ".bench_build" / "pycache"
WORKLOADS = ("paper-grid", "mesh-scale", "chaos", "warm-replay", "gen-sweep")
#: Set-up samples per end-to-end run: more while the run's ``--seconds``
#: last, but at least this many.
MIN_SETUPS = 3
#: Wall-clock budget of one workload run, fill included.
RUN_BUDGET_S = 170.0

#: (directory, digest) of a filled paper-grid cache and journal.
Source = Tuple[Path, str]


class LedgerError(RuntimeError):
    """A workload process failed or ran past its deadline."""


def load_spec() -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise LedgerError(
            f"no program sources under {ROOT / 'src'}; run from a full checkout"
        )
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
    }


def child(
    workload: str,
    mode: str,
    seed: int,
    work: Path,
    deadline: float,
    *,
    max_cells: Optional[int] = None,
    spans: Optional[Path] = None,
) -> dict:
    """Run ``workload.py`` in a fresh interpreter and return its record.
    The process gets its own session so that anything it leaves behind
    (pool workers) is stopped with it."""
    work.mkdir(parents=True, exist_ok=True)
    handle, out = tempfile.mkstemp(prefix=f"{workload}-{mode}-", suffix=".json", dir=work)
    os.close(handle)
    command = [
        sys.executable, str(LEDGER / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--work", str(work), "--out", out,
    ]
    if max_cells is not None:
        command += ["--max-cells", str(max_cells)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code is None:
        raise LedgerError(f"{workload} ({mode}) ran past its deadline")
    if code != 0:
        raise LedgerError(f"{workload} ({mode}) exited with status {code}")
    return json.loads(Path(out).read_text())


def fill(seed: int, work: Path, deadline: float, max_cells: Optional[int]) -> Source:
    """Warm-replay's preparation: paper-grid's cells into a fresh cache
    and journal (timed by nothing)."""
    directory = work / "warm-replay-fill"
    record = child("warm-replay", "fill", seed, directory, deadline, max_cells=max_cells)
    if record["failed"]:
        raise LedgerError(f"warm-replay fill: {record['failed']} cells failed")
    return directory, record["digest"]


def run_once(
    workload: str,
    mode: str,
    seed: int,
    work: Path,
    deadline: float,
    *,
    max_cells: Optional[int] = None,
    spans: Optional[Path] = None,
    source: Optional[Source] = None,
) -> dict:
    """One workload process.  Warm-replay runs over ``source`` and must
    reproduce its digest; every other workload gets a fresh directory."""
    directory, expected = (
        source if workload == "warm-replay" else (work / f"{workload}-{mode}", None)
    )
    record = child(workload, mode, seed, directory, deadline, max_cells=max_cells, spans=spans)
    record["correct"] = record["failed"] == 0 and expected in (None, record["digest"])
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def measure(
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    deadline: float,
    *,
    max_cells: Optional[int] = None,
    source: Optional[Source] = None,
) -> dict:
    """One end-to-end run: the workload, then fresh set-up-only
    processes while ``seconds`` last; ``setup_s`` is their median (one
    set-up, a second or less, is too short to outlast the host's
    jitter)."""
    if workload == "warm-replay" and source is None:
        source = fill(seed, work, deadline, max_cells)
    started = time.monotonic()
    record = run_once(workload, "run", seed, work, deadline, max_cells=max_cells, source=source)
    samples = [record["setup_s"]]
    while len(samples) < MIN_SETUPS or time.monotonic() - started < seconds:
        sample_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-setup-", dir=work))
        try:
            samples.append(
                child(workload, "setup", seed, sample_dir, deadline, max_cells=max_cells)["setup_s"]
            )
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
    record["setup_s"] = statistics.median(samples)
    record["setup_samples"] = samples
    return record


def describe(record: dict) -> List[str]:
    lines = [
        f"{record['workload']} (seed {record['seed']}, {record['mode']}): "
        f"{record['attempted']} cells, {record['failed']} failed "
        f"(failed_frac {record['failed_frac']:g}), correct={record['correct']}",
        f"  digest {record['digest']}  sim_cycles {record['sim_cycles']}",
        f"  cell latency over {record['tail']['n']} cells: median {record['cell_ms_median']:.2f} ms, "
        f"p{record['tail']['percentile']} {record['tail']['ms']:.2f} ms",
    ]
    if record["mode"] == "run":
        lines.append(
            f"  host seconds: wall {record['raw_wall_s']:.3f} s, set-up {record['raw_setup_s']:.3f} s; "
            f"host probe median {record['probes']['median_ms']:.2f} ms over {record['probes']['n']} "
            f"probes (the metrics are scaled to the reference speed)"
        )
    if "setup_samples" in record:
        lines.append(f"  setup_s is the median of {len(record['setup_samples'])} set-ups")
    if record.get("model"):
        errors = "  ".join(f"{k.split('.', 1)[1]} {v:+.3f}" for k, v in record["model"].items())
        lines.append(f"  model error vs the paper's simulator (not hardware): {errors}")
    return lines


def scratch() -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def one_workload(args, spec: dict) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = scratch()
    try:
        if args.trace:
            record = run_once(
                args.workload, "trace", args.seed, work, deadline,
                max_cells=args.max_cells, spans=args.spans,
                source=fill(args.seed, work, deadline, args.max_cells)
                if args.workload == "warm-replay" else None,
            )
            values, wanted = record["per_layer"], spec["per_layer"]
        else:
            record = measure(
                args.workload, args.seed, args.seconds, work, deadline,
                max_cells=args.max_cells,
            )
            values, wanted = record, spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(describe(record)))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0 if record["correct"] else 1


def append_run(path: Path, run: dict) -> None:
    document = json.loads(path.read_text()) if path.exists() else {
        "schema": 1, "host": host(), "runs": [],
    }
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1) + "\n")


def print_run(run: dict, spec: dict) -> None:
    metrics = spec["end_to_end"]
    header = f"{'workload':12}" + "".join(
        f"{m['name'] + ' [' + m['unit'] + ']':>20}" for m in metrics
    ) + f"{'failed_frac':>13}  digest"
    print(header)
    for workload, record in run["workloads"].items():
        print(f"{workload:12}" + "".join(
            f"{record[m['name']]:>20.6g}" for m in metrics
        ) + f"{record['failed_frac']:>13g}  {record['digest'][:16]}")
    for record in run["workloads"].values():
        print("\n".join(describe(record)))


def cmd_run(args, spec: dict) -> int:
    correct = True
    for _ in range(args.repeat):
        work = scratch()
        run = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        source: Optional[Source] = None
        try:
            for workload in args.workloads:
                deadline = time.monotonic() + RUN_BUDGET_S
                record = measure(
                    workload, args.seed, args.seconds, work, deadline, source=source
                )
                if workload == "paper-grid":
                    source = (work / "paper-grid-run", record["digest"])
                run["workloads"][workload] = record
                correct = correct and record["correct"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_run(run, spec)
        if args.out is not None:
            append_run(args.out, run)
    return 0 if correct else 1


def print_trace(document: dict, spec: dict) -> None:
    workloads = list(document["workloads"])
    print(f"{'per-layer metric':34}{'unit':>8}" + "".join(f"{w:>14}" for w in workloads))
    for metric in spec["per_layer"]:
        print(f"{metric['name']:34}{metric['unit']:>8}" + "".join(
            f"{document['workloads'][w]['per_layer'][metric['name']]:>14.6g}" for w in workloads
        ))
    for label, key in (("traced wall (host s)", "wall_s"),
                       ("untraced wall (host s)", "untraced_wall_s")):
        print(f"{label:34}{'s':>8}" + "".join(
            f"{document['workloads'][w][key]:>14.6g}" for w in workloads
        ))
    print(f"{'digest equals the untraced run':42}" + "".join(
        f"{str(document['workloads'][w]['digest_matches_run']):>14}" for w in workloads
    ))


def cmd_trace(args, spec: dict) -> int:
    work = scratch()
    document = {"seed": args.seed, "host": host(), "workloads": {}}
    source: Optional[Source] = None
    try:
        for workload in args.workloads:
            deadline = time.monotonic() + 2 * RUN_BUDGET_S
            if workload == "warm-replay" and source is None:
                source = fill(args.seed, work, deadline, None)
            untraced = run_once(workload, "run", args.seed, work, deadline, source=source)
            traced = run_once(workload, "trace", args.seed, work, deadline, source=source)
            if workload == "paper-grid":
                source = (work / "paper-grid-run", untraced["digest"])
            matches = traced["digest"] == untraced["digest"]
            document["workloads"][workload] = {
                "per_layer": traced["per_layer"],
                "tail": traced["tail"],
                "wall_s": traced["wall_s"],
                "untraced_wall_s": untraced["raw_wall_s"],
                "digest": traced["digest"],
                "digest_matches_run": matches,
                "correct": traced["correct"] and untraced["correct"] and matches,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_trace(document, spec)
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


def cmd_compare(args, spec: dict) -> int:
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())

    def seeds(document: dict) -> Dict[str, List[int]]:
        by_workload: Dict[str, List[int]] = {}
        for run in document["runs"]:
            for workload in run["workloads"]:
                by_workload.setdefault(workload, []).append(run["seed"])
        return by_workload

    parent_seeds, change_seeds = seeds(parent), seeds(change)
    for workload, a in parent_seeds.items():
        b = change_seeds.get(workload, [])
        pairs = min(len(a), len(b))
        if pairs < verdict.MIN_PAIRS:
            print(f"{workload}: only {pairs} pairs; at least {verdict.MIN_PAIRS} "
                  "are needed to claim a gain")
        if a[:pairs] != b[:pairs]:
            print(f"{workload}: paired runs used different seeds; the digest row will differ")
    rows = verdict.compare(parent["runs"], change["runs"], spec["end_to_end"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, row in rows.items():
        for name, judged in row.items():
            if "wins" in judged:
                p1, pm, p3 = judged["parent"]
                c1, cm, c3 = judged["change"]
                detail = (
                    f"parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  change {cm:.5g} "
                    f"[{c1:.5g}, {c3:.5g}]  wins {judged['wins']}/{judged['pairs']}"
                )
            elif "same" in judged:
                detail = f"identical in {judged['same']}/{judged['pairs']} pairs"
            else:
                detail = f"failed cells parent {judged['parent']} change {judged['change']}"
            print(f"{workload:12} {name:12} {units.get(name, ''):6} {detail}  {judged['verdict']}")
    if args.out is not None:
        ledger = {"schema": 1, "parent": parent, "change": change, "verdicts": rows}
        if args.trace is not None:
            ledger["trace"] = json.loads(args.trace.read_text())
        args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


def parse(argv: List[str]) -> argparse.Namespace:
    if argv and argv[0] in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        commands = parser.add_subparsers(dest="command", required=True)
        for name in ("run", "trace"):
            command = commands.add_parser(name)
            command.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
            command.add_argument("--seed", type=int, default=1)
            command.add_argument("--out", type=Path)
        commands.choices["run"].add_argument("--repeat", type=int, default=1)
        commands.choices["run"].add_argument("--seconds", type=float)
        compare = commands.add_parser("compare")
        compare.add_argument("parent", type=Path)
        compare.add_argument("change", type=Path)
        compare.add_argument("--trace", type=Path, help="trace file to keep in the ledger")
        compare.add_argument("--out", type=Path, help="write both run sets, verdicts and trace")
        return parser.parse_args(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-cells", type=int, help="run only the first N cells")
    parser.add_argument("--spans", type=Path, help="with --trace 1: write every span here")
    args = parser.parse_args(argv)
    args.command = None
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        spec = load_spec()
        if args.command in (None, "run") and args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.command == "run":
            return cmd_run(args, spec)
        if args.command == "trace":
            return cmd_trace(args, spec)
        if args.command == "compare":
            return cmd_compare(args, spec)
        return one_workload(args, spec)
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
