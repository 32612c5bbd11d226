"""Checks of the performance ledger on a 3-cell slice of each workload.

    PYTHONPATH=src python -m pytest benchmarks/ledger

Not part of the tier-1 suite.  Each workload runs once untraced and once
traced; the tests check that every metric BENCHMARK.json names is
emitted with its unit, that the traced run's spans nest and its wrapped
layers account for the cells' wall time, and that tracing leaves the
simulation bit-identical.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

import spans  # noqa: E402
import verdict  # noqa: E402
from bench import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def drive(workload, trace, spans_path=None):
    command = [
        sys.executable, str(LEDGER / "bench.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(int(trace)), "--max-cells", "3",
    ]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest"))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    spans_path = tmp_path_factory.mktemp(request.param) / "spans.json"
    untraced, run_digest = drive(request.param, trace=False)
    traced, trace_digest = drive(request.param, trace=True, spans_path=spans_path)
    return {
        "run": untraced,
        "trace": traced,
        "digests": (run_digest, trace_digest),
        "spans": json.loads(spans_path.read_text()),
    }


def units(metrics):
    return {name: value["unit"] for name, value in metrics.items()}


def test_run_emits_every_end_to_end_metric(runs):
    result = runs["run"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_trace_emits_every_per_layer_metric(runs):
    result = runs["trace"]
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tracing_leaves_the_simulation_bit_identical(runs):
    run_digest, trace_digest = runs["digests"]
    assert run_digest == trace_digest


def test_spans_nest(runs):
    for batch in runs["spans"]:
        recorded = batch["spans"]
        for index, span in enumerate(recorded):
            parent = span[3]
            if parent >= 0:
                outer = recorded[parent]
                assert parent < index
                assert outer[1] <= span[1] <= span[2] <= outer[2], (outer, span)


def test_layers_account_for_the_cells(runs):
    """The time cells spend inside no wrapped layer (their runner.run
    spans' own self time) is at most 5% of their wall time."""
    cells = []
    for batch in runs["spans"]:
        recorded = batch["spans"]
        cells += [
            (own, span[2] - span[1])
            for span, own in zip(recorded, spans.self_times(recorded))
            if span[3] < 0 and span[0] == "runner.run"
        ]
    assert len(cells) >= 3
    assert sum(own for own, _ in cells) <= 0.05 * sum(wall for _, wall in cells)


def test_no_result_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the ledger fails."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/bench.py", "--workload", "chaos",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    noisy = [5.0, 15.0, 9.0, 11.0, 6.0, 14.0, 10.0, 10.5, 7.0, 13.0]
    assert verdict.judge(parent, faster, 0.1, "lower")["verdict"] == "improved"
    assert verdict.judge(parent, slower, 0.1, "lower")["verdict"] == "regressed"
    assert verdict.judge(parent, parent, 0.1, "lower")["verdict"] == "unchanged"
    assert verdict.judge(noisy, noisy[::-1], 0.1, "lower")["verdict"] == "unresolved"
    assert verdict.judge(parent, faster[:5], 0.1, "lower")["verdict"] == "unchanged"
    assert verdict.exact([1, 2], [1, 3])["verdict"] == "changed"
