"""Timeline reconciliation against real suite benchmarks.

The observability layer's central claim: the timeline folded from the
recorded spans equals the simulator's own ``MachineStats`` accounting
*exactly* -- total cycles, per-mode residency, and per-core per-category
stall cycles -- across a five-benchmark sample of the suite under the
hybrid strategy (the mode-switching path exercises every accounting
corner: fast-forward bulk credits, mode boundaries, transactions).
"""

from __future__ import annotations

import pytest

import repro
from repro.obs import Observability, ReconciliationError, reconcile, summarize
from repro.sim.stats import STALL_CATEGORIES

#: Mixed-mode sample: coupled-heavy, decoupled-heavy, and DOALL benchmarks.
SAMPLE = ["gsmdecode", "179.art", "171.swim", "epic", "rawcaudio"]


@pytest.mark.parametrize("bench_name", SAMPLE)
def test_timeline_reconciles_exactly(bench_name):
    obs = Observability()
    result = repro.run_cell(bench_name, 4, "hybrid", obs=obs)
    summary = reconcile(summarize(obs), result.stats)
    assert summary.cycles == result.stats.cycles
    for mode in ("coupled", "decoupled"):
        assert summary.mode_cycles.get(mode, 0) == result.stats.mode_cycles[mode]
    for totals, core in zip(summary.stall_totals, result.stats.cores):
        for category in STALL_CATEGORIES:
            assert totals[category] == core.stalls[category]
    assert summary.tx_commits == result.stats.tx_commits
    assert summary.tx_aborts == result.stats.tx_aborts
    # The serialized metrics carry the same reconciled timeline.
    assert result.metrics["timeline"]["cycles"] == result.stats.cycles


def test_reconcile_raises_on_tampered_span():
    obs = Observability()
    result = repro.run_cell("rawcaudio", 2, "ilp", obs=obs)
    for spans in obs.stall_spans:
        if spans:
            spans[0][1] += 1
            break
    else:
        pytest.skip("run produced no stall spans")
    with pytest.raises(ReconciliationError):
        reconcile(summarize(obs), result.stats)


def test_reconcile_raises_on_wrong_cycle_total():
    obs = Observability()
    result = repro.run_cell("rawcaudio", 2, "ilp", obs=obs)
    summary = summarize(obs)
    summary.cycles += 1
    with pytest.raises(ReconciliationError, match="cycles"):
        reconcile(summary, result.stats)
