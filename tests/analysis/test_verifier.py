"""Static verifier: clean on real cells, loud on broken ones."""

from __future__ import annotations

import pytest

import repro
from repro.analysis import merge_reports, verify_compiled
from repro.analysis.findings import Finding, match_suppression
from repro.api import compile_benchmark
from repro.arch.config import mesh

#: A slice of the suite covering every region flavour (ILP-heavy,
#: queue-heavy TLP, DOALL-carrying LLP, and the hybrid mixes); the full
#: 25-benchmark sweep runs in CI via ``repro.harness.cli verify``.
SAMPLE = ("rawcaudio", "gsmdecode", "052.alvinn", "epic", "171.swim")

GRID = [(1, "baseline")] + [
    (n, s) for n in (2, 4) for s in ("ilp", "tlp", "llp")
]


def _config(cores):
    return mesh(1) if cores == 1 else mesh(cores)


@pytest.mark.parametrize("bench", SAMPLE)
@pytest.mark.parametrize("cores,strategy", GRID)
def test_grid_cells_verify_clean(bench, cores, strategy):
    compiled = compile_benchmark(bench, cores, strategy)
    report = verify_compiled(compiled, _config(cores))
    assert report.ok, report.render()
    assert report.checked["blocks"] > 0


@pytest.mark.parametrize("bench", SAMPLE)
def test_hybrid_cells_verify_clean(bench):
    compiled = compile_benchmark(bench, 4, "hybrid")
    report = verify_compiled(compiled, mesh(4))
    assert report.ok, report.render()


def test_checks_do_real_work():
    """The clean verdicts above are meaningless unless every check ran
    over real sites; the counters prove coverage."""
    totals = {}
    for benchmark, strategy in [
        ("rawcaudio", "ilp"),
        ("rawcaudio", "tlp"),
        ("052.alvinn", "llp"),
        ("gsmdecode", "hybrid"),
    ]:
        compiled = compile_benchmark(benchmark, 4, strategy)
        report = verify_compiled(compiled, mesh(4))
        for key, value in report.checked.items():
            totals[key] = totals.get(key, 0) + value
    assert totals["align_groups"] > 0  # coupled wires checked
    assert totals["queue_ops"] > 0  # decoupled channels checked
    assert totals["mode_edges"] > 0  # mode barriers checked
    assert totals["doall_regions"] > 0  # TM brackets checked
    assert totals["routed_regs"] > 0  # value routing checked


class TestSyncPairFixture:
    def test_synced_conflict_is_clean(self, tlp_cell, inject_sync):
        inject_sync(tlp_cell, with_sync=True)
        report = verify_compiled(tlp_cell, mesh(4))
        assert report.ok, report.render()
        assert report.checked["sync_pairs"] >= 1
        assert report.checked["sync_mem_ops"] >= 2

    def test_unsynced_conflict_is_a_race(self, tlp_cell, inject_sync):
        name, label = inject_sync(tlp_cell, with_sync=False)
        report = verify_compiled(tlp_cell, mesh(4))
        races = [f for f in report.findings if f.kind == "missing-sync"]
        assert races, report.render()
        finding = races[0]
        assert finding.function == name
        assert finding.block == label
        assert finding.core in (0, 1)
        # The diagnostic names both endpoints of the dependence.
        assert "core 0" in finding.message and "core 1" in finding.message


class TestSuppressions:
    def test_suppressed_finding_keeps_report_ok(self, tlp_cell, inject_sync):
        inject_sync(tlp_cell, with_sync=False)
        report = verify_compiled(tlp_cell, mesh(4), ("missing-sync",))
        assert report.ok
        assert any(f.suppressed for f in report.findings)
        assert not report.active_findings()

    def test_scoped_patterns(self):
        finding = Finding(
            kind="orphan-send",
            function="main",
            block="ilp_1",
            region=1,
            core=2,
            message="",
        )
        assert match_suppression(finding, ["orphan-send"])
        assert match_suppression(finding, ["orphan-send:main"])
        assert match_suppression(finding, ["orphan-send:main:ilp_1"])
        assert not match_suppression(finding, ["orphan-send:main:other"])
        assert not match_suppression(finding, ["orphan-recv"])


class TestReportSchema:
    def test_to_dict_round_trip(self, tlp_cell):
        report = verify_compiled(tlp_cell, mesh(4))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["cores"] == 4
        assert payload["checked"]["blocks"] > 0

    def test_merge_reports(self):
        reports = []
        for cores, strategy in [(1, "baseline"), (2, "tlp")]:
            compiled = compile_benchmark("rawcaudio", cores, strategy)
            report = verify_compiled(compiled, _config(cores))
            report.benchmark = "rawcaudio"
            report.strategy = strategy
            reports.append(report)
        merged = merge_reports(reports)
        assert merged["schema"] == 1
        assert merged["total_cells"] == 2
        assert merged["ok"] is True
        assert len(merged["cells"]) == 2


class TestApiFacade:
    def test_verify_benchmark_static(self):
        report = repro.verify_benchmark("rawcaudio", 2, "tlp")
        assert report.ok, report.render()
        assert report.benchmark == "rawcaudio"

    def test_verify_benchmark_dynamic(self):
        report = repro.verify_benchmark("rawcaudio", 2, "tlp", dynamic=True)
        assert report.ok, report.render()
        assert report.checked["dynamic_accesses"] > 0
