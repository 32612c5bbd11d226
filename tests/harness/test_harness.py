"""Tests for the experiment harness (on a reduced benchmark subset)."""

import pytest

from repro.harness import figures
from repro.harness.experiments import ExperimentRunner
from repro.harness.reporting import (
    arithmean,
    geomean,
    render_bar_breakdown,
    render_table,
)
from repro.sim.stats import STALL_CATEGORIES


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        benchmarks=["gsmdecode", "179.art", "171.swim"],
        max_cycles=5_000_000,
    )


class TestRunner:
    def test_runs_are_cached(self, runner):
        first = runner.run("gsmdecode", 2, "ilp")
        second = runner.run("gsmdecode", 2, "ilp")
        assert first is second

    def test_baseline_is_single_core(self, runner):
        result = runner.baseline("gsmdecode")
        assert result.n_cores == 1
        assert result.correct

    def test_speedup_positive(self, runner):
        assert runner.speedup("gsmdecode", 2, "hybrid") > 0.5


class TestFigures:
    def test_fig10_shape(self, runner):
        table = figures.fig10_11_speedups(runner, 2)
        assert set(table) == {"gsmdecode", "179.art", "171.swim"}
        for row in table.values():
            assert set(row) == {"ilp", "tlp", "llp"}
            assert all(v > 0 for v in row.values())

    def test_fig12_normalized_stalls(self, runner):
        table = figures.fig12_stalls(runner)
        for row in table.values():
            assert set(row) == {"coupled", "decoupled"}
            for bars in row.values():
                assert set(bars) == set(STALL_CATEGORIES)
                assert all(v >= 0 for v in bars.values())

    def test_fig12_decoupled_overlaps_cache_stalls(self, runner):
        """The paper's headline Fig. 12 observation: decoupled execution
        spends far less time in cache-miss stalls on miss-heavy programs
        (each core stalls separately)."""
        row = figures.fig12_stalls(runner)["179.art"]
        coupled = row["coupled"]["dstall"] + row["coupled"]["istall"]
        decoupled = row["decoupled"]["dstall"] + row["decoupled"]["istall"]
        assert decoupled < coupled

    def test_fig13_hybrid_at_least_matches_best_single(self, runner):
        hybrid = figures.fig13_hybrid(runner)
        for name in runner.names:
            singles = figures.fig10_11_speedups(runner, 4)[name]
            assert hybrid[name][4] >= 0.9 * max(singles.values())

    def test_fig14_mode_fractions_sum_to_one(self, runner):
        table = figures.fig14_mode_time(runner)
        for row in table.values():
            assert row["coupled"] + row["decoupled"] == pytest.approx(1.0)

    def test_fig3_fractions_sum_to_one(self, runner):
        table = figures.fig3_breakdown(runner)
        for row in table.values():
            assert sum(row.values()) == pytest.approx(1.0)
            assert set(row) == {"ilp", "tlp", "llp", "single"}

    def test_fig3_art_prefers_fine_grain_tlp(self, runner):
        row = figures.fig3_breakdown(runner)["179.art"]
        assert row["tlp"] == max(row.values())


class TestStatistics:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0

    def test_arithmean(self):
        assert arithmean([1.0, 3.0]) == 2.0
        assert arithmean([]) == 0.0


class TestReporting:
    def test_render_table_contains_rows_and_average(self):
        text = render_table(
            "My table",
            {"alpha": {"x": 1.25}, "beta": {"x": 2.0}},
            columns=("x",),
        )
        assert "My table" in text
        assert "alpha" in text and "beta" in text
        assert "1.25" in text and "2.00" in text
        assert "average" in text
        assert "1.62" in text or "1.63" in text

    def test_render_bar_breakdown_scales_to_percent(self):
        text = render_bar_breakdown(
            "Modes", {"a": {"coupled": 0.25, "decoupled": 0.75}},
            columns=("coupled", "decoupled"),
        )
        assert "25.0%" in text and "75.0%" in text

    def test_missing_column_renders_nan(self):
        text = render_table("t", {"a": {}}, columns=("ghost",),
                            average_row=False)
        assert "nan" in text
