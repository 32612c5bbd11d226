"""Figure 3: breakdown of exploitable parallelism on a 4-core system.

Paper: on average 30% of dynamic execution is best accelerated by ILP,
32% by fine-grain TLP, 31% by LLP, and 7% runs best on a single core,
with no single type dominating across benchmarks.
"""

from repro.harness import arithmean, figures, render_bar_breakdown

COLUMNS = ("ilp", "tlp", "llp", "single")


def test_fig3_parallelism_breakdown(benchmark, runner):
    table = figures.fig3_breakdown(runner)
    print()
    print(
        render_bar_breakdown(
            "Figure 3: fraction of execution best accelerated by each "
            "parallelism type (4 single-issue cores)",
            table,
            columns=COLUMNS,
        )
    )
    # Shape assertions from the paper's reading of the figure:
    averages = {
        column: arithmean([row[column] for row in table.values()])
        for column in COLUMNS
    }
    # No single type dominates (paper: 30/32/31/7).
    assert max(averages["ilp"], averages["tlp"], averages["llp"]) < 0.75
    assert all(v > 0.05 for k, v in averages.items() if k != "single")
    # Each parallel type wins at least one benchmark outright.
    for column in ("ilp", "tlp", "llp"):
        assert any(
            row[column] == max(row.values()) for row in table.values()
        ), f"{column} never dominates any benchmark"

    # Unit timed: one region-attribution pass over a cached runner.
    benchmark.pedantic(
        lambda: figures.fig3_breakdown(runner),
        rounds=1, iterations=1, warmup_rounds=0,
    )
