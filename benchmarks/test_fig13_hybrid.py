"""Figure 13: speedup exploiting hybrid parallelism with dual-mode
execution.

Paper: 2-core speedups range 1.13-1.98 (average 1.46); 4-core speedups
range 1.15-3.25 (average 1.83); hybrid execution beats every
single-parallelism compilation on average.
"""

from repro.harness import arithmean, figures, render_table


def test_fig13_hybrid_speedups(benchmark, runner):
    hybrid = figures.fig13_hybrid(runner)
    table = {
        name: {"2-core": v[2], "4-core": v[4]} for name, v in hybrid.items()
    }
    print()
    print(
        render_table(
            "Figure 13: hybrid (dual-mode) speedup on 2- and 4-core "
            "Voltron",
            table,
            columns=("2-core", "4-core"),
        )
    )
    h2 = [v[2] for v in hybrid.values()]
    h4 = [v[4] for v in hybrid.values()]

    # Magnitudes near the paper's averages (1.46 / 1.83).
    assert 1.2 < arithmean(h2) < 1.7
    assert 1.5 < arithmean(h4) < 2.2
    # 4-core range shape: some benchmark above 3x, none catastrophic.
    assert max(h4) > 2.8
    assert min(h4) > 0.95
    # Hybrid beats each individual strategy on average (the headline).
    singles4 = figures.fig10_11_speedups(runner, 4)
    for strategy in ("ilp", "tlp", "llp"):
        single_avg = arithmean([row[strategy] for row in singles4.values()])
        assert arithmean(h4) > single_avg
    # And 4 cores outperform 2 on average.
    assert arithmean(h4) > arithmean(h2)

    benchmark.pedantic(
        lambda: figures.fig13_hybrid(runner),
        rounds=1, iterations=1, warmup_rounds=0,
    )
