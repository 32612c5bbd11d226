"""Figure 11: speedup exploiting each parallelism type alone, 4 cores.

Paper averages: ILP 1.33, fine-grain TLP 1.23, LLP 1.37, with the gains
from 2 to 4 cores largest for benchmarks that can use decoupled mode.
"""

from repro.harness import arithmean, figures, render_table


def test_fig11_four_core_speedups(benchmark, runner):
    two = figures.fig10_11_speedups(runner, 2)
    four = figures.fig10_11_speedups(runner, 4)
    print()
    print(
        render_table(
            "Figure 11: 4-core speedup per parallelism type "
            "(baseline: 1 core)",
            four,
            columns=("ilp", "tlp", "llp"),
        )
    )
    avg4 = {
        s: arithmean([row[s] for row in four.values()])
        for s in ("ilp", "tlp", "llp")
    }
    avg2 = {
        s: arithmean([row[s] for row in two.values()])
        for s in ("ilp", "tlp", "llp")
    }
    # Four cores beat two cores for every strategy on average.
    for strategy in ("ilp", "tlp", "llp"):
        assert avg4[strategy] >= avg2[strategy] - 0.02
    # Paper: decoupled-mode strategies scale better from 2 to 4 cores
    # than coupled ILP does.
    ilp_gain = avg4["ilp"] - avg2["ilp"]
    decoupled_gain = max(avg4["tlp"] - avg2["tlp"], avg4["llp"] - avg2["llp"])
    assert decoupled_gain > ilp_gain
    # Magnitudes within 25% of the paper's averages.
    for strategy, paper_value in (("ilp", 1.33), ("tlp", 1.23), ("llp", 1.37)):
        assert abs(avg4[strategy] - paper_value) < 0.3 * paper_value

    benchmark.pedantic(
        lambda: figures.fig10_11_speedups(runner, 4),
        rounds=1, iterations=1, warmup_rounds=0,
    )
