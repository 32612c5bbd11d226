"""Figure 10: speedup exploiting each parallelism type alone, 2 cores.

Paper averages: ILP 1.23, fine-grain TLP 1.16, LLP 1.18; 12/25 benchmarks
are best under ILP, 6 under fine-grain TLP, 7 under LLP.
"""

from repro.harness import arithmean, figures, render_table

PAPER_AVG = {"ilp": 1.23, "tlp": 1.16, "llp": 1.18}


def test_fig10_two_core_speedups(benchmark, runner, small_runner):
    table = figures.fig10_11_speedups(runner, 2)
    print()
    print(
        render_table(
            "Figure 10: 2-core speedup per parallelism type "
            "(baseline: 1 core)",
            table,
            columns=("ilp", "tlp", "llp"),
        )
    )
    averages = {
        s: arithmean([row[s] for row in table.values()])
        for s in ("ilp", "tlp", "llp")
    }
    # Magnitudes: each average within 25% of the paper's.
    for strategy, paper_value in PAPER_AVG.items():
        assert abs(averages[strategy] - paper_value) < 0.25 * paper_value, (
            f"{strategy}: {averages[strategy]:.2f} vs paper {paper_value}"
        )
    # Diversity: each strategy is the best choice for several benchmarks.
    winners = {"ilp": 0, "tlp": 0, "llp": 0}
    for row in table.values():
        winners[max(row, key=row.get)] += 1
    assert all(count >= 2 for count in winners.values()), winners

    # Unit timed: one fresh 2-core compile+simulate of gsmdecode.
    def unit():
        fresh = type(small_runner)(benchmarks=["gsmdecode"])
        return fresh.run("gsmdecode", 2, "ilp").cycles

    benchmark.pedantic(unit, rounds=1, iterations=1, warmup_rounds=0)
