"""Figure 14: fraction of hybrid execution spent in each mode.

Paper: significant time in *both* modes overall; epic (abundant
fine-grain TLP) lives almost entirely in decoupled mode, while mixed
benchmarks such as cjpeg genuinely alternate.
"""

from repro.harness import arithmean, figures, render_bar_breakdown


def test_fig14_mode_time(benchmark, runner):
    table = figures.fig14_mode_time(runner, 4)
    print()
    print(
        render_bar_breakdown(
            "Figure 14: time in each execution mode (hybrid, 4 cores)",
            table,
            columns=("coupled", "decoupled"),
        )
    )
    # Both modes are used across the suite.
    avg_coupled = arithmean([row["coupled"] for row in table.values()])
    assert 0.1 < avg_coupled < 0.9
    # epic is dominated by decoupled execution (paper's callout).
    assert table["epic"]["decoupled"] > 0.7
    # Some benchmark spends the majority of its time coupled.
    assert any(row["coupled"] > 0.5 for row in table.values())
    # Fractions are well-formed.
    for row in table.values():
        assert abs(row["coupled"] + row["decoupled"] - 1.0) < 1e-9

    benchmark.pedantic(
        lambda: figures.fig14_mode_time(runner, 4),
        rounds=1, iterations=1, warmup_rounds=0,
    )
