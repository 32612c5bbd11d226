"""Regenerate EXPERIMENTS.md: paper-vs-measured for every figure.

    python scripts/make_experiments_md.py [output_path]
"""

from __future__ import annotations

import sys
import time

from repro import api
from repro.harness import arithmean

PAPER_FIG10 = {"ilp": 1.23, "tlp": 1.16, "llp": 1.18}
PAPER_FIG11 = {"ilp": 1.33, "tlp": 1.23, "llp": 1.37}
PAPER_FIG3 = {"ilp": 0.30, "tlp": 0.32, "llp": 0.31, "single": 0.07}
PAPER_FIG79 = {
    "fig7_gsm_llp": 1.9,
    "fig8_gzip_strands": 1.2,
    "fig9_gsm_ilp": 1.78,
}


def md_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(["---"] * len(headers)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def fmt(value, digits=2):
    return f"{value:.{digits}f}"


def main(path="EXPERIMENTS.md"):
    started = time.time()
    runner = api.session()
    out = []
    out.append("# EXPERIMENTS — paper vs. measured\n")
    out.append(
        "Every table below is regenerated by `pytest benchmarks/ "
        "--benchmark-only` (one bench per figure) or by this script "
        "(`python scripts/make_experiments_md.py`).  Workloads are the "
        "synthetic suite described in DESIGN.md; absolute cycle counts "
        "are not comparable to the paper's testbed, so the claims checked "
        "are *shapes*: who wins, by roughly what factor, and where the "
        "crossovers fall.  Every simulated run is functionally validated "
        "against the reference interpreter before it becomes a data "
        "point.\n"
    )

    # ---- Figures 7-9 ----
    examples = api.run_figure("7-9", runner=runner)
    out.append("## Figures 7-9 — worked loop examples (2 cores)\n")
    rows = [
        (label, fmt(PAPER_FIG79[label]), fmt(examples[label]))
        for label in PAPER_FIG79
    ]
    out.append(md_table(["example", "paper", "measured"], rows))
    out.append(
        "\nShape holds: each loop is best served by its own technique; "
        "the DOALL loop gains most, the strand loop least (its predicate "
        "round-trip bounds the gain, as the paper notes).\n"
    )

    # ---- Figure 3 ----
    fig3 = api.run_figure("3", runner=runner)
    avg3 = {
        c: arithmean([row[c] for row in fig3.values()])
        for c in ("ilp", "tlp", "llp", "single")
    }
    out.append("## Figure 3 — parallelism breakdown (4 cores)\n")
    rows = [
        (
            name,
            *(fmt(row[c] * 100, 1) + "%" for c in ("ilp", "tlp", "llp", "single")),
        )
        for name, row in fig3.items()
    ]
    rows.append(
        (
            "**average**",
            *(fmt(avg3[c] * 100, 1) + "%" for c in ("ilp", "tlp", "llp", "single")),
        )
    )
    rows.append(
        (
            "*paper avg*",
            *(fmt(PAPER_FIG3[c] * 100, 1) + "%" for c in ("ilp", "tlp", "llp", "single")),
        )
    )
    out.append(md_table(["benchmark", "ILP", "fine-grain TLP", "LLP", "single core"], rows))
    out.append(
        "\nShape holds: no type dominates; the mix varies widely across "
        "benchmarks; a small residue runs best on one core.\n"
    )

    # ---- Figures 10/11 ----
    for figure, n_cores, paper_avg, fig_name in (
        ("10", 2, PAPER_FIG10, "Figure 10"),
        ("11", 4, PAPER_FIG11, "Figure 11"),
    ):
        table = api.run_figure(figure, runner=runner)
        averages = {
            s: arithmean([row[s] for row in table.values()])
            for s in ("ilp", "tlp", "llp")
        }
        out.append(
            f"## {fig_name} — {n_cores}-core speedup per parallelism type\n"
        )
        rows = [
            (name, fmt(row["ilp"]), fmt(row["tlp"]), fmt(row["llp"]))
            for name, row in table.items()
        ]
        rows.append(
            (
                "**average**",
                fmt(averages["ilp"]),
                fmt(averages["tlp"]),
                fmt(averages["llp"]),
            )
        )
        rows.append(
            (
                "*paper avg*",
                fmt(paper_avg["ilp"]),
                fmt(paper_avg["tlp"]),
                fmt(paper_avg["llp"]),
            )
        )
        out.append(md_table(["benchmark", "ILP", "fine-grain TLP", "LLP"], rows))
        out.append("")

    # ---- Figure 12 ----
    fig12 = api.run_figure("12", runner=runner)
    out.append("## Figure 12 — stall breakdown, coupled vs decoupled (4 cores)\n")
    shown = ("istall", "dstall", "recv_data", "recv_pred", "call_sync")
    rows = []
    for name, row in fig12.items():
        for mode in ("coupled", "decoupled"):
            rows.append(
                (
                    f"{name} ({mode})",
                    *(fmt(row[mode][c], 3) for c in shown),
                )
            )
    out.append(
        md_table(["benchmark (mode)", "I-stall", "D-stall", "recv data",
                  "recv pred", "call/ret sync"], rows)
    )
    cache_c = arithmean(
        [r["coupled"]["istall"] + r["coupled"]["dstall"] for r in fig12.values()]
    )
    cache_d = arithmean(
        [r["decoupled"]["istall"] + r["decoupled"]["dstall"] for r in fig12.values()]
    )
    out.append(
        f"\nAverage cache-miss stall time: coupled {fmt(cache_c, 3)} vs "
        f"decoupled {fmt(cache_d, 3)} of serial time "
        f"({fmt(cache_d / cache_c * 100, 0)}% of coupled — the paper "
        "reports decoupled mode at less than half of coupled).  Receive "
        "and call/return synchronization stalls appear only in decoupled "
        "mode, as in the paper.\n"
    )

    # ---- Figure 13 ----
    hybrid = api.run_figure("13", runner=runner)
    h2 = [v[2] for v in hybrid.values()]
    h4 = [v[4] for v in hybrid.values()]
    out.append("## Figure 13 — hybrid (dual-mode) speedups\n")
    rows = [
        (name, fmt(v[2]), fmt(v[4])) for name, v in hybrid.items()
    ]
    rows.append(("**average**", fmt(arithmean(h2)), fmt(arithmean(h4))))
    rows.append(("*paper avg*", "1.46", "1.83"))
    out.append(md_table(["benchmark", "2-core", "4-core"], rows))
    out.append(
        f"\nMeasured ranges: 2-core [{fmt(min(h2))}, {fmt(max(h2))}] "
        f"(paper [1.13, 1.98]); 4-core [{fmt(min(h4))}, {fmt(max(h4))}] "
        "(paper [1.15, 3.25]).  Hybrid execution beats every "
        "single-parallelism compilation on average, the paper's headline "
        "result.\n"
    )

    # ---- Figure 14 ----
    fig14 = api.run_figure("14", runner=runner)
    out.append("## Figure 14 — time in each execution mode (hybrid, 4 cores)\n")
    rows = [
        (
            name,
            fmt(row["coupled"] * 100, 1) + "%",
            fmt(row["decoupled"] * 100, 1) + "%",
        )
        for name, row in fig14.items()
    ]
    out.append(md_table(["benchmark", "coupled", "decoupled"], rows))
    out.append(
        "\nShape holds: epic spends almost all of its time decoupled "
        "(abundant fine-grain TLP), benchmarks like cjpeg and gsmdecode "
        "genuinely alternate between modes, and call/recurrence-heavy "
        "codes (197.parser, rawcaudio) stay mostly coupled.\n"
    )

    # ---- Scaling beyond the paper's grid ----
    scaling = api.run_figure("scaling", runner=runner)
    strategies = ("ilp", "tlp", "llp", "hybrid")
    out.append("## Scaling beyond the paper's grid — 16/32-core meshes\n")
    out.append(
        "The paper stops at 4 cores; the repo's machine generalizes to "
        "arbitrary meshes (clustered coupled mode with a cluster-level "
        "stall network, directory coherence beside the snooping bus, "
        "Virtual-Link operand queues -- see README).  Each cell below is "
        "the benchmark's best speedup over any strategy at that mesh "
        "size; the winner column names the 32-core strategy.  Every "
        "scaled run passes the same oracle as the paper grid: final "
        "memory bit-identical across coherence protocols and to the "
        "reference interpreter, voltlint and the race sanitizer clean.\n"
    )
    rows = []
    for name, row in scaling.items():
        best32 = max(row[32], key=row[32].get)
        rows.append(
            (
                name,
                fmt(max(row[4].values())),
                fmt(max(row[16].values())),
                fmt(max(row[32].values())),
                best32,
            )
        )
    avg = {
        n: {
            s: arithmean([row[n][s] for row in scaling.values()])
            for s in strategies
        }
        for n in (4, 16, 32)
    }
    rows.append(
        (
            "**average (hybrid)**",
            fmt(avg[4]["hybrid"]),
            fmt(avg[16]["hybrid"]),
            fmt(avg[32]["hybrid"]),
            "",
        )
    )
    out.append(
        md_table(
            ["benchmark", "best @4", "best @16", "best @32", "winner @32"],
            rows,
        )
    )
    out.append(
        "\nPer-strategy averages: "
        + "; ".join(
            f"{s} {fmt(avg[4][s])} / {fmt(avg[16][s])} / {fmt(avg[32][s])}"
            for s in strategies
        )
        + " (4 / 16 / 32 cores).  Queue-heavy TLP and wide-DOALL LLP "
        "benchmarks keep climbing past the paper's grid, while ILP "
        "saturates at the program's dependence height -- the "
        "cluster-stall penalty makes very wide coupled ensembles "
        "slightly *slower* than 16-core ones for some codes.\n"
    )

    # ---- Fault injection & chaos suite ----
    out.append("## Fault injection & chaos suite\n")
    out.append(
        "Every simulation can run under seeded, deterministic fault "
        "injection: extra cache/memory latency, delayed queue-mode "
        "message deliveries, transient stall-bus assertions over coupled "
        "groups, and spurious TM conflicts that force the abort -> "
        "register-rollback -> re-execute path (a livelock guard "
        "escalates abort storms to serialized ordered commit, so "
        "progress survives any injection rate).\n"
    )
    out.append(
        "```bash\n"
        "# Chaos mode on any run/figure command:\n"
        "python -m repro.harness.cli run --benchmark gsmdecode --machine 4 \\\n"
        "    --strategy llp --faults --fault-seed 7 --fault-rate 0.01\n"
        "# The whole-suite differential property (CI randomizes the seed):\n"
        "CHAOS_SEED=7 pytest tests/properties/test_prop_chaos.py\n"
        "```\n"
    )
    out.append(
        "**Determinism invariant:** faults perturb *timing only*.  For "
        "every benchmark and every (cores, strategy) cell, a faulted "
        "run's final memory image is bit-identical to the fault-free "
        "golden run, commits still equal the chunk count (injected "
        "conflicts only raise `aborts`), and the reference-interpreter "
        "check still passes.  `tests/properties/test_prop_chaos.py` "
        "enforces this across the full suite; the figures above are "
        "always measured with faults disabled, where the hooks cost a "
        "single `is None` check.\n"
    )

    # ---- Observability ----
    out.append("## Profiling a run\n")
    out.append(
        "Any cell can be profiled through the observability layer "
        "(`repro.obs`): mode residency, per-core stall spans, "
        "transactions, operand-network messages, cache misses, landed "
        "faults, and a sampled metrics time series.\n"
    )
    out.append(
        "```bash\n"
        "# Perfetto trace (load trace.json in ui.perfetto.dev) + metrics "
        "series:\n"
        "python -m repro.harness.cli run --benchmark rawcaudio --machine 4 \\\n"
        "    --strategy hybrid --trace-out trace.json --metrics-out "
        "metrics.json\n"
        "```\n"
    )
    out.append(
        "```python\n"
        "import repro\n"
        "from repro.obs import Observability, write_trace\n"
        "\n"
        "obs = Observability()\n"
        'result = repro.run_cell("rawcaudio", 4, "hybrid", obs=obs)\n'
        'write_trace(obs, "trace.json")\n'
        'result.metrics["timeline"]   # per-mode / per-region summary\n'
        "```\n"
    )
    out.append(
        "The timeline is *reconciled*: its totals (cycles, per-mode "
        "residency, per-core per-category stall cycles) are asserted "
        "equal to the simulator's own `MachineStats` accounting on every "
        "profiled run (`tests/obs/test_reconcile.py` pins this across a "
        "five-benchmark sample), and an observed run's stats are "
        "bit-identical to an unobserved one.  The figures above are "
        "always measured unobserved, where the probes cost a single "
        "`is None` check.\n"
    )

    # ---- Verification ----
    out.append("## Verifying compiled programs\n")
    out.append(
        "Every cell above also passes voltlint (`repro.analysis`): a "
        "static verifier that proves the compiled communication "
        "structure -- balanced SEND/RECV channels (an orphan RECV is a "
        "deadlock, an orphan SEND a leak), same-cycle PUT/GET alignment "
        "in coupled DVLIW regions, a SEND/RECV sync path across every "
        "cross-core memory dependence, MODE_SWITCH barriers on every "
        "mode transition, and TX brackets around every DOALL chunk.\n"
    )
    out.append(
        "```bash\n"
        "# The full 25-benchmark x 7-cell grid (exit 1 on any finding):\n"
        "python -m repro.harness.cli verify --report findings.json\n"
        "\n"
        "# One cell, plus a real execution under the race sanitizer:\n"
        "python -m repro.harness.cli verify --benchmarks rawcaudio \\\n"
        "    --cores 4 --strategies tlp --dynamic\n"
        "```\n"
    )
    out.append(
        "The dynamic side attaches a happens-before race sanitizer to "
        "the simulator (vector clocks over SEND/RECV, SPAWN/LISTEN, "
        "lock-step cycle barriers, mode switches, and TM commits); a "
        "sanitized run is bit-identical to a plain one.  The mutation "
        "harness (`tests/analysis/`) proves the checks have teeth: "
        "eight classic miscompiles -- dropped, duplicated, or "
        "retargeted sends, a misaligned PUT, a deleted sync pair, a "
        "missing MODE_SWITCH or TX_COMMIT -- are each flagged with a "
        "diagnostic naming the broken region and core.\n"
    )

    elapsed = time.time() - started
    out.append(
        f"---\nGenerated by `scripts/make_experiments_md.py` in "
        f"{elapsed:.0f}s: {len(runner.names)} benchmarks x "
        "(1 baseline + 2- and 4-core x {ilp, tlp, llp, hybrid}) "
        "simulations, all checked against the reference interpreter.\n"
    )
    with open(path, "w") as f:
        f.write("\n".join(out))
    print(f"wrote {path} in {elapsed:.0f}s")


if __name__ == "__main__":
    main(*sys.argv[1:])
