"""Figures 7-9: the paper's three worked loop examples on 2 cores.

Paper-measured speedups: Fig. 7 gsmdecode DOALL loop 1.9x (LLP); Fig. 8
164.gzip match loop 1.2x (fine-grain TLP strands); Fig. 9 gsmdecode
filter loop 1.78x (coupled ILP).
"""

import pytest

from repro.harness import figures

PAPER = {
    "fig7_gsm_llp": 1.9,
    "fig8_gzip_strands": 1.2,
    "fig9_gsm_ilp": 1.78,
}


def test_fig7_8_9_worked_examples(benchmark):
    measured = figures.figure7_9_examples()
    print()
    print(f"{'example':22s}{'paper':>8s}{'measured':>10s}")
    for label, paper_value in PAPER.items():
        print(f"{label:22s}{paper_value:8.2f}{measured[label]:10.2f}")

    # Shape: every technique wins on its loop...
    for label in PAPER:
        assert measured[label] > 1.05, f"{label} shows no speedup"
    # ... and the relative ordering matches the paper: the DOALL loop
    # gains most, the strand loop least.
    assert measured["fig7_gsm_llp"] > measured["fig8_gzip_strands"]
    assert measured["fig9_gsm_ilp"] > measured["fig8_gzip_strands"]
    # Rough magnitude agreement (within 40% of the paper's numbers).
    for label, paper_value in PAPER.items():
        assert measured[label] == pytest.approx(paper_value, rel=0.4)

    benchmark.pedantic(
        figures.figure7_9_examples, rounds=1, iterations=1, warmup_rounds=0
    )
