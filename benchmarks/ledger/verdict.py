"""Judge a change against its parent from two sets of ledger runs.

Follows the small-sandbox rule: runs are taken as alternating pairs
(parent, change); each side is summarized by its median and quartiles;
a gain needs the change to win at least nine tenths of the pairs (ties
count for neither) and a median gap wider than the parent's own spread
(the distance between its quartiles).  Every (workload, metric) row is
marked:

* ``improved``   -- the gain rule holds;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the metric's ``bound`` in BENCHMARK.json;
* ``unresolved`` -- the run-to-run spread is wider than the bound, and
  not every run of the change beats every run of the parent;
* ``unchanged``  -- otherwise.

The bit-identity digest row is ``unchanged`` only when every pair
agrees exactly; any difference reads ``changed``.  It covers every
cell's simulated statistics, so it is the exact check on ``sim_cycles``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> Dict[str, object]:
    """One row: both sides' quartiles, the pair wins, and the verdict."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(a: float, b: float) -> float:
        return sign * (a - b)  # > 0 when the change reads better

    pairs = list(zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    spread = max(p3 - p1, c3 - c1)
    if gain(pm, cm) < -bound * abs(pm):
        verdict = "regressed"
    elif len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain(pm, cm) > p3 - p1:
        verdict = "improved"
    elif spread > bound * abs(pm) and not all(gain(a, b) > 0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": [p1, pm, p3],
        "change": [c1, cm, c3],
        "wins": wins,
        "pairs": len(pairs),
        "verdict": verdict,
    }


def exact(parent: Sequence[object], change: Sequence[object]) -> Dict[str, object]:
    pairs = list(zip(parent, change))
    same = sum(1 for a, b in pairs if a == b)
    return {
        "same": same,
        "pairs": len(pairs),
        "verdict": "unchanged" if pairs and same == len(pairs) else "changed",
    }


def compare(
    parent_runs: List[dict], change_runs: List[dict], end_to_end: List[dict]
) -> Dict[str, Dict[str, dict]]:
    """Verdict rows per workload for every end-to-end metric, plus the
    digest and failed-cell rows.  A run may hold any of the workloads;
    a workload's records are paired in the order they were run."""
    rows: Dict[str, Dict[str, dict]] = {}

    def records(runs: List[dict], workload: str) -> List[dict]:
        return [run["workloads"][workload] for run in runs if workload in run["workloads"]]

    workloads = dict.fromkeys(w for run in parent_runs for w in run["workloads"])
    for workload in workloads:
        a, b = records(parent_runs, workload), records(change_runs, workload)
        if not b:
            continue
        row: Dict[str, dict] = {}
        for metric in end_to_end:
            name = metric["name"]
            row[name] = judge(
                [r[name] for r in a], [r[name] for r in b], metric["bound"], metric["better"]
            )
        row["digest"] = exact([r["digest"] for r in a], [r["digest"] for r in b])
        failed_a = sum(r["failed"] for r in a)
        failed_b = sum(r["failed"] for r in b)
        if failed_b > failed_a:
            # A gain does not count when more cells fail than at the parent.
            for judged in row.values():
                if judged["verdict"] == "improved":
                    judged["verdict"] = "unresolved"
        row["failed"] = {
            "parent": failed_a,
            "change": failed_b,
            "verdict": "regressed" if failed_b > failed_a else "unchanged",
        }
        rows[workload] = row
    return rows
