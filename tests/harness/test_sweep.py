"""The design-space sweep driver: spec, dominance, frontier, end-to-end.

Dominance is checked with hand-built points (no simulator), the
end-to-end sweep with tiny workloads on the real runner -- including the
contract that a second identical sweep against the same cache directory
simulates nothing.
"""

import json

import pytest

from repro.harness.sweep import (
    AXIS_KINDS,
    SweepPoint,
    SweepSpec,
    dominates,
    pareto_frontier,
    render_frontiers,
    run_sweep,
    write_sweep,
)
from repro.workloads.generator import GenKnobs, make_handle

TINY = GenKnobs(regions=(1, 2), trips=(8, 16))


def _point(speedup, strategy="hybrid", **machine):
    defaults = {
        "cores": 4,
        "coherence": "snoop",
        "queue_policy": "pair",
        "queue_depth": 16,
        "queue_cycles_per_hop": 1,
        "memory_latency": 100,
        "tm_commit_latency": 4,
    }
    defaults.update(machine)
    return SweepPoint(
        machine=defaults, strategy=strategy, geomean_speedup=speedup
    )


class TestSpec:
    def test_rejects_empty_workloads(self):
        with pytest.raises(ValueError, match="workload"):
            SweepSpec(workloads=())

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="cores"):
            SweepSpec(workloads=("rawcaudio",), cores=())

    def test_machine_points_cross_product(self):
        spec = SweepSpec(
            workloads=("rawcaudio",),
            cores=(2, 4),
            queue_depths=(4, 16),
            memory_latencies=(50, 100, 200),
        )
        points = spec.machine_points()
        assert len(points) == 2 * 2 * 3
        assert spec.varied_axes() == [
            "cores",
            "queue_depth",
            "memory_latency",
        ]
        assert {
            "cores",
            "coherence",
            "queue_policy",
            "queue_depth",
            "queue_cycles_per_hop",
            "memory_latency",
            "tm_commit_latency",
        } == set(points[0])


class TestDominance:
    def test_faster_on_identical_hardware_dominates(self):
        assert dominates(_point(2.0), _point(1.5))
        assert not dominates(_point(1.5), _point(2.0))

    def test_equal_points_do_not_dominate_each_other(self):
        assert not dominates(_point(2.0), _point(2.0))

    def test_cheaper_resource_at_same_speed_dominates(self):
        small = _point(2.0, queue_depth=4)
        big = _point(2.0, queue_depth=16)
        assert dominates(small, big)
        assert not dominates(big, small)

    def test_higher_penalty_tolerated_at_same_speed_dominates(self):
        """Matching speed while suffering *more* memory latency means
        cheaper hardware wins the comparison."""
        tolerant = _point(2.0, memory_latency=200)
        pampered = _point(2.0, memory_latency=50)
        assert dominates(tolerant, pampered)
        assert not dominates(pampered, tolerant)

    def test_tradeoffs_are_incomparable(self):
        faster_bigger = _point(2.5, queue_depth=16)
        slower_smaller = _point(2.0, queue_depth=4)
        assert not dominates(faster_bigger, slower_smaller)
        assert not dominates(slower_smaller, faster_bigger)

    def test_axis_kinds_cover_every_machine_axis(self):
        assert set(AXIS_KINDS) == set(
            SweepSpec(workloads=("x",)).axes()
        )

    def test_frontier_keeps_only_nondominated(self):
        points = [
            _point(2.0, queue_depth=4),   # frontier: cheap and fast
            _point(2.0, queue_depth=16),  # dominated by [0]
            _point(2.5, queue_depth=16),  # frontier: fastest
            _point(1.0, queue_depth=4),   # dominated by [0]
        ]
        assert pareto_frontier(points) == [0, 2]


class TestRunSweep:
    @pytest.fixture(scope="class")
    def workloads(self):
        return [make_handle(101, TINY), make_handle(102, TINY)]

    def test_sweep_over_three_axes(self, workloads, tmp_path):
        spec = SweepSpec(
            workloads=tuple(workloads),
            strategies=("tlp", "hybrid"),
            cores=(2, 4),
            queue_depths=(4, 16),
            memory_latencies=(50, 200),
        )
        document = run_sweep(spec, cache_dir=tmp_path / "cache")
        assert document["schema_version"] == "1.2"
        assert document["varied_axes"] == [
            "cores",
            "queue_depth",
            "memory_latency",
        ]
        # 2 strategies x 2 cores x 2 depths x 2 latencies.
        assert len(document["points"]) == 16
        for strategy in ("tlp", "hybrid"):
            frontier = document["frontiers"][strategy]
            assert frontier, f"{strategy} frontier is empty"
            for index in frontier:
                assert document["points"][index]["strategy"] == strategy
        point = document["points"][0]
        assert set(point["speedups"]) == set(workloads)
        assert all(v > 0 for v in point["speedups"].values())
        assert point["geomean_speedup"] > 0
        assert document["cache"]["misses"] > 0

        # The machine axes genuinely reach the simulator: a 4x deeper
        # queue or 4x slower memory must not leave every cycle count
        # identical across the whole sweep.
        by_machine = {
            (
                p["machine"]["queue_depth"],
                p["machine"]["memory_latency"],
            ): tuple(sorted(p["cycles"].items()))
            for p in document["points"]
            if p["strategy"] == "hybrid" and p["machine"]["cores"] == 4
        }
        assert len(set(by_machine.values())) > 1

        # Re-sweep against the same cache: zero new simulations.
        again = run_sweep(spec, cache_dir=tmp_path / "cache")
        assert again["cache"]["misses"] == 0
        assert again["cache"]["hits"] > 0
        assert again["points"] == document["points"]

    def test_write_and_render(self, workloads, tmp_path):
        spec = SweepSpec(
            workloads=(workloads[0],),
            strategies=("hybrid",),
            cores=(2,),
        )
        document = run_sweep(spec, cache_dir=tmp_path / "cache")
        path = write_sweep(document, tmp_path / "out" / "sweep.json")
        assert path.exists()
        assert json.loads(path.read_text()) == document
        text = render_frontiers(document)
        assert "frontier [hybrid]" in text
        assert "cores=2" in text
