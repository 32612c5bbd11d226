"""Perfetto/Chrome trace export: structural validity plus a pinned golden.

Structural checks enforce the Trace Event Format rules Perfetto actually
needs (metadata naming every track, well-formed complete events, async
begins/ends pairing up per id); the golden test pins one small cell's
entire trace so any drift in the exporter or the probes shows up as a
diff.  Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/obs/test_perfetto.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import build_square_sum

from repro.arch import mesh
from repro.compiler import compile_program
from repro.isa import ProgramBuilder
from repro.obs import ObsConfig, Observability, perfetto_trace, write_trace
from repro.sim import VoltronMachine

GOLDEN_DIR = Path(__file__).parent / "golden"


def _observed(strategy="hybrid", n_cores=4, stride=64):
    program, _ = build_square_sum(64)
    obs = Observability(ObsConfig(sample_stride=stride))
    compiled = compile_program(program, n_cores, strategy)
    config = mesh(1) if n_cores == 1 else mesh(n_cores)
    VoltronMachine(compiled, config, obs=obs).run()
    return obs


def _observed_doall():
    from repro.workloads.kernels import KernelContext
    from repro.workloads import doall_kernel

    pb = ProgramBuilder("trace_doall")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=7)
    doall_kernel(ctx, trips=64, work=2)
    fb.halt()
    obs = Observability()
    compiled = compile_program(pb.finish(), 2, "llp")
    VoltronMachine(compiled, mesh(2), obs=obs).run()
    return obs


class TestTraceStructure:
    def test_top_level_shape(self):
        trace = perfetto_trace(_observed())
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["displayTimeUnit"] == "ns"
        assert trace["otherData"]["truncated"] is False
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]

    def test_thread_metadata_names_every_track(self):
        obs = _observed()
        trace = perfetto_trace(obs)
        names = {
            event["tid"]: event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names[0] == "machine"
        for core in range(obs.n_cores):
            assert names[core + 1] == f"core {core}"
        # Every non-counter event lands on a named track.
        for event in trace["traceEvents"]:
            if "tid" in event:
                assert event["tid"] in names

    def test_complete_events_are_well_formed(self):
        trace = perfetto_trace(_observed())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] > 0

    def test_mode_track_tiles_the_run(self):
        obs = _observed()
        trace = perfetto_trace(obs)
        mode = [e for e in trace["traceEvents"] if e.get("cat") == "mode"]
        assert sum(e["dur"] for e in mode) == obs.final_cycle

    def test_async_spans_pair_up(self):
        trace = perfetto_trace(_observed_doall())
        begins = {}
        ends = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "b":
                begins[(event["cat"], event["id"])] = event["ts"]
            elif event["ph"] == "e":
                ends[(event["cat"], event["id"])] = event["ts"]
        assert begins
        assert set(begins) == set(ends)
        for key, start in begins.items():
            assert ends[key] >= start
        # Transaction and network span ids live in disjoint ranges.
        tx_ids = {i for cat, i in begins if cat == "tx"}
        net_ids = {i for cat, i in begins if cat == "net"}
        assert not tx_ids & net_ids

    def test_write_trace_round_trips(self, tmp_path):
        obs = _observed()
        path = tmp_path / "trace.json"
        write_trace(obs, path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["truncated"] is False


class TestGoldenTrace:
    def test_trace_matches_golden(self, update_golden):
        trace = perfetto_trace(_observed("ilp", 2, stride=32))
        path = GOLDEN_DIR / "square_sum_2cores_ilp_trace.json"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
            return
        assert path.exists(), (
            f"missing golden file {path.name}; run pytest with "
            "--update-golden to create it"
        )
        assert trace == json.loads(path.read_text()), (
            "trace export drifted from the golden file; if the exporter "
            "or probe change is intentional, regenerate with --update-golden"
        )
