"""Golden machine-statistics regression tests.

Each case pins the complete ``MachineStats.to_dict()`` payload of one
small benchmark cell to a JSON file under ``tests/sim/golden/``.  Any
change to timing, stall attribution, mode residency, cache behaviour, or
network accounting shows up as a golden diff -- deliberate model changes
regenerate the files with::

    PYTHONPATH=src python -m pytest tests/sim/test_golden_stats.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch import mesh
from repro.arch.config import resolve_machine
from repro.compiler import VoltronCompiler, compile_program
from repro.sim import FaultConfig, FaultPlan, VoltronMachine
from repro.sim.caches import L1ICache
from repro.workloads.suite import build

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small, fast benchmarks covering serial, coupled, and decoupled modes.
CASES = [
    ("rawcaudio", 1, "baseline"),
    ("gsmdecode", 2, "ilp"),
    ("g721decode", 4, "tlp"),
]


def _stats_payload(name: str, n_cores: int, strategy: str) -> dict:
    bench = build(name)
    config = mesh(1) if n_cores == 1 else mesh(n_cores)
    compiled = compile_program(bench.program, n_cores, strategy)
    return VoltronMachine(compiled, config).run().to_dict()


def _vlink(name: str):
    config = resolve_machine(name)
    return dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, queue_policy="vlink"),
    )


#: Cells pinning the register and stepping machinery the cases above
#: never reach: TM checkpoint/rollback and mode transitions (alvinn
#: hybrid), one clustered lock-step ensemble paying the cross-cluster
#: stall penalty (mesh32 directory with Virtual-Link queues), and
#: blackout poison plus checkpoint restore (swim llp under destructive
#: faults; the default blackout rate never fires on this cell, so it
#: takes the fast-path suite's denser one).  Two more pin the coupled
#: kernel at its extremes: the largest ensemble with the most barrier
#: waits, call and mode barriers and halted members (epic hybrid on 64
#: snooping cores), and one I-fetch per slot plus transient stall-bus
#: holds (rawcaudio hybrid on 16 directory cores with Virtual-Link
#: queues under timing faults).  Each golden holds the stats, a digest
#: of the final memory image and, under faults, the fault schedule.
#: (golden file stem, benchmark, machine, strategy, fault config)
MACHINE_CASES = [
    ("052.alvinn_4cores_hybrid", "052.alvinn", mesh(4), "hybrid", None),
    ("rawcaudio_mesh32-directory-vlink_ilp", "rawcaudio",
     _vlink("mesh32-directory"), "ilp", None),
    ("171.swim_4cores_llp_faults-both-1", "171.swim", mesh(4), "llp",
     FaultConfig(profile="both", seed=1, blackout_rate=0.0005)),
    ("epic_mesh64-snoop_hybrid", "epic", resolve_machine("mesh64-snoop"),
     "hybrid", None),
    ("rawcaudio_mesh16-directory-vlink_hybrid_faults-timing-1", "rawcaudio",
     _vlink("mesh16-directory"), "hybrid",
     FaultConfig(profile="timing", seed=1)),
]

#: ``L1ICache.access`` calls per golden cell.  The stats cannot show
#: how often a kernel probes the I-cache (a repeated hit changes no
#: counter), so a kernel that probes more or less often than once per
#: fetch line shows up here.
ICACHE_ACCESSES = {
    "052.alvinn_4cores_hybrid": 2613,
    "rawcaudio_mesh32-directory-vlink_ilp": 27776,
    "171.swim_4cores_llp_faults-both-1": 25894,
    "epic_mesh64-snoop_hybrid": 7937,
    "rawcaudio_mesh16-directory-vlink_hybrid_faults-timing-1": 77792,
    "rawcaudio_1cores_baseline": 1060,
    "gsmdecode_2cores_ilp": 2508,
    "g721decode_4cores_tlp": 3659,
}


@pytest.fixture
def icache_accesses(monkeypatch):
    """Counts ``L1ICache.access`` calls: read ``[0]`` after the run."""
    count = [0]
    access = L1ICache.access

    def counted(self, *args):
        count[0] += 1
        return access(self, *args)

    monkeypatch.setattr(L1ICache, "access", counted)
    return count


def _machine_payload(name, config, strategy, faults) -> dict:
    compiled = VoltronCompiler(build(name).program).compile(strategy, config)
    machine = VoltronMachine(
        compiled, config, faults=None if faults is None else FaultPlan(faults)
    )
    payload = {
        "stats": machine.run().to_dict(),
        "memory_sha256": hashlib.sha256(
            repr(sorted(machine.final_memory().items())).encode()
        ).hexdigest(),
    }
    if faults is not None:
        payload["faults"] = machine.faults.summary()
    return payload


def _check_golden(path: Path, payload: dict, cell: str, update: bool):
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest with --update-golden "
        "to create it"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"{cell} stats drifted from {path.name}; if the model change is "
        "intentional, regenerate with --update-golden"
    )


@pytest.mark.parametrize(
    "stem,name,config,strategy,faults", MACHINE_CASES,
    ids=[case[0] for case in MACHINE_CASES],
)
def test_machine_cells_match_golden(stem, name, config, strategy, faults,
                                    update_golden, icache_accesses):
    payload = _machine_payload(name, config, strategy, faults)
    _check_golden(GOLDEN_DIR / f"{stem}.json", payload, stem, update_golden)
    assert icache_accesses[0] == ICACHE_ACCESSES[stem]


@pytest.mark.parametrize("name,n_cores,strategy", CASES)
def test_stats_match_golden(name, n_cores, strategy, update_golden,
                            icache_accesses):
    payload = _stats_payload(name, n_cores, strategy)
    stem = f"{name}_{n_cores}cores_{strategy}"
    _check_golden(GOLDEN_DIR / f"{stem}.json", payload,
                  f"{name} [{n_cores}-core {strategy}]", update_golden)
    assert icache_accesses[0] == ICACHE_ACCESSES[stem]
