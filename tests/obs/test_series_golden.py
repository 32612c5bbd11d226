"""Golden sampled metrics series.

The final ``MachineStats`` golden (``tests/sim/test_golden_stats.py``)
cannot see a counter that lags mid-run and catches up by the end.  These
cases sample every stepped cycle (``sample_stride=1``) and pin the
cumulative ``busy`` column and every stall column, as a digest per
column plus its length and last value, to a JSON file under
``tests/obs/golden/``: a consumer reading a stale counter in its
``cycle`` event shows up as a digest diff.  Regenerate deliberate model
changes with::

    PYTHONPATH=src python -m pytest tests/obs/test_series_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.config import resolve_machine
from repro.compiler import VoltronCompiler
from repro.obs import ObsConfig, Observability
from repro.sim import VoltronMachine
from repro.workloads.suite import build

GOLDEN_DIR = Path(__file__).parent / "golden"

#: One clustered lock-step ensemble (16 snooping cores: every coupled
#: cycle reads the stall bus across clusters) and one mixed-mode cell
#: whose decoupled sleepers are credited lazily.
#: (golden file stem, benchmark, machine, strategy)
SERIES_CASES = [
    ("rawcaudio_mesh16-snoop_ilp_series", "rawcaudio", "mesh16-snoop", "ilp"),
    ("gsmdecode_4cores_hybrid_series", "gsmdecode", 4, "hybrid"),
]


def _column(values) -> dict:
    return {
        "samples": len(values),
        "last": values[-1],
        "sha256": hashlib.sha256(json.dumps(values).encode()).hexdigest(),
    }


def _series_payload(name: str, machine, strategy: str) -> dict:
    config = resolve_machine(machine)
    compiled = VoltronCompiler(build(name).program).compile(strategy, config)
    obs = Observability(ObsConfig(sample_stride=1))
    VoltronMachine(compiled, config, obs=obs).run()
    series = obs.series.to_dict()
    return {
        "cycle": _column(series["cycle"]),
        "busy": _column(series["busy"]),
        "stalls": {
            category: _column(values)
            for category, values in series["stalls"].items()
        },
    }


@pytest.mark.parametrize(
    "stem,name,machine,strategy", SERIES_CASES,
    ids=[case[0] for case in SERIES_CASES],
)
def test_sampled_series_match_golden(stem, name, machine, strategy,
                                     update_golden):
    payload = _series_payload(name, machine, strategy)
    path = GOLDEN_DIR / f"{stem}.json"
    if update_golden:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest with --update-golden "
        "to create it"
    )
    assert payload == json.loads(path.read_text()), (
        f"{stem}: sampled series drifted from {path.name}; if the model "
        "change is intentional, regenerate with --update-golden"
    )
