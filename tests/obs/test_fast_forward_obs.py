"""What an observer sees is the same with fast-forwarding on and off.

The fast-path differential (``tests/properties/test_prop_fastpath.py``)
compares final statistics.  These oracles compare what is visible along
the way, on decoupled cells where most core-cycles are waits:

* every core's run-length-merged stall spans (the Perfetto stall
  tracks), which place each credited cycle at the cycle it covers;
* the cumulative ``busy`` and ``stalls`` columns of the metrics series,
  at every cycle both runs sampled;
* the statistics left behind when the cycle budget runs out mid-run.
"""

from __future__ import annotations

import pytest

from repro.arch.config import resolve_machine
from repro.compiler import VoltronCompiler
from repro.obs import ObsConfig, Observability
from repro.sim import OutOfCycles, VoltronMachine
from repro.sim.core import BARRIER_WAIT
from repro.workloads.suite import build

_COMPILED = {}


def _compiled(name, machine, strategy):
    key = (name, machine, strategy)
    if key not in _COMPILED:
        config = resolve_machine(machine)
        _COMPILED[key] = (
            VoltronCompiler(build(name).program).compile(strategy, config),
            config,
        )
    return _COMPILED[key]


def _observed(name, machine, strategy, fast_forward, stride=64):
    compiled, config = _compiled(name, machine, strategy)
    obs = Observability(ObsConfig(sample_stride=stride))
    machine = VoltronMachine(
        compiled, config, fast_forward=fast_forward, obs=obs
    )
    machine.run()
    return obs


@pytest.mark.parametrize("name,machine,strategy", [
    ("epic", "mesh32-directory", "hybrid"),
    ("197.parser", "mesh32-directory", "tlp"),
    ("052.alvinn", "mesh16", "hybrid"),
])
def test_stall_spans_identical(name, machine, strategy):
    fast = _observed(name, machine, strategy, True)
    slow = _observed(name, machine, strategy, False)
    assert fast.ff_windows, "no stall was fast-forwarded"
    for core, (got, want) in enumerate(zip(fast.stall_spans, slow.stall_spans)):
        assert got == want, f"core {core}: stall spans moved"


@pytest.mark.parametrize("name,machine,strategy", [
    ("epic", "mesh32-directory", "hybrid"),
    ("164.gzip", "mesh16", "hybrid"),
])
def test_series_agree_where_both_sampled(name, machine, strategy):
    fast = _observed(name, machine, strategy, True).series
    slow = _observed(name, machine, strategy, False).series
    rows = {cycle: row for row, cycle in enumerate(slow.cycle)}
    shared = 0
    for row, cycle in enumerate(fast.cycle):
        other = rows.get(cycle)
        if other is None:
            continue
        shared += 1
        assert fast.busy[row] == slow.busy[other], f"busy at cycle {cycle}"
        for category, column in fast.stalls.items():
            assert column[row] == slow.stalls[category][other], (
                f"{category} stalls at cycle {cycle}"
            )
    assert shared > 10


def test_stats_identical_after_running_out_of_cycles():
    compiled, config = _compiled("197.parser", "mesh32-directory", "tlp")
    stats = []
    for fast_forward in (True, False):
        machine = VoltronMachine(
            compiled, config, max_cycles=15_000, fast_forward=fast_forward
        )
        with pytest.raises(OutOfCycles):
            machine.run()
        waiting = sum(core.status == BARRIER_WAIT for core in machine.cores)
        assert waiting >= 16, "the cut should land inside a barrier wait"
        stats.append(machine.stats.to_dict())
    assert stats[0] == stats[1]
