"""Dynamic race sanitizer: zero-cost, zero-perturbation, and loud
exactly when an execution exhibits an unordered cross-core conflict."""

from __future__ import annotations

import pytest

from repro.analysis import RaceSanitizer, run_sanitized
from repro.analysis.mutate import duplicate_send
from repro.api import compile_benchmark
from repro.arch.config import mesh
from repro.sim.faults import FaultConfig
from repro.sim.machine import VoltronMachine



def _run(compiled, sanitizer=None):
    machine = VoltronMachine(
        compiled, mesh(4), max_cycles=50_000_000, obs=sanitizer
    )
    machine.run()
    return machine


@pytest.mark.parametrize(
    "bench,strategy",
    [("rawcaudio", "tlp"), ("gsmdecode", "hybrid"), ("052.alvinn", "llp")],
)
def test_sanitized_run_is_bit_identical(bench, strategy):
    plain = _run(compile_benchmark(bench, 4, strategy))
    sanitizer = RaceSanitizer()
    sanitized = _run(compile_benchmark(bench, 4, strategy), sanitizer)
    assert sanitized.memory.as_dict() == plain.memory.as_dict()
    assert sanitized.stats.to_dict() == plain.stats.to_dict()
    # ... and the compiler's output really is race-free at runtime.
    assert sanitizer.findings == []
    assert sanitizer.checked_accesses > 0


def test_synced_fixture_runs_clean(tlp_cell, inject_sync):
    inject_sync(tlp_cell, with_sync=True)
    sanitizer = RaceSanitizer()
    machine = _run(tlp_cell, sanitizer)
    assert sanitizer.findings == []
    assert machine.network.quiescent()


def test_unsynced_fixture_races(tlp_cell, inject_sync, fixture_addr):
    name, label = inject_sync(tlp_cell, with_sync=False)
    sanitizer = RaceSanitizer()
    _run(tlp_cell, sanitizer)
    races = [f for f in sanitizer.findings if f.kind == "dynamic-race"]
    assert races
    finding = races[0]
    assert finding.function == name
    assert finding.block == label
    assert finding.core in (0, 1)
    assert str(fixture_addr) in finding.message


def test_destructive_faults_are_rejected():
    """Corrupted/dropped messages would make every happens-before edge a
    lie; the sanitizer refuses to attach rather than report garbage."""
    compiled = compile_benchmark("rawcaudio", 4, "tlp")
    faults = FaultConfig(seed=3, profile="destructive", drop_rate=0.01)
    with pytest.raises(ValueError, match="destructive"):
        VoltronMachine(
            compiled, mesh(4), faults=faults, obs=RaceSanitizer()
        )


def test_timing_faults_are_fine():
    """Latency-only fault runs keep architectural behaviour, so the
    sanitizer works under them (and still sees no races)."""
    compiled = compile_benchmark("rawcaudio", 4, "tlp")
    faults = FaultConfig(seed=3, rate=0.01)
    sanitizer = RaceSanitizer()
    machine = VoltronMachine(
        compiled, mesh(4), faults=faults, obs=sanitizer
    )
    machine.run()
    assert sanitizer.findings == []
    assert sanitizer.checked_accesses > 0


def test_finding_cap_bounds_memory(tlp_cell, inject_sync):
    inject_sync(tlp_cell, with_sync=False)
    sanitizer = RaceSanitizer(max_findings=1)
    _run(tlp_cell, sanitizer)
    assert len(sanitizer.findings) <= 1


def test_run_sanitized_reports_a_leaked_message(tlp_cell):
    machine, findings = run_sanitized(tlp_cell, mesh(4))
    assert findings == []
    assert machine.network.quiescent()
    assert machine.obs.checked_accesses > 0
    leaky = compile_benchmark("epic", 4, "tlp")
    duplicate_send(leaky)
    machine, findings = run_sanitized(leaky, mesh(4))
    assert [finding.kind for finding in findings] == ["message-leak"]
    assert not machine.network.quiescent()
