"""Mutation harness: every classic miscompile must be caught, with a
diagnostic naming the mutated region and core."""

from __future__ import annotations

import pytest

from repro.analysis import (
    CONSTRUCTION_MUTATIONS, MUTATIONS, apply_mutation, verify_compiled,
)
from repro.api import compile_benchmark
from repro.arch.config import mesh
from repro.sim import SimulatorError, VoltronMachine


#: Each mutation paired with a cell whose region mix contains an
#: applicable site (queue ops for the SEND/RECV mutations, coupled wires
#: for misalign_put, mode edges for drop_mode_switch, a DOALL region for
#: drop_tx_commit).
CELLS = {
    "drop_send": ("rawcaudio", "tlp"),
    "drop_recv": ("rawcaudio", "tlp"),
    "retarget_send": ("rawcaudio", "tlp"),
    "duplicate_send": ("rawcaudio", "tlp"),
    "misalign_put": ("rawcaudio", "ilp"),
    "drop_sync_pair": ("rawcaudio", "tlp"),
    "drop_mode_switch": ("rawcaudio", "tlp"),
    "drop_tx_commit": ("052.alvinn", "llp"),
}


def _mutated_cell(name, inject_sync):
    benchmark, strategy = CELLS[name]
    compiled = compile_benchmark(benchmark, 4, strategy)
    if name == "drop_sync_pair":
        # No benchmark cell carries a mem-sync pair (eBUG keeps
        # compiler-visible memory dependences on one core), so give the
        # mutation a real pair to delete.
        inject_sync(compiled, with_sync=True)
    return compiled


def test_registry_is_the_documented_set():
    assert set(MUTATIONS) == set(CELLS)
    assert len(MUTATIONS) >= 6


@pytest.mark.parametrize("name", sorted(CELLS))
def test_mutation_is_caught_and_located(name, inject_sync):
    compiled = _mutated_cell(name, inject_sync)
    record = apply_mutation(compiled, name)
    assert record is not None, f"{name}: no applicable site in cell"
    report = verify_compiled(compiled, mesh(4))
    assert not report.ok, f"{name}: verifier saw nothing"
    matching = [f for f in report.findings if record.matches(f)]
    assert matching, (
        f"{name}: no finding matched {record.expect_kinds} in region "
        f"{record.region} on cores {record.expect_cores}; got: "
        + "; ".join(f.render() for f in report.findings[:5])
    )
    # record.matches already pins region and core; the rendered
    # diagnostic must carry the location for a human too.
    finding = matching[0]
    assert finding.function in finding.render()
    assert f"core={finding.core}" in finding.render()


def test_mutation_without_site_returns_none():
    compiled = compile_benchmark("rawcaudio", 4, "tlp")
    # A queue-mode cell has no DOALL region to break.
    assert apply_mutation(compiled, "drop_tx_commit") is None


def test_clean_cell_stays_clean_without_mutation():
    """Control: the cells used above verify clean before mutation."""
    for benchmark, strategy in set(CELLS.values()):
        compiled = compile_benchmark(benchmark, 4, strategy)
        report = verify_compiled(compiled, mesh(4))
        assert report.ok, report.render()


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_MUTATIONS))
def test_unfit_coupled_block_is_rejected_at_construction(name):
    """A coupled block the lock-step kernel could not run never reaches
    it: building the machine raises, naming the function, block, core
    and (for a planted op) the op."""
    compiled = compile_benchmark("rawcaudio", 4, "ilp")
    record = apply_mutation(compiled, name)
    assert record is not None, f"{name}: no coupled block in cell"
    with pytest.raises(SimulatorError) as excinfo:
        VoltronMachine(compiled, mesh(4))
    message = str(excinfo.value)
    assert f"{record.function}:{record.block} on core {record.core}:" in message
    planted = {"coupled_recv": "recv [source_core=1]", "foreign_opcode": "vmac"}
    assert planted.get(name, "slots") in message
