"""Unit tests for statistics containers and per-core state."""

import pytest

from repro.arch import mesh
from repro.isa.machinecode import CompiledProgram, CoreBlock, CoreFunction
from repro.isa.operations import Imm, Opcode, Reg, RegFile, make_op
from repro.isa.program import Function, Program
from repro.isa.registers import RegisterLayout, UninitializedRegister
from repro.sim import VoltronMachine
from repro.sim.core import Core
from repro.sim.stats import STALL_CATEGORIES, CoreStats, MachineStats


class TestCoreStats:
    def test_all_categories_present(self):
        stats = CoreStats()
        assert set(stats.stalls) == set(STALL_CATEGORIES)

    def test_stall_accumulates(self):
        stats = CoreStats()
        stats.stall("dstall")
        stats.stall("dstall", 5)
        assert stats.stalls["dstall"] == 6
        assert stats.total_stalls == 6

    def test_unknown_category_rejected(self):
        stats = CoreStats()
        with pytest.raises(ValueError, match="unknown stall category"):
            stats.stall("bogus")
        # The error message should name the legal categories so a typo'd
        # call site can be fixed without opening stats.py.
        with pytest.raises(ValueError, match="istall"):
            stats.stall("cache")
        # A rejected category must not leave a partial entry behind.
        assert set(stats.stalls) == set(STALL_CATEGORIES)
        assert stats.total_stalls == 0


class TestMachineStats:
    def test_per_core_containers_created(self):
        stats = MachineStats(n_cores=4)
        assert len(stats.cores) == 4

    def test_mean_stalls(self):
        stats = MachineStats(n_cores=2)
        stats.cores[0].stall("recv_data", 10)
        assert stats.mean_stalls("recv_data") == 5.0

    def test_mode_fraction(self):
        stats = MachineStats(n_cores=1)
        stats.mode_cycles["coupled"] = 30
        stats.mode_cycles["decoupled"] = 70
        assert stats.mode_fraction("decoupled") == 0.70
        empty = MachineStats(n_cores=1)
        assert empty.mode_fraction("coupled") == 0.0

    def test_summary_includes_stall_keys(self):
        summary = MachineStats(n_cores=2).summary()
        for category in STALL_CATEGORIES:
            assert f"stall_{category}" in summary

    def test_summary_stall_keys_sync_with_categories(self):
        """summary() and STALL_CATEGORIES must stay in lock-step: adding a
        category without surfacing it (or vice versa) is a silent
        reporting bug, so compare the *exact* sets."""
        summary = MachineStats(n_cores=2).summary()
        stall_keys = {key for key in summary if key.startswith("stall_")}
        assert stall_keys == {f"stall_{c}" for c in STALL_CATEGORIES}

    def test_summary_reports_mean_stalls(self):
        stats = MachineStats(n_cores=2)
        stats.cores[0].stall("barrier", 8)
        stats.cores[1].stall("barrier", 4)
        assert stats.summary()["stall_barrier"] == 6.0


def _core_with_block(slots, label="entry"):
    core = Core(0, RegisterLayout())
    cf = CoreFunction("main", label)
    cf.add_block(CoreBlock(label, slots=slots))
    core.push_frame(cf, return_dest=None)
    return core, cf


def _unstarted_core(slots):
    """Core 0 of a one-core machine built (not run) around one block,
    so every register the block names is numbered."""
    return _one_core_machine(slots).cores[0]


def _one_core_machine(slots):
    """A single-stepped one-core machine running one hand-built block."""
    program = Program("hand")
    program.add_function(Function("main"))
    program.function("main").add_block("entry")
    compiled = CompiledProgram(program, 1)
    cf = CoreFunction("main", "entry")
    cf.add_block(CoreBlock("entry", slots=slots))
    compiled.add_function(0, cf)
    return VoltronMachine(compiled, mesh(1), fast_forward=False)


class TestCoreState:
    def test_position_and_advance(self):
        core, _ = _core_with_block([make_op(Opcode.NOP), make_op(Opcode.NOP)])
        assert core.position() == ("main", "entry", 0)
        core.advance_slot()
        assert core.position()[2] == 1
        core.advance_slot()
        assert core.at_block_end()

    def test_jump_resets_fetch_marker(self):
        core, cf = _core_with_block([make_op(Opcode.NOP)])
        cf.add_block(CoreBlock("next", slots=[make_op(Opcode.NOP)]))
        assert core.take_fetch() is not None
        assert core.take_fetch() is None  # already fetched
        core.jump("next")
        assert core.take_fetch() is not None
        assert core.position() == ("main", "next", 0)

    def test_scoreboard_gates_sources(self):
        """MUL's result is ready three cycles after issue: the dependent
        ADD stalls on the scoreboard until then, and the kernel's stamp
        names that ready cycle as the stall's release."""
        r0, r1 = Reg(RegFile.GPR, 0), Reg(RegFile.GPR, 1)
        machine = _one_core_machine([
            make_op(Opcode.MUL, [r0], [Imm(3), Imm(4)]),
            make_op(Opcode.ADD, [r1], [r0, Imm(1)]),
            make_op(Opcode.HALT),
        ])
        machine.run()
        core = machine.cores[0]
        assert core.register(r1)[0] == 13
        assert core.stats.stalls["latency"] == 2
        cycle, category, release = core.stall_stamp
        assert category == "latency"
        assert release == core.register(r0)[1] == cycle + 1

    def test_immediates_always_ready(self):
        machine = _one_core_machine([
            make_op(Opcode.ADD, [Reg(RegFile.GPR, 1)], [Imm(1), Imm(2)]),
            make_op(Opcode.HALT),
        ])
        machine.run()
        assert machine.cores[0].stats.stalls["latency"] == 0
        assert machine.cores[0].stall_stamp is None

    def test_block_until_keeps_latest(self):
        core, _ = _core_with_block([make_op(Opcode.NOP)])
        core.block_until(10, "dstall")
        core.block_until(5, "istall")  # earlier: ignored
        assert core.next_free == 10
        assert core.pending_cause == "dstall"

    def test_checkpoint_and_rollback(self):
        r = Reg(RegFile.GPR, 0)
        core = _unstarted_core([make_op(Opcode.MOV, [r], [Imm(1)])])
        index = core.layout.index(r)
        core.write_reg(index, 1, ready=5)
        core.checkpoint_registers("retry")
        core.write_reg(index, 99, ready=7)
        label = core.rollback_registers()
        assert label == "retry"
        assert core.register(r) == (1, 0)
        assert not any(core.reg_ready[: core.layout.n_regs])

    def test_checkpoint_restore_roundtrip(self):
        a, b = Reg(RegFile.GPR, 0), Reg(RegFile.GPR, 1)
        core = _unstarted_core([make_op(Opcode.ADD, [b], [a, Imm(1)])])
        core.write_reg(core.layout.index(a), 1, ready=0)
        core.checkpoint_registers("retry")
        core.write_reg(core.layout.index(a), 99, ready=0)
        core.write_reg(core.layout.index(b), 100, ready=0)
        core.rollback_registers()
        assert core.register(a)[0] == 1
        with pytest.raises(UninitializedRegister):
            core.register(b)

    def test_checkpoint_is_a_copy(self):
        a = Reg(RegFile.GPR, 0)
        core = _unstarted_core([make_op(Opcode.MOV, [a], [Imm(1)])])
        core.write_reg(core.layout.index(a), 1, ready=0)
        core.checkpoint_registers("retry")
        core.write_reg(core.layout.index(a), 2, ready=0)
        assert core.tx_checkpoint.registers[core.layout.index(a)] == 1

    def test_blackout_poisons_only_written_registers(self):
        a, b = Reg(RegFile.GPR, 0), Reg(RegFile.GPR, 1)
        core = _unstarted_core([make_op(Opcode.ADD, [b], [a, Imm(1)])])
        core.write_reg(core.layout.index(a), 1, ready=9)
        core.poison_registers(-1)
        assert core.register(a) == (-1, 0)
        with pytest.raises(UninitializedRegister):
            core.register(b)

    def test_call_stack(self):
        core, cf = _core_with_block([make_op(Opcode.NOP)])
        callee = CoreFunction("helper", "h_entry")
        callee.add_block(CoreBlock("h_entry", slots=[make_op(Opcode.NOP)]))
        dest = Reg(RegFile.GPR, 3)
        core.push_frame(callee, return_dest=dest)
        assert core.call_depth == 2
        assert core.position() == ("helper", "h_entry", 0)
        frame = core.pop_frame()
        assert frame.return_dest == dest
        assert core.position()[0] == "main"
