"""Machine-level simulator tests on hand-assembled per-core code.

A tiny assembler builds :class:`CompiledProgram` objects directly so these
tests pin down the machine's execution contract independently of the
compiler.
"""

import dataclasses
import re

import pytest

from repro.arch import mesh
from repro.isa.machinecode import CompiledProgram, CoreBlock, CoreFunction
from repro.isa.operations import Imm, Opcode, Reg, RegFile, make_op
from repro.isa.program import Function, Program
from repro.isa.registers import UninitializedRegister
from repro.sim import Deadlock, OutOfCycles, SimulatorError, VoltronMachine

R = lambda i: Reg(RegFile.GPR, i)
P = lambda i: Reg(RegFile.PR, i)
B = lambda i: Reg(RegFile.BTR, i)


def op(opcode, dests=None, srcs=None, **attrs):
    return make_op(opcode, dests, srcs, **attrs)


def assemble(n_cores, core_blocks, entry="entry", modes=None):
    """core_blocks: {core: [(label, slots, taken, fall), ...]}."""
    program = Program("hand")
    fn = Function("main")
    fn.add_block("entry")
    program.add_function(fn)
    compiled = CompiledProgram(program, n_cores)
    for core in range(n_cores):
        cf = CoreFunction("main", entry)
        for label, slots, taken, fall in core_blocks[core]:
            block = CoreBlock(label, slots=list(slots), taken=taken, fall=fall)
            if modes and label in modes:
                block.mode = modes[label]
            cf.add_block(block)
        compiled.add_function(core, cf)
    return compiled


def run(compiled, config, **kwargs):
    machine = VoltronMachine(compiled, config, **kwargs)
    machine.run()
    return machine


class TestUninitializedRegister:
    """Reading a register no write ever reached is a miscompile: both
    kernels raise, naming the core and the register."""

    @pytest.mark.parametrize("fast_forward", [True, False])
    @pytest.mark.parametrize("mode", ["coupled", "decoupled"])
    def test_read_of_never_written_register_raises(self, mode, fast_forward):
        prologue = []
        if mode == "decoupled":
            prologue = [op(Opcode.MODE_SWITCH, mode="decoupled", align=1)]
        reads = {0: op(Opcode.MOV, [R(1)], [Imm(1)]),
                 1: op(Opcode.ADD, [R(1)], [R(7), Imm(1)])}
        compiled = assemble(2, {
            core: [("entry", prologue + [read, op(Opcode.HALT, align=2)],
                    None, None)]
            for core, read in reads.items()
        })
        with pytest.raises(UninitializedRegister,
                           match="core 1 read uninitialized register r7"):
            run(compiled, mesh(2), fast_forward=fast_forward)


class TestSingleCore:
    def test_arithmetic_and_store(self):
        compiled = assemble(1, {
            0: [("entry", [
                op(Opcode.ADD, [R(0)], [Imm(2), Imm(3)]),
                op(Opcode.MUL, [R(1)], [R(0), Imm(10)]),
                op(Opcode.STORE, [], [Imm(64), Imm(0), R(1)]),
                op(Opcode.HALT),
            ], None, None)],
        })
        machine = run(compiled, mesh(1))
        assert machine.memory.load(64) == 50

    def test_nop_padding_costs_cycles(self):
        # Three pad slots stay within one I-cache line, so the cost is
        # exactly three issue cycles.
        body = [op(Opcode.HALT)]
        padded = [None] * 3 + [op(Opcode.HALT)]
        fast = run(assemble(1, {0: [("entry", body, None, None)]}), mesh(1))
        slow = run(assemble(1, {0: [("entry", padded, None, None)]}), mesh(1))
        assert slow.stats.cycles == fast.stats.cycles + 3

    def test_branch_taken_and_fallthrough(self):
        blocks = [
            ("entry", [
                op(Opcode.MOV, [R(0)], [Imm(0)]),
                op(Opcode.CMP_LT, [P(0)], [Imm(1), Imm(2)]),
                op(Opcode.PBR, [B(0)], [], target="yes"),
                op(Opcode.BR, [], [B(0), P(0)]),
            ], "yes", "no"),
            ("no", [
                op(Opcode.MOV, [R(0)], [Imm(111)]),
                op(Opcode.HALT),
            ], None, None),
            ("yes", [
                op(Opcode.STORE, [], [Imm(8), Imm(0), Imm(222)]),
                op(Opcode.HALT),
            ], None, None),
        ]
        machine = run(assemble(1, {0: blocks}), mesh(1))
        assert machine.memory.load(8) == 222

    def test_scoreboard_interlock_counts_latency_stall(self):
        # MUL has latency 3; a back-to-back consumer must stall.
        compiled = assemble(1, {
            0: [("entry", [
                op(Opcode.MUL, [R(0)], [Imm(3), Imm(4)]),
                op(Opcode.ADD, [R(1)], [R(0), Imm(1)]),
                op(Opcode.HALT),
            ], None, None)],
        })
        machine = run(compiled, mesh(1))
        assert machine.stats.cores[0].stalls["latency"] >= 2
        assert machine.cores[0].register(R(1))[0] == 13

    def test_load_miss_blocks_and_counts_dstall(self):
        compiled = assemble(1, {
            0: [("entry", [
                op(Opcode.LOAD, [R(0)], [Imm(0), Imm(0)]),
                op(Opcode.HALT),
            ], None, None)],
        })
        machine = run(compiled, mesh(1))
        assert machine.stats.cores[0].stalls["dstall"] > 50  # memory latency
        assert machine.stats.cores[0].l1d_misses == 1

    def test_empty_block_falls_through(self):
        blocks = [
            ("entry", [], None, "mid"),
            ("mid", [], None, "end"),
            ("end", [op(Opcode.HALT)], None, None),
        ]
        machine = run(assemble(1, {0: blocks}), mesh(1))
        assert machine.stats.cycles >= 1

    def test_run_off_block_without_fall_raises(self):
        compiled = assemble(1, {
            0: [("entry", [op(Opcode.NOP)], None, None)],
        })
        with pytest.raises(SimulatorError):
            run(compiled, mesh(1))


class TestCoupledLockstep:
    def test_put_get_transfers_value(self):
        compiled = assemble(2, {
            0: [("entry", [
                op(Opcode.ADD, [R(0)], [Imm(20), Imm(22)]),
                op(Opcode.PUT, [], [R(0)], direction="east", align=901),
                op(Opcode.HALT, align=903),
            ], None, None)],
            1: [("entry", [
                None,
                op(Opcode.GET, [R(1)], [], direction="west", align=901),
                op(Opcode.HALT, align=903),
            ], None, None)],
        })
        machine = run(compiled, mesh(2))
        assert machine.cores[1].register(R(1))[0] == 42

    def test_misaligned_get_raises(self):
        compiled = assemble(2, {
            0: [("entry", [
                op(Opcode.NOP),
                op(Opcode.HALT, align=910),
            ], None, None)],
            1: [("entry", [
                op(Opcode.GET, [R(1)], [], direction="west"),
                op(Opcode.HALT, align=910),
            ], None, None)],
        })
        with pytest.raises(Exception):
            run(compiled, mesh(2))

    def test_stall_bus_propagates_miss(self):
        # Core 0 misses; lock-step forces core 1 to stall identically.
        compiled = assemble(2, {
            0: [("entry", [
                op(Opcode.LOAD, [R(0)], [Imm(0), Imm(0)]),
                op(Opcode.NOP),
                op(Opcode.HALT, align=920),
            ], None, None)],
            1: [("entry", [
                op(Opcode.NOP),
                op(Opcode.NOP),
                op(Opcode.HALT, align=920),
            ], None, None)],
        })
        machine = run(compiled, mesh(2))
        c0, c1 = machine.stats.cores
        assert c0.stalls["dstall"] > 50
        assert c1.stalls["dstall"] == c0.stalls["dstall"]

    def test_lockstep_divergence_detected(self):
        # The cores branch to *different* logical blocks in the same cycle:
        # the lock-step assertion must catch the divergence.
        def tail(label):
            return (label, [op(Opcode.NOP), op(Opcode.HALT)], None, None)

        compiled = assemble(2, {
            0: [("entry", [
                op(Opcode.PBR, [B(0)], [], target="x"),
                op(Opcode.BR, [], [B(0)]),
            ], "x", None), tail("x"), tail("y")],
            1: [("entry", [
                op(Opcode.PBR, [B(0)], [], target="y"),
                op(Opcode.BR, [], [B(0)]),
            ], "y", None), tail("x"), tail("y")],
        })
        with pytest.raises(SimulatorError):
            run(compiled, mesh(2))


class TestBroadcast:
    def test_bcast_reaches_all_cores(self):
        blocks = {}
        blocks[0] = [("entry", [
            op(Opcode.CMP_LT, [P(0)], [Imm(1), Imm(2)]),
            op(Opcode.BCAST, [], [P(0)], align=930),
            op(Opcode.HALT, align=931),
        ], None, None)]
        for core in (1, 2, 3):
            blocks[core] = [("entry", [
                None,
                op(Opcode.GET, [P(0)], [], direction="bcast", bcast_src=0,
                   align=930),
                op(Opcode.HALT, align=931),
            ], None, None)]
        machine = run(assemble(4, blocks), mesh(4))
        for core in (1, 2, 3):
            assert machine.cores[core].register(P(0))[0] is True


class TestModeSwitchAndThreads:
    def _dual_mode_program(self):
        """Core 0 spawns a thread on core 1, receives its result, releases."""
        blocks = {
            0: [
                ("entry", [
                    op(Opcode.MODE_SWITCH, mode="decoupled", align=940),
                ], None, "work"),
                ("work", [
                    op(Opcode.SPAWN, target_core=1, target_block="thread"),
                    op(Opcode.RECV, [R(5)], [], source_core=1),
                    op(Opcode.STORE, [], [Imm(16), Imm(0), R(5)]),
                    op(Opcode.RELEASE, target_core=1),
                ], None, "join"),
                ("join", [
                    op(Opcode.MODE_SWITCH, mode="coupled"),
                ], None, "end"),
                ("end", [op(Opcode.HALT, align=941)], None, None),
            ],
            1: [
                ("entry", [
                    op(Opcode.MODE_SWITCH, mode="decoupled", align=940),
                ], None, "park"),
                ("park", [op(Opcode.LISTEN)], None, "join"),
                ("thread", [
                    op(Opcode.ADD, [R(9)], [Imm(40), Imm(2)]),
                    op(Opcode.SEND, [], [R(9)], target_core=0),
                    op(Opcode.SLEEP),
                ], None, None),
                ("join", [
                    op(Opcode.MODE_SWITCH, mode="coupled"),
                ], None, "end"),
                ("end", [op(Opcode.HALT, align=941)], None, None),
            ],
        }
        modes = {"work": "decoupled", "park": "decoupled",
                 "thread": "decoupled", "join": "decoupled"}
        return assemble(2, blocks, modes=modes)

    def test_spawn_sleep_release_roundtrip(self):
        machine = run(self._dual_mode_program(), mesh(2))
        assert machine.memory.load(16) == 42
        assert machine.stats.spawns == 1
        assert machine.stats.mode_switches >= 2

    def test_mode_cycles_accounted(self):
        machine = run(self._dual_mode_program(), mesh(2))
        assert machine.stats.mode_cycles["decoupled"] > 0
        assert machine.stats.mode_cycles["coupled"] > 0

    def test_idle_listening_is_counted(self):
        machine = run(self._dual_mode_program(), mesh(2))
        assert machine.stats.cores[1].stalls["idle"] > 0

    def test_sleep_resets_fetch_marker(self):
        """SLEEP redirects the core to its LISTEN slot and, like any
        redirect (``Core.jump``), must clear the fetch marker: the next
        wake-up re-fetches that slot even when it was the last one
        fetched."""
        machine = VoltronMachine(self._dual_mode_program(), mesh(2))
        core = machine.cores[1]
        core.jump("park")
        park = core.frame.block
        assert core.take_fetch() == park.base_addr  # LISTEN fetched
        core.listen_return = (park, 0)
        machine._do_sleep(core, op(Opcode.SLEEP), (), None)
        assert core.position() == ("main", "park", 0)
        assert core.take_fetch() == park.base_addr

    def test_deadlock_detected_when_all_listen(self):
        blocks = {
            0: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=950)],
                 None, "park"),
                ("park", [op(Opcode.LISTEN)], None, None),
            ],
            1: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=950)],
                 None, "park"),
                ("park", [op(Opcode.LISTEN)], None, None),
            ],
        }
        compiled = assemble(2, blocks, modes={"park": "decoupled"})
        with pytest.raises(Deadlock):
            run(compiled, mesh(2))


class TestTermination:
    """OutOfCycles and Deadlock behaviour, with and without the stall
    fast-forwarding kernel."""

    def _nop_spin(self):
        # A block of pure NOP padding that falls through to itself: the
        # core issues every cycle and never halts.
        return assemble(1, {0: [("spin", [None], None, "spin")]}, entry="spin")

    def test_runaway_program_raises_out_of_cycles(self):
        with pytest.raises(OutOfCycles):
            run(self._nop_spin(), mesh(1), max_cycles=200)

    def test_out_of_cycles_fires_at_same_cycle_with_fast_forward(self):
        # The spin issues every cycle, so fast-forwarding never engages
        # and both modes must give up at exactly the same cycle.
        cycles = []
        for fast_forward in (True, False):
            machine = VoltronMachine(
                self._nop_spin(),
                mesh(1),
                max_cycles=200,
                fast_forward=fast_forward,
            )
            with pytest.raises(OutOfCycles):
                machine.run()
            cycles.append(machine.cycle)
        assert cycles[0] == cycles[1] == 200

    def _cross_recv(self):
        # Two decoupled cores each RECV from the other with nothing in
        # flight: every core is blocked and no release cycle exists.
        blocks = {
            0: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=950)],
                 None, "wait"),
                ("wait", [op(Opcode.RECV, [R(0)], [], source_core=1)],
                 None, None),
            ],
            1: [
                ("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=950)],
                 None, "wait"),
                ("wait", [op(Opcode.RECV, [R(0)], [], source_core=0)],
                 None, None),
            ],
        }
        return assemble(2, blocks, modes={"wait": "decoupled"})

    def test_all_blocked_without_release_deadlocks_immediately(self):
        # Under fast-forward the classifier proves there is no finite
        # release cycle and raises Deadlock at the stall window itself
        # rather than spinning the clock to max_cycles.
        machine = VoltronMachine(self._cross_recv(), mesh(2), fast_forward=True)
        with pytest.raises(Deadlock):
            machine.run()
        # A couple hundred cycles to clear the mode switch, nowhere near
        # the 20M-cycle default budget single-stepping would burn.
        assert machine.cycle < 500

    def test_all_blocked_without_release_exhausts_cycles_when_stepping(self):
        # Single-stepping has no deadlock oracle for blocked RECVs: the
        # same program burns the cycle budget instead.
        machine = VoltronMachine(
            self._cross_recv(), mesh(2), max_cycles=300, fast_forward=False
        )
        with pytest.raises(OutOfCycles):
            machine.run()

    def test_out_of_cycles_carries_per_core_diagnostics(self):
        machine = VoltronMachine(self._nop_spin(), mesh(1), max_cycles=200)
        with pytest.raises(OutOfCycles) as excinfo:
            machine.run()
        message = str(excinfo.value)
        # Position, stall state, and queue occupancy for every core.
        assert "mode=" in message and "cycle=" in message
        assert "core 0:" in message
        assert "pc=" in message
        assert "pending msg(s)" in message

    def test_deadlock_carries_per_core_diagnostics(self):
        machine = VoltronMachine(self._cross_recv(), mesh(2), fast_forward=True)
        with pytest.raises(Deadlock) as excinfo:
            machine.run()
        message = str(excinfo.value)
        assert "core 0:" in message and "core 1:" in message
        # The cross-RECV hang: both cores stuck in their wait block with
        # empty queues -- readable straight from the exception.
        assert message.count("queue=0 pending msg(s)") == 2
        assert "wait" in message

    def test_diagnostics_carry_pc_per_live_core(self):
        # Every live core's program counter appears in function:label:slot
        # form, so a hung chaos run is debuggable from the message alone.
        machine = VoltronMachine(
            self._cross_recv(), mesh(2), max_cycles=300, fast_forward=False
        )
        with pytest.raises(OutOfCycles) as excinfo:
            machine.run()
        message = str(excinfo.value)
        assert len(re.findall(r"pc=\w+:wait:\d+", message)) == 2
        assert message.count("queue=") == 2

    def test_diagnostics_render_blocked_stall_cause(self):
        # A core held by the pipeline (next_free in the future) reports
        # the stall cause and the release cycle.
        machine = VoltronMachine(self._nop_spin(), mesh(1), max_cycles=20)
        with pytest.raises(OutOfCycles):
            machine.run()
        core = machine.cores[0]
        core.block_until(core.next_free + 50, "dstall")
        text = machine._core_diagnostics()
        assert re.search(r"blocked\[dstall\] until cycle \d+", text)
        assert "queue=0 pending msg(s)" in text
        # A free core says so instead of inventing a cause.
        core.next_free = 0
        assert "free" in machine._core_diagnostics()


class TestDecoupledSleep:
    """With fast-forwarding on, decoupled cores whose next cycles repeat
    the stall just charged are not stepped (``AwakeSet``); the stats must
    match stepping every core."""

    def _racing_senders(self):
        # Core 0's second SEND waits on an FDIV while the receiver's shared
        # pool still has room; core 1 fills the pool meanwhile, so the
        # rest of the wait is back-pressure, not the scoreboard.
        def decoupled(body):
            return [("entry", [op(Opcode.MODE_SWITCH, mode="decoupled", align=960)],
                     None, "body"),
                    ("body", body + [op(Opcode.HALT)], None, None)]

        blocks = {
            0: decoupled([
                op(Opcode.SEND, [], [Imm(1)], target_core=2),
                op(Opcode.FDIV, [R(1)], [Imm(1.0), Imm(3.0)]),
                op(Opcode.SEND, [], [R(1)], target_core=2),
            ]),
            1: decoupled([op(Opcode.MOV, [R(1)], [Imm(i)]) for i in range(4)]
                         + [op(Opcode.SEND, [], [R(1)], target_core=2)]),
            2: decoupled([
                op(Opcode.FDIV, [R(1)], [Imm(1.0), Imm(3.0)]),
                op(Opcode.FDIV, [R(2)], [R(1), Imm(3.0)]),
                op(Opcode.FDIV, [R(3)], [R(2), Imm(3.0)]),
                op(Opcode.RECV, [R(4)], [], source_core=0),
                op(Opcode.RECV, [R(5)], [], source_core=1),
                op(Opcode.RECV, [R(6)], [], source_core=0),
            ]),
            3: decoupled([]),
        }
        return assemble(4, blocks, modes={"body": "decoupled"})

    def test_send_waiting_on_its_source_stays_awake(self):
        config = mesh(4)
        config = dataclasses.replace(config, network=dataclasses.replace(
            config.network, queue_policy="vlink", queue_depth=2))
        fast, slow = (
            run(self._racing_senders(), config, fast_forward=ff).stats
            for ff in (True, False)
        )
        stalls = slow.cores[0].stalls
        assert stalls["latency"] > 0 and stalls["send"] > 0
        assert fast.to_dict() == slow.to_dict()

    def test_waiting_cores_are_not_stepped(self, monkeypatch):
        from repro.arch.config import resolve_machine
        from repro.compiler import VoltronCompiler
        from repro.workloads.suite import build

        # Most of this cell's decoupled core-cycles are barrier waits.
        config = resolve_machine("mesh32-directory")
        compiled = VoltronCompiler(build("197.parser").program).compile("tlp", config)
        step = VoltronMachine._step_decoupled
        stats, steps = {}, {}
        for fast_forward in (True, False):
            calls = []
            monkeypatch.setattr(
                VoltronMachine, "_step_decoupled",
                lambda machine, core, calls=calls: calls.append(core) or step(machine, core),
            )
            stats[fast_forward] = run(compiled, config, fast_forward=fast_forward).stats
            steps[fast_forward] = len(calls)
        assert stats[True].to_dict() == stats[False].to_dict()
        assert steps[True] * 3 < steps[False]


class TestProgramArgs:
    def test_args_reach_all_cores(self):
        program = Program("argy")
        fn = Function("main")
        arg = fn.regs.gpr()
        fn.params = [arg]
        fn.add_block("entry")
        program.add_function(fn)
        compiled = CompiledProgram(program, 2)
        for core in range(2):
            cf = CoreFunction("main", "entry")
            cf.add_block(CoreBlock("entry", slots=[
                op(Opcode.STORE, [], [Imm(core), Imm(0), arg]),
                op(Opcode.HALT, align=960),
            ]))
            compiled.add_function(core, cf)
        machine = VoltronMachine(compiled, mesh(2), args=(77,))
        machine.run()
        assert machine.memory.load(0) == 77
        assert machine.memory.load(1) == 77

    def test_wrong_arity_rejected(self):
        compiled = assemble(1, {0: [("entry", [op(Opcode.HALT)], None, None)]})
        with pytest.raises(ValueError):
            VoltronMachine(compiled, mesh(1), args=(1,))


class TestClusteredStallBus:
    """The coupled kernel reads the stall bus without walking the
    ensemble while no core is held and no cluster-penalty flag is left
    to clear; the cycles are stepped by hand."""

    def _machine(self):
        """Two cores, each its own stall-bus cluster (every stall episode
        pays the cluster penalty once), stepped past their one cold
        I-fetch (the block fits one fetch line)."""
        base = mesh(2)
        config = dataclasses.replace(
            base, coupled_group_size=1,
            l1i=dataclasses.replace(base.l1i, line_words=64),
        )
        slots = [op(Opcode.NOP) for _ in range(40)] + [op(Opcode.HALT)]
        compiled = assemble(2, {
            core: [("entry", slots, None, None)] for core in (0, 1)
        })
        machine = VoltronMachine(compiled, config)
        assert machine._cluster_penalty > 0
        while not machine._step_group():
            machine.cycle += 1
        machine.cycle += 1
        assert machine.cores[0].frame.slot == 1
        assert not any(core.penalized for core in machine.cores)
        return machine

    @staticmethod
    def _step(machine, cycles=1):
        for _ in range(cycles):
            machine._step_group()
            machine.cycle += 1

    def test_a_penalized_core_rejoining_free_pays_its_next_episode(self):
        machine = self._machine()
        penalty = machine._cluster_penalty
        lead, other = machine.cores
        self._step(machine, 2)
        start = machine.cycle
        lead.block_until(start + 3, "dstall")
        self._step(machine)  # the walk sees the episode and stretches it
        assert lead.penalized and lead.next_free == start + 3 + penalty
        # The lead leaves the ensemble still flagged; the other runs on
        # alone past the end of the lead's hold.
        lead.status = "barrier"
        machine._positions_moved = True
        self._step(machine, penalty + 6)
        assert lead.penalized and machine.cycle > lead.next_free
        # It rejoins free, at the other's slot: its flag clears...
        lead.status = "running"
        lead.frame.slot = other.frame.slot
        machine._positions_moved = True
        self._step(machine)
        assert not lead.penalized
        # ...so its next episode pays the penalty again.
        start = machine.cycle
        lead.block_until(start + 3, "dstall")
        self._step(machine)
        assert lead.penalized and lead.next_free == start + 3 + penalty

    def test_the_bus_is_walked_only_while_a_core_may_be_held(self):
        machine = self._machine()
        walks = []
        walk = machine._stall_bus
        machine._stall_bus = lambda running, cycle: (
            walks.append(cycle) or walk(running, cycle)
        )
        self._step(machine, 4)
        assert walks == []
        start = machine.cycle
        machine.cores[1].block_until(start + 2, "dstall")
        self._step(machine, 8)
        # Walked through the penalized hold and once more to clear it.
        release = start + 2 + machine._cluster_penalty
        assert walks == list(range(start, release + 1))
        assert machine.watermark.until == release
        # Issued cycles reach busy in bulk, at settle.
        issued = 1 + 4 + 8 - (release - start)
        assert [c.stats.busy for c in machine.cores] == [0, 0]
        machine.settle(machine.cycle)
        assert [c.stats.busy for c in machine.cores] == [issued, issued]


class TestCoupledStepping:
    """The lock-step kernel at its edges: where it must fetch, and an
    ensemble some of whose members have stopped."""

    def _with_callee(self, n_cores):
        """main calls a one-RET function ``f`` from slot 0 of a four-slot
        block, so the call returns to slot 1, in the middle of a fetch
        line."""
        program = Program("call_resume")
        for name in ("main", "f"):
            fn = Function(name)
            fn.add_block("entry")
            program.add_function(fn)
        compiled = CompiledProgram(program, n_cores)
        for core in range(n_cores):
            main = CoreFunction("main", "entry")
            main.add_block(CoreBlock("entry", slots=[
                op(Opcode.CALL, [], [], function="f"),
                op(Opcode.ADD, [R(0)], [Imm(1), Imm(2)]),
                op(Opcode.ADD, [R(1)], [R(0), Imm(3)]),
                op(Opcode.HALT),
            ]))
            compiled.add_function(core, main)
            callee = CoreFunction("f", "entry")
            callee.add_block(CoreBlock("entry", slots=[op(Opcode.RET)]))
            compiled.add_function(core, callee)
        return compiled

    def test_call_return_fetches_the_resume_slot(self):
        machine = VoltronMachine(self._with_callee(2), mesh(2))
        fetched = {core.id: [] for core in machine.cores}
        for core, icache in zip(machine.cores, machine.icaches):
            def access(addr, l2, latency, _access=icache.access,
                       _log=fetched[core.id], _base=core.fetch_base):
                _log.append(addr - _base)
                return _access(addr, l2, latency)
            icache.access = access
        machine.run()
        # The entry line, the callee's block, then the resume slot again
        # (a return clears the fetch marker); slots 2-3 share its line.
        assert fetched == {0: [0, 4, 1], 1: [0, 4, 1]}
        assert machine.cores[1].register(R(1))[0] == 6

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_partly_running_ensemble_steps_in_lockstep(self, fast_forward):
        """Cores 2 and 3 halt in the first slot; cores 0 and 1 carry on
        in lock-step: a wire transfer, a load miss on one core that
        stalls both, and a scoreboard interlock."""
        blocks = {
            0: [("entry", [
                op(Opcode.ADD, [R(0)], [Imm(20), Imm(22)]),
                op(Opcode.PUT, [], [R(0)], direction="east", align=971),
                op(Opcode.LOAD, [R(2)], [Imm(64), Imm(0)]),
                op(Opcode.MUL, [R(3)], [R(2), Imm(2)]),
                op(Opcode.ADD, [R(4)], [R(3), Imm(1)]),
                op(Opcode.HALT, align=972),
            ], None, None)],
            1: [("entry", [
                None,
                op(Opcode.GET, [R(1)], [], direction="west", align=971),
                None,
                op(Opcode.MUL, [R(5)], [R(1), R(1)]),
                op(Opcode.STORE, [], [Imm(8), Imm(0), R(5)]),
                op(Opcode.HALT, align=972),
            ], None, None)],
        }
        for core in (2, 3):
            blocks[core] = [("entry", [op(Opcode.HALT)] + [None] * 5,
                             None, None)]
        machine = run(assemble(4, blocks), mesh(4),
                      fast_forward=fast_forward)
        assert machine.memory.load(8) == 42 * 42
        assert machine.cores[0].register(R(4))[0] == 1
        # Values recorded from the per-core kernel: the halted cores'
        # first-fetch miss is all they ever pay.
        assert machine.stats.cycles == 311
        assert [
            (c.busy, c.ops_executed, {k: v for k, v in c.stalls.items() if v})
            for c in machine.stats.cores
        ] == [
            (6, 6, {"istall": 101, "dstall": 202, "latency": 2}),
            (6, 4, {"istall": 101, "dstall": 202, "latency": 2}),
            (1, 1, {"istall": 101}),
            (1, 1, {"istall": 101}),
        ]

    def test_coupled_mode_steps_only_coupled_blocks(self):
        """Only a block marked coupled was proved fit for lock-step: the
        coupled kernel refuses to step any other."""
        compiled = assemble(2, {
            core: [("entry", [op(Opcode.NOP), op(Opcode.HALT)], None, None)]
            for core in (0, 1)
        }, modes={"entry": "decoupled"})
        with pytest.raises(SimulatorError,
                           match="coupled mode reached main:entry, a decoupled block"):
            run(compiled, mesh(2))
