"""Negative paths and invariants the codegen must enforce."""

import pytest

from repro.arch import four_core, mesh
from repro.compiler import Codegen, VoltronCompiler
from repro.isa import ProgramBuilder
from repro.isa.operations import Opcode
from repro.workloads.kernels import KernelContext, doall_kernel


def _program():
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=1)
    doall_kernel(ctx, trips=48)
    fb.halt()
    return pb.finish()


class TestGuards:
    def test_eight_core_machine_compiles_clustered(self):
        """Meshes past the 4-core stall-bus group are no longer rejected:
        coupled regions run as one clustered ensemble, and the result
        matches the paper-size machine bit for bit."""
        from repro.sim import VoltronMachine

        compiler = VoltronCompiler(_program())
        small = VoltronMachine(compiler.compile("hybrid", four_core()), four_core())
        small.run()
        config = mesh(8)
        large = VoltronMachine(compiler.compile("hybrid", config), config)
        assert large._cluster_penalty == config.cluster_stall_latency
        large.run()
        assert large.final_memory() == small.final_memory()

    def test_mismatched_machine_rejected_at_simulation(self):
        from repro.arch import two_core
        from repro.sim import VoltronMachine

        compiled = VoltronCompiler(_program()).compile("ilp", two_core())
        with pytest.raises(ValueError, match="compiled for 2"):
            VoltronMachine(compiled, four_core())


class TestStructuralInvariants:
    def _compiled(self, strategy):
        return VoltronCompiler(_program()).compile(strategy, four_core())

    def test_terminators_are_final_slots_in_coupled_blocks(self):
        compiled = self._compiled("ilp")
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    term_slots = [
                        i
                        for i, op_ in enumerate(block.slots)
                        if op_ is not None
                        and op_.opcode in (Opcode.BR, Opcode.RET, Opcode.HALT)
                    ]
                    for slot in term_slots:
                        trailing = block.slots[slot + 1 :]
                        assert all(t is None for t in trailing), (
                            f"{block.label}: ops after terminator"
                        )

    def test_every_conditional_branch_has_pbr_before_it(self):
        compiled = self._compiled("hybrid")
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    ops = [op_ for op_ in block.slots if op_ is not None]
                    for index, op_ in enumerate(ops):
                        if op_.opcode is Opcode.BR:
                            btr = op_.srcs[0]
                            defs = [
                                prior
                                for prior in ops[:index]
                                if btr in prior.dests
                            ]
                            assert defs, f"BR without PBR in {block.label}"

    def test_entry_block_exists_on_every_core(self):
        compiled = self._compiled("hybrid")
        for core in range(4):
            function = compiled.streams[core]["main"]
            assert function.entry in function.blocks

    def test_halt_present_on_every_core(self):
        compiled = self._compiled("hybrid")
        for core in range(4):
            halts = [
                op_
                for function in compiled.streams[core].values()
                for block in function.ordered_blocks()
                for op_ in block.ops()
                if op_.opcode is Opcode.HALT
            ]
            assert halts, f"core {core} never halts"

    def test_origin_attrs_link_back_to_source_ops(self):
        program = _program()
        source_uids = {
            op_.uid for fn in program.functions.values() for op_ in fn.all_ops()
        }
        compiled = VoltronCompiler(program).compile("ilp", four_core())
        linked = 0
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    for op_ in block.ops():
                        origin = op_.attrs.get("origin")
                        if origin is not None:
                            assert origin in source_uids
                            linked += 1
        assert linked > 0
