"""Codegen tests: structure of the machine code each strategy emits."""

import pytest

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder
from repro.isa.operations import Opcode
from repro.workloads.kernels import (
    KernelContext,
    doall_kernel,
    dswp_kernel,
    match_kernel,
    reduction_kernel,
    strand_kernel,
)


def _compile(kernel, strategy, n_cores=4, **kwargs):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=2)
    out = kernel(ctx, **kwargs)
    fb.halt()
    program = pb.finish()
    compiled = VoltronCompiler(program).compile(strategy, mesh(n_cores))
    return program, compiled, out


def all_ops(compiled, core=None, opcode=None):
    result = []
    cores = range(compiled.n_cores) if core is None else [core]
    for c in cores:
        for function in compiled.streams[c].values():
            for block in function.ordered_blocks():
                for op in block.ops():
                    if opcode is None or op.opcode is opcode:
                        result.append(op)
    return result


class TestCoupledStructure:
    def test_every_core_has_every_block(self):
        program, compiled, _ = _compile(doall_kernel, "ilp")
        labels = [
            set(compiled.streams[c]["main"].blocks) for c in range(4)
        ]
        assert all(l == labels[0] for l in labels)

    def test_coupled_blocks_have_equal_lengths(self):
        program, compiled, _ = _compile(doall_kernel, "ilp")
        for label in compiled.streams[0]["main"].blocks:
            lengths = {
                len(compiled.streams[c]["main"].block(label).slots)
                for c in range(4)
            }
            assert len(lengths) == 1

    def test_branches_replicated_and_aligned(self):
        program, compiled, _ = _compile(doall_kernel, "ilp")
        loop_label = next(
            b.label
            for b in compiled.streams[0]["main"].ordered_blocks()
            if b.taken == b.label
        )
        slots = []
        for c in range(4):
            block = compiled.streams[c]["main"].block(loop_label)
            br_slots = [
                i for i, op in enumerate(block.slots)
                if op is not None and op.opcode is Opcode.BR
            ]
            assert len(br_slots) == 1
            slots.append(br_slots[0])
        assert len(set(slots)) == 1  # same cycle on every core

    def test_ilp_emits_direct_mode_comm(self):
        program, compiled, _ = _compile(doall_kernel, "ilp")
        assert all_ops(compiled, opcode=Opcode.PUT)
        assert all_ops(compiled, opcode=Opcode.GET)
        assert not all_ops(compiled, opcode=Opcode.SEND)

    def test_llp_serial_fabric_puts_work_on_core0(self):
        program, compiled, _ = _compile(strand_kernel, "llp")
        # strand kernel has no DOALL loop: under 'llp' it must stay serial.
        for core in range(1, 4):
            computational = [
                op
                for op in all_ops(compiled, core=core)
                if op.opcode
                not in (Opcode.PBR, Opcode.BR, Opcode.HALT, Opcode.GET,
                        Opcode.NOP)
            ]
            assert computational == []


class TestDoallStructure:
    def test_region_blocks_present(self):
        program, compiled, _ = _compile(doall_kernel, "llp")
        table = compiled.attrs["regions"]
        strategies = {entry["strategy"] for entry in table.values()}
        assert strategies == {"doall"}
        labels = {label for (_fn, label) in table}
        assert any(label.endswith("_chunk") for label in labels)
        assert any(label.endswith("_join") for label in labels)

    def test_tx_brackets_on_every_core(self):
        program, compiled, _ = _compile(doall_kernel, "llp")
        for core in range(4):
            begins = all_ops(compiled, core=core, opcode=Opcode.TX_BEGIN)
            commits = all_ops(compiled, core=core, opcode=Opcode.TX_COMMIT)
            assert len(begins) == 1 and len(commits) == 1
            assert begins[0].attrs["order"] == core
            assert begins[0].attrs["chunks"] == 4

    def test_spawn_listen_sleep_protocol(self):
        program, compiled, _ = _compile(doall_kernel, "llp")
        spawns = all_ops(compiled, core=0, opcode=Opcode.SPAWN)
        assert len(spawns) == 3  # one per worker core
        for core in range(1, 4):
            assert all_ops(compiled, core=core, opcode=Opcode.LISTEN)
            assert all_ops(compiled, core=core, opcode=Opcode.SLEEP)
        assert len(all_ops(compiled, core=0, opcode=Opcode.RELEASE)) == 3

    def test_reduction_gets_partial_combines(self):
        program, compiled, _ = _compile(reduction_kernel, "llp")
        join_recvs = [
            op
            for op in all_ops(compiled, core=0, opcode=Opcode.RECV)
            if op.attrs.get("source_core") in (1, 2, 3)
        ]
        assert len(join_recvs) >= 3

    def test_mode_switch_brackets(self):
        program, compiled, _ = _compile(doall_kernel, "llp")
        for core in range(4):
            switches = all_ops(compiled, core=core, opcode=Opcode.MODE_SWITCH)
            modes = sorted(op.attrs["mode"] for op in switches)
            assert modes == ["coupled", "decoupled"]


class TestDecoupledStructure:
    def test_strand_region_uses_queue_comm(self):
        program, compiled, _ = _compile(strand_kernel, "tlp")
        assert all_ops(compiled, opcode=Opcode.SEND)
        assert all_ops(compiled, opcode=Opcode.RECV)

    def test_match_loop_predicate_is_communicated(self):
        """The Fig. 8 shape: the branch predicate flows through the queue
        network each iteration."""
        program, compiled, _ = _compile(match_kernel, "tlp", length=96)
        from repro.isa.operations import RegFile

        pred_recvs = [
            op
            for op in all_ops(compiled, opcode=Opcode.RECV)
            if op.dests and op.dests[0].file is RegFile.PR
        ]
        assert pred_recvs

    def test_dswp_carried_channel_has_prologue_and_drain(self):
        program, compiled, _ = _compile(dswp_kernel, "tlp", trips=64)
        tagged_sends = [
            op
            for op in all_ops(compiled, opcode=Opcode.SEND)
            if op.attrs.get("tag")
        ]
        tagged_recvs = [
            op
            for op in all_ops(compiled, opcode=Opcode.RECV)
            if op.attrs.get("tag")
        ]
        assert tagged_sends and tagged_recvs
        # Prologue block exists when a carried value crosses stages.
        labels = {
            block.label
            for c in range(4)
            for block in compiled.streams[c]["main"].ordered_blocks()
        }
        assert any(label.endswith("_pro") for label in labels)

    def test_decoupled_block_lengths_may_differ(self):
        program, compiled, _ = _compile(strand_kernel, "tlp")
        table = compiled.attrs["regions"]
        body_label = next(
            label
            for (_fn, label), entry in table.items()
            if entry["origin"] == label
        )
        lengths = set()
        for core in range(4):
            stream = compiled.streams[core]["main"]
            if body_label in stream.blocks:
                lengths.add(len(stream.block(body_label).slots))
        assert len(lengths) >= 1  # present, possibly on a subset of cores


class TestProgramPurity:
    def test_source_program_not_mutated(self):
        pb = ProgramBuilder("t")
        fb = pb.function("main")
        fb.block("entry")
        ctx = KernelContext(pb=pb, fb=fb, seed=2)
        doall_kernel(ctx, trips=32)
        fb.halt()
        program = pb.finish()
        before = [
            (op.uid, op.core, op.slot)
            for op in program.main().all_ops()
        ]
        compiler = VoltronCompiler(program)
        compiler.compile("hybrid", mesh(4))
        compiler.compile("ilp", mesh(2))
        after = [
            (op.uid, op.core, op.slot)
            for op in program.main().all_ops()
        ]
        assert before == after

    def test_machine_ops_have_fresh_uids(self):
        program, compiled, _ = _compile(doall_kernel, "hybrid")
        uids = [op.uid for op in all_ops(compiled)]
        assert len(uids) == len(set(uids))

    def test_region_table_attached(self):
        program, compiled, _ = _compile(doall_kernel, "hybrid")
        assert compiled.attrs["strategy"] == "hybrid"
        assert compiled.attrs["regions"]
