"""Codegen transfer-insertion internals: where communication ops land."""

import pytest

from repro.arch import mesh
from repro.compiler import VoltronCompiler
from repro.isa import ProgramBuilder
from repro.isa.operations import Opcode, RegFile
from repro.workloads.kernels import KernelContext, doall_kernel, strand_kernel


def compile_kernel(kernel, strategy, n_cores=4, **kwargs):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=6)
    out = kernel(ctx, **kwargs)
    fb.halt()
    program = pb.finish()
    return program, VoltronCompiler(program).compile(strategy, mesh(n_cores))


def iter_ops(compiled, core=None):
    cores = range(compiled.n_cores) if core is None else [core]
    for c in cores:
        for function in compiled.streams[c].values():
            for block in function.ordered_blocks():
                for slot, op in enumerate(block.slots):
                    if op is not None:
                        yield block, slot, op


class TestTransferAttributes:
    def test_every_comm_op_is_marked_or_protocol(self):
        program, compiled = compile_kernel(doall_kernel, "hybrid")
        comm = (Opcode.PUT, Opcode.GET, Opcode.SEND, Opcode.RECV,
                Opcode.BCAST)
        protocol = {"spawn", "release"}
        for _block, _slot, op in iter_ops(compiled):
            if op.opcode in comm:
                assert op.attrs.get("transfer") or op.attrs.get("sync"), op

    def test_no_btr_transfers(self):
        """Branch-target registers are per-core (each core branches to its
        own physical block): they must never travel the network."""
        program, compiled = compile_kernel(doall_kernel, "hybrid")
        for _block, _slot, op in iter_ops(compiled):
            if op.opcode in (Opcode.PUT, Opcode.SEND):
                for src in op.src_regs():
                    assert src.file is not RegFile.BTR
            if op.opcode in (Opcode.GET, Opcode.RECV) and op.dests:
                assert op.dests[0].file is not RegFile.BTR

    def test_put_get_pairs_share_align_and_slot(self):
        program, compiled = compile_kernel(
            doall_kernel, "ilp", n_cores=2, trips=48
        )
        puts = {}
        gets = {}
        for block, slot, op in iter_ops(compiled):
            if op.opcode is Opcode.PUT:
                puts[op.attrs["align"]] = (block.label, slot)
            elif op.opcode is Opcode.GET and "align" in op.attrs:
                gets.setdefault(op.attrs["align"], []).append(
                    (block.label, slot)
                )
        assert puts
        for align, position in puts.items():
            for get_position in gets.get(align, []):
                assert get_position == position, (
                    "PUT/GET pair not co-scheduled"
                )

    def test_doall_body_has_no_transfers(self):
        """Chunk bodies are fully private: any SEND/RECV inside one would
        be a codegen bug."""
        program, compiled = compile_kernel(doall_kernel, "llp")
        table = compiled.attrs["regions"]
        body_labels = {
            label
            for (_fn, label), entry in table.items()
            if entry["origin"] == label and entry["strategy"] == "doall"
        }
        assert body_labels
        for core in range(4):
            for label in body_labels:
                stream = compiled.streams[core]["main"]
                if label not in stream.blocks:
                    continue
                for op_ in stream.block(label).ops():
                    assert op_.opcode not in (Opcode.SEND, Opcode.RECV), op_


class TestModeAnnotations:
    def test_every_block_has_consistent_mode_across_cores(self):
        program, compiled = compile_kernel(strand_kernel, "hybrid")
        modes = {}
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    key = (function.name, block.label)
                    modes.setdefault(key, set()).add(block.mode)
        for key, seen in modes.items():
            assert len(seen) == 1, f"{key} has mixed modes {seen}"

    def test_decoupled_blocks_only_inside_regions(self):
        program, compiled = compile_kernel(strand_kernel, "hybrid")
        table = compiled.attrs["regions"]
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    if block.mode == "decoupled":
                        assert (function.name, block.label) in table

    def test_region_annotation_matches_table(self):
        program, compiled = compile_kernel(strand_kernel, "hybrid")
        table = compiled.attrs["regions"]
        for core in range(4):
            for function in compiled.streams[core].values():
                for block in function.ordered_blocks():
                    entry = table.get((function.name, block.label))
                    if entry is not None:
                        assert block.region == entry["rid"]
                    else:
                        assert block.region == 0


class TestSerialFabric:
    def test_llp_strategy_places_fabric_on_core0_only(self):
        program, compiled = compile_kernel(strand_kernel, "llp")
        allowed = {
            Opcode.PBR, Opcode.BR, Opcode.HALT, Opcode.RET, Opcode.CALL,
            Opcode.GET, Opcode.NOP, Opcode.MODE_SWITCH,
        }
        for core in (1, 2, 3):
            for _block, _slot, op in iter_ops(compiled, core=core):
                assert op.opcode in allowed, (core, op)
