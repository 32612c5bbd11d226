"""Unit tests for blocks, functions, programs, and validation."""

import pytest

from repro.isa.operations import Imm, Opcode, Reg, RegFile, make_op
from repro.isa.program import ArraySymbol, BasicBlock, Function, Program


def _branch(function, target):
    btr = function.regs.btr()
    return [
        make_op(Opcode.PBR, [btr], [], target=target),
        make_op(Opcode.BR, [], [btr]),
    ]


class TestBasicBlock:
    def test_terminator_found(self):
        block = BasicBlock("b")
        block.append(make_op(Opcode.ADD, [Reg(RegFile.GPR, 0)], [Imm(1), Imm(2)]))
        br = block.append(make_op(Opcode.BR, [], [Reg(RegFile.BTR, 0)]))
        assert block.terminator() is br

    def test_call_is_not_a_block_terminator(self):
        # CALL transfers control but resumes mid-block; ops may follow it.
        block = BasicBlock("b")
        block.append(make_op(Opcode.CALL, [], [], function="f"))
        block.append(make_op(Opcode.NOP))
        assert block.terminator() is None

    def test_successors_dedupe(self):
        block = BasicBlock("b")
        block.taken = "x"
        block.fall = "x"
        assert block.successors() == ("x",)

    def test_non_control_ops(self):
        block = BasicBlock("b")
        add = block.append(
            make_op(Opcode.ADD, [Reg(RegFile.GPR, 0)], [Imm(1), Imm(2)])
        )
        block.append(make_op(Opcode.BR, [], [Reg(RegFile.BTR, 0)]))
        assert block.non_control_ops() == [add]


class TestFunction:
    def test_entry_is_first_block(self):
        fn = Function("f")
        fn.add_block("a")
        fn.add_block("b")
        assert fn.entry == "a"

    def test_duplicate_block_rejected(self):
        fn = Function("f")
        fn.add_block("a")
        with pytest.raises(ValueError):
            fn.add_block("a")

    def test_predecessors(self):
        fn = Function("f")
        a = fn.add_block("a")
        fn.add_block("b")
        fn.add_block("c")
        a.taken = "c"
        a.fall = "b"
        for op in _branch(fn, "c"):
            a.append(op)
        preds = fn.predecessors()
        assert preds["c"] == {"a"}
        assert preds["b"] == {"a"}
        assert preds["a"] == set()

    def test_validate_rejects_unknown_target(self):
        fn = Function("f")
        a = fn.add_block("a")
        a.taken = "missing"
        for op in _branch(fn, "missing"):
            a.append(op)
        with pytest.raises(ValueError, match="unknown block"):
            fn.validate()

    def test_validate_rejects_ops_after_terminator(self):
        fn = Function("f")
        a = fn.add_block("a")
        a.append(make_op(Opcode.HALT))
        a.append(make_op(Opcode.NOP))
        with pytest.raises(ValueError, match="after its terminator"):
            fn.validate()

    def test_validate_rejects_taken_without_branch(self):
        fn = Function("f")
        a = fn.add_block("a")
        a.taken = "a"
        with pytest.raises(ValueError, match="no branch"):
            fn.validate()


class TestProgram:
    def test_array_allocation_is_line_aligned(self):
        program = Program()
        first = program.alloc_array("a", 5)
        second = program.alloc_array("b", 3)
        assert first.base % 8 == 0
        assert second.base % 8 == 0
        assert second.base >= first.base + first.size

    def test_array_initializer_fills_memory(self):
        program = Program()
        symbol = program.alloc_array("a", 4, init=[9, 8, 7, 6])
        image = program.memory_image()
        for i, value in enumerate([9, 8, 7, 6]):
            assert image[symbol.base + i] == value

    def test_memory_image_is_fresh_and_in_allocation_order(self):
        program = Program()
        program.alloc_array("b", 2, init=[1, 2])
        program.alloc_array("a", 3, init=[3])
        image = program.memory_image()
        assert image == {0: 1, 1: 2, 8: 3}
        assert list(image) == [0, 1, 8]
        image[0] = 99
        assert program.memory_image()[0] == 1

    def test_duplicate_array_rejected(self):
        program = Program()
        program.alloc_array("a", 2, init=[1, 2])
        with pytest.raises(ValueError):
            program.alloc_array("a", 2, init=[3, 4])

    def test_oversize_initializer_rejected(self):
        program = Program()
        with pytest.raises(ValueError):
            program.alloc_array("a", 2, init=[1, 2, 3])

    def test_array_bounds_check(self):
        symbol = ArraySymbol("a", 0, 4)
        assert symbol.addr(3) == 3
        with pytest.raises(IndexError):
            symbol.addr(4)

    def test_validate_requires_entry(self):
        program = Program(entry="main")
        with pytest.raises(ValueError, match="entry"):
            program.validate()

    def test_validate_rejects_unknown_callee(self):
        program = Program()
        fn = Function("main")
        block = fn.add_block("entry")
        block.append(make_op(Opcode.CALL, [], [], function="ghost"))
        block.append(make_op(Opcode.HALT))
        program.add_function(fn)
        with pytest.raises(ValueError, match="unknown function"):
            program.validate()

    def test_functions_share_the_program_allocator(self):
        program = Program()
        f = Function("main")
        g = Function("g")
        program.add_function(f)
        program.add_function(g)
        a = f.regs.gpr()
        b = g.regs.gpr()
        assert a != b
