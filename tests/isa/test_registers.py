"""Unit tests for register allocation and per-core register files."""

import pytest

from repro.isa.operations import Reg, RegFile
from repro.isa.registers import (
    RegisterAllocator,
    RegisterFile,
    UninitializedRegister,
)


class TestRegisterAllocator:
    def test_fresh_registers_are_sequential(self):
        allocator = RegisterAllocator()
        assert allocator.gpr() == Reg(RegFile.GPR, 0)
        assert allocator.gpr() == Reg(RegFile.GPR, 1)

    def test_files_count_independently(self):
        allocator = RegisterAllocator()
        allocator.gpr()
        assert allocator.fpr() == Reg(RegFile.FPR, 0)
        assert allocator.pr() == Reg(RegFile.PR, 0)
        assert allocator.btr() == Reg(RegFile.BTR, 0)

    def test_reserve_prevents_collision(self):
        allocator = RegisterAllocator()
        allocator.reserve(Reg(RegFile.GPR, 10))
        assert allocator.gpr() == Reg(RegFile.GPR, 11)

    def test_reserve_below_watermark_is_noop(self):
        allocator = RegisterAllocator()
        allocator.gpr()
        allocator.gpr()
        allocator.reserve(Reg(RegFile.GPR, 0))
        assert allocator.gpr() == Reg(RegFile.GPR, 2)


class TestRegisterFile:
    def test_read_after_write(self):
        regs = RegisterFile()
        r = Reg(RegFile.GPR, 0)
        regs.write(r, 42)
        assert regs.read(r) == 42

    def test_uninitialized_read_raises(self):
        regs = RegisterFile(core_id=2)
        with pytest.raises(UninitializedRegister) as err:
            regs.read(Reg(RegFile.GPR, 9))
        assert "core 2" in str(err.value)

    def test_defined(self):
        regs = RegisterFile()
        r = Reg(RegFile.PR, 0)
        assert not regs.defined(r)
        regs.write(r, True)
        assert regs.defined(r)

    def test_len_counts_written_registers(self):
        regs = RegisterFile()
        assert len(regs) == 0
        regs.write(Reg(RegFile.GPR, 0), 1)
        regs.write(Reg(RegFile.FPR, 0), 1.5)
        assert len(regs) == 2
