"""Tests for opcodes, registers and the Instruction container."""

import pytest

from repro.isa import (
    Imm,
    Instruction,
    Opcode,
    Reg,
    Width,
    ZERO,
    narrowest_available_width,
    op_info,
    parse_register,
)
from repro.isa.semantics import evaluate_operation


class TestRegisters:
    def test_names(self):
        assert Reg(31).name == "zero"
        assert Reg(30).name == "sp"
        assert Reg(7).name == "r7"

    def test_parse_aliases(self):
        assert parse_register("sp") == Reg(30)
        assert parse_register("a0") == Reg(16)
        assert parse_register("r12") == Reg(12)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_register("x99")

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            Reg(32)


class TestOpcodeCatalogue:
    def test_every_opcode_has_info(self):
        for op in Opcode:
            info = op_info(op)
            assert info.functional_unit in ("ialu", "imul", "mem", "branch")

    def test_width_variants_follow_section_4_3(self):
        assert Width.HALF in op_info(Opcode.ADD).width_variants
        assert Width.HALF not in op_info(Opcode.SUB).width_variants
        assert Width.BYTE not in op_info(Opcode.MUL).width_variants

    def test_narrowest_available_width(self):
        assert narrowest_available_width(Opcode.ADD, Width.BYTE) is Width.BYTE
        # SUB has no 16-bit variant: a 16-bit requirement rounds up to 32.
        assert narrowest_available_width(Opcode.SUB, Width.HALF) is Width.WORD
        assert narrowest_available_width(Opcode.MUL, Width.BYTE) is Width.WORD


class TestInstruction:
    def test_defs_and_uses(self):
        inst = Instruction(Opcode.ADD, Reg(1), (Reg(2), Imm(3)))
        assert inst.defs() == (Reg(1),)
        assert inst.uses() == (Reg(2),)

    def test_zero_destination_is_not_a_def(self):
        inst = Instruction(Opcode.ADD, ZERO, (Reg(2), Reg(3)))
        assert inst.defs() == ()

    def test_cmov_reads_its_destination(self):
        inst = Instruction(Opcode.CMOVEQ, Reg(1), (Reg(2), Reg(3)))
        assert Reg(1) in inst.uses()

    def test_store_shape_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.STQ, Reg(1), (Reg(2), Reg(3), Imm(0)))

    def test_memory_width(self):
        assert Instruction(Opcode.LDB, Reg(1), (Reg(2), Imm(0))).memory_width is Width.BYTE
        assert Instruction(Opcode.STW, None, (Reg(1), Reg(2), Imm(0))).memory_width is Width.WORD

    def test_clone_gets_new_uid_and_origin(self):
        inst = Instruction(Opcode.ADD, Reg(1), (Reg(2), Imm(3)))
        copy = inst.clone()
        assert copy.uid != inst.uid
        assert copy.origin == inst.uid
        grandchild = copy.clone()
        assert grandchild.origin == inst.uid

    def test_str_contains_width_suffix(self):
        inst = Instruction(Opcode.ADD, Reg(1), (Reg(2), Imm(3)), width=Width.BYTE)
        assert "add.8" in str(inst)


class TestSemantics:
    def test_add_wraps_at_width(self):
        assert evaluate_operation(Opcode.ADD, Width.BYTE, [120, 10]) == -126
        assert evaluate_operation(Opcode.ADD, Width.QUAD, [120, 10]) == 130

    def test_logical_and_shift(self):
        assert evaluate_operation(Opcode.AND, Width.QUAD, [0xF0F, 0xFF]) == 0x0F
        assert evaluate_operation(Opcode.SRL, Width.QUAD, [-1, 56]) == 0xFF
        assert evaluate_operation(Opcode.SRA, Width.QUAD, [-8, 1]) == -4

    def test_compares(self):
        assert evaluate_operation(Opcode.CMPLT, Width.QUAD, [-1, 0]) == 1
        assert evaluate_operation(Opcode.CMPULT, Width.QUAD, [-1, 0]) == 0

    def test_masks(self):
        assert evaluate_operation(Opcode.MSKB, Width.QUAD, [-1]) == 255
        assert evaluate_operation(Opcode.SEXTB, Width.QUAD, [255]) == -1

    def test_non_pure_opcodes_return_none(self):
        assert evaluate_operation(Opcode.LDQ, Width.QUAD, [0, 0]) is None
