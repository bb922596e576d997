"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa import AssemblerError, Instruction, assemble


class TestBasicParsing:
    def test_empty_source(self):
        program = assemble("")
        assert len(program) == 0

    def test_comments_and_blank_lines_skipped(self):
        program = assemble(
            """
            @ a comment
            ; another comment
            // and another
            NOP  @ trailing comment
            """
        )
        assert len(program) == 1
        assert program[0].op == "NOP"

    def test_mov_immediate(self):
        program = assemble("MOV R3, #42")
        assert program[0] == Instruction("MOV", rd=3, imm=42)

    def test_mov_register(self):
        program = assemble("MOV R3, R4")
        assert program[0] == Instruction("MOV", rd=3, rm=4)

    def test_hex_immediate(self):
        program = assemble("MOV R0, #0x2000")
        assert program[0].imm == 0x2000

    def test_register_aliases(self):
        program = assemble("MOV R0, SP\nMOV R1, LR\nMOV R2, PC")
        assert [i.rm for i in program] == [13, 14, 15]

    def test_case_insensitive_mnemonics(self):
        program = assemble("mov r0, #1\nadd r0, r0, #2")
        assert program[0].op == "MOV"
        assert program[1].op == "ADD"

    def test_three_operand_add(self):
        program = assemble("ADD R0, R1, R2")
        assert program[0] == Instruction("ADD", rd=0, rn=1, rm=2)

    def test_two_operand_add_duplicates_dest(self):
        program = assemble("ADD R0, R1")
        assert program[0] == Instruction("ADD", rd=0, rn=0, rm=1)

    def test_add_immediate(self):
        program = assemble("ADD R0, R1, #8")
        assert program[0] == Instruction("ADD", rd=0, rn=1, imm=8)

    def test_cmp_register_and_immediate(self):
        program = assemble("CMP R0, R1\nCMP R0, #5")
        assert program[0] == Instruction("CMP", rn=0, rm=1)
        assert program[1] == Instruction("CMP", rn=0, imm=5)


class TestMemoryOperands:
    def test_load_immediate_offset(self):
        program = assemble("LDR R0, [R1, #4]")
        assert program[0] == Instruction("LDR", rd=0, rn=1, imm=4)

    def test_load_register_offset(self):
        program = assemble("LDR R0, [R1, R2]")
        assert program[0] == Instruction("LDR", rd=0, rn=1, rm=2, imm=0)

    def test_load_no_offset(self):
        program = assemble("LDR R0, [R1]")
        assert program[0] == Instruction("LDR", rd=0, rn=1, imm=0)

    def test_byte_and_half_variants(self):
        program = assemble("LDRB R0, [R1]\nLDRH R2, [R3]\nSTRB R4, [R5]\nSTRH R6, [R7]")
        assert [i.op for i in program] == ["LDRB", "LDRH", "STRB", "STRH"]

    def test_store(self):
        program = assemble("STR R0, [R1, #8]")
        assert program[0] == Instruction("STR", rd=0, rn=1, imm=8)


class TestLabelsAndBranches:
    def test_label_resolution(self):
        program = assemble(
            """
            LOOP:
                ADD R0, R0, #1
                CMP R0, #10
                BNE LOOP
                HALT
            """
        )
        assert program.label_address("LOOP") == 0
        assert program[2].target == 0

    def test_label_on_same_line(self):
        program = assemble("START: NOP\nB START")
        assert program.label_address("START") == 0
        assert program[1].target == 0

    def test_forward_reference(self):
        program = assemble("B END\nNOP\nEND: HALT")
        assert program[0].target == 2

    def test_undefined_label_raises(self):
        with pytest.raises(AssemblerError):
            assemble("B NOWHERE")

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblerError):
            assemble("L: NOP\nL: NOP")

    def test_skm_resolves_target(self):
        program = assemble("SKM END\nNOP\nEND: HALT")
        assert program[0].op == "SKM"
        assert program[0].target == 2

    def test_bl_and_bx(self):
        program = assemble("BL FUNC\nHALT\nFUNC: BX LR")
        assert program[0].target == 2
        assert program[2].rm == 14


class TestWnExtensions:
    def test_mul_asp8(self):
        program = assemble("MUL_ASP8 R4, R5, #1")
        assert program[0] == Instruction("MUL_ASP8", rd=4, rn=4, rm=5, imm=1)

    def test_mul_asp4(self):
        program = assemble("MUL_ASP4 R4, R5, #3")
        assert program[0].imm == 3

    def test_negative_subword_position_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("MUL_ASP8 R4, R5, #-1")

    def test_add_asv(self):
        program = assemble("ADD_ASV8 R3, R4")
        assert program[0] == Instruction("ADD_ASV8", rd=3, rn=3, rm=4)

    def test_sub_asv(self):
        program = assemble("SUB_ASV16 R3, R4")
        assert program[0].op == "SUB_ASV16"


class TestDirectives:
    def test_equ_constant(self):
        program = assemble(".equ N, 64\nMOV R0, #N")
        assert program[0].imm == 64
        assert program.constants["N"] == 64

    def test_equ_hex(self):
        program = assemble(".equ BASE, 0x2000\nMOV R0, #BASE")
        assert program[0].imm == 0x2000

    def test_section_directives_ignored(self):
        program = assemble(".text\nNOP\n.data")
        assert len(program) == 1

    def test_unknown_directive_raises(self):
        with pytest.raises(AssemblerError):
            assemble(".frobnicate 12")

    def test_bad_equ_raises(self):
        with pytest.raises(AssemblerError):
            assemble(".equ N")


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(AssemblerError):
            assemble("FROB R0, R1")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("MOV R99, #1")

    def test_bad_immediate(self):
        with pytest.raises(AssemblerError):
            assemble("MOV R0, #banana")

    def test_halt_with_operands(self):
        with pytest.raises(AssemblerError):
            assemble("HALT R0")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as excinfo:
            assemble("NOP\nNOP\nFROB R0")
        assert "line 3" in str(excinfo.value)


class TestListingAndCodeSize:
    def test_listing_contains_labels(self):
        program = assemble("LOOP: ADD R0, R0, #1\nB LOOP")
        listing = program.listing()
        assert "LOOP:" in listing
        assert "ADD" in listing

    def test_code_size_counts_wide_wn_ops(self):
        base = assemble("MUL R0, R1\nHALT")
        wn = assemble("MUL_ASP8 R0, R1, #0\nHALT")
        assert base.code_size_bytes == 4
        assert wn.code_size_bytes == 6

    def test_paper_listing2_assembles(self):
        """The paper's Listing 2 (8-bit anytime SWP) round-trips."""
        source = """
        LOOP_MSb:
            LDR  R3, [R0, #0]       @ X[i]
            LDR  R4, [R1, #0]       @ F[i]
            LDRB R5, [R2, #1]       @ A[i][MSb]
            MUL_ASP8 R4, R5, #1     @ X += F * A
            ADD  R3, R4
            STR  R3, [R0, #0]
            B    LOOP_MSb
            SKM  END
        LOOP_LSb:
            LDR  R3, [R0, #0]
            LDR  R4, [R1, #0]
            LDRB R5, [R2, #0]
            MUL_ASP8 R4, R5, #0
            ADD  R3, R4
            STR  R3, [R0, #0]
            B    LOOP_LSb
        END:
            HALT
        """
        program = assemble(source)
        assert program.label_address("END") == len(program) - 1
        assert program[7].op == "SKM"
        assert program[7].target == program.label_address("END")


class TestListingRoundTrip:
    """Fuzz: a program's listing reassembles to the same program."""

    SOURCES = [
        "MOV R0, #1\nADD R0, R0, #2\nHALT",
        """
        START:
            MOV R0, #0
        LOOP:
            LSL R1, R0, #2
            LDR R2, [R1, #0x100]
            MUL_ASP4 R2, R3, #2
            ADD_ASV8 R2, R4
            STR R2, [R1, #0x200]
            ADD R0, R0, #1
            CMP R0, #12
            BLT LOOP
            SKM DONE
            BL HELPER
        DONE:
            HALT
        HELPER:
            MUL_ASPS8 R5, R6, #1
            BX LR
        """,
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_listing_reassembles_identically(self, source):
        first = assemble(source)
        listing = first.listing()
        # Strip the index column the listing adds for readability.
        lines = []
        for line in listing.splitlines():
            if line.endswith(":"):
                lines.append(line)
            else:
                lines.append(line.split(None, 1)[1])
        second = assemble("\n".join(lines))
        assert list(second) == list(first)
        assert second.labels == first.labels


class TestParseOnce:
    """Each distinct line is parsed once per program; every repeat must
    still come out as its own instruction, parsed as it would be alone."""

    def test_equ_redefinition_reparses_later_lines(self):
        program = assemble(".equ N, 1\nMOV R0, #N\n.equ N, 2\nMOV R0, #N")
        assert [instr.imm for instr in program] == [1, 2]

    def test_line_that_parsed_can_fail_after_an_equ(self):
        source = (
            ".equ P, 1\nMUL_ASP8 R0, R1, #P\n"
            ".equ P, -1\nMUL_ASP8 R0, R1, #P"
        )
        with pytest.raises(AssemblerError) as info:
            assemble(source)
        assert info.value.line == 4

    def test_repeated_lines_are_distinct_instructions(self):
        program = assemble("L:\n    B L\n    B L  @ again")
        first, second = program.instructions
        assert first is not second
        assert (first.line, second.line) == (2, 3)
        assert first.text == second.text == "B L"
        assert first.target == second.target == 0
