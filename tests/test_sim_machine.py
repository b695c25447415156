"""Tests for the functional simulator: memory, execution, traces, profiling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.isa import Width
from repro.sim import Machine, Memory, SimulationLimitExceeded, ValueProfiler
from repro.workloads import workload_by_name


class TestMemory:
    def test_roundtrip_widths(self):
        memory = Memory()
        memory.store(0x1000, -2, Width.QUAD)
        assert memory.load(0x1000, Width.QUAD, signed=True) == -2
        memory.store(0x2000, 0xABCD, Width.HALF)
        assert memory.load(0x2000, Width.HALF, signed=False) == 0xABCD
        assert memory.load(0x2000, Width.BYTE, signed=False) == 0xCD  # little endian

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_word_roundtrip_signed(self, address, value):
        memory = Memory()
        memory.store(address, value, Width.WORD)
        assert memory.load(address, Width.WORD, signed=True) == value

    def test_cross_page_access(self):
        memory = Memory()
        memory.write_bytes(4094, b"abcdef")
        assert memory.read_bytes(4094, 6) == b"abcdef"


def _run(asm: str):
    program = assemble_program(asm)
    return Machine(program).run(collect_trace=True)


def _trace_columns(trace):
    """What a block-tier trace holds, comparable across tiers: the metas,
    the memory column and the record shape counts (it keeps no values;
    the lockstep harness compares those)."""
    return list(trace.metas), list(trace.mem_addresses), trace.shape_counts()


class TestExecution:
    def test_arithmetic_width_wrapping(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 127
    add.8 r2, r1, 1
    add r3, r1, 1
    print r2
    print r3
    halt
.endfunc
"""
        )
        assert result.output == [-128, 128]

    def test_call_and_return(self):
        result = _run(
            """
.func double 1
entry:
    add v0, a0, a0
    ret
.endfunc
.func main 0
entry:
    li a0, 21
    jsr double
    print v0
    halt
.endfunc
"""
        )
        assert result.output == [42]

    def test_conditional_branches_and_cmov(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 5
    cmplt r2, r1, 10
    cmoveq r3, r2, r1
    cmovne r4, r2, r1
    print r3
    print r4
    halt
.endfunc
"""
        )
        assert result.output == [0, 5]

    def test_block_counts_and_instruction_counts(self):
        result = _run(
            """
.func main 0
entry:
    li r1, 0
loop:
    add r1, r1, 1
    cmplt r2, r1, 5
    bne r2, loop
done:
    print r1
    halt
.endfunc
"""
        )
        assert result.output == [5]
        assert result.block_counts[("main", "loop")] == 5
        assert result.block_counts[("main", "done")] == 1

    def test_trace_records_memory_and_branches(self):
        result = _run(
            """
.data buf 8 64
.func main 0
entry:
    li r1, =buf
    li r2, 77
    stq r2, 0(r1)
    ldq r3, 0(r1)
    print r3
    halt
.endfunc
"""
        )
        assert result.output == [77]
        memory_column = result.trace.mem_addresses
        assert len(memory_column) == 2
        assert memory_column[0] == memory_column[1]

    def test_instruction_limit(self):
        program = assemble_program(
            """
.func main 0
entry:
    br entry
.endfunc
"""
        )
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=100).run()

    def test_value_observer_hook(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 3
    add r2, r1, 4
    print r2
    halt
.endfunc
"""
        )
        add = [i for i in program.functions["main"].instructions() if i.op.value == "add"][0]
        profiler = ValueProfiler({add.uid})
        Machine(program).run(value_observer=profiler)
        assert profiler.table(add.uid).entries == {7: 1}


#: A return address nobody's call produced: ``helper`` bumps its return
#: address past the ``add r1, r1, 100`` at the call-return site, so the
#: return lands inside that unit; the loop after it is a unit entry again.
_MID_UNIT_RETURN_ASM = """
.func helper 0
entry:
    add ra, ra, 4
    ret
.endfunc
.func main 0
entry:
    li r1, 7
    jsr helper
    add r1, r1, 100
    add r2, r1, 1
    print r1
loop:
    add r2, r2, r1
    sub r1, r1, 1
    bne r1, loop
done:
    print r2
    halt
.endfunc
"""


def _observed_tables(profiler):
    return {uid: (table.total, table.entries) for uid, table in profiler.tables.items()}


class _RecordingObserver:
    """Value observer that keeps the whole ``(uid, value)`` stream."""

    def __init__(self, watched_uids):
        self.watched_uids = set(watched_uids)
        self.seen = []

    def observe(self, uid, value):
        self.seen.append((uid, value))


def _run_tier(machine, tier, **kwargs):
    """``Machine.run`` for the block tier, its oracle ``run_reference`` else."""
    run = machine.run_reference if tier == "reference" else machine.run
    return run(**kwargs)


def _run_all_tiers(program, **kwargs):
    machine = Machine(program)
    return {
        tier: _run_tier(machine, tier, collect_trace=True, **kwargs)
        for tier in ("reference", "block")
    }


class TestBlockDispatch:
    """The block-compiled tier must be indistinguishable from the reference
    loop — records, counters, outputs, observed values, failure modes."""

    @pytest.mark.parametrize("name", ("ijpeg", "li"))
    def test_traces_are_bit_identical_on_workloads(self, name, assert_tiers_agree):
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        # Lockstep first: a bit-exactness failure reports the exact first
        # diverging step/uid instead of a summary mismatch.
        assert_tiers_agree(program, tiers=("reference", "block"))
        runs = _run_all_tiers(program)
        reference, block = runs["reference"], runs["block"]
        assert block.instructions == reference.instructions
        assert block.output == reference.output
        assert block.block_counts == reference.block_counts
        assert block.call_counts == reference.call_counts
        assert block.halted == reference.halted
        assert _trace_columns(block.trace) == _trace_columns(reference.trace)

    def test_limit_boundaries_exact_across_tiers(self):
        """SimulationLimitExceeded must fire at the same dynamic
        instruction count in both tiers, including limits landing in the
        middle of a basic block (the block tier hoists its limit check to
        block granularity).  A value observer sees a prefix of the
        reference's observations that ends at a unit boundary."""
        program = assemble_program(
            """
.data buf 8 64
.func main 0
entry:
    li r1, 0
    li r2, =buf
loop:
    add r1, r1, 1
    stq r1, 0(r2)
    ldq r3, 0(r2)
    xor r4, r3, 85
    cmplt r5, r1, 3
    bne r5, loop
done:
    print r1
    halt
.endfunc
"""
        )
        machine = Machine(program)
        total = machine.run_reference().instructions
        assert total > 10
        uids = {inst.uid for inst in program.instructions()}
        # No calls, so the units are the basic blocks; each block that
        # produces a result starts with one.
        block_heads = {
            block.instructions[0].uid for block in program.functions["main"].iter_blocks()
        }
        for limit in range(1, total + 1):
            bounded = Machine(program, max_instructions=limit)
            outcomes = {}
            seen = {}
            for tier in ("reference", "block"):
                observer = _RecordingObserver(uids)
                try:
                    _run_tier(bounded, tier, value_observer=observer)
                    outcomes[tier] = "completed"
                except SimulationLimitExceeded as error:
                    outcomes[tier] = str(error)
                seen[tier] = observer.seen
            assert outcomes["block"] == outcomes["reference"], limit
            prefix = seen["block"]
            assert seen["reference"][: len(prefix)] == prefix, limit
            if len(prefix) < len(seen["reference"]):
                assert seen["reference"][len(prefix)][0] in block_heads, limit
        assert Machine(program, max_instructions=total).run().halted

    def test_computed_return_mid_block_matches_reference(self):
        """A return address nobody's call produced lands mid-unit; the
        block tier steps the reference loop up to the next unit entry and
        carries on block by block, with identical results."""
        runs = _run_all_tiers(assemble_program(_MID_UNIT_RETURN_ASM))
        reference, block = runs["reference"], runs["block"]
        assert reference.output == [7, 36]  # the tampered return skips the add
        assert block.output == reference.output
        assert block.instructions == reference.instructions
        assert block.block_counts == reference.block_counts
        assert block.call_counts == reference.call_counts
        assert _trace_columns(block.trace) == _trace_columns(reference.trace)

    def test_value_observer_falls_back_bit_exact(self):
        """An observed run whose computed return lands mid-unit falls back
        to reference stepping up to the next unit entry.  Watched uids
        before the landing, on that landing pad and in the block units
        after it: tables, output, counters and trace columns all match the
        reference loop."""
        program = assemble_program(_MID_UNIT_RETURN_ASM)
        uids = {inst.uid for inst in program.instructions()}
        runs = {}
        for tier in ("reference", "block"):
            profiler = ValueProfiler(uids)
            run = _run_tier(
                Machine(program), tier, collect_trace=True, value_observer=profiler
            )
            runs[tier] = (
                _observed_tables(profiler),
                run.output,
                run.instructions,
                run.block_counts,
                run.call_counts,
                _trace_columns(run.trace),
            )
        assert runs["block"] == runs["reference"]
        landing = [i for i in program.functions["main"].instructions() if i.op.value == "add"]
        tables = runs["block"][0]
        assert landing[0].uid not in tables  # skipped by the tampered return
        assert tables[landing[1].uid] == (1, {8: 1})  # stepped on the landing pad
        assert tables[landing[2].uid][0] == 7  # the loop, back on block units

    def test_lockstep_agrees_across_mid_unit_landing(self, assert_tiers_agree):
        program = assemble_program(_MID_UNIT_RETURN_ASM)
        assert_tiers_agree(program, tiers=("reference", "block"))

    def test_mov_out_of_range_immediate_matches_reference(self, assert_tiers_agree):
        """Raw 64-bit immediates overflow the batched arena extend of the
        value-bearing block flavour, whose spill path must keep them exact
        (lockstep); the production flavour counts their exact shapes."""
        from repro.isa import Imm

        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    mov r2, r1
    add r3, r2, 1
    print r3
    halt
.endfunc
"""
        )
        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)
        runs = _run_all_tiers(program)
        assert runs["block"].output == runs["reference"].output == [0]
        assert _trace_columns(runs["block"].trace) == _trace_columns(runs["reference"].trace)
        assert runs["reference"].trace.has_overflow_values
        assert_tiers_agree(program, tiers=("reference", "block"))

    def test_dead_branch_and_dead_call_match_reference(self):
        # A taken branch to a pruned label must fail identically in both
        # tiers (same KeyError key).
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 0
    beq r1, next
next:
    print r1
    halt
.endfunc
"""
        )
        beq = [i for i in program.functions["main"].instructions() if i.op.value == "beq"][0]
        beq.target = "ghost"
        errors = {}
        for tier in ("reference", "block"):
            with pytest.raises(KeyError) as excinfo:
                _run_tier(Machine(program), tier)
            errors[tier] = excinfo.value.args
        assert errors["block"] == errors["reference"]

        # Dead call: a jsr whose callee was removed must raise the same
        # KeyError in both tiers (after the return-address write, before
        # any call counting or emission).
        call_program = assemble_program(
            """
.func helper 0
entry:
    ret
.endfunc
.func main 0
entry:
    li r1, 1
    jsr helper
    print r1
    halt
.endfunc
"""
        )
        jsr = [
            i for i in call_program.functions["main"].instructions() if i.op.value == "jsr"
        ][0]
        jsr.target = "removed"
        call_errors = {}
        for tier in ("reference", "block"):
            with pytest.raises(KeyError) as excinfo:
                _run_tier(Machine(call_program), tier)
            call_errors[tier] = excinfo.value.args
        assert call_errors["block"] == call_errors["reference"] == ("removed",)

    def test_instruction_limit_enforced(self):
        program = assemble_program(
            """
.func main 0
entry:
    br entry
.endfunc
"""
        )
        with pytest.raises(SimulationLimitExceeded):
            Machine(program, max_instructions=100).run()


class TestFastDispatch:
    """Transform-shaped edge cases on the fast path, the block-compiled
    default dispatch with its observer flavour, each pinned against the
    reference loop: observed value tables, raw 64-bit MOV immediates and
    branches to pruned labels."""

    def test_value_observer_equivalence(self):
        """Block-tier profiling runs call the observer from the compiled
        units; the observed value stream must match the reference loop
        exactly, with and without a trace."""
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 0
loop:
    add r1, r1, 3
    cmplt r2, r1, 12
    bne r2, loop
done:
    print r1
    halt
.endfunc
"""
        )
        add = [i for i in program.functions["main"].instructions() if i.op.value == "add"][0]
        for collect_trace in (False, True):
            runs = {}
            for tier in ("reference", "block"):
                profiler = ValueProfiler({add.uid})
                run = _run_tier(
                    Machine(program), tier, collect_trace=collect_trace, value_observer=profiler
                )
                columns = _trace_columns(run.trace) if collect_trace else None
                runs[tier] = (profiler.table(add.uid).entries, run.output, columns)
            assert runs["block"] == runs["reference"]
            assert runs["block"][0] == {3: 1, 6: 1, 9: 1, 12: 1}

    def test_mov_out_of_range_immediate_matches_reference(self, assert_tiers_agree):
        """The edge a transform could produce: a raw unsigned 64-bit bit
        pattern as a MOV immediate.  The register write normalizes to
        signed (-1) while the trace record (compared in lockstep), its
        shape and an observer see the raw value, in both tiers."""
        from repro.isa import Imm

        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    mov r2, r1
    print r2
    halt
.endfunc
"""
        )
        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)
        profilers = {tier: ValueProfiler({mov.uid}) for tier in ("reference", "block")}
        machine = Machine(program)
        runs = {
            tier: _run_tier(machine, tier, collect_trace=True, value_observer=profiler)
            for tier, profiler in profilers.items()
        }
        assert runs["block"].output == runs["reference"].output == [-1]
        assert _trace_columns(runs["block"].trace) == _trace_columns(runs["reference"].trace)
        assert_tiers_agree(program, tiers=("reference", "block"))
        for profiler in profilers.values():
            assert profiler.table(mov.uid).entries == {2**64 - 1: 1}

    def test_dead_branch_to_pruned_label_matches_reference(self, assert_tiers_agree):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    beq r1, done
next:
    print r1
    br done
done:
    print r1
    halt
.endfunc
"""
        )
        # Prune the (never-taken) branch's target after validation, as a
        # transform dropping a dead block would; compilation must not choke
        # on it, and execution must match the reference loop.
        beq = [i for i in program.functions["main"].instructions() if i.op.value == "beq"][0]
        beq.target = "ghost"
        runs = _run_all_tiers(program)
        assert runs["block"].output == runs["reference"].output == [1, 1]
        assert _trace_columns(runs["block"].trace) == _trace_columns(runs["reference"].trace)
        assert_tiers_agree(program, tiers=("reference", "block"))

        # Taken variant: both tiers fail identically (same KeyError key).
        li = [i for i in program.functions["main"].instructions() if i.op.value == "li"][0]
        li.srcs = (type(li.srcs[0])(0),)  # cond == 0 -> beq taken
        errors = {}
        for tier in ("reference", "block"):
            with pytest.raises(KeyError) as excinfo:
                _run_tier(Machine(program), tier)
            errors[tier] = excinfo.value.args
        assert errors["block"] == errors["reference"]
