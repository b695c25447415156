"""Lockstep co-execution, fault localization, kernel bisection, shrinking.

The harness under test is correctness *tooling*, so these tests work
backwards: seed a known single-instruction semantic fault into the block
tier (or a known off-by-one into a timing kernel) and assert the tooling
localizes it to the exact first dynamic step and static instruction —
then that the shrunk reproducer replays to the same divergence.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.coexec import (
    Divergence,
    Fault,
    Lockstep,
    compare_accounting,
    compare_timing,
    eligible_faults,
    first_divergence,
    replay_reproducer,
    resolve_fault_uid,
    shrink_source,
    write_reproducer,
)
from repro.coexec import kernels as kernels_module
from repro.experiments.__main__ import main as experiments_main
from repro.sim.machine import Machine
from repro.uarch import MachineConfig

# ----------------------------------------------------------------------
# Hypothesis program family: small terminating programs with a helper
# call, a counted loop, arithmetic/compare/memory traffic and forward
# branches — the same textual family the assembler accepts everywhere.
# ----------------------------------------------------------------------
_ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl")
_CMP_OPS = ("cmpeq", "cmplt", "cmple", "cmpult")
_IMMEDIATES = (-129, -1, 0, 1, 7, 127, 255, 4095, 2**31, 2**40 - 3)


@st.composite
def _programs(draw) -> str:
    body_ops = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=10))
    trip_count = draw(st.integers(min_value=1, max_value=6))
    seed_value = draw(st.sampled_from(_IMMEDIATES))
    lines = [
        ".data buf 64 64",
        ".func helper 1",
        "entry:",
        "    mul v0, a0, 3",
        "    ret",
        ".endfunc",
        ".func main 0",
        "entry:",
        f"    li r1, {seed_value}",
        "    li r2, =buf",
        "    li r3, 0",
        "loop:",
    ]
    for index, choice in enumerate(body_ops):
        dest = f"r{4 + (index % 5)}"
        if choice == 0:
            op = draw(st.sampled_from(_ARITH_OPS))
            imm = draw(st.sampled_from(_IMMEDIATES))
            lines.append(f"    {op} {dest}, r1, {imm}")
        elif choice == 1:
            op = draw(st.sampled_from(_CMP_OPS))
            lines.append(f"    {op} {dest}, r1, r3")
        elif choice == 2:
            lines.append("    mul r1, r1, 3")
            lines.append("    add r1, r1, 1")
        elif choice == 3:
            lines.append("    stq r1, 0(r2)")
            lines.append(f"    ldq {dest}, 0(r2)")
        else:
            lines.append("    mov a0, r1")
            lines.append("    jsr helper")
            lines.append(f"    mov {dest}, v0")
    lines += [
        "    add r1, r1, 3",
        "    add r3, r3, 1",
        f"    cmplt r9, r3, {trip_count}",
        "    bne r9, loop",
        "done:",
        "    print r1",
        "    halt",
        ".endfunc",
    ]
    return "\n".join(lines)


_TINY_ASM = """
.func main 0
entry:
    li r1, 5
    li r2, 0
loop:
    add r2, r2, r1
    sub r1, r1, 1
    bne r1, loop
done:
    print r2
    halt
.endfunc
"""

#: Both orientations — the driver is asymmetric (the second tier catches up
#: to the first after every checkpoint) — plus the block tier against
#: itself, the fault-free baseline of ``diverge --tiers block block
#: --inject``: two cursors bound to one cached program keep private state.
_TIER_PAIRS = (("reference", "block"), ("block", "reference"), ("block", "block"))


# ----------------------------------------------------------------------
# Lockstep agreement
# ----------------------------------------------------------------------
class TestLockstepAgreement:
    @pytest.mark.parametrize("tiers", _TIER_PAIRS)
    def test_tiers_agree_on_tiny_program(self, tiers):
        assert first_divergence(assemble_program(_TINY_ASM), tiers=tiers) is None

    @settings(max_examples=15, deadline=None)
    @given(_programs())
    def test_tiers_agree_on_generated_programs(self, asm):
        program = assemble_program(asm)
        for tiers in _TIER_PAIRS:
            assert first_divergence(program, tiers=tiers, max_instructions=100_000) is None

    @pytest.mark.parametrize("tiers", _TIER_PAIRS)
    def test_equal_limit_errors_count_as_agreement(self, tiers):
        """Both tiers failing identically (SimulationLimitExceeded with the
        same message) is agreement, even though the block tier's hoisted
        limit check legitimately truncates its trace differently."""
        program = assemble_program(_TINY_ASM)
        assert first_divergence(program, tiers=tiers, max_instructions=7) is None

    def test_rejects_unknown_tiers_and_bad_fault_sites(self):
        program = assemble_program(_TINY_ASM)
        with pytest.raises(ValueError):
            Lockstep(program, tiers=("reference", "turbo"))
        with pytest.raises(ValueError):
            # A fault requires the block tier on the mutated side.
            Lockstep(program, tiers=("block", "reference"), fault=Fault("main", "loop", 0))
        with pytest.raises(ValueError):
            Lockstep(
                program,
                tiers=("reference", "block"),
                fault=Fault("main", "nosuchblock", 0),
            )


# ----------------------------------------------------------------------
# Seeded-fault localization
# ----------------------------------------------------------------------
def _first_execution_step(program, uid) -> int:
    trace = Machine(program).run_reference(collect_trace=True).trace
    for index, record in enumerate(trace):
        if record.uid == uid:
            return index
    raise AssertionError("fault site never executed")


class TestSeededFaultLocalization:
    def test_tiny_program_exact_step_and_uid(self):
        program = assemble_program(_TINY_ASM)
        fault = Fault("main", "loop", 0)
        uid = resolve_fault_uid(fault, program)
        divergence = first_divergence(program, tiers=("reference", "block"), fault=fault)
        assert divergence is not None
        assert divergence.kind == "record"
        assert divergence.uid == uid
        assert divergence.step == _first_execution_step(program, uid)
        assert divergence.block == ("main", "loop")
        assert "result" in divergence.fields

    @settings(max_examples=10, deadline=None)
    @given(_programs(), st.integers(min_value=0, max_value=10_000))
    def test_every_seeded_divergence_is_localized(self, asm, pick):
        """A flip-low-bit mutation always changes the mutated result, so
        the divergence must land exactly on the first dynamic execution
        of the mutated instruction — never earlier, never later."""
        program = assemble_program(asm)
        executed = set(Machine(program).run(collect_trace=True).trace.uid_counts())
        faults = eligible_faults(program, executed_uids=executed)
        if not faults:
            return  # a degenerate draw with no mutable executed site
        fault = faults[pick % len(faults)]
        uid = resolve_fault_uid(fault, program)
        divergence = first_divergence(
            program, tiers=("reference", "block"), max_instructions=100_000, fault=fault
        )
        assert divergence is not None
        assert divergence.kind == "record"
        assert divergence.uid == uid
        assert divergence.step == _first_execution_step(program, uid)

    def test_eligible_faults_resolve_and_filter(self):
        program = assemble_program(_TINY_ASM)
        faults = eligible_faults(program)
        # add, sub in loop; li/print/branches are not mutable.
        assert [fault.spec() for fault in faults] == ["main:loop:0", "main:loop:1"]
        for fault in faults:
            assert resolve_fault_uid(fault, program) is not None
        assert resolve_fault_uid(Fault("main", "loop", 2), program) is None  # bne
        assert resolve_fault_uid(Fault("main", "done", 0), program) is None  # print
        assert eligible_faults(program, executed_uids=()) == []

    def test_divergence_json_round_trip(self):
        program = assemble_program(_TINY_ASM)
        divergence = first_divergence(
            program, tiers=("reference", "block"), fault=Fault("main", "loop", 0)
        )
        payload = json.loads(json.dumps(divergence.to_json_dict()))
        restored = Divergence.from_json_dict(payload)
        assert restored.signature() == divergence.signature()
        assert restored.describe() == divergence.describe()


# ----------------------------------------------------------------------
# Kernel comparators
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_trace():
    asm = """
.data buf 64 64
.func main 0
entry:
    li r1, 7
    li r2, =buf
    li r3, 0
loop:
    mul r4, r1, 5
    stq r4, 0(r2)
    ldq r5, 0(r2)
    add r1, r5, 1
    add r3, r3, 1
    cmplt r9, r3, 40
    bne r9, loop
done:
    print r1
    halt
.endfunc
"""
    # The comparators bisect over records: a value-bearing trace.
    return Machine(assemble_program(asm)).run_reference(collect_trace=True).trace


class TestKernelComparators:
    @pytest.mark.parametrize(
        "pair",
        (("reference", "compiled"), ("reference", "compiled-lane"), ("compiled", "compiled-lane")),
    )
    def test_timing_kernels_agree(self, small_trace, pair):
        assert compare_timing(small_trace, kernels=pair) is None

    def test_accounting_agrees(self, small_trace):
        assert compare_accounting(small_trace) is None

    def test_timing_bisection_finds_exact_record(self, small_trace, monkeypatch):
        """A kernel broken from record THRESHOLD onwards must be pinned
        to exactly that record by the prefix bisection."""
        threshold = len(small_trace) // 2
        real = kernels_module.run_compiled

        def broken(trace, config=None):
            result = real(trace, config)
            if len(trace) > threshold:
                result = dataclasses.replace(result, cycles=result.cycles + 1)
            return result

        monkeypatch.setattr(kernels_module, "run_compiled", broken)
        divergence = compare_timing(small_trace, MachineConfig())
        assert divergence is not None
        assert divergence.kind == "timing"
        assert divergence.step == threshold
        assert divergence.uid == small_trace[threshold].uid
        assert "cycles" in divergence.fields

    def test_accounting_bisection_finds_exact_record(self, small_trace, monkeypatch):
        threshold = len(small_trace) // 3
        real = kernels_module.MultiPolicyEnergyAccountant

        class Broken(real):
            def account(self, trace, timing):
                results = super().account(trace, timing)
                if len(trace) > threshold:
                    for breakdown in results.values():
                        name = next(iter(breakdown.by_structure), None)
                        if name is not None:
                            breakdown.by_structure[name] += 1.0
                return results

        monkeypatch.setattr(kernels_module, "MultiPolicyEnergyAccountant", Broken)
        divergence = compare_accounting(small_trace)
        assert divergence is not None
        assert divergence.kind == "energy"
        assert divergence.step == threshold
        assert divergence.tiers == ("per-policy", "fused")

    def test_unknown_kernel_rejected(self, small_trace):
        with pytest.raises(ValueError):
            compare_timing(small_trace, kernels=("reference", "turbo"))


# ----------------------------------------------------------------------
# Shrinker + reproducer
# ----------------------------------------------------------------------
def _fault_check(fault, tiers=("reference", "block"), max_instructions=50_000):
    def check(source):
        try:
            program = assemble_program(source)
        except Exception:
            return None
        if resolve_fault_uid(fault, program) is None:
            return None
        try:
            return Lockstep(
                program, tiers=tiers, max_instructions=max_instructions, fault=fault
            ).run()
        except Exception:
            return None

    return check


class TestShrinker:
    def test_shrunk_reproducer_replays_to_same_divergence(self, tmp_path):
        fault = Fault("main", "loop", 0)
        check = _fault_check(fault)
        source, divergence, checks = shrink_source(_TINY_ASM, check, max_checks=300)
        assert checks <= 300
        # The reduced program must still be a strict subsequence of the
        # original's lines, still assemble, and still diverge.
        assert len(source.splitlines()) <= len(_TINY_ASM.strip().splitlines())
        assert divergence.kind == "record"
        directory = write_reproducer(
            source,
            divergence,
            tiers=("reference", "block"),
            max_instructions=50_000,
            fault=fault,
            root=tmp_path,
        )
        assert (directory / "repro.json").is_file()
        assert (directory / "program.asm").read_text() == source
        replayed, recorded = replay_reproducer(directory)
        assert recorded.signature() == divergence.signature()
        assert replayed is not None
        assert replayed.signature() == recorded.signature()

    def test_shrink_requires_a_diverging_start(self):
        with pytest.raises(ValueError):
            shrink_source(_TINY_ASM, lambda source: None)

    def test_reproducer_rejects_unknown_version(self, tmp_path):
        fault = Fault("main", "loop", 0)
        divergence = first_divergence(
            assemble_program(_TINY_ASM), tiers=("reference", "block"), fault=fault
        )
        directory = write_reproducer(
            _TINY_ASM,
            divergence,
            tiers=("reference", "block"),
            max_instructions=50_000,
            fault=fault,
            root=tmp_path,
        )
        payload = json.loads((directory / "repro.json").read_text())
        payload["version"] = 999
        (directory / "repro.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            replay_reproducer(directory)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestDivergeCLI:
    @pytest.fixture
    def tiny_program_file(self, tmp_path):
        path = tmp_path / "tiny.asm"
        path.write_text(_TINY_ASM)
        return path

    def test_agreement_exits_zero(self, tiny_program_file, capsys):
        status = experiments_main(["diverge", "--program", str(tiny_program_file)])
        assert status == 0
        assert "no divergence" in capsys.readouterr().out

    def test_injected_fault_shrinks_and_replays(self, tiny_program_file, tmp_path, capsys):
        out_dir = tmp_path / "repro"
        status = experiments_main(
            [
                "diverge",
                "--program",
                str(tiny_program_file),
                "--inject",
                "main:loop:0",
                "--shrink",
                "--out",
                str(out_dir),
            ]
        )
        assert status == 1
        output = capsys.readouterr().out
        assert "record divergence" in output
        assert (out_dir / "repro.json").is_file()
        status = experiments_main(["diverge", "--replay", str(out_dir)])
        assert status == 0
        assert "replays faithfully" in capsys.readouterr().out

    def test_auto_inject_json(self, tiny_program_file, capsys):
        status = experiments_main(
            ["diverge", "--program", str(tiny_program_file), "--inject", "auto", "--json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergence"]["kind"] == "record"
        assert payload["fault"]

    def test_timing_and_energy_modes(self, tiny_program_file, capsys):
        for mode in ("timing", "energy"):
            status = experiments_main(
                ["diverge", "--program", str(tiny_program_file), "--mode", mode]
            )
            assert status == 0
        assert "no divergence" in capsys.readouterr().out

    def test_bad_fault_site_exits_two(self, tiny_program_file, capsys):
        status = experiments_main(
            ["diverge", "--program", str(tiny_program_file), "--inject", "main:loop:99"]
        )
        assert status == 2
        assert "not found or not mutable" in capsys.readouterr().err
