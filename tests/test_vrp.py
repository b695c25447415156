"""Tests for value range propagation: ranges, loops, useful bits, widths."""

import pytest

from repro.core import VRPConfig, apply_widths, run_vrp
from repro.core import vrp as vrp_module
from repro.isa import Opcode, Width
from repro.isa.instruction import _UID_COUNTER
from repro.minic import compile_source
from repro.sim import Machine
from repro.workloads import SUITE_NAMES, workload_by_name


def _analyse(source: str, config: VRPConfig | None = None):
    program = compile_source(source)
    result = run_vrp(program, config or VRPConfig())
    return program, result


def _instruction(program, function: str, opcode: Opcode, index: int = 0):
    matches = [i for i in program.functions[function].instructions() if i.op is opcode]
    return matches[index]


class TestInitialAndPropagatedRanges:
    def test_constant_assignment(self):
        program, result = _analyse("int main() { int a; a = 42; print(a); return 0; }")
        li = _instruction(program, "main", Opcode.LI)
        analysis = result.analysis_for("main")
        assert analysis.output_range(li).is_constant
        assert analysis.output_range(li).lo == 42

    def test_byte_load_bounds_result(self):
        source = "char buf[8]; int main() { print(buf[3]); return 0; }"
        program, result = _analyse(source)
        load = _instruction(program, "main", Opcode.LDB)
        rng = result.analysis_for("main").output_range(load)
        assert rng.lo == 0 and rng.hi == 255

    def test_loop_trip_count_bounds_iterator(self):
        source = """
        int sink;
        int main() {
            int i;
            for (i = 0; i < 100; i = i + 1) { sink = i; }
            return 0;
        }
        """
        program, result = _analyse(source)
        add = [
            inst
            for inst in program.functions["main"].instructions()
            if inst.op is Opcode.ADD and inst.dest in inst.source_registers()
        ][0]
        rng = result.analysis_for("main").output_range(add)
        # The paper's example: the incremented iterator spans <1, 100>.
        assert rng.lo == 1
        assert rng.hi == 100
        assert result.width_of(add.uid) is Width.BYTE

    def test_branch_condition_refines_range(self):
        source = """
        int sink;
        int main(){
            int a;
            a = sink;
            if (a <= 100) { if (a > 5) { sink = a; } }
            return 0;
        }
        """
        program, result = _analyse(source)
        # The store inside the nested if writes a value known to be in [6, 100].
        store = _instruction(program, "main", Opcode.STW, index=0)
        analysis = result.analysis_for("main")
        value_reg = store.srcs[0]
        rng = analysis.operand_range(store, value_reg)
        assert rng.lo >= 6
        assert rng.hi <= 100

    def test_interprocedural_return_range(self):
        source = """
        int small() { return 7; }
        int main() { print(small() + 1); return 0; }
        """
        program, result = _analyse(source)
        assert result.return_ranges["small"].is_constant
        assert result.return_ranges["small"].lo == 7


class TestUsefulRanges:
    SOURCE = """
    long wide;
    int main() {
        long x;
        x = wide;
        x = x + 12345678;
        x = x * 3;
        print(x & 0xff);
        return 0;
    }
    """

    def test_useful_bits_narrow_chain_feeding_mask(self):
        program, result = _analyse(self.SOURCE)
        add = _instruction(program, "main", Opcode.ADD)
        mul = _instruction(program, "main", Opcode.MUL)
        # Only the low byte of the chain is useful; MUL has no byte variant
        # so it falls back to its narrowest (32-bit) encoding.
        assert result.width_of(add.uid) is Width.BYTE
        assert result.width_of(mul.uid) is Width.WORD

    def test_conventional_vrp_keeps_chain_wide(self):
        program, result = _analyse(self.SOURCE, VRPConfig().conventional())
        add = _instruction(program, "main", Opcode.ADD)
        assert result.width_of(add.uid) is Width.QUAD

    def test_wider_use_elsewhere_blocks_narrowing(self):
        source = """
        long wide;
        int main() {
            long x;
            x = wide + 5;
            print(x & 0xff);
            print(x);
            return 0;
        }
        """
        program, result = _analyse(source)
        add = _instruction(program, "main", Opcode.ADD)
        # x is also printed in full, so the add may not be narrowed.
        assert result.width_of(add.uid) is Width.QUAD


class TestWidthAssignmentAndCorrectness:
    def test_widths_never_widen(self):
        source = "int main() { int a; a = 1000000; print(a + a); return 0; }"
        program, result = _analyse(source)
        for inst in program.instructions():
            assert result.width_of(inst.uid) <= inst.width

    def test_apply_widths_preserves_semantics(self):
        source = """
        char data[64];
        int histogram[16];
        int main() {
            int i;
            long total;
            total = 0;
            for (i = 0; i < 64; i = i + 1) { data[i] = (i * 37) & 255; }
            for (i = 0; i < 64; i = i + 1) {
                histogram[data[i] & 15] = histogram[data[i] & 15] + 1;
                total = total + data[i];
            }
            for (i = 0; i < 16; i = i + 1) { print(histogram[i]); }
            print(total);
            return 0;
        }
        """
        program = compile_source(source)
        baseline = Machine(program).run().output
        result = run_vrp(program)
        changed = apply_widths(program, result)
        assert changed > 0
        assert Machine(program).run().output == baseline

    def test_analysis_reports_narrowed_instructions(self):
        source = "char c[4]; int main() { print(c[0] & 7); return 0; }"
        program, result = _analyse(source)
        assert result.narrowed_instructions() > 0
        distribution = result.static_width_distribution()
        assert sum(distribution.values()) == len(result.widths)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_vrp_draws_no_uids(name):
    """The analysis creates no instructions, so it leaves the uid counter
    alone: the uids of later builds and VRS clones do not depend on how
    often branch constraints were derived."""
    program = workload_by_name(name).build()
    for config in (VRPConfig(), VRPConfig().conventional()):
        start = next(_UID_COUNTER)
        run_vrp(program, config)
        assert next(_UID_COUNTER) == start + 1


def test_a_round_reruns_only_propagations_whose_inputs_changed(monkeypatch):
    """A global round re-runs a function's propagation only when the
    function's parameter ranges or its callees' return ranges differ from
    what its last propagation read: over the suite, 45 propagations where
    running every function in every round takes 60.  The widths these
    runs assign are pinned by ``tests/test_vrp_golden.py``."""
    seen: dict[str, list] = {}

    class Recorded(vrp_module.FunctionVRP):
        def __init__(self, facts, param_ranges=None, return_ranges=None):
            returns = return_ranges or {}
            callees = {inst.target for inst in facts.function.instructions() if inst.is_call}
            seen.setdefault(facts.function.name, []).append(
                (dict(param_ranges or {}), {callee: returns.get(callee) for callee in callees})
            )
            super().__init__(facts, param_ranges, return_ranges)

    monkeypatch.setattr(vrp_module, "FunctionVRP", Recorded)
    runs = 0
    for name in SUITE_NAMES:
        seen.clear()
        result = run_vrp(workload_by_name(name).build(), VRPConfig())
        assert result.global_rounds == 2
        for function, inputs in seen.items():
            assert all(a != b for a, b in zip(inputs, inputs[1:])), (name, function)
        runs += sum(map(len, seen.values()))
    assert runs == 45
