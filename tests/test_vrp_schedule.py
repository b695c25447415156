"""The dirty-set forward pass of ``FunctionVRP`` against the dense schedule.

``DenseFunctionVRP`` marks every instruction at the start of every pass,
which is the full Gauss-Seidel sweep the engine used to run.  The
production engine visits only instructions whose inputs or loop pins
changed; it must reach the same ranges, useful bits and pins through the
same passes (same ``changed`` flags, so the same cap and widening) and the
same number of ``analyze_loop_iterators`` calls.  Covered: every suite
workload before and after VRS, under the proposed and the conventional
configuration (each workload's ``main`` hits the iteration cap and
widens), a nested loop whose inner pin changes on its own, and
hypothesis-generated programs with loops, calls and data-dependent
branches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from test_fused import _programs

from repro.asm import assemble_program
from repro.core import VRPConfig, VRSConfig, run_vrp, run_vrs
from repro.core import propagation, vrp
from repro.core.propagation import FunctionVRP
from repro.minic import compile_source
from repro.workloads import SUITE_NAMES, workload_by_name

CONFIGS = (VRPConfig(), VRPConfig().conventional())


class DenseFunctionVRP(FunctionVRP):
    """Visits every instruction in every pass."""

    def _forward_pass(self, widen: bool) -> bool:
        self._marked = bytearray(b"\x01") * len(self.facts.visits)
        return super()._forward_pass(widen)


def _traced_run(program, config, engine):
    """``run_vrp`` under ``engine``, with each pass's outcome and the
    number of loop-iterator analyses."""
    passes: list[tuple[str, bool, bool]] = []
    pin_calls = 0
    analyze = propagation.analyze_loop_iterators

    def counting_analyze(*args, **kwargs):
        nonlocal pin_calls
        pin_calls += 1
        return analyze(*args, **kwargs)

    class Traced(engine):
        def _forward_pass(self, widen: bool) -> bool:
            changed = super()._forward_pass(widen)
            passes.append((self.function.name, widen, changed))
            return changed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vrp, "FunctionVRP", Traced)
        patch.setattr(propagation, "analyze_loop_iterators", counting_analyze)
        result = run_vrp(program, config)
    return result, passes, pin_calls


def _analysis_fields(analysis) -> dict:
    return {
        "def_range": analysis.def_range,
        "use_range": analysis.use_range,
        "useful_bits": analysis.useful_bits,
        "return_range": analysis.return_range,
        "pins": analysis.pins,
        "use_def": analysis.graph.use_def,
    }


def _assert_schedules_agree(program) -> int:
    """Compare both schedules on ``program``; returns the passes that widened."""
    widened = 0
    for config in CONFIGS:
        sparse, sparse_passes, sparse_pins = _traced_run(program, config, FunctionVRP)
        dense, dense_passes, dense_pins = _traced_run(program, config, DenseFunctionVRP)
        assert sparse_passes == dense_passes
        assert sparse_pins == dense_pins
        assert sparse.global_rounds == dense.global_rounds
        assert sparse.widths == dense.widths
        assert sparse.return_ranges == dense.return_ranges
        assert sparse.analyses.keys() == dense.analyses.keys()
        for name, analysis in sparse.analyses.items():
            assert _analysis_fields(analysis) == _analysis_fields(dense.analyses[name]), name
        widened += sum(1 for _, widen, _ in sparse_passes if widen)
    return widened


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_workloads_match_dense_schedule(name):
    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "ref")
    assert _assert_schedules_agree(program) > 0

    program = workload.build()
    workload.apply_input(program, "train")
    run_vrs(program, VRSConfig())
    assert _assert_schedules_agree(program) > 0


def test_pin_change_alone_revisits_the_increment():
    """The inner iterator's start, ``8 - (i >> 1)``, keeps its lower bound
    for a pass, then lowers it once.  The next pass re-pins the inner
    increment while nothing it reads changes, so only the pin change marks
    it for that pass."""
    program = compile_source(
        """
        int main() {
            int i;
            int j;
            long s;
            s = 0;
            for (i = 0; i < 8; i = i + 1) {
                for (j = 8 - (i >> 1); j < 32; j = j + 1) { s = s + j; }
            }
            print(s);
            return 0;
        }
        """
    )
    _assert_schedules_agree(program)


@settings(max_examples=25, deadline=None)
@given(_programs())
def test_generated_programs_match_dense_schedule(asm):
    _assert_schedules_agree(assemble_program(asm))
