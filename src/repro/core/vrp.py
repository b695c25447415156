"""Whole-program Value Range Propagation driver.

Runs the per-function engine bottom-up over the call graph, iterating a
small, fixed number of global rounds so that return-value ranges flow from
callees to callers and argument ranges flow from call sites to callee
parameters (§2.4, interprocedural analysis).  The result maps every
instruction to its assigned operand width; :func:`apply_widths` re-encodes
the program in place.

A round changes only the parameter and return ranges the functions see,
never the program, so each function's range-independent facts are built
once per run and shared by every round (:class:`FunctionFacts`): its
dependence graph, dominator tree, loops and branch constraints, its
instruction visit order with the readers of every definition, and its
useful bits.  A propagation is a function of those facts, the function's
parameter ranges and its callees' return ranges, so a round re-runs a
function only when one of those ranges changed since its last run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..isa import ARG_REGISTERS, Reg, Width
from ..ir import Program, build_call_graph
from .propagation import FunctionAnalysis, FunctionFacts, FunctionVRP, VRPConfig
from .value_range import FULL_RANGE, ValueRange
from .width_assignment import assign_function_widths

__all__ = ["VRPResult", "run_vrp", "apply_widths"]


@dataclass
class VRPResult:
    """Outcome of whole-program value range propagation."""

    program: Program
    config: VRPConfig
    analyses: dict[str, FunctionAnalysis] = field(default_factory=dict)
    widths: dict[int, Width] = field(default_factory=dict)
    original_widths: dict[int, Width] = field(default_factory=dict)
    return_ranges: dict[str, ValueRange] = field(default_factory=dict)
    analysis_seconds: float = 0.0
    global_rounds: int = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def width_of(self, uid: int) -> Width:
        """Assigned width of instruction ``uid`` (original width if unknown)."""
        return self.widths.get(uid, self.original_widths.get(uid, Width.QUAD))

    def narrowed_instructions(self) -> int:
        """Number of static instructions whose width was reduced."""
        return sum(
            1
            for uid, width in self.widths.items()
            if width < self.original_widths.get(uid, Width.QUAD)
        )

    def static_width_distribution(self) -> dict[Width, int]:
        """Static instruction count per assigned width."""
        distribution: dict[Width, int] = {w: 0 for w in Width.all_widths()}
        for width in self.widths.values():
            distribution[width] += 1
        return distribution

    def analysis_for(self, function_name: str) -> FunctionAnalysis:
        return self.analyses[function_name]


def run_vrp(program: Program, config: Optional[VRPConfig] = None) -> VRPResult:
    """Analyse ``program`` and compute per-instruction width assignments.

    The program is *not* modified; call :func:`apply_widths` to re-encode it.
    """
    config = config or VRPConfig()
    start = time.perf_counter()

    call_graph = build_call_graph(program)
    order = [name for name in call_graph.bottom_up_order() if name in program.functions]

    result = VRPResult(program=program, config=config)
    result.original_widths = _uid_widths(program)

    facts = {
        name: FunctionFacts.build(program.functions[name], program, config) for name in order
    }
    param_ranges: dict[str, dict[Reg, ValueRange]] = {name: {} for name in order}
    return_ranges: dict[str, ValueRange] = {}
    # Per function, the inputs and result of its last propagation.
    last: dict[str, tuple[tuple, FunctionAnalysis]] = {}

    rounds = config.global_iterations if config.interprocedural else 1
    for round_index in range(rounds):
        result.global_rounds = round_index + 1
        observed_args: dict[str, dict[Reg, ValueRange]] = {name: {} for name in order}
        for name in order:
            # All a propagation reads of what the rounds change: its
            # parameter ranges and its callees' return ranges.
            params = param_ranges.get(name, {})
            inputs = (params, [return_ranges.get(callee) for callee in facts[name].callees])
            previous = last.get(name)
            if previous is not None and previous[0] == inputs:
                analysis = previous[1]
            else:
                engine = FunctionVRP(facts[name], param_ranges=params, return_ranges=return_ranges)
                analysis = engine.run()
                last[name] = (inputs, analysis)
            result.analyses[name] = analysis
            return_ranges[name] = analysis.return_range
            if config.interprocedural:
                _collect_call_arguments(program, analysis, observed_args)
        if not config.interprocedural:
            break
        new_params = _merge_observed(order, observed_args)
        if new_params == param_ranges:
            break
        param_ranges = new_params

    result.return_ranges = dict(return_ranges)
    for name in order:
        result.widths.update(assign_function_widths(result.analyses[name]))
    result.analysis_seconds = time.perf_counter() - start
    return result


def _uid_widths(program: Program) -> dict[int, Width]:
    """Every instruction's encoded width, by uid."""
    return {inst.uid: inst.width for inst in program.instructions()}


def apply_widths(program: Program, result: VRPResult) -> int:
    """Re-encode ``program`` in place with the widths chosen by ``result``.

    Returns the number of instructions whose encoding changed.
    """
    changed = 0
    for inst in program.instructions():
        new_width = result.widths.get(inst.uid)
        if new_width is not None and new_width != inst.width:
            inst.width = new_width
            changed += 1
    return changed


# ----------------------------------------------------------------------
# Interprocedural bookkeeping
# ----------------------------------------------------------------------
def _collect_call_arguments(
    program: Program,
    analysis: FunctionAnalysis,
    observed: dict[str, dict[Reg, ValueRange]],
) -> None:
    """Record the argument ranges seen at every call site of ``analysis``."""
    for inst in analysis.function.instructions():
        if not inst.is_call or inst.target not in program.functions:
            continue
        callee = program.functions[inst.target]
        slots = observed.setdefault(inst.target, {})
        for index in range(callee.num_params):
            reg = ARG_REGISTERS[index]
            value = analysis.use_range.get((inst.uid, reg), FULL_RANGE)
            previous = slots.get(reg)
            slots[reg] = value if previous is None else previous.union(value)


def _merge_observed(
    order: list[str], observed: dict[str, dict[Reg, ValueRange]]
) -> dict[str, dict[Reg, ValueRange]]:
    """Turn per-callee observed argument ranges into parameter seed ranges."""
    merged: dict[str, dict[Reg, ValueRange]] = {}
    for name in order:
        merged[name] = dict(observed.get(name, {}))
    return merged
