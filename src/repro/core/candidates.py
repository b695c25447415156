"""Candidate identification for Value Range Specialization (§3.3).

Profiling every instruction would be prohibitively expensive, so VRS first
selects *candidates*: instructions for which specialization could plausibly
pay off.  The filter performs the paper's preliminary benefit analysis — it
assumes the best possible outcome (the output collapses to a single narrow
value) and the cheapest possible test (a single comparison) and keeps the
instruction only if the estimated savings exceed that minimal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..isa import Instruction, OpKind, Width
from ..ir import Program
from .energy_model import EnergyModel, SavingsEstimator
from .value_range import ValueRange
from .vrp import VRPResult
from .width_assignment import NARROWABLE_KINDS

__all__ = ["Candidate", "eligible_instructions", "identify_candidates"]

#: Instruction kinds worth profiling: everything re-encodable plus loads,
#: whose runtime values are invisible to the static analysis and therefore
#: the main source of specialization opportunities.
_CANDIDATE_KINDS = NARROWABLE_KINDS | {OpKind.LOAD}


@dataclass
class Candidate:
    """One instruction selected for value profiling."""

    function: str
    uid: int
    instruction: Instruction
    execution_count: int
    preliminary_benefit_nj: float


def eligible_instructions(
    program: Program, vrp_result: VRPResult
) -> Iterator[tuple[str, Instruction]]:
    """The static half of the filter: ``(function name, instruction)`` for
    every instruction the code alone admits as a profiling point, in
    program order.

    :func:`identify_candidates` keeps those that also pass the
    execution-count and benefit tests, so its candidates are a subset:
    VRS's training run watches this whole set, before any count is known.
    """
    for function in program.iter_functions():
        if function.name == program.entry:
            continue
        analysis = vrp_result.analyses.get(function.name)
        if analysis is None:
            continue
        for inst in function.instructions():
            if _eligible(inst, vrp_result, analysis):
                yield function.name, inst


def identify_candidates(
    program: Program,
    vrp_result: VRPResult,
    instruction_counts: dict[int, int],
    model: EnergyModel | None = None,
    min_execution_count: int = 4,
) -> list[Candidate]:
    """Select the instructions whose values are worth profiling.

    The returned list is sorted by decreasing preliminary benefit.
    """
    model = model or EnergyModel()
    candidates: list[Candidate] = []
    best_case = ValueRange.constant(0)
    estimators: dict[str, SavingsEstimator] = {}

    for name, inst in eligible_instructions(program, vrp_result):
        count = instruction_counts.get(inst.uid, 0)
        if count < min_execution_count:
            continue
        estimator = estimators.get(name)
        if estimator is None:
            estimator = estimators[name] = SavingsEstimator(
                vrp_result.analyses[name], instruction_counts, vrp_result.widths, model=model
            )
        savings, _ = estimator.savings_nj(inst, best_case)
        minimal_cost = count * model.guard.comparison_nj
        benefit = savings - minimal_cost
        if benefit > 0.0:
            candidates.append(
                Candidate(
                    function=name,
                    uid=inst.uid,
                    instruction=inst,
                    execution_count=count,
                    preliminary_benefit_nj=benefit,
                )
            )
    candidates.sort(key=lambda c: c.preliminary_benefit_nj, reverse=True)
    return candidates


def _eligible(inst: Instruction, vrp_result: VRPResult, analysis) -> bool:
    if inst.is_guard or inst.dest is None or inst.dest.is_zero:
        return False
    if inst.kind not in _CANDIDATE_KINDS:
        return False
    # Instructions that VRP already proved narrow leave nothing to gain.
    if vrp_result.width_of(inst.uid) <= Width.BYTE and inst.kind is not OpKind.LOAD:
        return False
    # Instructions whose static range is already a single value (address
    # moves, constant loads) cannot learn anything from profiling either.
    static_range = analysis.output_range(inst)
    if static_range is not None and static_range.is_constant:
        return False
    return True
