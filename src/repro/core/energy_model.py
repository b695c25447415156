"""Instruction-level energy model used by the VRS cost/benefit analysis.

Section 3.1 of the paper drives specialization decisions with empirically
measured per-instruction energy numbers: Table 1 gives the energy saved (in
nanojoules, aggregated over the reference runs) when an ALU operation's
operand width changes, and §3.2 prices the guard instructions (branches,
comparisons, additions) that specialization inserts.

This module reproduces Table 1 exactly and derives from it a per-width
energy for each instruction class, plus the paper's recursive
``Savings(I, r, min, max)`` computation over the def-use graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa import Imm, Instruction, OpKind, Reg, Width, narrowest_available_width
from ..ir import Definition, DependenceGraph
from .propagation import FunctionAnalysis
from .transfer import forward_transfer
from .value_range import ValueRange
from .width_assignment import NARROWABLE_KINDS, width_for_bits

__all__ = [
    "ALU_ENERGY_SAVINGS_NJ",
    "alu_energy_saving_nj",
    "class_energy_saving_nj",
    "GuardCost",
    "EnergyModel",
    "SavingsEstimator",
]

#: Table 1 — energy savings (nJ) for ALU operations when the operand width
#: changes from ``source`` (column) to ``dest`` (row).  Negative entries are
#: the cost of widening.
ALU_ENERGY_SAVINGS_NJ: dict[Width, dict[Width, float]] = {
    Width.QUAD: {Width.QUAD: 0.0, Width.WORD: -1.0, Width.HALF: -3.0, Width.BYTE: -6.0},
    Width.WORD: {Width.QUAD: 1.0, Width.WORD: 0.0, Width.HALF: -2.0, Width.BYTE: -5.0},
    Width.HALF: {Width.QUAD: 3.0, Width.WORD: 2.0, Width.HALF: 0.0, Width.BYTE: -3.0},
    Width.BYTE: {Width.QUAD: 6.0, Width.WORD: 5.0, Width.HALF: 3.0, Width.BYTE: 0.0},
}

#: Relative energy weight of each instruction class against the ALU class,
#: used to scale Table 1 for non-ALU instructions (multiplies switch far
#: more logic; moves and masks slightly less).
_CLASS_WEIGHT = {
    OpKind.ALU: 1.0,
    OpKind.LOGICAL: 0.9,
    OpKind.SHIFT: 1.0,
    OpKind.COMPARE: 0.8,
    OpKind.CMOV: 0.9,
    OpKind.MASK: 0.7,
    OpKind.EXTEND: 0.7,
    OpKind.MOVE: 0.7,
    OpKind.MUL: 3.0,
    OpKind.LOAD: 1.2,
    OpKind.STORE: 1.2,
}


def alu_energy_saving_nj(source: Width, dest: Width) -> float:
    """Table 1 lookup: energy saved changing an ALU op from source to dest."""
    return ALU_ENERGY_SAVINGS_NJ[dest][source]


def class_energy_saving_nj(kind: OpKind, source: Width, dest: Width) -> float:
    """Energy saved re-encoding an instruction of ``kind`` from source to dest."""
    return alu_energy_saving_nj(source, dest) * _CLASS_WEIGHT.get(kind, 1.0)


@dataclass(frozen=True)
class GuardCost:
    """Energy prices of the instructions a specialization guard needs (§3.2)."""

    branch_nj: float = 4.0
    comparison_nj: float = 3.5
    add_nj: float = 3.0

    def test_cost_nj(self, value_range: ValueRange) -> float:
        """Per-execution energy of the runtime test guarding ``value_range``.

        A zero-value test is a single branch, another single-value test is a
        comparison plus a branch, and a general range test is two
        comparisons, an AND and a branch.
        """
        if value_range.is_constant:
            if value_range.lo == 0:
                return self.branch_nj
            return self.comparison_nj + self.branch_nj
        return 2 * self.comparison_nj + self.add_nj + self.branch_nj

    def test_instruction_count(self, value_range: ValueRange) -> int:
        """Number of instructions in the guard for ``value_range``."""
        if value_range.is_constant:
            return 1 if value_range.lo == 0 else 2
        return 4


@dataclass
class EnergyModel:
    """Bundle of the energy constants used by VRS."""

    guard: GuardCost = field(default_factory=GuardCost)

    def instruction_saving_nj(self, inst: Instruction, old: Width, new: Width) -> float:
        """InstSaving: energy saved when ``inst`` moves from ``old`` to ``new``."""
        if new >= old:
            return 0.0
        return class_energy_saving_nj(inst.kind, old, new)


def _use_order(use: tuple[int, Reg]) -> tuple[int, int]:
    """Build-independent sort key of a def-use edge ``(uid, register)``."""
    return use[0], use[1].index


class SavingsEstimator:
    """Implements the recursive ``Savings(I, r, min, max)`` of §3.1.

    Given a candidate instruction ``I`` whose output register ``r`` is
    assumed to lie in ``[min, max]``, the estimator walks the def-use graph
    forwards, recomputing output ranges of the dependent instructions under
    that assumption, and accumulates ``InstCount(D) * InstSaving(D, ...)``
    for every dependent instruction whose width would shrink.
    """

    def __init__(
        self,
        analysis: FunctionAnalysis,
        instruction_counts: dict[int, int],
        widths: dict[int, Width],
        model: Optional[EnergyModel] = None,
        max_depth: int = 12,
    ) -> None:
        self.analysis = analysis
        self.graph: DependenceGraph = analysis.graph
        self.instruction_counts = instruction_counts
        self.widths = widths
        self.model = model or EnergyModel()
        self.max_depth = max_depth

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def savings_nj(self, inst: Instruction, value_range: ValueRange) -> tuple[float, set[int]]:
        """Total savings and the set of affected instruction uids."""
        affected: set[int] = set()
        visited: set[int] = set()
        total = self._savings_for_definition(inst, value_range, affected, visited, depth=0)
        return total, affected

    def cost_nj(self, inst: Instruction, value_range: ValueRange) -> float:
        """Cost of the runtime test, scaled by how often it executes (§3.2)."""
        count = self.instruction_counts.get(inst.uid, 0)
        return count * self.model.guard.test_cost_nj(value_range)

    # ------------------------------------------------------------------
    # Recursion over the def-use graph
    # ------------------------------------------------------------------
    def _savings_for_definition(
        self,
        producer: Instruction,
        producer_range: ValueRange,
        affected: set[int],
        visited: set[int],
        depth: int,
    ) -> float:
        if depth >= self.max_depth:
            return 0.0
        total = 0.0
        for dest in producer.defs():
            definition = Definition("inst", dest, uid=producer.uid)
            # The walk shares ``visited`` and stops at ``max_depth``, so
            # which consumers it credits depends on the order it meets
            # them in.  Iterate the use set in uid order — the program
            # order of one build — not in set order, which follows the
            # uid values and so how many instructions were built before.
            uses = sorted(self.graph.uses_of(definition), key=_use_order)
            for use_uid, use_reg in uses:
                if use_uid in visited:
                    continue
                consumer = self.graph.instructions.get(use_uid)
                if consumer is None:
                    continue
                visited.add(use_uid)
                new_range = self._consumer_output_range(consumer, use_reg, producer_range)
                saving, new_width = self._consumer_saving(consumer, new_range)
                if saving > 0.0:
                    count = self.instruction_counts.get(consumer.uid, 0)
                    total += count * saving
                    affected.add(consumer.uid)
                if new_range is not None and new_width is not None:
                    total += self._savings_for_definition(
                        consumer, new_range, affected, visited, depth + 1
                    )
        return total

    def _consumer_output_range(
        self, consumer: Instruction, narrowed_reg: Reg, narrowed_range: ValueRange
    ) -> Optional[ValueRange]:
        """Output range of ``consumer`` if ``narrowed_reg`` had ``narrowed_range``."""
        if consumer.dest is None or consumer.dest.is_zero:
            return None
        src_ranges = []
        for operand in consumer.srcs:
            if isinstance(operand, Imm):
                src_ranges.append(ValueRange.constant(operand.value))
            elif operand == narrowed_reg:
                src_ranges.append(narrowed_range)
            else:
                src_ranges.append(self.analysis.operand_range(consumer, operand))
        dest_old = None
        if consumer.kind is OpKind.CMOV and consumer.dest is not None:
            dest_old = (
                narrowed_range
                if consumer.dest == narrowed_reg
                else self.analysis.operand_range(consumer, consumer.dest)
            )
        return forward_transfer(consumer, src_ranges, dest_old)

    def _consumer_saving(
        self, consumer: Instruction, new_range: Optional[ValueRange]
    ) -> tuple[float, Optional[Width]]:
        """(InstSaving, new width) for ``consumer`` under ``new_range``."""
        if consumer.kind not in NARROWABLE_KINDS or new_range is None:
            return 0.0, None
        old_width = self.widths.get(consumer.uid, consumer.width)
        useful_width = width_for_bits(self.analysis.output_useful_bits(consumer))
        needed = min(new_range.width(), useful_width)
        new_width = min(narrowest_available_width(consumer.op, needed), old_width)
        if new_width >= old_width:
            return 0.0, new_width
        return self.model.instruction_saving_nj(consumer, old_width, new_width), new_width
