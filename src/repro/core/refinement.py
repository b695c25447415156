"""Branch-condition range refinement (§2.2.4).

A conditional branch whose condition is a comparison against a constant
bounds the compared register along each outgoing path: after
``if (a <= 100)`` the true path knows ``a <= 100`` and the false path knows
``a >= 101``.  This module derives such constraints and answers, for a
given use of a register, whether a constraint applies.

A constraint derived on the edge P → S is applied inside the region of
blocks dominated by S only when

* S has P as its single CFG predecessor (otherwise other paths could enter
  the region without passing the test), and
* the region contains no definition of the constrained register (otherwise
  the value observed by a use might postdate the test).

Both conditions keep the refinement conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import Imm, Instruction, Opcode, Reg
from ..ir import DependenceGraph, DominatorTree, Function, call_defined_registers
from .value_range import FULL_RANGE, ValueRange

__all__ = ["BranchConstraint", "BranchConstraints", "compute_branch_constraints"]

_INT64_MIN = FULL_RANGE.lo
_INT64_MAX = FULL_RANGE.hi


@dataclass(frozen=True)
class BranchConstraint:
    """One derived constraint: ``reg`` lies in ``range`` within ``region``."""

    reg: Reg
    range: ValueRange
    region: frozenset[str]


@dataclass
class BranchConstraints:
    """All constraints of one function, indexed by block label."""

    by_block: dict[str, list[BranchConstraint]] = field(default_factory=dict)

    def refine(self, block_label: str, reg: Reg, current: ValueRange) -> ValueRange:
        """Intersect ``current`` with every constraint on ``reg`` in this block."""
        result = current
        for constraint in self.by_block.get(block_label, ()):
            if constraint.reg != reg:
                continue
            refined = result.intersect(constraint.range)
            if refined is not None:
                result = refined
        return result


def compute_branch_constraints(
    function: Function, dom: DominatorTree, graph: DependenceGraph
) -> BranchConstraints:
    """Derive branch constraints for every conditional branch of ``function``."""
    constraints = BranchConstraints()
    for block in function.iter_blocks():
        terminator = block.terminator
        if terminator is None or not terminator.is_conditional_branch:
            continue
        if terminator.op not in (Opcode.BEQ, Opcode.BNE):
            continue
        taken_label = terminator.target
        fallthrough = [s for s in block.successors if s != taken_label]
        fallthrough_label = fallthrough[0] if fallthrough else None
        # BNE branches when the comparison produced "true" (non-zero).
        predicate_true_label = taken_label if terminator.op is Opcode.BNE else fallthrough_label
        predicate_false_label = fallthrough_label if terminator.op is Opcode.BNE else taken_label

        for successor, predicate_holds in (
            (predicate_true_label, True),
            (predicate_false_label, False),
        ):
            if successor is None:
                continue
            if len(function.blocks[successor].predecessors) != 1:
                continue
            derived = _branch_constraints(graph, terminator, predicate_holds)
            if not derived:
                continue
            region = frozenset(dom.dominated_region(successor))
            for reg, value_range in derived:
                if _region_defines(function, region, reg):
                    continue
                constraint = BranchConstraint(reg=reg, range=value_range, region=region)
                for label in region:
                    constraints.by_block.setdefault(label, []).append(constraint)
    return constraints


def _branch_constraints(
    graph: DependenceGraph, branch: Instruction, predicate_holds: bool
) -> list[tuple[Reg, ValueRange]]:
    """Constraints implied by the branch condition being true/false.

    Three condition shapes are understood:

    * a single comparison against a constant (``if (a <= 100)``),
    * the AND of two such comparisons, as generated by the VRS range guard
      ``min <= x && x <= max`` — constraints are only derived when the
      conjunction *holds*,
    * a plain value register, whose zero outcome pins it to the constant 0
      (the single-instruction zero test of §3.2).
    """
    sources = branch.source_registers()
    if len(sources) != 1:
        return []
    condition_def = _single_def(graph, branch, sources[0])
    if condition_def is None:
        # The branch tests an arbitrary value register: the ``== 0`` side
        # pins it to zero.
        if not predicate_holds:
            return [(sources[0], ValueRange.constant(0))]
        return []
    if condition_def.kind.value == "compare":
        operands = _constant_operands(graph, condition_def)
        derived = _derive(condition_def.op, operands, predicate_holds)
        return [derived] if derived is not None else []
    if condition_def.op is Opcode.AND and predicate_holds:
        results: list[tuple[Reg, ValueRange]] = []
        for operand in condition_def.source_registers():
            compare = _single_def(graph, condition_def, operand)
            if compare is None or compare.kind.value != "compare":
                return []
            derived = _derive(compare.op, _constant_operands(graph, compare), True)
            if derived is not None:
                results.append(derived)
        return results
    if not predicate_holds:
        return [(sources[0], ValueRange.constant(0))]
    return []


def _single_def(graph: DependenceGraph, inst: Instruction, reg: Reg) -> Instruction | None:
    """The unique instruction defining ``reg`` as read by ``inst``, if any."""
    defs = graph.reaching_definitions(inst, reg)
    if len(defs) != 1:
        return None
    return graph.definition_instruction(next(iter(defs)))


def _constant_operands(graph: DependenceGraph, compare: Instruction) -> tuple:
    """The operands of a comparison, constant registers folded into immediates.

    The code generator materialises the constant of swapped comparisons
    (``a > 5`` becomes ``li t, 5; cmplt t2, t, a``), so constraint derivation
    must look through such ``li`` definitions to see the constant.  Only the
    operands are rewritten; no instruction is built, so the analysis draws
    no uids.
    """
    operands = []
    for operand in compare.srcs:
        if isinstance(operand, Reg) and not operand.is_zero:
            producer = _single_def(graph, compare, operand)
            if (
                producer is not None
                and producer.op is Opcode.LI
                and isinstance(producer.srcs[0], Imm)
            ):
                operands.append(producer.srcs[0])
                continue
        if isinstance(operand, Reg) and operand.is_zero:
            operands.append(Imm(0))
            continue
        operands.append(operand)
    return tuple(operands)


def _derive(op: Opcode, operands: tuple, predicate_holds: bool) -> tuple[Reg, ValueRange] | None:
    """Derive a (register, range) constraint from a comparison outcome."""
    left, right = operands
    if isinstance(left, Reg) and isinstance(right, Imm):
        return _constrain(op, left, right.value, register_on_left=True, holds=predicate_holds)
    if isinstance(left, Imm) and isinstance(right, Reg):
        return _constrain(op, right, left.value, register_on_left=False, holds=predicate_holds)
    return None


def _constrain(
    op: Opcode, reg: Reg, constant: int, register_on_left: bool, holds: bool
) -> tuple[Reg, ValueRange] | None:
    """Constraint on ``reg`` given ``cmp(reg, constant)`` (or swapped) = holds."""
    if op is Opcode.CMPEQ:
        if holds:
            return reg, ValueRange.constant(constant)
        return None
    if op is Opcode.CMPNE:
        if not holds:
            return reg, ValueRange.constant(constant)
        return None
    if op not in (Opcode.CMPLT, Opcode.CMPLE):
        return None

    strict = op is Opcode.CMPLT
    if register_on_left:
        # reg < constant (or <=)
        if holds:
            upper = constant - 1 if strict else constant
            return _bounded(reg, _INT64_MIN, upper)
        lower = constant if strict else constant + 1
        return _bounded(reg, lower, _INT64_MAX)
    # constant < reg (or <=)
    if holds:
        lower = constant + 1 if strict else constant
        return _bounded(reg, lower, _INT64_MAX)
    upper = constant if strict else constant - 1
    return _bounded(reg, _INT64_MIN, upper)


def _bounded(reg: Reg, lo: int, hi: int) -> tuple[Reg, ValueRange] | None:
    if lo > hi:
        return None
    lo = max(lo, _INT64_MIN)
    hi = min(hi, _INT64_MAX)
    return reg, ValueRange(lo, hi)


def _region_defines(function: Function, region: frozenset[str], reg: Reg) -> bool:
    """True when any instruction inside ``region`` may redefine ``reg``."""
    for label in region:
        for inst in function.blocks[label].instructions:
            if inst.is_call and reg in call_defined_registers(None):
                return True
            if reg in inst.defs():
                return True
    return False
