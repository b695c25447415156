"""The VRS code transformation: region cloning behind a range guard (§3.4).

Specializing an instruction ``I`` (whose output register is ``r``) for the
range ``[min, max]`` rewrites the function as follows::

      ... I ...                      ...
      rest of I's block       →      I
      successors...                  <range guard on r>  --taken--> clone entry
                                     rest of I's block (original)
                                     ...
                                     clone of every block dominated by
                                     the rest of I's block, with branch
                                     targets remapped into the clone

The guard is two comparisons, an AND and a conditional branch for a real
range, one comparison and a branch for a single non-zero value, and a lone
branch for the value zero, matching the costs of §3.2.  The cloned region
re-joins the original code at the region's exits.  When ``min == max`` the
clone is further simplified by constant propagation
(:mod:`repro.core.constprop`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa import Imm, Instruction, Opcode, Reg
from ..ir import BasicBlock, Function, build_cfg, compute_dominators
from .constprop import FoldStats, fold_constants_in_region
from .value_range import ValueRange

__all__ = ["SpecializationRecord", "specialize_candidate", "GUARD_SCRATCH_REGISTERS"]

#: Registers reserved for guard computations.  The mini-C code generator
#: never allocates them (its temporaries are r1-r8, locals r9-r15), so they
#: are guaranteed dead at any program point of compiled workloads.  Hand
#: written assembly that uses them must not be fed to VRS.
GUARD_SCRATCH_REGISTERS = (Reg(27), Reg(28), Reg(25))


@dataclass
class SpecializationRecord:
    """Bookkeeping for one applied specialization."""

    candidate_uid: int
    function: str
    value_range: ValueRange
    guard_label: str
    clone_entry_label: str
    original_region_labels: set[str] = field(default_factory=set)
    cloned_labels: set[str] = field(default_factory=set)
    guard_uids: set[int] = field(default_factory=set)
    cloned_uids: set[int] = field(default_factory=set)
    cloned_instructions: int = 0
    fold_stats: FoldStats = field(default_factory=FoldStats)


def specialize_candidate(
    function: Function,
    candidate_uid: int,
    value_range: ValueRange,
    apply_constant_propagation: bool = True,
) -> Optional[SpecializationRecord]:
    """Apply the VRS transformation for one candidate.

    Returns ``None`` when the candidate cannot be specialized (it no longer
    exists, produces no register result, or its tail region is empty).
    """
    build_cfg(function)
    location = function.find_instruction(candidate_uid)
    if location is None:
        return None
    block, index = location
    candidate = block.instructions[index]
    if candidate.dest is None or candidate.dest.is_zero or candidate.is_control:
        return None

    spec_id = _free_spec_id(function)
    tail_label = _split_block(function, block, index, spec_id)
    if tail_label is None:
        return None

    build_cfg(function)
    dom = compute_dominators(function)
    region_labels = {
        label for label in dom.dominated_region(tail_label) if label in function.blocks
    }

    record = SpecializationRecord(
        candidate_uid=candidate_uid,
        function=function.name,
        value_range=value_range,
        guard_label=block.label,
        clone_entry_label=f"spec{spec_id}_{tail_label}",
        original_region_labels=set(region_labels),
    )

    clone_map = _clone_region(function, region_labels, spec_id, record)
    _emit_guard(block, candidate.dest, value_range, clone_map[tail_label], record)
    build_cfg(function)

    if apply_constant_propagation and value_range.is_constant:
        record.fold_stats = fold_constants_in_region(
            function,
            record.cloned_labels,
            clone_map[tail_label],
            {candidate.dest: value_range.lo},
        )
    build_cfg(function)
    return record


# ----------------------------------------------------------------------
# Block surgery
# ----------------------------------------------------------------------
def _free_spec_id(function: Function) -> int:
    """The lowest N for which no block of ``function`` is labelled ``spec<N>_…``.

    Numbering from the function's own labels, not from a process-wide
    counter, gives every rebuild of a program the same clone labels.
    """
    spec_id = 1
    while any(label.startswith(f"spec{spec_id}_") for label in function.blocks):
        spec_id += 1
    return spec_id


def _split_block(function: Function, block: BasicBlock, index: int, spec_id: int) -> Optional[str]:
    """Split ``block`` after position ``index``; return the tail block label."""
    tail_instructions = block.instructions[index + 1 :]
    if not tail_instructions:
        return None
    tail_label = function.unique_label(f"{block.label}_tail{spec_id}")
    tail = BasicBlock(tail_label, tail_instructions)
    block.instructions = block.instructions[: index + 1]
    function.add_block(tail, after=block.label)
    return tail_label


def _clone_region(
    function: Function,
    region_labels: set[str],
    spec_id: int,
    record: SpecializationRecord,
) -> dict[str, str]:
    """Clone every region block, remapping intra-region branch targets."""
    layout_order = [label for label in function.layout() if label in region_labels]
    clone_map = {label: f"spec{spec_id}_{label}" for label in layout_order}

    previous_clone: Optional[str] = None
    for position, label in enumerate(layout_order):
        original = function.blocks[label]
        clone_label = clone_map[label]
        clone = BasicBlock(clone_label)
        for inst in original.instructions:
            copy = inst.clone()
            if copy.is_branch and copy.target in clone_map:
                copy.target = clone_map[copy.target]
            clone.append(copy)
            record.cloned_uids.add(copy.uid)
        function.add_block(clone, after=previous_clone)
        record.cloned_labels.add(clone_label)
        record.cloned_instructions += len(clone.instructions)
        previous_clone = clone_label

        # Preserve fall-through behaviour: if the original block can fall
        # through, the clone must reach the same (cloned) successor even
        # though it now lives at the end of the function.
        if original.falls_through:
            fallthrough = function.block_after(label)
            if fallthrough is None:
                continue
            target = clone_map.get(fallthrough.label, fallthrough.label)
            next_original = layout_order[position + 1] if position + 1 < len(layout_order) else None
            if next_original is not None and clone_map.get(fallthrough.label) == clone_map[next_original]:
                # The natural fall-through lands on the next clone already.
                continue
            stub_label = function.unique_label(f"spec{spec_id}_ft_{label}")
            stub = BasicBlock(stub_label)
            stub.append(Instruction(op=Opcode.BR, target=target))
            function.add_block(stub, after=previous_clone)
            record.cloned_labels.add(stub_label)
            previous_clone = stub_label
    return clone_map


def _emit_guard(
    block: BasicBlock,
    reg: Reg,
    value_range: ValueRange,
    clone_entry: str,
    record: SpecializationRecord,
) -> None:
    """Append the runtime range test to ``block`` (which now ends after I)."""
    t1, t2, t3 = GUARD_SCRATCH_REGISTERS
    guard: list[Instruction] = []
    if value_range.is_constant and value_range.lo == 0:
        guard.append(Instruction(op=Opcode.BEQ, srcs=(reg,), target=clone_entry, is_guard=True))
    elif value_range.is_constant:
        guard.append(
            Instruction(
                op=Opcode.CMPEQ, dest=t1, srcs=(reg, Imm(value_range.lo)), is_guard=True
            )
        )
        guard.append(Instruction(op=Opcode.BNE, srcs=(t1,), target=clone_entry, is_guard=True))
    else:
        guard.append(
            Instruction(op=Opcode.CMPLE, dest=t1, srcs=(Imm(value_range.lo), reg), is_guard=True)
        )
        guard.append(
            Instruction(op=Opcode.CMPLE, dest=t2, srcs=(reg, Imm(value_range.hi)), is_guard=True)
        )
        guard.append(Instruction(op=Opcode.AND, dest=t3, srcs=(t1, t2), is_guard=True))
        guard.append(Instruction(op=Opcode.BNE, srcs=(t3,), target=clone_entry, is_guard=True))
    for inst in guard:
        block.append(inst)
        record.guard_uids.add(inst.uid)
