"""Seeded single-instruction semantic faults for the block tier.

A :class:`Fault` names one static instruction *positionally* —
``(function, block, index)`` rather than by uid — because uids are
assigned in assembly order and therefore shift whenever the shrinker
reassembles a reduced program, while the surviving instruction keeps its
position inside its block.  ``resolve_fault_uid`` maps the position back
to the uid of the current program (or ``None`` once the site has been
shrunk away or is not mutable).

The mutation itself rides the block compiler's ``mutate_result`` seam
(:func:`repro.sim.blockc.compile_blocks`): the result expression of the
targeted instruction is rewritten before it is assigned, so the corrupted
value flows into the register writeback, the emitted trace record, and
any later uses inside the same compiled unit — exactly like a real
miscompilation would.  The default ``flip-low-bit`` mutation XORs bit 0,
which always changes the value, never leaves the signed-64 register
range, and works uniformly for ALU results, comparison booleans, CMOV
selections, and LDA addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..ir import Program
from ..isa import Opcode, OpKind
from ..sim.blockc import BlockProgram, compile_blocks
from ..sim.machine import Machine

__all__ = [
    "Fault",
    "MUTATIONS",
    "resolve_fault_uid",
    "eligible_faults",
    "compile_faulty_block_program",
]

#: Named result-expression rewrites.  ``flip-low-bit`` is the canonical
#: one: guaranteed to change the value and preserve all invariants.
MUTATIONS: dict[str, Callable[[str], str]] = {
    "flip-low-bit": lambda expr: f"(({expr}) ^ 1)",
}

#: Instruction kinds whose result expression the block compiler exposes
#: to mutation (plus LDA, which shares OpKind.MOVE with unmutable moves).
_MUTABLE_KINDS = frozenset(
    {
        OpKind.ALU,
        OpKind.MUL,
        OpKind.LOGICAL,
        OpKind.SHIFT,
        OpKind.COMPARE,
        OpKind.CMOV,
        OpKind.MASK,
        OpKind.EXTEND,
    }
)


def _is_mutable(inst) -> bool:
    if inst.dest is None:
        return False
    if inst.kind in _MUTABLE_KINDS:
        return True
    return inst.kind is OpKind.MOVE and inst.op is Opcode.LDA


@dataclass(frozen=True)
class Fault:
    """A positional single-instruction semantic fault specification."""

    function: str
    block: str
    index: int
    mutation: str = "flip-low-bit"

    def __post_init__(self) -> None:
        if self.mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {self.mutation!r}; expected one of {sorted(MUTATIONS)}"
            )

    @classmethod
    def parse(cls, spec: str, mutation: str = "flip-low-bit") -> "Fault":
        """Parse a ``function:block:index`` CLI spec."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"fault spec must be FUNCTION:BLOCK:INDEX, got {spec!r}")
        function, block, index_text = parts
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(f"fault index must be an integer, got {index_text!r}") from None
        return cls(function, block, index, mutation)

    def spec(self) -> str:
        return f"{self.function}:{self.block}:{self.index}"


def resolve_fault_uid(fault: Fault, program: Program) -> Optional[int]:
    """The uid of the fault's instruction in *program*, or None.

    None means the site does not exist in this program (wrong name,
    index out of range — e.g. after shrinking) or names an instruction
    whose result the block compiler cannot mutate.
    """
    for function in program.iter_functions():
        if function.name != fault.function:
            continue
        for block in function.iter_blocks():
            if block.label != fault.block:
                continue
            if not 0 <= fault.index < len(block.instructions):
                return None
            inst = block.instructions[fault.index]
            if not _is_mutable(inst):
                return None
            return inst.uid
    return None


def eligible_faults(
    program: Program, executed_uids: Optional[Iterable[int]] = None
) -> list[Fault]:
    """All mutable fault sites in *program*, in static order.

    With ``executed_uids`` (e.g. the uids appearing in a reference
    trace), only sites that actually execute are returned — a fault at a
    dead instruction can never diverge.
    """
    executed = None if executed_uids is None else frozenset(executed_uids)
    faults: list[Fault] = []
    for function in program.iter_functions():
        for block in function.iter_blocks():
            for index, inst in enumerate(block.instructions):
                if not _is_mutable(inst):
                    continue
                if executed is not None and inst.uid not in executed:
                    continue
                faults.append(Fault(function.name, block.label, index))
    return faults


def compile_faulty_block_program(
    machine: Machine, uid: int, mutation: str = "flip-low-bit"
) -> BlockProgram:
    """Block-compile the machine's program with one mutated instruction.

    The value-bearing traced flavour, like the lockstep harness's clean
    block program.  The result is never installed in the machine's
    block-program cache — it exists only for the faulted side of a
    lockstep run.
    """
    rewrite = MUTATIONS[mutation]
    return compile_blocks(
        machine,
        True,
        mutate_result=lambda inst, expr: rewrite(expr) if inst.uid == uid else expr,
        values=True,
    )
