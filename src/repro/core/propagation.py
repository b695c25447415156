"""Per-function value range propagation engine (§2.2).

The engine sweeps the function's instructions in reverse postorder until
the ranges stabilise (or an iteration budget is reached, in which case the
still-changing definitions are conservatively widened).  A sweep visits
only *marked* instructions: every instruction in the first pass, and after
that the readers of a definition whose range changed and the instructions
whose loop-iterator pin changed.  A reader placed after the changed
definition is visited later in the same pass and one placed before it (over
a loop back edge) in the next pass, which is exactly when the dense
Gauss-Seidel sweep that visits everything would first see the new value.
An unmarked instruction still has the inputs it was last visited with, so
visiting it could change nothing: the pass count, each pass's ``changed``
flag and every widened range are those of the dense sweep.  The order is
kept, rather than replaced by an SCCP-style worklist, because a function
that hits the iteration cap widens whatever is still in flux, and which
definitions those are depends on the order.

It integrates:

* the forward transfer functions (:mod:`repro.core.transfer`),
* branch-condition refinement (:mod:`repro.core.refinement`),
* loop trip-count pinning (:mod:`repro.core.trip_count`),
* the backward useful-bits pass (:mod:`repro.core.useful`), and
* interprocedural parameter / return-value ranges supplied by the driver.

None of the graph, loop, constraint or useful-bits facts depends on a
range; :class:`FunctionFacts` holds them so :func:`repro.core.vrp.run_vrp`
computes them once per function and reuses them in every global round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa import ARG_REGISTERS, Imm, Instruction, OpKind, RETURN_VALUE, Reg
from ..ir import (
    Definition,
    DependenceGraph,
    Function,
    Loop,
    Program,
    build_dependence_graph,
    compute_dominators,
    find_loops,
    reverse_postorder,
)
from .refinement import BranchConstraints, compute_branch_constraints
from .transfer import forward_transfer
from .trip_count import LoopPins, analyze_loop_iterators
from .useful import UsefulBitsConfig, compute_useful_bits
from .value_range import FULL_RANGE, ValueRange

__all__ = ["VRPConfig", "FunctionAnalysis", "FunctionFacts", "FunctionVRP"]


@dataclass(frozen=True)
class VRPConfig:
    """Configuration of the value range propagation analysis.

    The defaults correspond to the paper's *proposed* VRP; switching
    ``useful_propagation`` off yields the *conventional* VRP used as the
    comparison point in Figure 2.
    """

    useful_propagation: bool = True
    useful_through_arithmetic: bool = True
    loop_trip_count: bool = True
    branch_refinement: bool = True
    interprocedural: bool = True
    max_iterations: int = 8
    global_iterations: int = 3

    def conventional(self) -> "VRPConfig":
        """The conventional-VRP variant of this configuration."""
        return VRPConfig(
            useful_propagation=False,
            useful_through_arithmetic=False,
            loop_trip_count=self.loop_trip_count,
            branch_refinement=self.branch_refinement,
            interprocedural=self.interprocedural,
            max_iterations=self.max_iterations,
            global_iterations=self.global_iterations,
        )


@dataclass
class FunctionAnalysis:
    """Result of value range propagation over one function."""

    function: Function
    graph: DependenceGraph
    def_range: dict[Definition, ValueRange] = field(default_factory=dict)
    use_range: dict[tuple[int, Reg], ValueRange] = field(default_factory=dict)
    useful_bits: dict[Definition, int] = field(default_factory=dict)
    return_range: ValueRange = FULL_RANGE
    pins: LoopPins = field(default_factory=LoopPins)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def output_range(self, inst: Instruction) -> Optional[ValueRange]:
        """Range of the value produced by ``inst`` (None when no result)."""
        for reg in inst.defs():
            return self.def_range.get(Definition("inst", reg, uid=inst.uid))
        return None

    def operand_range(self, inst: Instruction, reg: Reg) -> ValueRange:
        """Range of the value ``inst`` reads from ``reg``."""
        return self.use_range.get((inst.uid, reg), FULL_RANGE)

    def output_useful_bits(self, inst: Instruction) -> int:
        """Useful low bits of the value produced by ``inst`` (64 if unknown)."""
        bits = 0
        for reg in inst.defs():
            bits = max(bits, self.useful_bits.get(Definition("inst", reg, uid=inst.uid), 0))
        return bits if bits > 0 else 64


@dataclass
class FunctionFacts:
    """What the engine needs about one function before any range is known."""

    function: Function
    config: VRPConfig
    graph: DependenceGraph
    loops: list[Loop]
    constraints: Optional[BranchConstraints]
    #: (instruction, block label, registers it reads) in reverse postorder.
    visits: list[tuple[Instruction, str, tuple[Reg, ...]]]
    #: Instruction uid -> its position in ``visits``.
    positions: dict[int, int]
    #: Instruction definition -> positions in ``visits`` of its readers.
    readers: dict[Definition, tuple[int, ...]]
    useful_bits: dict[Definition, int]
    #: The call targets, whose return ranges the engine reads (sorted).
    callees: tuple[str, ...]

    @classmethod
    def build(cls, function: Function, program: Program, config: VRPConfig) -> "FunctionFacts":
        graph = build_dependence_graph(function, program)
        dom = compute_dominators(function)
        constraints = None
        if config.branch_refinement:
            constraints = compute_branch_constraints(function, dom, graph)
        reads: dict[int, list[Reg]] = {}
        for uid, reg in graph.use_def:
            reads.setdefault(uid, []).append(reg)
        visits = [
            (inst, label, tuple(reads.get(inst.uid, ())))
            for label in reverse_postorder(function)
            for inst in function.blocks[label].instructions
        ]
        positions = {inst.uid: position for position, (inst, _, _) in enumerate(visits)}
        readers = {
            definition: tuple(positions[uid] for uid, _ in uses if uid in positions)
            for definition, uses in graph.def_use.items()
            if definition.kind == "inst"
        }
        useful: dict[Definition, int] = {}
        if config.useful_propagation:
            useful = compute_useful_bits(
                function,
                graph,
                UsefulBitsConfig(through_arithmetic=config.useful_through_arithmetic),
            )
        callees = {inst.target for inst in function.instructions() if inst.is_call}
        return cls(
            function=function,
            config=config,
            graph=graph,
            loops=find_loops(function, dom),
            constraints=constraints,
            visits=visits,
            positions=positions,
            readers=readers,
            useful_bits=useful,
            callees=tuple(sorted(callees)),
        )


class FunctionVRP:
    """Runs value range propagation over a single function."""

    def __init__(
        self,
        facts: FunctionFacts,
        param_ranges: Optional[dict[Reg, ValueRange]] = None,
        return_ranges: Optional[dict[str, ValueRange]] = None,
    ) -> None:
        self.facts = facts
        self.function = facts.function
        self.config = facts.config
        self.graph = facts.graph
        self.constraints = facts.constraints
        self.param_ranges = dict(param_ranges or {})
        self.return_ranges = dict(return_ranges or {})

        self._def_range: dict[Definition, ValueRange] = {}
        self._use_range: dict[tuple[int, Reg], ValueRange] = {}
        self._pins = LoopPins()
        #: One flag per position of ``facts.visits``: visit it when the
        #: sweep reaches it.  The first pass visits everything.
        self._marked = bytearray(b"\x01") * len(facts.visits)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self) -> FunctionAnalysis:
        self._seed_external_definitions()

        converged = False
        for _ in range(self.config.max_iterations):
            if not self._forward_pass(widen=False):
                converged = True
                break
        if not converged:
            # Widen whatever is still in flux, then settle.
            for _ in range(4):
                if not self._forward_pass(widen=True):
                    break

        return FunctionAnalysis(
            function=self.function,
            graph=self.graph,
            def_range=self._def_range,
            use_range=self._use_range,
            useful_bits=self.facts.useful_bits,
            return_range=self._return_range(),
            pins=self._pins,
        )

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _seed_external_definitions(self) -> None:
        params = set(ARG_REGISTERS[: self.function.num_params])
        for reg_index in range(32):
            reg = Reg(reg_index)
            definition = Definition("entry", reg)
            if reg in params and reg in self.param_ranges:
                self._def_range[definition] = self.param_ranges[reg]
            else:
                self._def_range[definition] = FULL_RANGE
        for inst in self.function.instructions():
            if not inst.is_call:
                continue
            from ..ir import call_defined_registers

            for reg in call_defined_registers(None):
                definition = Definition("call", reg, uid=inst.uid, callee=inst.target)
                if reg == RETURN_VALUE and inst.target in self.return_ranges:
                    self._def_range[definition] = self.return_ranges[inst.target]
                else:
                    self._def_range[definition] = FULL_RANGE

    # ------------------------------------------------------------------
    # Forward sweeps
    # ------------------------------------------------------------------
    def _forward_pass(self, widen: bool) -> bool:
        """Visit the marked instructions in order; True if any range changed."""
        if self.config.loop_trip_count:
            pins = analyze_loop_iterators(
                self.function, self.facts.loops, self.graph, self._def_range.get
            )
            self._mark_repinned(pins)
            self._pins = pins
        changed = False
        visits = self.facts.visits
        marked = self._marked
        position = marked.find(1)
        while position >= 0:
            marked[position] = 0
            inst, label, reads = visits[position]
            changed |= self._visit(inst, label, reads, widen)
            position = marked.find(1, position + 1)
        return changed

    def _mark_repinned(self, pins: LoopPins) -> None:
        """Mark the instructions whose loop pins differ from the last pass's."""
        old = self._pins
        uids = {uid for uid, _ in old.def_ranges.items() ^ pins.def_ranges.items()}
        uids.update(uid for (uid, _), _ in old.use_ranges.items() ^ pins.use_ranges.items())
        for uid in uids:
            position = self.facts.positions.get(uid)
            if position is not None:
                self._marked[position] = 1

    def _visit(
        self, inst: Instruction, block_label: str, reads: tuple[Reg, ...], widen: bool
    ) -> bool:
        changed = False
        # 1. Ranges of every register this instruction reads.
        reg_ranges: dict[Reg, ValueRange] = {}
        for reg in reads:
            value = self._join_reaching(inst, reg)
            if value is None:
                continue
            pinned = self._pins.use_ranges.get((inst.uid, reg))
            if pinned is not None:
                value = pinned
            elif self.constraints is not None:
                value = self.constraints.refine(block_label, reg, value)
            reg_ranges[reg] = value
            if self._use_range.get((inst.uid, reg)) != value:
                self._use_range[(inst.uid, reg)] = value
                changed = True

        # 2. Range of the produced value.
        if inst.dest is None or inst.dest.is_zero or inst.is_call:
            return changed
        src_ranges = [self._operand_range(operand, reg_ranges) for operand in inst.srcs]
        if any(r is None for r in src_ranges):
            return changed
        dest_old = reg_ranges.get(inst.dest) if inst.kind is OpKind.CMOV else None
        result = forward_transfer(inst, src_ranges, dest_old)
        if result is None:
            return changed
        pinned = self._pins.def_ranges.get(inst.uid)
        if pinned is not None:
            result = pinned
        definition = Definition("inst", inst.dest, uid=inst.uid)
        previous = self._def_range.get(definition)
        if widen and previous is not None and result != previous:
            result = self._worst_case(inst)
        if previous != result:
            self._def_range[definition] = result
            for reader in self.facts.readers.get(definition, ()):
                self._marked[reader] = 1
            return True
        return changed

    def _join_reaching(self, inst: Instruction, reg: Reg) -> Optional[ValueRange]:
        if reg.is_zero:
            return ValueRange.constant(0)
        joined: Optional[ValueRange] = None
        for definition in self.graph.reaching_definitions(inst, reg):
            value = self._def_range.get(definition)
            if value is None:
                continue
            joined = value if joined is None else joined.union(value)
        return joined

    @staticmethod
    def _operand_range(operand, reg_ranges: dict[Reg, ValueRange]) -> Optional[ValueRange]:
        if isinstance(operand, Imm):
            return ValueRange.constant(operand.value)
        if operand.is_zero:
            return ValueRange.constant(0)
        return reg_ranges.get(operand)

    def _worst_case(self, inst: Instruction) -> ValueRange:
        """A stable, always-sound range for ``inst`` (all inputs unknown)."""
        src_ranges = [FULL_RANGE for _ in inst.srcs]
        result = forward_transfer(inst, src_ranges, FULL_RANGE)
        return result if result is not None else FULL_RANGE

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def _return_range(self) -> ValueRange:
        defs = self.graph.exit_definitions.get(RETURN_VALUE, set())
        joined: Optional[ValueRange] = None
        for definition in defs:
            value = self._def_range.get(definition, FULL_RANGE)
            joined = value if joined is None else joined.union(value)
        return joined if joined is not None else FULL_RANGE
