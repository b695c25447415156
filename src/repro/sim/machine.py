"""Functional (architectural) simulator for the Alpha-like ISA.

The machine executes a :class:`~repro.ir.Program` with exact 64-bit
two's-complement semantics, honouring the *encoded width* of every
instruction (a ``add.8`` wraps its result to 8 bits).  Because VRP/VRS are
required to be conservative, running the original and the transformed
program must produce identical outputs — the test suite checks exactly
that.

Besides program output, the machine produces the dynamic artefacts the rest
of the system needs:

* basic-block execution counts (VRS candidate identification, Figure 4),
* a full dynamic trace (timing model, power model, hardware schemes),
* value observations at watched instructions (the Calder-style value
  profiler used by VRS).

Two interpreters run a program (see ``docs/simulator.md``):

* :meth:`Machine.run` — the **block** tier — generates straight-line
  Python source per basic block (:mod:`repro.sim.blockc`) once per
  ``Machine``, compiles each distinct source once per process, and
  drives a block-level hot loop, so dispatch and
  the instruction-limit check amortize over whole blocks and trace
  emission is batched per block;
* :meth:`Machine.run_reference` decodes every instruction on every
  dynamic step (attribute loads, kind dispatch, operand ``isinstance``
  checks) and is the semantic oracle the block tier is locked against.

Both produce bit-identical :class:`RunResult` contents, trace columns,
record shapes and value observations; a block-tier trace keeps no operand
values (see below), so their records are compared through the lockstep
harness (:mod:`repro.coexec`), whose block flavour keeps them.  Compiled
block programs are cached on the ``Machine`` keyed by ``(collect_trace,
watched uids)`` — a value observer's watched set is a compile input, so
profiling runs execute on the block loop too — with per-run state
(registers, memory, trace columns, counters, observer) passed in as
arguments, so repeated ``run()`` calls perform **zero** recompilation.
Consequently a ``Machine`` snapshots the program at its first run:
mutating the :class:`~repro.ir.Program` afterwards requires a fresh
``Machine`` (every transformation pass in this repository already builds
one).

A computed return that lands inside a compilation unit (an address no
call produced) is stepped on the reference loop, sharing the run's state,
up to the next unit entry, where the block loop takes over again.

Trace emission is columnar: the reference loop writes through the append
closures of :meth:`Trace.emitters`, encoding the per-record flag byte
dynamically, and the block tier batches whole-block meta templates
through :meth:`Trace.block_emitters`, so every emission site shares one
encoding and cannot drift (see ``repro/sim/trace.py``).  A block-tier
trace is value-free: the block units count the records' accounting
shapes as they run instead of storing operand values, and a mid-unit
landing's per-record ``emit`` counts the shapes of the records it steps,
so the trace always arrives with :meth:`Trace.shape_counts` filled.
``run_reference(collect_trace=True)`` keeps the values.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from .. import settings
from ..isa import Imm, Instruction, Opcode, OpKind, Reg, Width, to_signed
from ..isa.semantics import (
    ARITHMETIC_SEMANTICS as _ARITH,
    BRANCH_SEMANTICS as _BRANCH,
    COMPARE_SEMANTICS as _COMPARE,
    MASK_SEMANTICS as _MASK,
)
from ..isa.widths import wrap_to_width
from ..ir import Program, STACK_BASE_ADDRESS
from .blockc import BlockProgram, compile_blocks, expand_signatures
from .memory import Memory, load_program_data
from .trace import StaticInfo, Trace, pack_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.config import MachineConfig
    from .fusedc import FusedOutcome, FusedProgram

__all__ = [
    "Machine",
    "RunResult",
    "SimulationError",
    "SimulationLimitExceeded",
    "ValueObserver",
]

#: Base address of the (virtual) code segment; instructions are 4 bytes.
CODE_BASE_ADDRESS = 0x1000

#: Sentinel program counter the interpreters return to halt.
_HALT_PC = -1

#: Budget probes run every this many dynamic instructions (amortized to
#: block granularity, like the instruction-limit check itself).  Small
#: enough that the suite workloads (tens of thousands of dynamic
#: instructions) are probed several times per run; a budgeted run pays
#: one ``time.monotonic()`` call per stride and an unbudgeted run pays a
#: single comparison per block.
_BUDGET_CHECK_STRIDE = 8192


#: The kinds whose semantics read ``inst.width``: the wrap of an
#: ALU/MUL/LOGICAL/SHIFT result and of a CMOV's moved value.  Every other
#: kind runs alike at any encoded width (see :meth:`Machine.narrowing_holds`).
_WRAPPING_KINDS = frozenset((OpKind.ALU, OpKind.MUL, OpKind.LOGICAL, OpKind.SHIFT, OpKind.CMOV))


def _index_decoder(total: int) -> Callable[[int], int]:
    """:attr:`Machine.index_of_address` for a program of ``total``
    instructions: a function of the length alone, holding no machine."""

    def index_of_address(address: int) -> int:
        index = (address - CODE_BASE_ADDRESS) // 4
        if not 0 <= index <= total:
            raise SimulationError(f"jump to invalid code address {address:#x}")
        return index

    return index_of_address


def _resource_exhausted(message: str) -> Exception:
    """Build a ResourceExhausted from the experiments taxonomy.

    Imported lazily at the raise site: ``repro.experiments.resilience``
    is stdlib-only, so no ``sim`` ↔ ``experiments`` import cycle can
    form, and simulator users that never configure budgets never load
    it.
    """
    from ..experiments.resilience import ResourceExhausted

    return ResourceExhausted(message)


class SimulationError(Exception):
    """Raised when the simulated program performs an illegal operation."""


class SimulationLimitExceeded(SimulationError):
    """Raised when the dynamic instruction limit is exceeded."""


class ValueObserver(Protocol):
    """Interface for value profiling hooks (see :mod:`repro.core.profiling`)."""

    watched_uids: set[int]

    def observe(self, uid: int, value: int) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class RunResult:
    """Outcome of one functional simulation."""

    instructions: int
    output: list[int]
    block_counts: dict[tuple[str, str], int]
    halted: bool
    trace: Optional[Trace] = None
    call_counts: dict[str, int] = field(default_factory=dict)
    #: Set by the fused pipeline (``run(pipeline="fused")``): the timing
    #: result and shape aggregate a materialized run would need a trace
    #: plus two analysis walks to produce.  ``trace`` is None then.
    fused: Optional["FusedOutcome"] = None

    def instruction_counts(self, program: Program) -> dict[int, int]:
        """Per-static-instruction execution counts, derived from block counts."""
        counts: dict[int, int] = {}
        for function in program.iter_functions():
            for block in function.iter_blocks():
                count = self.block_counts.get((function.name, block.label), 0)
                if count == 0:
                    continue
                for inst in block.instructions:
                    counts[inst.uid] = counts.get(inst.uid, 0) + count
        return counts


class Machine:
    """Functional simulator."""

    def __init__(
        self,
        program: Program,
        max_instructions: int = 20_000_000,
        wall_time_s: Optional[float] = None,
        max_trace_bytes: Optional[int] = None,
    ) -> None:
        self.program = program
        self.max_instructions = max_instructions
        # Resource budgets (see docs/resilience.md): adversarial programs
        # — a fuzz corpus, a user submission — must fail fast with
        # ResourceExhausted instead of hanging a worker (wall time) or
        # OOM-ing it (trace column bytes).  None disables a budget; the
        # environment supplies service-wide defaults.
        self.wall_time_s = (
            wall_time_s if wall_time_s is not None else settings.get("REPRO_SIM_WALL_TIME_S")
        )
        self.max_trace_bytes = (
            max_trace_bytes
            if max_trace_bytes is not None
            else settings.get("REPRO_SIM_MAX_TRACE_BYTES")
        )
        # Compiled block programs, cached per Machine and shared across
        # runs: one per (collect_trace, watched uids) flavour.
        self._block_programs: dict[tuple[bool, frozenset[int]], BlockProgram] = {}
        # Fused simulate→time→account programs, one per (machine config,
        # probe flavour) — see repro.sim.fusedc.
        self._fused_programs: dict[tuple, "FusedProgram"] = {}
        # Flatten the program into an address-indexed instruction sequence.
        self._flat: list[tuple[str, str, Instruction]] = []
        self._block_start: dict[tuple[str, str], int] = {}
        self._function_entry: dict[str, int] = {}
        for function in program.iter_functions():
            self._function_entry[function.name] = len(self._flat)
            for block in function.iter_blocks():
                self._block_start[(function.name, block.label)] = len(self._flat)
                for inst in block.instructions:
                    self._flat.append((function.name, block.label, inst))
        #: Instruction index of a code address (an invalid one raises
        #: :class:`SimulationError`).  Compiled programs bind it into their
        #: constant pools and the machine caches them, so it holds no
        #: reference to the machine: a bound method would make every
        #: machine a cycle that only the cyclic collector frees.
        self.index_of_address = _index_decoder(len(self._flat))
        self.static_info = StaticInfo.from_program(program)
        #: Instruction address per static uid; traces derive their address
        #: and next-address columns from this map instead of storing them.
        self.address_by_uid: dict[int, int] = {
            inst.uid: CODE_BASE_ADDRESS + 4 * index
            for index, (_, _, inst) in enumerate(self._flat)
        }
        #: A return address outside the code segment terminates execution
        #: (used when the entry function returns instead of halting).
        self._stop_address = self.address_of_index(len(self._flat) + 16)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def address_of_index(self, index: int) -> int:
        return CODE_BASE_ADDRESS + 4 * index

    def _new_trace(self, values: bool = True) -> Trace:
        """An empty trace of this machine: value-bearing, or value-free
        (shape counts instead of the value arena)."""
        return Trace(
            static=self.static_info,
            addresses=self.address_by_uid,
            shapes=None if values else {},
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        collect_trace: bool = False,
        value_observer: Optional[ValueObserver] = None,
        arguments: Optional[list[int]] = None,
        pipeline: Optional[str] = None,
        machine_config: Optional["MachineConfig"] = None,
    ) -> RunResult:
        """Execute the program from its entry function until HALT.

        Runs on the block tier; :meth:`run_reference` is its oracle.

        Args:
            collect_trace: record a value-free :class:`Trace` — metas,
                memory column and shape counts, all the timing/power
                models read; costs memory proportional to the run.
                :meth:`run_reference` records the operand values too.
            value_observer: optional value-profiling hook; it sees every
                result of its ``watched_uids`` in program order.  When a
                block-tier run raises :class:`SimulationLimitExceeded`, it
                has seen a prefix of the reference loop's stream ending at
                a unit boundary (see ``docs/simulator.md``).
            arguments: optional initial values for the argument registers of
                the entry function (``a0``, ``a1``...).
            pipeline: ``"fused"`` runs the streaming simulate→time→account
                tier (:mod:`repro.sim.fusedc`): no trace is materialized
                and the result carries a :class:`FusedOutcome` instead.
                ``"materialized"``/None is the classic trace pipeline.
            machine_config: the :class:`~repro.uarch.MachineConfig` the
                fused tier times against (default config when omitted);
                only meaningful with ``pipeline="fused"``.
        """
        if pipeline not in (None, "materialized", "fused"):
            raise ValueError(
                f"unknown pipeline {pipeline!r}; expected 'fused' or 'materialized'"
            )
        if pipeline == "fused":
            if collect_trace:
                raise ValueError(
                    "pipeline='fused' never materializes a trace; "
                    "use the materialized pipeline with collect_trace"
                )
            if value_observer is not None:
                raise ValueError("pipeline='fused' does not support value observers")
            return self._run_fused(machine_config, arguments)
        if machine_config is not None:
            raise ValueError("machine_config is only meaningful with pipeline='fused'")
        return self._run_block(collect_trace, value_observer, arguments)

    def _init_run_state(self, arguments: Optional[list[int]]) -> tuple[list[int], Memory, int]:
        """Fresh per-run architectural state: ``(regs, memory, entry pc)``."""
        regs = [0] * 32
        regs[30] = STACK_BASE_ADDRESS
        memory = Memory()
        load_program_data(memory, self.program)
        if arguments:
            for index, value in enumerate(arguments[:6]):
                regs[16 + index] = to_signed(value)
        entry = self.program.entry
        if entry not in self._function_entry:
            raise SimulationError(f"entry function {entry!r} not found")
        regs[26] = self._stop_address
        return regs, memory, self._function_entry[entry]

    # ------------------------------------------------------------------
    # Reusing a traced run
    # ------------------------------------------------------------------
    def traced_run_key(self) -> tuple:
        """What ``run(collect_trace=True)`` of this machine depends on.

        The traced block program's source (its SHA-256) and constant pool
        without its callables (the address decoder), the initial memory
        image, the entry function and the machine's limits.  Source and
        pool spell out every instruction's semantics, uid and target, so
        two machines with equal keys run alike: the same output, counts,
        metas, memory column and shape counts.  Their traces differ only
        in the static side table and the address map, which
        :meth:`adopt_traced_run` takes from the machine.  The key hashes
        the generated text and compiles nothing: the machine's programs
        look their code up only when a run first binds them.
        """
        program = self._block_program(True)
        memory = Memory()
        load_program_data(memory, self.program)
        return (
            hashlib.sha256(program.source.encode()).digest(),
            tuple(const for const in program.consts if not callable(const)),
            tuple(sorted((number, bytes(page)) for number, page in memory._pages.items())),
            self.program.entry,
            self.max_instructions,
            self.wall_time_s,
            self.max_trace_bytes,
        )

    def adopt_traced_run(self, run: RunResult) -> RunResult:
        """``run`` as this machine's own ``run(collect_trace=True)``.

        ``run`` must be a traced run of a machine whose
        :meth:`traced_run_key` equals this one's; its trace is rebound
        to this machine's static side table and address map
        (:meth:`Trace.with_static`), so the result is what running this
        machine returns.
        """
        return RunResult(
            instructions=run.instructions,
            output=list(run.output),
            block_counts=dict(run.block_counts),
            halted=run.halted,
            trace=run.trace.with_static(self.static_info, self.address_by_uid),
            call_counts=dict(run.call_counts),
        )

    def narrowing_holds(self, run: RunResult) -> bool:
        """True when ``run`` shows that this machine's narrowed widths kept
        every value, so that it may adopt ``run`` (:meth:`adopt_traced_run`).

        ``run`` is a traced run of a machine whose program this one's
        equals but for the encoded widths of some instructions, and whose
        :meth:`traced_run_key` differs from this one's in the source
        digest alone.  Only the kinds of :data:`_WRAPPING_KINDS` read a
        width as they run.  Where one of them fell from W to W′, the
        run's shape counts must show that every result it recorded (for a
        CMOV: every moved value, taken or not) has at most W′/8
        significant bytes; a wider W′ than W fails.  Then wrapping to W′
        returns what wrapping to W did at every step, and by induction
        over the run both machines step through equal states (the proof
        is in ``docs/simulator.md``).
        """
        donor = run.trace.static
        limits: dict[int, tuple[int, bool]] = {}
        for own in self.static_info:
            other = donor.get(own.uid)
            if other is None or other.opcode is not own.opcode:
                return False
            if own.width is other.width or own.kind not in _WRAPPING_KINDS:
                continue
            if own.width > other.width:
                return False
            limits[own.uid] = (own.width.bytes, own.kind is OpKind.CMOV)
        for uid, sources, result in run.trace.shape_counts():
            limit = limits.get(uid)
            if limit is not None and (sources[1] if limit[1] else result) > limit[0]:
                return False
        return True

    # ------------------------------------------------------------------
    # Resource budgets (wall time, trace bytes; see docs/resilience.md)
    # ------------------------------------------------------------------
    def _budget_deadline(self) -> Optional[float]:
        """Monotonic deadline for this run, or None when unbudgeted."""
        if self.wall_time_s is None:
            return None
        return time.monotonic() + self.wall_time_s

    def _check_budgets(
        self, deadline: Optional[float], trace: Optional[Trace], executed: int
    ) -> None:
        """Raise ResourceExhausted when a configured budget is blown.

        Called every ``_BUDGET_CHECK_STRIDE`` dynamic instructions from
        the hot loops — amortized like the instruction-limit check, so an
        unbudgeted run pays one boolean test per block and nothing else.
        """
        if deadline is not None and time.monotonic() > deadline:
            raise _resource_exhausted(
                f"wall-time budget of {self.wall_time_s:g}s exceeded "
                f"after {executed} dynamic instructions"
            )
        if trace is not None and self.max_trace_bytes is not None:
            held = trace.memory_bytes()
            if held > self.max_trace_bytes:
                raise _resource_exhausted(
                    f"trace budget of {self.max_trace_bytes} bytes exceeded "
                    f"({held} bytes held after {executed} dynamic instructions)"
                )

    def run_reference(
        self,
        collect_trace: bool = False,
        value_observer: Optional[ValueObserver] = None,
        arguments: Optional[list[int]] = None,
    ) -> RunResult:
        """:meth:`run` on the decode-every-step reference loop, its oracle."""
        regs, memory, pc = self._init_run_state(arguments)
        block_counts: dict[tuple[str, str], int] = {}
        call_counts: dict[str, int] = {}
        trace = self._new_trace() if collect_trace else None
        output: list[int] = []

        executed = 0
        for _ in self._reference_steps(
            regs, memory, pc, trace, output, block_counts, call_counts, value_observer
        ):
            executed += 1

        return RunResult(
            instructions=executed,
            output=output,
            block_counts=block_counts,
            halted=True,
            trace=trace,
            call_counts=call_counts,
        )

    def _reference_steps(
        self,
        regs: list[int],
        memory: Memory,
        pc: int,
        trace: Optional[Trace],
        output: list[int],
        block_counts: dict[tuple[str, str], int],
        call_counts: dict[str, int],
        value_observer: Optional[ValueObserver] = None,
        executed: int = 0,
    ):
        """Single-step generator form of the reference interpreter.

        Yields the next program counter after every executed instruction
        (``_HALT_PC`` after the halting one) and returns when the program
        halts; errors (limit exceeded, invalid jumps) propagate out of
        ``next()`` exactly as they propagate out of a full run.
        ``executed`` is the count of instructions already run, so the
        limit holds across a resume.  :meth:`run_reference` drains it to
        completion, the block tier steps it across mid-unit landings, and
        the lockstep co-execution harness (:mod:`repro.coexec`) advances
        it one instruction at a time against another tier that shares no
        state.
        """
        stop_address = self._stop_address
        emit = emit_mem = None
        if trace is not None:
            emit, emit_mem = trace.emitters()
        watched = value_observer.watched_uids if value_observer is not None else frozenset()

        halted = False

        while True:
            if pc >= len(self._flat):
                raise SimulationError("program counter ran past the end of the program")
            function_name, block_label, inst = self._flat[pc]
            block_key = (function_name, block_label)
            if self._block_start[block_key] == pc:
                block_counts[block_key] = block_counts.get(block_key, 0) + 1

            executed += 1
            if executed > self.max_instructions:
                raise SimulationLimitExceeded(
                    f"exceeded the limit of {self.max_instructions} dynamic instructions"
                )

            next_pc = pc + 1
            taken: Optional[bool] = None
            mem_address: Optional[int] = None
            result: Optional[int] = None
            srcs: tuple[int, ...] = ()

            op = inst.op
            kind = inst.kind
            width = inst.width

            if kind is OpKind.ALU or kind is OpKind.MUL or kind is OpKind.LOGICAL or kind is OpKind.SHIFT:
                a = self._read(regs, inst.srcs[0])
                b = self._read(regs, inst.srcs[1])
                srcs = (a, b)
                result = _ARITH[op](a, b, width)
                self._write(regs, inst.dest, result)
            elif kind is OpKind.COMPARE:
                a = self._read(regs, inst.srcs[0])
                b = self._read(regs, inst.srcs[1])
                srcs = (a, b)
                result = _COMPARE[op](a, b)
                self._write(regs, inst.dest, result)
            elif kind is OpKind.CMOV:
                cond = self._read(regs, inst.srcs[0])
                value = self._read(regs, inst.srcs[1])
                old = self._read(regs, inst.dest)
                srcs = (cond, value, old)
                take = cond == 0 if op is Opcode.CMOVEQ else cond != 0
                result = wrap_to_width(value, width) if take else old
                self._write(regs, inst.dest, result)
            elif kind is OpKind.MASK or kind is OpKind.EXTEND:
                a = self._read(regs, inst.srcs[0])
                srcs = (a,)
                result = _MASK[op](a)
                self._write(regs, inst.dest, result)
            elif kind is OpKind.MOVE:
                if op is Opcode.LI:
                    result = to_signed(self._read(regs, inst.srcs[0]))
                elif op is Opcode.MOV:
                    a = self._read(regs, inst.srcs[0])
                    srcs = (a,)
                    result = a
                else:  # LDA
                    a = self._read(regs, inst.srcs[0])
                    offset = self._read(regs, inst.srcs[1])
                    srcs = (a,)
                    result = wrap_to_width(a + offset, Width.QUAD)
                self._write(regs, inst.dest, result)
            elif kind is OpKind.LOAD:
                base = self._read(regs, inst.srcs[0])
                offset = self._read(regs, inst.srcs[1])
                mem_address = (base + offset) & ((1 << 64) - 1)
                srcs = (base,)
                signed = op in (Opcode.LDW, Opcode.LDQ)
                result = memory.load(mem_address, inst.memory_width, signed)
                self._write(regs, inst.dest, result)
            elif kind is OpKind.STORE:
                value = self._read(regs, inst.srcs[0])
                base = self._read(regs, inst.srcs[1])
                offset = self._read(regs, inst.srcs[2])
                mem_address = (base + offset) & ((1 << 64) - 1)
                srcs = (value, base)
                memory.store(mem_address, value, inst.memory_width)
            elif kind is OpKind.BRANCH:
                if op is Opcode.BR:
                    taken = True
                else:
                    cond = self._read(regs, inst.srcs[0])
                    srcs = (cond,)
                    taken = _BRANCH[op](cond)
                if taken:
                    next_pc = self._block_start[(function_name, inst.target)]
            elif kind is OpKind.CALL:
                return_address = self.address_of_index(pc + 1)
                self._write(regs, inst.dest, return_address)
                result = return_address
                next_pc = self._function_entry[inst.target]
                call_counts[inst.target] = call_counts.get(inst.target, 0) + 1
                taken = True
            elif kind is OpKind.RETURN:
                address = self._read(regs, inst.srcs[0])
                srcs = (address,)
                taken = True
                if address == stop_address:
                    halted = True
                else:
                    next_pc = self.index_of_address(address)
            elif kind is OpKind.HALT:
                halted = True
            elif kind is OpKind.OUTPUT:
                value = self._read(regs, inst.srcs[0])
                srcs = (value,)
                output.append(value)
            elif kind is OpKind.NOP:
                pass
            else:  # pragma: no cover - all kinds handled above
                raise SimulationError(f"cannot execute {inst}")

            if inst.uid in watched and result is not None:
                value_observer.observe(inst.uid, result)

            if emit is not None:
                meta, values = pack_record(
                    inst.uid, srcs, result, taken, mem_address is not None
                )
                if mem_address is None:
                    emit(meta, values)
                else:
                    emit_mem(meta, values, mem_address)

            if halted:
                yield _HALT_PC
                return
            pc = next_pc
            yield pc

    # ------------------------------------------------------------------
    # Block dispatch
    # ------------------------------------------------------------------
    def _run_block(
        self,
        collect_trace: bool = False,
        value_observer: Optional[ValueObserver] = None,
        arguments: Optional[list[int]] = None,
    ) -> RunResult:
        """Block-compiled interpreter: straight-line code per basic block.

        The program is compiled to specialized Python source once per
        ``Machine`` and flavour (see :mod:`repro.sim.blockc`, whose
        process-wide code cache serves a rebuilt program's source) and
        only *bound* to the per-run state here, so repeated runs pay zero
        compilation.  The hot loop advances one basic block per
        iteration: the dynamic instruction-limit check is hoisted to
        block granularity (legal because a unit's length is fixed and
        nothing a partially executed block does is observable once
        ``SimulationLimitExceeded`` propagates — except by a value
        observer, which therefore sees a prefix ending at a unit
        boundary).
        """
        regs, memory, pc = self._init_run_state(arguments)
        block_counts: dict[tuple[str, str], int] = {}
        call_counts: dict[str, int] = {}
        trace = self._new_trace(values=False) if collect_trace else None
        output: list[int] = []

        observe = None
        watched: frozenset[int] = frozenset()
        if value_observer is not None:
            observe = value_observer.observe
            watched = frozenset(value_observer.watched_uids)
        program = self._block_program(collect_trace, watched)
        funcs, counts, resync = program.bind_run(
            regs, memory, output, block_counts, call_counts, trace, observe
        )
        lengths = program.lengths

        executed = 0
        limit = self.max_instructions
        deadline = self._budget_deadline()
        trace_cap = trace if self.max_trace_bytes is not None else None
        next_check = (
            _BUDGET_CHECK_STRIDE
            if deadline is not None or trace_cap is not None
            else None
        )
        try:
            while pc >= 0:
                unit = funcs[pc]
                if unit is None:
                    # A computed control transfer landed mid-unit (a
                    # return address nobody's call produced): step the
                    # reference loop on the shared state up to the next
                    # unit entry, then carry on block by block.  A return
                    # that keeps re-landing mid-unit never reaches an
                    # entry, so the budgets are probed here too.  The
                    # loop's ``emit`` counts each record's shape into the
                    # trace; the units' register sigs are refreshed
                    # before they resume.
                    for pc in self._reference_steps(
                        regs, memory, pc, trace, output, block_counts,
                        call_counts, value_observer, executed,
                    ):
                        executed += 1
                        if pc < 0 or funcs[pc] is not None:
                            break
                        if next_check is not None and executed >= next_check:
                            next_check = executed + _BUDGET_CHECK_STRIDE
                            self._check_budgets(deadline, trace_cap, executed)
                    if resync is not None:
                        resync()
                    continue
                executed += lengths[pc]
                if executed > limit:
                    raise SimulationLimitExceeded(
                        f"exceeded the limit of {self.max_instructions} dynamic instructions"
                    )
                if next_check is not None and executed >= next_check:
                    next_check = executed + _BUDGET_CHECK_STRIDE
                    self._check_budgets(deadline, trace_cap, executed)
                pc = unit()
        except IndexError:
            if 0 <= pc < len(funcs):
                raise
            raise SimulationError("program counter ran past the end of the program") from None

        if counts is not None:
            trace.adopt_shape_counts(
                expand_signatures(counts, program.unit_specs, program.key_caches)
            )
        return RunResult(
            instructions=executed,
            output=output,
            block_counts=block_counts,
            halted=True,
            trace=trace,
            call_counts=call_counts,
        )

    def _block_program(
        self, collect_trace: bool, watched: frozenset[int] = frozenset()
    ) -> BlockProgram:
        """The cached program of one flavour, generated on first use and
        compiled when a run first binds it."""
        key = (collect_trace, watched)
        program = self._block_programs.get(key)
        if program is None:
            program = compile_blocks(self, collect_trace, watched=watched)
            self._block_programs[key] = program
        return program

    # ------------------------------------------------------------------
    # Fused pipeline (simulate + time + account in one streaming pass)
    # ------------------------------------------------------------------
    def _run_fused(
        self,
        machine_config: Optional["MachineConfig"] = None,
        arguments: Optional[list[int]] = None,
        probe_sink: Optional[list] = None,
    ) -> RunResult:
        """Drive the fused tier (see :mod:`repro.sim.fusedc`).

        The hot loop is the block tier's, but the compiled units update
        the timing-kernel state and per-unit width-signature counts
        inline instead of emitting trace rows.  A mid-unit landing falls
        back to :meth:`_fused_fallback`, which is bit-identical by
        construction (compiled timing kernel + trace
        shape aggregation over a materialized run).  ``probe_sink``
        additionally collects one timing-counter snapshot per record —
        the hook ``repro.coexec.compare_fused`` bisects with.
        """
        from ..uarch.config import MachineConfig
        from ..uarch.tkernel import timing_from_counters
        from .fusedc import FusedOutcome, ShapeAggregate, fused_program_for

        config = machine_config if machine_config is not None else MachineConfig()
        probe = probe_sink is not None
        program = self._fused_programs.get((config, probe))
        if program is None:
            program = fused_program_for(self, config, probe=probe)
            self._fused_programs[(config, probe)] = program

        regs, memory, pc = self._init_run_state(arguments)
        block_counts: dict[tuple[str, str], int] = {}
        call_counts: dict[str, int] = {}
        output: list[int] = []
        funcs, collect, finalize = program.bind(
            regs,
            memory.load,
            memory.store,
            memory._pages.get,
            memory._page,
            output.append,
            block_counts,
            call_counts,
            program.consts,
            program.sig_cache.__getitem__,
            probe_sink.append if probe_sink is not None else None,
        )
        lengths = program.lengths

        executed = 0
        limit = self.max_instructions
        deadline = self._budget_deadline()
        next_check = _BUDGET_CHECK_STRIDE if deadline is not None else None
        try:
            # Mid-unit landings surface as calling the ``None`` slot —
            # keeping the per-iteration ``is None`` test out of the hot
            # loop — and are told apart from unit-internal TypeErrors by
            # inspecting the slot afterwards.
            while pc >= 0:
                executed += lengths[pc]
                if executed > limit:
                    raise SimulationLimitExceeded(
                        f"exceeded the limit of {self.max_instructions} dynamic instructions"
                    )
                if next_check is not None and executed >= next_check:
                    next_check = executed + _BUDGET_CHECK_STRIDE
                    self._check_budgets(deadline, None, executed)
                pc = funcs[pc]()
        except TypeError:
            if not (0 <= pc < len(funcs)) or funcs[pc] is not None:
                raise
            if probe:
                raise RuntimeError(
                    "fused probe run landed mid-unit; no per-record stream exists"
                ) from None
            # A computed control transfer landed mid-block.  The run is
            # deterministic, so rerunning it materialized from scratch
            # produces the identical outcome.
            return self._fused_fallback(config, arguments)
        except IndexError:
            if 0 <= pc < len(funcs):
                raise
            raise SimulationError("program counter ran past the end of the program") from None

        (counters,) = finalize()
        timing = timing_from_counters(counters, executed)
        # A program from the module cache may serve an identical rebuild,
        # whose uids are uniformly shifted from the compiling build's.
        uid_delta = self.static_info.uid_base - program.uid_base
        shapes = ShapeAggregate(
            self.static_info,
            expand_signatures(collect(), program.unit_specs, program.key_caches, uid_delta),
            executed,
        )
        return RunResult(
            instructions=executed,
            output=output,
            block_counts=block_counts,
            halted=True,
            trace=None,
            call_counts=call_counts,
            fused=FusedOutcome(timing=timing, shapes=shapes),
        )

    def _fused_fallback(
        self, config: "MachineConfig", arguments: Optional[list[int]]
    ) -> RunResult:
        """Materialized-oracle rerun presenting a fused result surface."""
        from .fusedc import outcome_from_trace

        run = self.run(collect_trace=True, arguments=arguments)
        run.fused = outcome_from_trace(run.trace, config)
        run.trace = None
        return run

    # ------------------------------------------------------------------
    # Register access
    # ------------------------------------------------------------------
    @staticmethod
    def _read(regs: list[int], operand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if operand.index == 31:
            return 0
        return regs[operand.index]

    @staticmethod
    def _write(regs: list[int], dest: Optional[Reg], value: int) -> None:
        if dest is None or dest.index == 31:
            return
        regs[dest.index] = to_signed(value)
