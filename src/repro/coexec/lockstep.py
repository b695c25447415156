"""Lockstep co-execution of two simulator tiers with first-divergence reports.

The :class:`Lockstep` driver runs two of the machine's dispatch tiers
(``reference``, ``block``, or one of them twice) over the same program, each
on its own private run state (registers, memory, trace, output, counters),
advancing them in *checkpoint units* — one instruction for the reference
tier, one compiled unit for the block tier — and comparing the architectural
state at every checkpoint:

* the emitted trace records (operand values, results, effective addresses,
  branch outcomes — every instruction emits exactly one record, so record
  index == dynamic step index),
* the program counter and the register file,
* the program output.

The first mismatch stops the run and becomes a structured
:class:`Divergence` (dynamic step index, basic block, instruction uid,
per-field expected/actual diff) instead of the end-of-run summary mismatch
the differential tests would otherwise report.  When both sides halt in
agreement the driver additionally compares final memory contents and the
block/call counters.

The block tier runs the value-bearing flavour of the block compiler
(:func:`~repro.sim.blockc.compile_blocks` with ``values=True``), which the
harness compiles for itself: :meth:`Machine.run` keeps no operand values
in its traces, so its records could not be compared.  The flavour shares
every line of instruction semantics with the production one and differs
only in its emission epilogues (arena appends instead of shape counts).

Tier errors are part of the comparison: the tiers promise *identical
exceptions* (same type, same args) for invalid programs and exceeded
instruction limits, but not identical partial traces once an error
propagates (the block tier hoists the limit check to block granularity), so
two runs that fail identically — with equal records over their common
prefix — count as agreement, while one-sided or differing failures are
reported as an ``outcome`` divergence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..ir import Program
from ..sim.blockc import BlockProgram, compile_blocks
from ..sim.machine import Machine, SimulationError, SimulationLimitExceeded
from ..sim.trace import FLAG_MEM, FLAG_RESULT, Trace, _SRC_SHIFT
from .inject import Fault, compile_faulty_block_program, resolve_fault_uid

__all__ = ["DISPATCH_TIERS", "Divergence", "Lockstep", "first_divergence"]

#: The simulator tiers lockstep can pit against each other: the block
#: tier of :meth:`Machine.run` and the loop of :meth:`Machine.run_reference`.
DISPATCH_TIERS = ("block", "reference")

#: TraceRecord fields, in the order they appear in the named tuple.
_RECORD_FIELDS = (
    "uid",
    "address",
    "srcs",
    "result",
    "mem_address",
    "taken",
    "next_address",
)


def _jsonify(value):
    """Make a compared value JSON-representable (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


@dataclass
class Divergence:
    """The first observable disagreement between two co-executed runs.

    ``kind`` classifies what diverged first:

    * ``record`` — a trace record differs (the common case: wrong result,
      operand, address or branch outcome at one dynamic instruction),
    * ``control`` — one side executed past the other's clean halt, or the
      program counters split without a record-level difference,
    * ``registers`` / ``output`` / ``memory`` / ``counters`` —
      architectural state differs although the records agree,
    * ``outcome`` — the runs failed differently (or only one failed).

    ``step`` is the 0-based dynamic instruction index of the divergence,
    ``uid`` / ``block`` locate the static instruction when one is
    attributable, and ``fields`` maps each differing field to its
    ``[expected, actual]`` pair (expected = first tier, actual = second).
    """

    kind: str
    step: int
    tiers: tuple[str, str]
    uid: Optional[int] = None
    block: Optional[tuple[str, str]] = None
    fields: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Hashable identity used to decide two divergences are the same.

        Instruction uids are allocated from a process-global counter, so
        the same program assembled twice (or in another process — e.g. a
        reproducer replay) carries different uids for identical
        instructions.  The signature therefore identifies the static
        site by ``block`` and treats uid-valued diffs as presence-only.
        """
        return (
            self.kind,
            self.step,
            tuple(self.block) if self.block else None,
            tuple(
                sorted(
                    (name, None if name == "uid" else repr(pair))
                    for name, pair in self.fields.items()
                )
            ),
        )

    def describe(self) -> str:
        where = f"step {self.step}"
        if self.uid is not None:
            where += f", uid {self.uid}"
        if self.block is not None:
            where += f", block {self.block[0]}/{self.block[1]}"
        lines = [
            f"{self.kind} divergence between tiers {self.tiers[0]} and {self.tiers[1]} at {where}"
        ]
        for name, (expected, actual) in sorted(self.fields.items()):
            lines.append(f"  {name}: {self.tiers[0]}={expected!r} {self.tiers[1]}={actual!r}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "step": self.step,
            "tiers": list(self.tiers),
            "uid": self.uid,
            "block": list(self.block) if self.block else None,
            "fields": {name: _jsonify(list(pair)) for name, pair in self.fields.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Divergence":
        return cls(
            kind=payload["kind"],
            step=payload["step"],
            tiers=tuple(payload["tiers"]),
            uid=payload["uid"],
            block=tuple(payload["block"]) if payload.get("block") else None,
            fields={name: list(pair) for name, pair in payload.get("fields", {}).items()},
        )


class _Cursor:
    """One tier's resumable execution over its own private run state.

    Every tier drives the machine's *own* code — the reference tier
    through the single-step generator (:meth:`Machine._reference_steps`),
    the block tier through a bound value-bearing :class:`BlockProgram`,
    whose units differ from ``Machine.run``'s only in their emission
    epilogues — so lockstep observes the semantics and the dispatch the
    normal ``Machine.run`` paths execute, including the block tier's
    mid-unit landing pad, which steps the reference generator up to the
    next unit entry.
    """

    def __init__(
        self,
        machine: Machine,
        tier: str,
        arguments: Optional[list[int]] = None,
        block_program: Optional[BlockProgram] = None,
    ) -> None:
        if tier not in DISPATCH_TIERS:
            raise ValueError(f"unknown dispatch tier {tier!r}; expected one of {DISPATCH_TIERS}")
        self.machine = machine
        self.tier = tier
        self.regs, self.memory, self.pc = machine._init_run_state(arguments)
        self.trace: Trace = machine._new_trace()
        self.output: list[int] = []
        self.block_counts: dict[tuple[str, str], int] = {}
        self.call_counts: dict[str, int] = {}
        self.executed = 0
        self.halted = False
        self.error: Optional[BaseException] = None
        self._limit = machine.max_instructions
        self._gen = None
        self._funcs = None
        self._lengths = None
        if tier == "reference":
            self._gen = self._reference_steps()
        else:
            self._funcs, _counts, _resync = block_program.bind_run(
                self.regs, self.memory, self.output, self.block_counts, self.call_counts, self.trace
            )
            self._lengths = block_program.lengths

    @property
    def live(self) -> bool:
        return not self.halted and self.error is None

    def _reference_steps(self):
        return self.machine._reference_steps(
            self.regs,
            self.memory,
            self.pc,
            self.trace,
            self.output,
            self.block_counts,
            self.call_counts,
            None,
            self.executed,
        )

    def advance_unit(self) -> int:
        """Execute one checkpoint unit; returns instructions executed.

        One instruction for the reference tier, one compiled unit for the
        block tier (one instruction at a time from a mid-unit landing up
        to the next unit entry, exactly like ``Machine._run_block``).
        Any tier failure is captured as this cursor's ``error`` outcome.
        """
        if not self.live:
            return 0
        try:
            if self._gen is not None:
                return self._step_reference()
            return self._step_block()
        except Exception as exc:  # the outcome side of the comparison
            self.error = exc
            return 0

    def _step_reference(self) -> int:
        try:
            self.pc = next(self._gen)
        except StopIteration:  # pragma: no cover - halt yields first
            self.halted = True
            return 0
        self.executed += 1
        if self.pc < 0:
            self.halted = True
        elif (
            self._funcs is not None
            and self.pc < len(self._funcs)
            and self._funcs[self.pc] is not None
        ):
            self._gen = None  # a unit entry: back on the block units
        return 1

    def _step_block(self) -> int:
        if not 0 <= self.pc < len(self._funcs):
            raise SimulationError("program counter ran past the end of the program")
        unit = self._funcs[self.pc]
        if unit is None:
            # A computed control transfer landed mid-unit: the real tier
            # steps the reference loop on the shared state up to the next
            # unit entry — mirror that.
            self._gen = self._reference_steps()
            return self._step_reference()
        count = self._lengths[self.pc]
        self.executed += count
        if self.executed > self._limit:
            raise SimulationLimitExceeded(
                f"exceeded the limit of {self._limit} dynamic instructions"
            )
        self.pc = unit()
        if self.pc < 0:
            self.halted = True
        return count


class Lockstep:
    """Co-execute two dispatch tiers and report their first divergence.

    Args:
        program: the program to run (both tiers share its static form).
        tiers: an ordered pair from :data:`DISPATCH_TIERS`;
            the first tier is reported as *expected*, the second as
            *actual*.  The same tier may appear twice (useful with a
            seeded fault).
        max_instructions: per-run dynamic instruction limit.
        arguments: optional entry-function arguments, as in ``Machine.run``.
        fault: optional seeded single-instruction semantic fault
            (:class:`~repro.coexec.inject.Fault`), compiled into the
            **second** tier, which must be ``block``.
    """

    def __init__(
        self,
        program: Program,
        tiers: tuple[str, str] = ("reference", "block"),
        max_instructions: int = 20_000_000,
        arguments: Optional[list[int]] = None,
        fault: Optional[Fault] = None,
    ) -> None:
        if len(tiers) != 2:
            raise ValueError(f"lockstep compares exactly two tiers, got {tiers!r}")
        for tier in tiers:
            if tier not in DISPATCH_TIERS:
                raise ValueError(
                    f"unknown dispatch tier {tier!r}; expected one of {DISPATCH_TIERS}"
                )
        self.tiers = tuple(tiers)
        self.arguments = arguments
        self.fault = fault
        self.machine = Machine(program, max_instructions=max_instructions)
        self._faulty_program: Optional[BlockProgram] = None
        self._clean_program: Optional[BlockProgram] = None
        if fault is not None:
            if self.tiers[1] != "block":
                raise ValueError(
                    "a seeded fault mutates the block compiler, so the second tier "
                    f"must be 'block' (got {self.tiers[1]!r})"
                )
            uid = resolve_fault_uid(fault, program)
            if uid is None:
                raise ValueError(f"fault site {fault} not found or not mutable")
            self.fault_uid = uid
            self._faulty_program = compile_faulty_block_program(self.machine, uid, fault.mutation)
        # The fault replaces the second tier's program; any other block
        # tier runs the clean one.
        if "block" in (self.tiers if fault is None else self.tiers[:1]):
            self._clean_program = compile_blocks(self.machine, True, values=True)

    # ------------------------------------------------------------------
    def run(self) -> Optional[Divergence]:
        """Co-execute both tiers; None on agreement, else the first divergence."""
        a = _Cursor(self.machine, self.tiers[0], self.arguments, self._clean_program)
        b = _Cursor(
            self.machine,
            self.tiers[1],
            self.arguments,
            self._clean_program if self.fault is None else self._faulty_program,
        )
        # Compared-prefix cursors into the raw trace columns: record index,
        # value-arena offset, memory-address offset.  Comparing the columns
        # directly keeps the agreement path O(n) overall — the per-record
        # view caches assume a finished trace and are only materialized
        # once a divergence has been localized (the run stops there).
        self._ws = self._vws = self._mws = 0
        while a.live or b.live:
            if a.live:
                a.advance_unit()
            if b.live:
                if b.executed < a.executed:
                    while b.live and b.executed < a.executed:
                        b.advance_unit()
                elif not a.live:
                    # The first tier is finished; let the second run on so a
                    # late halt shows up as extra records, not a hang.
                    b.advance_unit()
            divergence = self._checkpoint(a, b)
            if divergence is not None:
                return divergence
        return self._final(a, b)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def _locate(self, uid: Optional[int]) -> Optional[tuple[str, str]]:
        if uid is None:
            return None
        entry = self.machine.static_info.get(uid)
        if entry is None:
            return None
        return (entry.function, entry.block)

    def _record_divergence(self, a: _Cursor, b: _Cursor, index: int) -> Divergence:
        # Materializing the record view is only safe once emission has
        # stopped mattering — the run ends at this divergence — so drop
        # the traces' (stale) derived caches first.
        a.trace.invalidate_aggregation_caches()
        b.trace.invalidate_aggregation_caches()
        record_a = a.trace[index]
        record_b = b.trace[index]
        fields = {
            name: [_jsonify(va), _jsonify(vb)]
            for name, va, vb in zip(_RECORD_FIELDS, record_a, record_b)
            if va != vb
        }
        return Divergence(
            kind="record",
            step=index,
            tiers=self.tiers,
            uid=record_a.uid,
            block=self._locate(record_a.uid),
            fields=fields,
        )

    def _compare_records(self, a: _Cursor, b: _Cursor, end: int) -> Optional[Divergence]:
        """Compare the raw trace columns over ``[self._ws, end)``.

        Advances the compared-prefix cursors on agreement; on mismatch
        localizes the first differing record and reports it.  Works on
        the columnar internals (``_rows``/``_arena``/``_mem``/``_big``)
        because both traces come from the same machine: equal rows imply
        equal uids, flags and (derived) addresses, and equal per-record
        value counts, so the arena and memory columns line up.
        """
        ws = self._ws
        if ws >= end:
            return None
        rows_a, rows_b = a.trace._rows, b.trace._rows
        if rows_a[ws:end] != rows_b[ws:end]:
            index = next(i for i in range(ws, end) if rows_a[i] != rows_b[i])
            return self._record_divergence(a, b, index)
        values = 0
        mems = 0
        for meta in rows_a[ws:end]:
            flags = meta & 0xFF
            values += ((flags >> _SRC_SHIFT) & 7) + (1 if flags & FLAG_RESULT else 0)
            if flags & FLAG_MEM:
                mems += 1
        v_end = self._vws + values
        m_end = self._mws + mems
        arena_a, arena_b = a.trace._arena, b.trace._arena
        big_a, big_b = a.trace._big, b.trace._big
        arena_differs = arena_a[self._vws : v_end] != arena_b[self._vws : v_end]
        if not arena_differs and (big_a or big_b):
            window_a = {k: v for k, v in big_a.items() if self._vws <= k < v_end}
            window_b = {k: v for k, v in big_b.items() if self._vws <= k < v_end}
            arena_differs = window_a != window_b
        mem_a, mem_b = a.trace._mem, b.trace._mem
        mem_differs = mem_a[self._mws : m_end] != mem_b[self._mws : m_end]
        if arena_differs or mem_differs:
            position, mem_cursor = self._vws, self._mws
            for index in range(ws, end):
                flags = rows_a[index] & 0xFF
                count = ((flags >> _SRC_SHIFT) & 7) + (1 if flags & FLAG_RESULT else 0)
                for offset in range(position, position + count):
                    va = big_a.get(offset, arena_a[offset])
                    vb = big_b.get(offset, arena_b[offset])
                    if va != vb:
                        return self._record_divergence(a, b, index)
                if flags & FLAG_MEM:
                    if mem_a[mem_cursor] != mem_b[mem_cursor]:
                        return self._record_divergence(a, b, index)
                    mem_cursor += 1
                position += count
            raise AssertionError("column mismatch did not localize to a record")
        self._ws, self._vws, self._mws = end, v_end, m_end
        return None

    def _checkpoint(self, a: _Cursor, b: _Cursor) -> Optional[Divergence]:
        len_a, len_b = len(a.trace._rows), len(b.trace._rows)
        end = min(len_a, len_b)
        divergence = self._compare_records(a, b, end)
        if divergence is not None:
            return divergence
        if len_a != len_b:
            # The common prefix agrees but one side produced more records.
            # That is only a divergence when the shorter side stopped
            # *cleanly* — a failed run legitimately truncates its trace
            # (the block tier's hoisted limit check), and the two errors
            # are compared in the final phase instead.
            short, long = (a, b) if len_a < len_b else (b, a)
            if short.halted and short.error is None:
                long.trace.invalidate_aggregation_caches()
                extra = long.trace[end]
                # The record tuples get their (process-global, unstable)
                # uid stripped — the divergence's own uid/block carry it.
                fields = {
                    "executed": [a.executed, b.executed],
                    "record": [
                        _jsonify((None,) + tuple(a.trace[end])[1:]) if len_a > end else None,
                        _jsonify((None,) + tuple(b.trace[end])[1:]) if len_b > end else None,
                    ],
                }
                return Divergence(
                    kind="control",
                    step=end,
                    tiers=self.tiers,
                    uid=extra.uid,
                    block=self._locate(extra.uid),
                    fields=fields,
                )
            return None
        if a.live and b.live and a.executed == b.executed:
            if a.pc != b.pc:
                return Divergence(
                    kind="control",
                    step=a.executed,
                    tiers=self.tiers,
                    fields={"pc": [a.pc, b.pc]},
                )
            if a.regs != b.regs:
                fields = {
                    f"r{i}": [a.regs[i], b.regs[i]]
                    for i in range(32)
                    if a.regs[i] != b.regs[i]
                }
                return Divergence(
                    kind="registers", step=a.executed, tiers=self.tiers, fields=fields
                )
            if a.output != b.output:
                return Divergence(
                    kind="output",
                    step=a.executed,
                    tiers=self.tiers,
                    fields={"output": [_jsonify(tuple(a.output)), _jsonify(tuple(b.output))]},
                )
        return None

    def _final(self, a: _Cursor, b: _Cursor) -> Optional[Divergence]:
        divergence = self._checkpoint(a, b)
        if divergence is not None:
            return divergence
        if a.error is not None or b.error is not None:
            same = (
                a.error is not None
                and b.error is not None
                and type(a.error) is type(b.error)
                and a.error.args == b.error.args
            )
            if same:
                return None
            return Divergence(
                kind="outcome",
                step=min(a.executed, b.executed),
                tiers=self.tiers,
                fields={
                    "error": [
                        repr(a.error) if a.error is not None else None,
                        repr(b.error) if b.error is not None else None,
                    ],
                    "executed": [a.executed, b.executed],
                },
            )
        if a.output != b.output:
            return Divergence(
                kind="output",
                step=a.executed,
                tiers=self.tiers,
                fields={"output": [_jsonify(tuple(a.output)), _jsonify(tuple(b.output))]},
            )
        if a.regs != b.regs:
            fields = {
                f"r{i}": [a.regs[i], b.regs[i]] for i in range(32) if a.regs[i] != b.regs[i]
            }
            return Divergence(kind="registers", step=a.executed, tiers=self.tiers, fields=fields)
        memory = _memory_difference(a, b)
        if memory is not None:
            return Divergence(
                kind="memory", step=a.executed, tiers=self.tiers, fields=memory
            )
        if a.block_counts != b.block_counts or a.call_counts != b.call_counts:
            fields = {}
            for key in sorted(set(a.block_counts) | set(b.block_counts)):
                va, vb = a.block_counts.get(key), b.block_counts.get(key)
                if va != vb:
                    fields[f"block {key[0]}/{key[1]}"] = [va, vb]
            for key in sorted(set(a.call_counts) | set(b.call_counts)):
                va, vb = a.call_counts.get(key), b.call_counts.get(key)
                if va != vb:
                    fields[f"calls {key}"] = [va, vb]
            return Divergence(kind="counters", step=a.executed, tiers=self.tiers, fields=fields)
        return None


def _memory_difference(a: _Cursor, b: _Cursor) -> Optional[dict]:
    """First differing byte between the two final memories, or None.

    Pages are compared with absent == all-zeroes, because the tiers may
    legitimately differ in which untouched pages they materialized.
    """
    pages_a = a.memory._pages
    pages_b = b.memory._pages
    zero = None
    for index in sorted(set(pages_a) | set(pages_b)):
        page_a = pages_a.get(index)
        page_b = pages_b.get(index)
        if page_a is None or page_b is None:
            if zero is None:
                size = len(page_a if page_a is not None else page_b)
                zero = bytes(size)
            page_a = page_a if page_a is not None else zero
            page_b = page_b if page_b is not None else zero
        if bytes(page_a) == bytes(page_b):
            continue
        for offset, (byte_a, byte_b) in enumerate(zip(page_a, page_b)):
            if byte_a != byte_b:
                address = index * len(page_a) + offset
                return {f"mem[{address:#x}]": [byte_a, byte_b]}
    return None


def first_divergence(
    program: Program,
    tiers: tuple[str, str] = ("reference", "block"),
    max_instructions: int = 20_000_000,
    arguments: Optional[list[int]] = None,
    fault: Optional[Fault] = None,
) -> Optional[Divergence]:
    """Convenience wrapper: build a :class:`Lockstep` and run it once."""
    return Lockstep(
        program,
        tiers=tiers,
        max_instructions=max_instructions,
        arguments=arguments,
        fault=fault,
    ).run()


def program_digest(source: str) -> str:
    """Short stable digest of a program's text (reproducer naming)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
