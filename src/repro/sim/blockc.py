"""Block compiler: straight-line Python per basic block.

The tier :meth:`Machine.run <repro.sim.machine.Machine.run>` runs.  Where
the reference loop decodes every instruction on every dynamic step, this
tier generates specialized Python **source** for every basic block of the
program — instruction semantics inlined in order, register accesses
hoisted into SSA locals, immediates/branch targets/call return addresses
baked in as literals — generates it once per :class:`Machine`,
compiles each distinct source once per process (see below), and drives
a block-level hot loop, so dispatch, fetch/decode and the
dynamic-instruction limit check amortize over whole blocks.

Trace emission is block-batched.  At compile time every block's packed meta
words (``uid << 8 | flags``, the exact encoding of
:func:`repro.sim.trace.pack_record`) are precomputed as ``array('q')``
*templates*; per execution the generated code appends a whole template with
one ``array.extend``, and each memory access's address to the sparse memory
column, through :meth:`Trace.block_emitters`.  A block ending in a
conditional branch gets two templates (taken / not taken) that differ only
in the final meta's flag bits.

The production traced flavour keeps no operand values: it counts record
**shapes** as it runs, so the trace's consumers never walk its columns.
Each executed unit packs the significant-byte count of every value its
records carry into one int signature (:func:`_sig_count_lines`, the
emitter the fused tier shares) and bumps that signature's count in a
per-unit dict; :func:`expand_signatures` turns the counts into the
per-record ``(uid, source sigs, result sig)`` keys of
:meth:`Trace.shape_counts <repro.sim.trace.Trace.shape_counts>`.  The
sig of a value a register held at unit entry comes from the per-register
cache ``rsig``, which every counting write-back refreshes; after a
mid-unit landing stepped the reference loop, the driver refreshes it from
the registers (``resync``, returned by :meth:`BlockProgram.bind_run`).

The value-bearing traced flavour (``values=True``) counts nothing and
stores the values instead: the block's values gathered into a single
tuple and appended to the trace's value arena with one ``extend`` through
:meth:`Trace.block_value_emitters`, whose ``spill_values`` closure
provides the same exact int64-overflow fallback the per-record emitters
use.  Only the lockstep co-execution harness (:mod:`repro.coexec`)
compiles it, for its record-by-record comparison with the reference loop.

Value observers are a compile input too: for a ``watched`` uid set the
generated code calls ``observe(uid, value)`` right after each watched
instruction that produces a result, with the value its trace record
carries as the result.  Each ``(collect_trace, watched)`` pair is its own
program flavour.  The text names a watched uid relative to the build's
``static_info.uid_base`` (``observe(_ub + 12, t3)``), and ``_ub`` is bound
through the constant pool, so an observer still receives its own build's
absolute uids while two builds of one program share one source text.

Compiled programs carry **no per-run state**: the generated module defines a
single ``bind(...)`` factory taking the run's registers, memory accessors,
output/counter sinks, trace emitters, observer and signature-count dicts,
whose nested unit functions close over those arguments — binding a run is
pure function creation, no source generation and no ``compile()``.  The
:class:`BlockProgram` (source, bind factory, constant pool, per-entry
instruction counts) is cached on the :class:`Machine` and shared across
runs.  A program looks its code up when it is first bound, so one whose
text is only hashed (``Machine.traced_run_key``) is never compiled.

Nothing that differs between two builds of one program is baked into
the source either: meta templates (which hold the uids), lookup tables
and the observer calls' uid base all arrive through the constant pool.
So the code object ``compile()`` returns is cached **process-wide**,
keyed by the SHA-256 of the full generated source (:func:`_code_for`):
a rebuilt workload — every cold evaluation builds its program afresh —
generates its source again but compiles nothing, and two programs that
differ only in data (a workload's ``vrp`` build and a ``vrs`` build in
which VRS specialized nothing) share one code object.

Memory traffic is specialized too: the paged little-endian layout of
:class:`~repro.sim.memory.Memory` is inlined for accesses that stay inside
one materialized page (a dict probe, a slice and ``int.from_bytes`` /
``int.to_bytes``), with the bound ``Memory.load``/``store`` methods kept as
the bit-identical slow path for page-crossing or first-touch accesses.

Compilation **units** are the maximal straight-line spans the simulator can
enter: one per basic-block start plus one per call-return site (the
instruction after a ``jsr``, which a ``ret`` re-enters mid-block).  A unit
ends at the first control-flow instruction or at the next entry point
(fallthrough).  Every unit has a fixed dynamic length, which is what lets
the driver hoist the instruction-limit check to block granularity.

Semantics, trace contents, observed values and failure behaviour are
locked bit-for-bit against the reference tier by
``tests/test_sim_machine.py`` and ``tests/test_trace_columnar.py``.  This
module is part of the simulator-side code fingerprint
(``repro/experiments/store.py``), so editing the compiler retires all
stored binary trace snapshots instead of replaying stale ones.
"""

from __future__ import annotations

import hashlib
import re
import threading
from array import array
from dataclasses import dataclass, field
from types import CodeType
from typing import TYPE_CHECKING, Callable

from ..isa import Imm, Instruction, Opcode, OpKind, Width, significant_bytes, to_signed
from .memory import _PAGE_MASK, _PAGE_SHIFT, _PAGE_SIZE
from .trace import _SRC_SHIFT, FLAG_MEM, FLAG_RESULT, FLAG_TAKEN, FLAG_TAKEN_TRUE, _SigCache

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .machine import Machine
    from .memory import Memory
    from .trace import Trace

__all__ = ["BlockProgram", "compile_blocks", "expand_signatures"]

_TAKEN = FLAG_TAKEN | FLAG_TAKEN_TRUE
_NOT_TAKEN = FLAG_TAKEN

_UINT64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1

#: Instruction kinds that end a compilation unit.
_CONTROL_KINDS = (OpKind.BRANCH, OpKind.CALL, OpKind.RETURN, OpKind.HALT)

#: Names bound to the four :class:`Width` members inside ``bind``.
_WIDTH_NAMES = {Width.BYTE: "_W8", Width.HALF: "_W16", Width.WORD: "_W32", Width.QUAD: "_W64"}


def _wrap_expr(expr: str, width: Width) -> str:
    """Inline form of :func:`~repro.isa.widths.wrap_to_width`.

    ``((x & mask) ^ half) - half`` sign-extends the masked value — the
    same mapping as the mask/compare implementation in ``wrap_to_width``,
    verified bit-for-bit by the differential tests.
    """
    mask = (1 << width.value) - 1
    half = 1 << (width.value - 1)
    return f"((({expr}) & {mask:#x} ^ {half:#x}) - {half:#x})"


def _sext_expr(expr: str, bits: int) -> str:
    """Inline form of :func:`~repro.isa.widths.to_signed_n`."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    return f"((({expr}) & {mask:#x} ^ {half:#x}) - {half:#x})"


#: op → f(a, b, width) producing the inline expression of the opcode's
#: two-operand semantics (mirrors ``ARITHMETIC_SEMANTICS``).
_ARITH_EXPR: dict[Opcode, Callable[[str, str, Width], str]] = {
    Opcode.ADD: lambda a, b, w: _wrap_expr(f"{a} + {b}", w),
    Opcode.SUB: lambda a, b, w: _wrap_expr(f"{a} - {b}", w),
    Opcode.MUL: lambda a, b, w: _wrap_expr(f"{a} * {b}", w),
    Opcode.AND: lambda a, b, w: _wrap_expr(f"{a} & {b}", w),
    Opcode.OR: lambda a, b, w: _wrap_expr(f"{a} | {b}", w),
    Opcode.XOR: lambda a, b, w: _wrap_expr(f"{a} ^ {b}", w),
    Opcode.BIC: lambda a, b, w: _wrap_expr(f"{a} & ~{b}", w),
    Opcode.SLL: lambda a, b, w: _wrap_expr(f"{a} << ({b} & 63)", w),
    Opcode.SRL: lambda a, b, w: _wrap_expr(f"({a} & {_UINT64:#x}) >> ({b} & 63)", w),
    Opcode.SRA: lambda a, b, w: _wrap_expr(f"{a} >> ({b} & 63)", w),
}

#: op → f(a, b) for comparisons (mirrors ``COMPARE_SEMANTICS``).
_COMPARE_EXPR: dict[Opcode, Callable[[str, str], str]] = {
    Opcode.CMPEQ: lambda a, b: f"(1 if {a} == {b} else 0)",
    Opcode.CMPNE: lambda a, b: f"(1 if {a} != {b} else 0)",
    Opcode.CMPLT: lambda a, b: f"(1 if {a} < {b} else 0)",
    Opcode.CMPLE: lambda a, b: f"(1 if {a} <= {b} else 0)",
    Opcode.CMPULT: lambda a, b: f"(1 if ({a} & {_UINT64:#x}) < ({b} & {_UINT64:#x}) else 0)",
    Opcode.CMPULE: lambda a, b: f"(1 if ({a} & {_UINT64:#x}) <= ({b} & {_UINT64:#x}) else 0)",
}

#: op → f(a) for masks and sign extension (mirrors ``MASK_SEMANTICS``).
_MASK_EXPR: dict[Opcode, Callable[[str], str]] = {
    Opcode.MSKB: lambda a: f"({a} & 0xff)",
    Opcode.MSKW: lambda a: f"({a} & 0xffff)",
    Opcode.MSKL: lambda a: f"({a} & 0xffffffff)",
    Opcode.SEXTB: lambda a: _sext_expr(a, 8),
    Opcode.SEXTW: lambda a: _sext_expr(a, 16),
    Opcode.SEXTL: lambda a: _sext_expr(a, 32),
}

#: op → f(cond) for conditional-branch predicates (mirrors ``BRANCH_SEMANTICS``).
_PRED_EXPR: dict[Opcode, Callable[[str], str]] = {
    Opcode.BEQ: lambda c: f"{c} == 0",
    Opcode.BNE: lambda c: f"{c} != 0",
    Opcode.BLT: lambda c: f"{c} < 0",
    Opcode.BLE: lambda c: f"{c} <= 0",
    Opcode.BGT: lambda c: f"{c} > 0",
    Opcode.BGE: lambda c: f"{c} >= 0",
}

#: Inline form of ``Trace``'s unsigned→signed address reinterpretation.
_ENCODE_MEM = f"({{m}} - {1 << 64} if {{m}} > {_INT64_MAX} else {{m}})"

#: Matches value expressions that are compile-time integer literals —
#: immediates ``(42)``, folded raw constants ``(-5)`` and the hardwired
#: zero register ``0`` — whose significant-byte size folds at codegen.
_CONST_VALUE = re.compile(r"^\(?(-?\d+)\)?$")

#: Matches a register-entry value name emitted by the unit writer
#: (``rN`` is only ever the value ``regs[N]`` held at unit entry), whose
#: significance is already cached in the ``rsig`` list.
_REG_VALUE = re.compile(r"^r(\d+)$")


@dataclass
class BlockProgram:
    """One compiled program: shareable across every run of a ``Machine``.

    :attr:`bind` is the generated per-run factory, this program's own
    function over the process-wide code object of ``source``; ``consts``
    the constant pool it unpacks (lookup helpers, :class:`Width` members,
    meta templates, an observer flavour's uid base); ``lengths`` maps
    each entry pc to its unit's fixed dynamic instruction count (0 for
    non-entry pcs); ``source`` the generated Python text (deterministic,
    useful for debugging and covered by the simulator code fingerprint
    via this module's source).
    ``values`` marks the value-bearing traced flavour; ``counts_shapes``
    the value-free traced flavour, which counts signatures and whose
    ``unit_specs`` and ``key_caches`` feed :func:`expand_signatures`.
    """

    consts: tuple
    lengths: list[int]
    entry_points: tuple[int, ...]
    source: str
    collect_trace: bool
    values: bool = False
    counts_shapes: bool = False
    unit_specs: tuple = ()
    key_caches: tuple = ()
    _bind: Callable | None = field(default=None, repr=False)

    @property
    def bind(self) -> Callable:
        """The per-run factory, its code looked up (:func:`_code_for`) on
        first use."""
        if self._bind is None:
            namespace: dict = {}
            exec(_code_for(self.source), namespace)
            self._bind = namespace["bind"]
        return self._bind

    def bind_run(
        self,
        regs: list[int],
        memory: "Memory",
        output: list[int],
        block_counts: dict,
        call_counts: dict,
        trace: "Trace | None" = None,
        observe: Callable[[int, int], None] | None = None,
    ) -> tuple[list, list[dict] | None, Callable[[], None] | None]:
        """Bind one run's state; returns ``(funcs, counts, resync)``.

        ``funcs`` is the unit table indexed by pc (``None`` slots are pcs
        inside a unit, where no unit starts); ``counts`` holds one
        signature-count dict per counted unit, filled as the run goes,
        and ``resync`` refreshes the units' per-register significance
        cache from ``regs`` — due whenever something other than a unit
        wrote the registers (both None unless the program counts
        shapes).  A traced program takes a trace of its own kind:
        value-bearing for the ``values`` flavour, value-free otherwise.
        """
        rows_extend = arena_extend = mem_append = spill = None
        if trace is not None:
            if trace.carries_values != self.values:
                raise ValueError(
                    f"a {'value-bearing' if self.values else 'value-free'} block "
                    "program must emit into a trace of the same kind"
                )
            rows_extend, mem_append = trace.block_emitters()
            if self.values:
                arena_extend, spill = trace.block_value_emitters()
        counts = sig_get = rsig = resync = None
        if self.counts_shapes:
            counts = [{} for _ in self.unit_specs]
            sig_get = _SigCache().__getitem__
            rsig = list(map(sig_get, regs))

            def resync() -> None:
                rsig[:] = map(sig_get, regs)

        funcs = self.bind(
            regs,
            memory.load,
            memory.store,
            memory._pages.get,
            memory._page,
            output.append,
            block_counts,
            call_counts,
            self.consts,
            rows_extend,
            arena_extend,
            mem_append,
            spill,
            observe,
            counts,
            sig_get,
            rsig,
        )
        return funcs, counts, resync


class _UnitWriter:
    """Codegen state for one compilation unit (SSA locals, values, metas).

    ``bump`` is the signature-count update of a shape-counting unit; a
    traced unit without one stores its values in the arena instead.
    ``finished`` is set once :meth:`epilogue_lines` emitted the end of a
    unit execution that survives.
    """

    def __init__(self, bump: list[str] | None = None) -> None:
        self.lines: list[str] = []
        self.current: dict[int, str] = {}
        self.written: dict[int, str] = {}
        self.values: list[str] = []
        self.mems: list[str] = []
        self.metas: list[int] = []
        self.bump = bump
        self.finished = False
        self._temp = 0

    # -- registers ------------------------------------------------------
    def read(self, index: int) -> str:
        if index == 31:
            return "0"
        name = self.current.get(index)
        if name is None:
            name = f"r{index}"
            self.lines.append(f"{name} = regs[{index}]")
            self.current[index] = name
        return name

    def operand(self, operand) -> str:
        if isinstance(operand, Imm):
            return f"({operand.value})"
        if operand.index == 31:
            return "0"
        return self.read(operand.index)

    def assign(self, expr: str) -> str:
        name = f"t{self._temp}"
        self._temp += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def write(self, dest, name: str) -> None:
        if dest is None or dest.index == 31:
            return
        self.current[dest.index] = name
        self.written[dest.index] = name

    def temp_name(self, prefix: str) -> str:
        name = f"{prefix}{self._temp}"
        self._temp += 1
        return name

    # -- epilogue pieces ------------------------------------------------
    def writeback_lines(self) -> list[str]:
        return [f"regs[{index}] = {name}" for index, name in sorted(self.written.items())]

    def emission_lines(self) -> list[str]:
        """Arena appends of a value-bearing unit, then the memory-column
        appends (rows templates are arm-specific)."""
        lines = []
        if self.values and self.bump is None:
            lines.append(f"_v = ({', '.join(self.values)},)")
            lines.append("try:")
            lines.append("    arena_extend(_v)")
            lines.append("except OverflowError:")
            lines.append("    spill(_v)")
        for name in self.mems:
            lines.append(f"mem_append({_ENCODE_MEM.format(m=name)})")
        return lines

    def epilogue_lines(self) -> list[str]:
        """Arena/memory appends, then the register write-backs — with the
        signature pack and ``bump`` between them in a counting unit."""
        self.finished = True
        if self.bump is None:
            return self.emission_lines() + self.writeback_lines()
        return self.emission_lines() + _sig_count_lines(self, self.bump)


def _sig_count_lines(unit: _UnitWriter, bump: list[str]) -> list[str]:
    """Signature pack, ``bump``, then the unit's register write-backs.

    The shape-signature emitter of both counting tiers (the traced block
    flavour and :mod:`repro.sim.fusedc`); ``bump`` is the tier's count
    update and reads the packed signature from ``_s``.
    """
    # Pack the unit's value signature into ONE int: value i's
    # significant-byte count (1..8, so it fits a nibble) lands at
    # bit 4*i.  Constant values fold into a single literal; a value
    # expression appearing at several positions costs one lookup,
    # multiplied onto all of its nibbles at once (no carries: every
    # nibble holds at most 8).  An int signature hashes and compares
    # much faster than a tuple.
    #
    # Register write-backs ride along so the per-register sig cache
    # ``rsig`` stays exact: a value read from ``regs[n]`` costs a
    # list index (``rsig[n]``) instead of a dict lookup, and every
    # write-back refreshes ``rsig`` with the sig its own result
    # already needed for the signature pack.
    written = sorted(unit.written.items())
    pre: list[str] = []
    cache: dict[str, str] = {}

    def base_expr(value):
        reg = _REG_VALUE.match(value)
        if reg is not None:
            return f"rsig[{reg.group(1)}]"
        return f"sig_get({value})"

    def hoisted_expr(value):
        # Snapshot into a local: shared between the pack and the
        # write-backs, and — for ``rsig[n]`` reads where register n
        # is itself rewritten below — safe against the refresh.
        expr = cache.get(value)
        if expr is None or not expr.startswith("_sg"):
            local = f"_sg{len(pre)}"
            pre.append(f"{local} = {base_expr(value)}")
            cache[value] = expr = local
        return expr

    wb_sigs = []
    for _index, name in written:
        match = _CONST_VALUE.match(name)
        if match is not None:
            wb_sigs.append(str(significant_bytes(int(match.group(1)))))
        else:
            wb_sigs.append(hoisted_expr(name))
    const_bits = 0
    positions: dict[str, list[int]] = {}
    for index, value in enumerate(unit.values):
        match = _CONST_VALUE.match(value)
        if match is not None:
            const_bits |= significant_bytes(int(match.group(1))) << (4 * index)
            continue
        expr = cache.get(value)
        if expr is None:
            # The pack runs before any write-back, so an inline
            # ``rsig[n]`` read here is safe even when n is written.
            cache[value] = expr = base_expr(value)
        positions.setdefault(expr, []).append(4 * index)
    parts = []
    for expr, shifts in positions.items():
        if len(shifts) == 1:
            shift = shifts[0]
            parts.append(expr if shift == 0 else f"{expr} << {shift}")
        else:
            parts.append(f"{expr} * {sum(1 << s for s in shifts)}")
    if const_bits or not parts:
        parts.append(str(const_bits))
    lines = pre + [f"_s = {' | '.join(parts)}"] + bump
    for (index, name), sig in zip(written, wb_sigs):
        lines.append(f"regs[{index}] = {name}; rsig[{index}] = {sig}")
    return lines


def _record_specs(metas: list[int]) -> tuple:
    """``(uid, start, end, has_result)`` per record of a unit's metas:
    the nibbles of the unit's packed signature that hold its values."""
    specs = []
    start = 0
    for meta in metas:
        has_result = bool(meta & FLAG_RESULT)
        end = start + (meta >> _SRC_SHIFT & 7) + has_result
        specs.append((meta >> 8, start, end, has_result))
        start = end
    return tuple(specs)


def expand_signatures(
    unit_counts, unit_specs: tuple, key_caches: tuple, uid_delta: int = 0
) -> dict[tuple[int, bytes, int], int]:
    """Expand per-unit signature counts into per-record shape counts.

    The key format of :meth:`Trace.shape_counts
    <repro.sim.trace.Trace.shape_counts>`.  Each unit's record specs
    carve a signature's nibbles back into ``(uid, srcs, result)`` shape
    keys, memoized per distinct signature in that unit's ``key_caches``
    dict.  ``uid_delta`` shifts the keys' uids (a fused program served
    from the module cache to an identical rebuild of its IR).
    """
    shapes: dict[tuple[int, bytes, int], int] = {}
    get = shapes.get
    for counts, specs, cache in zip(unit_counts, unit_specs, key_caches):
        cache_get = cache.get
        for sig, count in counts.items():
            keys = cache_get(sig)
            if keys is None:
                keys = tuple(
                    (
                        uid,
                        bytes((sig >> (4 * i)) & 15 for i in range(start, end - 1)),
                        (sig >> (4 * (end - 1))) & 15,
                    )
                    if has_result
                    else (
                        uid,
                        bytes((sig >> (4 * i)) & 15 for i in range(start, end)),
                        -1,
                    )
                    for uid, start, end, has_result in specs
                )
                cache[sig] = keys
            if uid_delta:
                keys = [(uid + uid_delta, sigs, rsig) for uid, sigs, rsig in keys]
            for key in keys:
                shapes[key] = get(key, 0) + count
    return shapes


def _gen_straightline(
    unit: _UnitWriter,
    inst: Instruction,
    trace: bool,
    mutate: Callable[[Instruction, str], str] | None = None,
) -> str | None:
    """Emit one non-control instruction into the unit.

    Mirrors the reference interpreter kind for kind: the same operand
    resolution, the same result normalization, the same per-record meta
    and value tuple.  Returns the expression of the value the trace
    records as the instruction's result (what a value observer sees), or
    None for kinds without a result.

    ``mutate`` is the fault-injection seam used by the lockstep
    co-execution harness (:mod:`repro.coexec`): it receives each
    result-producing instruction together with the generated result
    expression and returns the expression to compile — normally
    unchanged, corrupted for one seeded instruction.  It applies to the
    single-expression kinds (ALU/MUL/LOGICAL/SHIFT, COMPARE, CMOV,
    MASK/EXTEND and LDA); the mutated value flows into the register
    writeback, the trace record and every later use inside the unit,
    exactly as a miscompiled semantics bug would.
    """
    op = inst.op
    kind = inst.kind
    width = inst.width
    base_meta = inst.uid << 8

    if kind in (OpKind.ALU, OpKind.MUL, OpKind.LOGICAL, OpKind.SHIFT):
        a = unit.operand(inst.srcs[0])
        b = unit.operand(inst.srcs[1])
        expr = _ARITH_EXPR[op](a, b, width)
        if mutate is not None:
            expr = mutate(inst, expr)
        result = unit.assign(expr)
        unit.write(inst.dest, result)
        if trace:
            unit.values += [a, b, result]
            unit.metas.append(base_meta | FLAG_RESULT | 2 << 4)
        return result

    if kind is OpKind.COMPARE:
        a = unit.operand(inst.srcs[0])
        b = unit.operand(inst.srcs[1])
        expr = _COMPARE_EXPR[op](a, b)
        if mutate is not None:
            expr = mutate(inst, expr)
        result = unit.assign(expr)
        unit.write(inst.dest, result)
        if trace:
            unit.values += [a, b, result]
            unit.metas.append(base_meta | FLAG_RESULT | 2 << 4)
        return result

    if kind is OpKind.CMOV:
        cond = unit.operand(inst.srcs[0])
        value = unit.operand(inst.srcs[1])
        old = unit.read(inst.dest.index) if inst.dest is not None else "0"
        test = "==" if op is Opcode.CMOVEQ else "!="
        expr = f"({_wrap_expr(value, width)} if {cond} {test} 0 else {old})"
        if mutate is not None:
            expr = mutate(inst, expr)
        result = unit.assign(expr)
        unit.write(inst.dest, result)
        if trace:
            unit.values += [cond, value, old, result]
            unit.metas.append(base_meta | FLAG_RESULT | 3 << 4)
        return result

    if kind in (OpKind.MASK, OpKind.EXTEND):
        a = unit.operand(inst.srcs[0])
        expr = _MASK_EXPR[op](a)
        if mutate is not None:
            expr = mutate(inst, expr)
        result = unit.assign(expr)
        unit.write(inst.dest, result)
        if trace:
            unit.values += [a, result]
            unit.metas.append(base_meta | FLAG_RESULT | 1 << 4)
        return result

    if kind is OpKind.MOVE:
        if op is Opcode.LI:
            source = inst.srcs[0]
            if isinstance(source, Imm) or source.index == 31:
                raw = source.value if isinstance(source, Imm) else 0
                result = f"({to_signed(raw)})"
            else:
                # Register values already satisfy the signed-64 invariant,
                # so the reference loop's to_signed is the identity here.
                result = unit.read(source.index)
            unit.write(inst.dest, result)
            if trace:
                unit.values.append(result)
                unit.metas.append(base_meta | FLAG_RESULT)
            return result
        if op is Opcode.MOV:
            source = inst.srcs[0]
            if isinstance(source, Imm) or source.index == 31:
                # The trace records the raw bit pattern; the register
                # write normalizes to signed — both baked as constants.
                raw = source.value if isinstance(source, Imm) else 0
                unit.write(inst.dest, f"({to_signed(raw)})")
                if trace:
                    unit.values += [f"({raw})", f"({raw})"]
                    unit.metas.append(base_meta | FLAG_RESULT | 1 << 4)
                return f"({raw})"
            a = unit.read(source.index)
            unit.write(inst.dest, a)
            if trace:
                unit.values += [a, a]
                unit.metas.append(base_meta | FLAG_RESULT | 1 << 4)
            return a
        # LDA
        a = unit.operand(inst.srcs[0])
        offset = unit.operand(inst.srcs[1])
        expr = _wrap_expr(f"{a} + {offset}", Width.QUAD)
        if mutate is not None:
            expr = mutate(inst, expr)
        result = unit.assign(expr)
        unit.write(inst.dest, result)
        if trace:
            unit.values += [a, result]
            unit.metas.append(base_meta | FLAG_RESULT | 1 << 4)
        return result

    if kind is OpKind.LOAD:
        base = unit.operand(inst.srcs[0])
        offset = unit.operand(inst.srcs[1])
        address = unit.temp_name("m")
        unit.lines.append(f"{address} = ({base} + {offset}) & {_UINT64:#x}")
        signed = op in (Opcode.LDW, Opcode.LDQ)
        width = inst.memory_width
        nbytes = width.bytes
        # Inline the paged-memory fast path (same layout as Memory.load:
        # lazily materialized zero-filled little-endian pages).  Accesses
        # that cross a page boundary — or touch a page not yet
        # materialized — take the bound Memory.load slow path, which is
        # bit-identical by construction.
        page = unit.temp_name("p")
        off_in_page = unit.temp_name("o")
        result = unit.temp_name("t")
        unit.lines += [
            f"{off_in_page} = {address} & {_PAGE_MASK}",
            f"{page} = pages_get({address} >> {_PAGE_SHIFT})",
            f"if {page} is None or {off_in_page} > {_PAGE_SIZE - nbytes}:",
            f"    {result} = load({address}, {_WIDTH_NAMES[width]}, {signed})",
            "else:",
        ]
        raw = f"_ifb({page}[{off_in_page}:{off_in_page} + {nbytes}], 'little')"
        if signed:
            unit.lines.append(f"    {result} = {_sext_expr(raw, width.bits)}")
        else:
            unit.lines.append(f"    {result} = {raw}")
        unit.write(inst.dest, result)
        if trace:
            unit.values += [base, result]
            unit.mems.append(address)
            unit.metas.append(base_meta | FLAG_RESULT | FLAG_MEM | 1 << 4)
        return result

    if kind is OpKind.STORE:
        value = unit.operand(inst.srcs[0])
        base = unit.operand(inst.srcs[1])
        offset = unit.operand(inst.srcs[2])
        address = unit.temp_name("m")
        unit.lines.append(f"{address} = ({base} + {offset}) & {_UINT64:#x}")
        width = inst.memory_width
        nbytes = width.bytes
        mask = (1 << width.bits) - 1
        page = unit.temp_name("p")
        off_in_page = unit.temp_name("o")
        unit.lines += [
            f"{off_in_page} = {address} & {_PAGE_MASK}",
            f"if {off_in_page} > {_PAGE_SIZE - nbytes}:",
            f"    store({address}, {value}, {_WIDTH_NAMES[width]})",
            "else:",
            f"    {page} = pages_get({address} >> {_PAGE_SHIFT})",
            f"    if {page} is None:",
            f"        {page} = page_for({address})",
            f"    {page}[{off_in_page}:{off_in_page} + {nbytes}]"
            f" = (({value}) & {mask:#x}).to_bytes({nbytes}, 'little')",
        ]
        if trace:
            unit.values += [value, base]
            unit.mems.append(address)
            unit.metas.append(base_meta | FLAG_MEM | 2 << 4)
        return None

    if kind is OpKind.OUTPUT:
        value = unit.operand(inst.srcs[0])
        unit.lines.append(f"output_append({value})")
        if trace:
            unit.values.append(value)
            unit.metas.append(base_meta | 1 << 4)
        return None

    if kind is OpKind.NOP:
        if trace:
            unit.metas.append(base_meta)
        return None

    raise ValueError(f"cannot block-compile {inst}")  # pragma: no cover


#: Process-wide compiled-code cache: SHA-256 of a generated source ->
#: the code object ``compile()`` returned for it.  A pass over the 24
#: paper points compiles 28 distinct programs (under 2 MiB of code
#: objects), so the bound holds more than two passes' worth; past it
#: the oldest entry goes.
_CODE_CACHE: dict[str, CodeType] = {}
_CODE_CACHE_LIMIT = 128
_CODE_CACHE_LOCK = threading.Lock()


def _code_for(source: str) -> CodeType:
    """The code object of ``source``, compiled once per process.

    Source equality is the whole key: every input that differs between
    two programs with equal text (bind-time constants, meta templates,
    unit specs, key caches) stays on their :class:`BlockProgram`.  The
    cache is module-level, like the timing kernel's walk cache, because
    its entries are immutable code objects keyed by their own text: no
    caller can observe another's state through it.  Threads may race on
    a miss and compile the same source twice; the lock only keeps the
    insert and the eviction whole, so every stored entry is the code of
    its key and the size never exceeds :data:`_CODE_CACHE_LIMIT`.
    """
    key = hashlib.sha256(source.encode()).hexdigest()
    code = _CODE_CACHE.get(key)
    if code is None:
        code = compile(source, "<repro.sim.blockc>", "exec")
        with _CODE_CACHE_LOCK:
            if key not in _CODE_CACHE:
                while len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                    del _CODE_CACHE[next(iter(_CODE_CACHE))]
                _CODE_CACHE[key] = code
    return code


def _observe_line(machine: "Machine", inst: Instruction, value: str) -> str:
    """The observer call of a watched instruction, its uid relative to the
    build's base (``_ub``, bound through the constant pool)."""
    return f"observe(_ub + {inst.uid - machine.static_info.uid_base}, {value})"


def compile_blocks(
    machine: "Machine",
    collect_trace: bool,
    mutate_result: Callable[[Instruction, str], str] | None = None,
    watched: frozenset[int] = frozenset(),
    values: bool = False,
) -> BlockProgram:
    """Compile ``machine.program`` into a :class:`BlockProgram`.

    Pure function of the (flattened) program, ``collect_trace``,
    ``watched`` and ``values`` — no per-run state is consulted, so the
    result is cached on the machine and reused by every subsequent
    :meth:`Machine.run`.  Every call generates the source; the program
    looks its code object up in the process-wide cache (:func:`_code_for`)
    when it is first bound, so only a source text this process has not
    compiled yet pays ``compile()``, and only once something runs it:
    :meth:`Machine.traced_run_key` reads a traced program's text without
    compiling a program whose run may be adopted instead.

    ``watched`` is the set of uids whose results the bound ``observe``
    callable receives (the value-observer flavour); the empty default
    compiles no observer calls at all.  The source names watched uids
    relative to ``machine.static_info.uid_base``.

    ``mutate_result`` is the fault-injection seam for the lockstep
    co-execution harness (see :func:`_gen_straightline`).  Programs
    compiled with a mutator are **never** cached on the machine — the
    caller (``repro.coexec``) holds them privately and binds them to its
    own run state.

    A traced program counts record shapes and stores no values: every
    unit that can run to its end packs and counts its width signature
    (:func:`_sig_count_lines`) and keeps the ``rsig`` per-register cache
    exact at write-back.  ``values=True`` compiles the value-bearing
    traced flavour instead, which appends every record's values to the
    trace's arena and counts nothing — the flavour the lockstep harness
    compares record by record, with or without a mutator.
    """
    flat = machine._flat
    total = len(flat)
    block_start = machine._block_start
    function_entry = machine._function_entry

    entries = set(block_start.values())
    for pc, (_, _, inst) in enumerate(flat):
        if inst.kind is OpKind.CALL and pc + 1 < total:
            entries.add(pc + 1)
    entry_points = tuple(sorted(pc for pc in entries if pc < total))

    consts: list = [
        machine.index_of_address,
        block_start,
        function_entry,
        Width.BYTE,
        Width.HALF,
        Width.WORD,
        Width.QUAD,
    ]
    const_names = ["_ioa", "_bs", "_fe", "_W8", "_W16", "_W32", "_W64"]
    if watched:
        consts.append(machine.static_info.uid_base)
        const_names.append("_ub")

    def intern_template(name: str, metas: list[int]) -> str:
        consts.append(array("q", metas))
        const_names.append(name)
        return name

    lengths = [0] * total
    unit_lines: list[str] = []
    counting = collect_trace and not values
    counted_entries: list[int] = []
    unit_specs: list[tuple] = []

    for position, entry in enumerate(entry_points):
        end = entry_points[position + 1] if position + 1 < len(entry_points) else total
        stop = entry
        while stop < end and flat[stop][2].kind not in _CONTROL_KINDS:
            stop += 1
        has_control = stop < end
        if has_control:
            stop += 1  # the control instruction belongs to this unit
        lengths[entry] = stop - entry

        function_name, block_label, _ = flat[entry]
        block_key = (function_name, block_label)
        unit = _UnitWriter([f"_k{entry}[_s] = _kg{entry}(_s, 0) + 1"] if counting else None)
        if block_start[block_key] == entry:
            unit.lines.append(f"block_counts[{block_key!r}] = _bc({block_key!r}, 0) + 1")

        for pc in range(entry, stop - 1 if has_control else stop):
            inst = flat[pc][2]
            value = _gen_straightline(unit, inst, collect_trace, mutate_result)
            if value is not None and inst.uid in watched:
                unit.lines.append(_observe_line(machine, inst, value))

        tail: list[str] = []
        if not has_control:
            # Fallthrough into the next entry point (or off the program
            # end, which the driver surfaces exactly like the reference
            # loop's past-the-end error).
            if collect_trace:
                tail.append(f"rows_extend({intern_template(f'_t{entry}', unit.metas)})")
            tail += unit.epilogue_lines()
            tail.append(f"return {stop}")
        else:
            last_pc = stop - 1
            inst = flat[last_pc][2]
            kind = inst.kind
            base_meta = inst.uid << 8
            if kind is OpKind.BRANCH:
                tail += _gen_branch_tail(
                    unit, machine, inst, function_name, last_pc, collect_trace, intern_template
                )
            elif kind is OpKind.CALL:
                tail += _gen_call_tail(
                    unit, machine, inst, last_pc, collect_trace, intern_template,
                    inst.uid in watched,
                )
            elif kind is OpKind.RETURN:
                address = unit.operand(inst.srcs[0])
                if collect_trace:
                    unit.values.append(address)
                    unit.metas.append(base_meta | _TAKEN | 1 << 4)
                    tail.append(f"rows_extend({intern_template(f'_t{last_pc}', unit.metas)})")
                tail += unit.epilogue_lines()
                tail.append(f"if {address} == {machine._stop_address}:")
                tail.append("    return -1")
                tail.append(f"return _ioa({address})")
            else:  # HALT
                if collect_trace:
                    unit.metas.append(base_meta)
                    tail.append(f"rows_extend({intern_template(f'_t{last_pc}', unit.metas)})")
                tail += unit.epilogue_lines()
                tail.append("return -1")

        if counting and unit.finished:
            counted_entries.append(entry)
            unit_specs.append(_record_specs(unit.metas))
        unit_lines.append(f"    def _u{entry}():")
        for line in unit.lines + tail:
            unit_lines.append(f"        {line}")
        unit_lines.append("")

    header = [
        "def bind(regs, load, store, pages_get, page_for, output_append,",
        "         block_counts, call_counts, consts,",
        "         rows_extend, arena_extend, mem_append, spill, observe,",
        "         counts, sig_get, rsig):",
        "    _bc = block_counts.get",
        "    _cc = call_counts.get",
        "    _ifb = int.from_bytes",
        f"    ({', '.join(const_names)},) = consts",
    ]
    if counting:
        # Per counted unit, its signature-count dict.  ``rsig`` is the
        # per-register significance cache every counting write-back
        # refreshes.
        for index, entry in enumerate(counted_entries):
            header.append(f"    _k{entry} = counts[{index}]; _kg{entry} = _k{entry}.get")
    header.append("")
    footer = [f"    _funcs = [None] * {total}"]
    footer += [f"    _funcs[{entry}] = _u{entry}" for entry in entry_points]
    footer.append("    return _funcs")
    source = "\n".join(header + unit_lines + footer) + "\n"

    return BlockProgram(
        consts=tuple(consts),
        lengths=lengths,
        entry_points=entry_points,
        source=source,
        collect_trace=collect_trace,
        values=collect_trace and values,
        counts_shapes=counting,
        unit_specs=tuple(unit_specs),
        key_caches=tuple({} for _ in unit_specs),
    )


def _gen_branch_tail(
    unit: _UnitWriter,
    machine: "Machine",
    inst: Instruction,
    function_name: str,
    pc: int,
    collect_trace: bool,
    intern_template,
) -> list[str]:
    """Unit tail for a (possibly malformed) branch terminator."""
    base_meta = inst.uid << 8
    next_pc = pc + 1
    taken_pc = machine._block_start.get((function_name, inst.target))
    tail: list[str] = []
    if taken_pc is None:
        # Branch to a pruned label: defer the lookup to execution so a
        # never-taken branch behaves exactly like the reference loop and
        # a taken one raises the identical KeyError (before any emission,
        # matching the reference loop's observable order).
        ghost = f"_bs[({function_name!r}, {inst.target!r})]"
        if inst.op is Opcode.BR:
            tail.append(f"return {ghost}")
            return tail
        cond = unit.operand(inst.srcs[0])
        tail.append(f"if {_PRED_EXPR[inst.op](cond)}:")
        tail.append(f"    return {ghost}")
        if collect_trace:
            unit.values.append(cond)
            unit.metas.append(base_meta | _NOT_TAKEN | 1 << 4)
            tail.append(f"rows_extend({intern_template(f'_tN{pc}', unit.metas)})")
        tail += unit.epilogue_lines()
        tail.append(f"return {next_pc}")
        return tail
    if inst.op is Opcode.BR:
        if collect_trace:
            unit.metas.append(base_meta | _TAKEN)
            tail.append(f"rows_extend({intern_template(f'_t{pc}', unit.metas)})")
        tail += unit.epilogue_lines()
        tail.append(f"return {taken_pc}")
        return tail
    cond = unit.operand(inst.srcs[0])
    predicate = _PRED_EXPR[inst.op](cond)
    if collect_trace:
        # The two arms' templates differ only in the taken bits, which
        # shapes ignore: the not-taken metas stand for both.
        unit.values.append(cond)
        taken_template = intern_template(f"_tT{pc}", unit.metas + [base_meta | _TAKEN | 1 << 4])
        unit.metas.append(base_meta | _NOT_TAKEN | 1 << 4)
        fall_template = intern_template(f"_tN{pc}", unit.metas)
        tail += unit.epilogue_lines()
        tail.append(f"if {predicate}:")
        tail.append(f"    rows_extend({taken_template})")
        tail.append(f"    return {taken_pc}")
        tail.append(f"rows_extend({fall_template})")
        tail.append(f"return {next_pc}")
    else:
        tail += unit.epilogue_lines()
        tail.append(f"if {predicate}:")
        tail.append(f"    return {taken_pc}")
        tail.append(f"return {next_pc}")
    return tail


def _gen_call_tail(
    unit: _UnitWriter,
    machine: "Machine",
    inst: Instruction,
    pc: int,
    collect_trace: bool,
    intern_template,
    observed: bool,
) -> list[str]:
    """Unit tail for a call terminator (return address is a constant)."""
    base_meta = inst.uid << 8
    return_address = machine.address_of_index(pc + 1)
    target = inst.target
    target_pc = machine._function_entry.get(target)
    tail: list[str] = []
    unit.write(inst.dest, f"({return_address})")
    if target_pc is None:
        # Dead call to a removed function: the return-address write lands
        # first (as in the reference loop), then the lookup raises the
        # identical KeyError — before any emission or call counting.
        tail += unit.writeback_lines()
        tail.append(f"return _fe[{target!r}]")
        return tail
    if collect_trace:
        unit.values.append(f"({return_address})")
        unit.metas.append(base_meta | FLAG_RESULT | _TAKEN)
        tail.append(f"rows_extend({intern_template(f'_t{pc}', unit.metas)})")
    tail += unit.epilogue_lines()
    tail.append(f"call_counts[{target!r}] = _cc({target!r}, 0) + 1")
    if observed:
        tail.append(_observe_line(machine, inst, str(return_address)))
    tail.append(f"return {target_pc}")
    return tail
