"""Dynamic-trace data structures: columnar storage with a record view.

The functional simulator produces one logical :class:`TraceRecord` per
executed instruction; the out-of-order timing model, the power model, the
summary statistics and the hardware compression schemes all consume this
stream.  Physically the trace is *columnar*: instead of a Python list of
per-record NamedTuples, a :class:`Trace` stores a handful of flat
``array('q')`` columns (the standard layout of production trace-driven
simulators, and the same locality argument the paper's significance
compression makes for hardware).  The layout is:

``_rows``
    One packed meta word per record: ``meta = uid << 8 | flags``
    (``flags``: bit 0 result present, bit 1 memory address present,
    bit 2 ``taken`` present, bit 3 ``taken`` value, bits 4-6 source
    count).
``_mem``
    Effective addresses of loads/stores only (one entry per record whose
    flag bit 1 is set), stored as the signed reinterpretation of the
    unsigned 64-bit address.
``_arena`` (value-bearing traces only)
    All per-record *values*, flattened: the source operands followed by
    the result when the record has one (flag bit 0).  Per-record offsets
    are derived from the flag bytes (source count + result bit).

A trace either carries values or it does not.  The gating energy depends
on how many significant bytes each operand has, not on its value, so the
production trace — the one :meth:`Machine.run
<repro.sim.machine.Machine.run>` records, and the one a decoded snapshot
holds — is **value-free**: it keeps the metas, the memory column and the
per-record accounting *shape counts* ``(uid, source significant bytes,
result significant bytes)`` as primary data, and no arena.  The oracles
keep values: ``Machine.run_reference(collect_trace=True)``, hand-built
``Trace(records=...)`` traces and the block flavour the lockstep harness
(:mod:`repro.coexec`) compiles for itself.  On a value-free trace every
value reader — ``iter(trace)``, ``trace[i]``, ``trace.records``, the arena
and the columnar shape recount — raises ``TypeError``.

Instruction addresses are not stored at all when the trace comes from the
simulator: the address is a function of the static uid, and the
``next_address`` of record *i* is the address of record *i + 1* (the
functional trace is in order; the final record's successor is its own
address + 4, which is what both interpreter loops emit on halt).  Traces
built from explicit record lists (tests, hand-crafted inputs) keep real
address/next columns, because hand-built records need not satisfy those
invariants.

The simulator's two dispatch tiers fill the columns through two append
paths sharing one encoding: :meth:`Trace.emitters` appends one record at
a time (the reference loop, which also steps the block tier's mid-unit
landings) and :meth:`Trace.block_emitters` appends whole precomputed
block templates (the block-compiled units).  On a value-free trace the
per-record ``emit`` counts each record's shape instead of storing its
values, and the block units count the shapes of the records they emit
and hand them over through :meth:`Trace.adopt_shape_counts`, so
:meth:`Trace.shape_counts` never walks the columns of a simulator trace.
The columnar aggregation serves value-bearing traces only.

Values that do not fit a signed 64-bit slot (e.g. a raw ``Imm`` bit
pattern injected by a transformation) are kept exactly in a tiny side
table of a value-bearing trace; consumers fall back to the per-record
path for such traces, so the columnar fast paths never see placeholder
values.

All *static* per-instruction facts (opcode, functional unit, encoded
width, latency...) are looked up from a :class:`StaticInfo` side table by
``uid``.  Static uids are contiguous per program, so the table is a dense
list indexed by ``uid - uid_base`` — no hash lookups on hot paths.

Compatibility contract for value-bearing traces: ``trace[i]`` and
``iter(trace)`` materialize :class:`TraceRecord` views lazily,
``trace.records`` is a sequence view that compares equal to a plain
record list, and ``Trace(records=..., static=...)`` ingests any iterable
of records — so record-oriented consumers and tests keep working
unchanged.  See ``docs/trace.md``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import rshift
from typing import Iterable, Iterator, NamedTuple, Optional

from ..isa import Instruction, OpKind, Opcode, Width, op_info, significant_bytes
from ..ir import Program

__all__ = [
    "TraceRecord",
    "StaticInfo",
    "StaticEntry",
    "Trace",
    "TraceRecordView",
    "pack_record",
]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_UINT64 = (1 << 64) - 1

#: Flag-byte layout inside ``meta`` (see module docstring).
FLAG_RESULT = 1
FLAG_MEM = 2
FLAG_TAKEN = 4
FLAG_TAKEN_TRUE = 8
_SRC_SHIFT = 4

#: Byte-translation tables turning a flag byte into a derived quantity.
_VALUE_COUNT_TABLE = bytes(((f >> _SRC_SHIFT) & 7) + (f & FLAG_RESULT) for f in range(256))
_MEM_BIT_TABLE = bytes(1 if f & FLAG_MEM else 0 for f in range(256))

#: Byte offset of the low (flag) byte inside each packed 8-byte meta word.
_FLAG_BYTE_OFFSET = 0 if sys.byteorder == "little" else 7


class _SigCache(dict):
    """Value → significant-byte count, computed once per distinct value."""

    def __missing__(self, value: int) -> int:
        sig = significant_bytes(value)
        self[value] = sig
        return sig


class TraceRecord(NamedTuple):
    """One executed instruction.

    Attributes:
        uid: static instruction uid (index into :class:`StaticInfo`).
        address: instruction address (for branch-predictor indexing).
        srcs: values of the source registers that were read.
        result: value written to the destination register, or None.
        mem_address: effective address of a load/store, or None.
        taken: for branches, whether the branch was taken; None otherwise.
        next_address: address of the next executed instruction.
    """

    uid: int
    address: int
    srcs: tuple[int, ...]
    result: Optional[int]
    mem_address: Optional[int]
    taken: Optional[bool]
    next_address: int


@dataclass(frozen=True)
class StaticEntry:
    """Static facts about one instruction, shared by all dynamic instances."""

    uid: int
    opcode: Opcode
    kind: OpKind
    width: Width
    functional_unit: str
    latency: int
    energy_class: str
    is_load: bool
    is_store: bool
    is_branch: bool
    is_conditional: bool
    is_call: bool
    is_return: bool
    is_guard: bool
    memory_width: Optional[Width]
    num_src_regs: int
    has_dest: bool
    src_regs: tuple[int, ...]
    dest_reg: Optional[int]
    function: str
    block: str


class StaticInfo:
    """Side table mapping instruction uid → :class:`StaticEntry`.

    Uids are allocated contiguously per program, so entries live in a
    dense list indexed by ``uid - uid_base``; the hot-loop consumers index
    ``info.entries`` directly instead of paying a dict lookup per record.
    Sparse uid ranges (transformed programs with eliminated instructions)
    leave ``None`` holes.
    """

    # __weakref__ lets derived lookup structures (e.g. the compiled
    # timing kernel's packed static table) be cached per-StaticInfo in a
    # WeakKeyDictionary without pinning the program in memory.
    __slots__ = ("entries", "uid_base", "_count", "_version", "__weakref__")

    def __init__(self) -> None:
        self.entries: list[Optional[StaticEntry]] = []
        self.uid_base: int = 0
        self._count = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every :meth:`add_entry`.

        Lets derived caches detect *in-place* entry replacement, which
        leaves every shape-observable (base, length, count) unchanged.
        """
        return self._version

    @classmethod
    def from_program(cls, program: Program) -> "StaticInfo":
        info = cls()
        for function in program.iter_functions():
            for block in function.iter_blocks():
                for inst in block.instructions:
                    info.add(inst, function.name, block.label)
        return info

    def add(self, inst: Instruction, function: str, block: str) -> None:
        meta = op_info(inst.op)
        self.add_entry(
            StaticEntry(
                uid=inst.uid,
                opcode=inst.op,
                kind=meta.kind,
                width=inst.width,
                functional_unit=meta.functional_unit,
                latency=meta.latency,
                energy_class=meta.energy_class,
                is_load=inst.is_load,
                is_store=inst.is_store,
                is_branch=inst.is_branch,
                is_conditional=inst.is_conditional_branch,
                is_call=inst.is_call,
                is_return=inst.is_return,
                is_guard=inst.is_guard,
                memory_width=inst.memory_width if inst.is_memory else None,
                num_src_regs=len(inst.uses()),
                has_dest=inst.dest is not None,
                src_regs=tuple(reg.index for reg in inst.uses()),
                dest_reg=inst.dest.index if inst.dest is not None else None,
                function=function,
                block=block,
            )
        )

    def add_entry(self, entry: StaticEntry) -> None:
        """Insert a prebuilt entry, growing the dense table as needed."""
        uid = entry.uid
        entries = self.entries
        self._version += 1
        if not entries:
            self.uid_base = uid
            entries.append(entry)
            self._count = 1
            return
        index = uid - self.uid_base
        if index < 0:
            entries[:0] = [None] * (-index)
            self.uid_base = uid
            index = 0
        elif index >= len(entries):
            entries.extend([None] * (index + 1 - len(entries)))
        if entries[index] is None:
            self._count += 1
        entries[index] = entry

    def __getitem__(self, uid: int) -> StaticEntry:
        index = uid - self.uid_base
        if 0 <= index < len(self.entries):
            entry = self.entries[index]
            if entry is not None:
                return entry
        raise KeyError(uid)

    def get(self, uid: int) -> Optional[StaticEntry]:
        index = uid - self.uid_base
        if 0 <= index < len(self.entries):
            return self.entries[index]
        return None

    def __contains__(self, uid: int) -> bool:
        return self.get(uid) is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StaticEntry]:
        return (entry for entry in self.entries if entry is not None)


class TraceRecordView:
    """Sequence view over a :class:`Trace` yielding :class:`TraceRecord`.

    Compares equal to a plain list of records, so differential tests like
    ``block.trace.records == reference.trace.records`` work unchanged
    without materializing either side up front.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._trace[i] for i in range(*index.indices(len(self._trace)))]
        return self._trace[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._trace)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRecordView):
            if other._trace is self._trace:
                return True
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<TraceRecordView of {len(self)} records>"


def _encode_u64(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as its signed bit pattern."""
    return value - (1 << 64) if value > _INT64_MAX else value


def _extend_values_exact(arena: array, big: dict[int, int], values: tuple[int, ...]) -> None:
    """Append ``values`` to the arena with exact overflow diversion.

    The shared recovery path behind both the per-record and the
    block-batched append closures, invoked after ``arena.extend(values)``
    raised ``OverflowError``: ``array.extend`` appends elementwise and
    stops at the first element that fails the int64 conversion, so the
    arena holds exactly the in-range prefix of ``values``.  Truncate back
    to the batch boundary and re-append with the exact out-of-range
    values diverted to the ``big`` side table (keyed by arena index).
    """
    prefix = 0
    while prefix < len(values) and _INT64_MIN <= values[prefix] <= _INT64_MAX:
        prefix += 1
    start = len(arena) - prefix
    del arena[start:]
    for position, value in enumerate(values):
        if _INT64_MIN <= value <= _INT64_MAX:
            arena.append(value)
        else:
            big[start + position] = value
            arena.append(0)


def pack_record(
    uid: int,
    srcs: tuple[int, ...],
    result: Optional[int],
    taken: Optional[bool],
    has_mem: bool,
) -> tuple[int, tuple[int, ...]]:
    """Encode one record's dynamic fields as ``(meta, values)``.

    The single source of truth for the flag-byte layout, shared by every
    site that encodes records dynamically (the reference interpreter
    loop, record-list ingestion, benchmarks); the block compiler bakes
    the same encoding into its meta templates as compile-time constants,
    which the tier-equivalence tests lock against this function's output.
    """
    n_src = len(srcs)
    if n_src > 7:
        raise ValueError(f"trace records support at most 7 sources, got {n_src}")
    flags = n_src << _SRC_SHIFT
    if result is None:
        values = srcs
    else:
        flags |= FLAG_RESULT
        values = srcs + (result,)
    if taken is not None:
        flags |= FLAG_TAKEN | (FLAG_TAKEN_TRUE if taken else 0)
    if has_mem:
        flags |= FLAG_MEM
    return uid << 8 | flags, values


class Trace:
    """A complete dynamic trace plus its static side table.

    Construct either empty (the simulator's path: ``Trace(static=...)``
    followed by calls to the shared emission closures from
    :meth:`emitters`) or from an iterable of records (the compatibility
    path used by tests and by trace rebuilding).  Passing ``shapes``
    makes the trace value-free: it keeps no value arena, and ``shapes``
    — the dict of :meth:`shape_counts` — is its primary data, which
    emission and :meth:`adopt_shape_counts` add to.
    """

    __slots__ = (
        "static",
        "_rows",
        "_arena",
        "_mem",
        "_addr",
        "_next",
        "_addr_by_uid",
        "_big",
        # A value-free trace's shape counts; a value-bearing trace's
        # cached columnar aggregation of them (None until computed).
        "_shapes",
        # lazy caches
        "_flag_bytes",
        "_offsets",
        "_mem_prefix",
        "_uid_counts_cache",
        "_addr_cache",
    )

    def __init__(
        self,
        records: Optional[Iterable[TraceRecord]] = None,
        static: Optional[StaticInfo] = None,
        addresses: Optional[dict[int, int]] = None,
        shapes: Optional[dict[tuple[int, bytes, int], int]] = None,
    ) -> None:
        self.static = static if static is not None else StaticInfo()
        self._rows = array("q")
        self._arena: Optional[array] = array("q") if shapes is None else None
        self._mem = array("q")
        self._addr: Optional[array] = None
        self._next: Optional[array] = None
        self._addr_by_uid = addresses
        self._big: dict[int, int] = {}
        self._shapes = shapes
        self._flag_bytes = None
        self._offsets = None
        self._mem_prefix = None
        self._uid_counts_cache = None
        self._addr_cache = None
        if records is not None:
            self._ingest(records)

    @property
    def carries_values(self) -> bool:
        """True when the trace stores per-record values (see module docs)."""
        return self._arena is not None

    def _require_values(self, reader: str) -> None:
        if self._arena is None:
            raise TypeError(
                f"{reader} needs per-record values, but this trace is value-free "
                "(it keeps metas, the memory column and shape counts); take a "
                "value-bearing trace from Machine.run_reference(collect_trace=True)"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def emitters(self):
        """The shared per-record append path: ``(emit, emit_mem)`` closures.

        The reference tier of :class:`~repro.sim.machine.Machine` —
        including the block tier's mid-unit landing pad, which steps it —
        writes trace records exclusively through these two closures (the
        block-compiled units batch the same packed words via
        :meth:`block_emitters`), so the columnar encoding has a single
        source of truth and the emission sites cannot drift.

        ``emit(meta, values)`` appends one record whose packed ``meta``
        the caller provides (``uid << 8 | flags``); ``values`` holds the
        source operands followed by the result when flag bit 0 is set.
        ``emit_mem`` is the memory-op variant taking the (unsigned)
        effective address.  A value-bearing trace appends the values to
        its arena, preserving values outside the signed 64-bit range
        exactly in the overflow side table; a value-free trace counts the
        record's shape instead.
        """
        rows_append = self._rows.append
        mem_append = self._mem.append
        arena = self._arena

        if arena is None:
            shapes = self._shapes
            get = shapes.get
            sig = _SigCache().__getitem__

            def emit(meta: int, values: tuple[int, ...]) -> None:
                rows_append(meta)
                if meta & FLAG_RESULT:
                    key = (meta >> 8, bytes(map(sig, values[:-1])), sig(values[-1]))
                else:
                    key = (meta >> 8, bytes(map(sig, values)), -1)
                shapes[key] = get(key, 0) + 1

        else:
            arena_extend = arena.extend
            big = self._big

            def emit(meta: int, values: tuple[int, ...]) -> None:
                rows_append(meta)
                if values:
                    try:
                        arena_extend(values)
                    except OverflowError:
                        _extend_values_exact(arena, big, values)

        def emit_mem(meta: int, values: tuple[int, ...], mem_address: int) -> None:
            emit(meta, values)
            mem_append(_encode_u64(mem_address))

        return emit, emit_mem

    def block_emitters(self):
        """Block-batched append path: ``(extend_rows, append_mem)``.

        Used by the block-compiled interpreter tier
        (:mod:`repro.sim.blockc`), which amortizes emission over whole
        basic blocks: ``extend_rows`` takes a block's precomputed meta
        template (an ``array('q')`` built from the same packed words
        :meth:`emitters` appends one at a time) and ``append_mem``
        appends one *signed-encoded* effective address; the block
        compiler bakes the unsigned→signed reinterpretation of
        :func:`_encode_u64` into its generated source, exactly as it
        bakes the packed metas.  A value-bearing block flavour also takes
        :meth:`block_value_emitters`.
        """
        return self._rows.extend, self._mem.append

    def block_value_emitters(self):
        """The arena half of the block-batched path of a value-bearing
        trace: ``(extend_values, spill_values)``.

        ``extend_values`` takes a block's dynamic values as one flat
        tuple.  When it raises ``OverflowError`` the caller must invoke
        ``spill_values`` with the same tuple — it runs the identical
        exact-overflow recovery the per-record ``emit`` closure uses, so
        the two append paths cannot drift.
        """
        self._require_values("block value emission")
        arena = self._arena
        big = self._big

        def spill_values(values: tuple[int, ...]) -> None:
            _extend_values_exact(arena, big, values)

        return arena.extend, spill_values

    def _ingest(self, records: Iterable[TraceRecord]) -> None:
        """Build columns from an explicit record iterable.

        Hand-built records need not satisfy the derived-address invariants
        of simulator traces, so explicit address/next columns are kept.
        """
        emit, emit_mem = self.emitters()
        addr_col = array("q")
        next_col = array("q")
        addr_append = addr_col.append
        next_append = next_col.append
        for uid, address, srcs, result, mem_address, taken, next_address in records:
            meta, values = pack_record(uid, srcs, result, taken, mem_address is not None)
            if mem_address is None:
                emit(meta, values)
            else:
                # The sparse memory column stores unsigned 64-bit addresses
                # (both interpreter loops mask them); reject out-of-domain
                # hand-built records instead of silently re-encoding them.
                if not 0 <= mem_address <= _UINT64:
                    raise ValueError(
                        f"mem_address {mem_address:#x} is not an unsigned 64-bit address"
                    )
                emit_mem(meta, values, mem_address)
            addr_append(address)
            next_append(next_address)
        self._addr = addr_col
        self._next = next_col

    # ------------------------------------------------------------------
    # Columns (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def metas(self) -> array:
        """The packed ``uid << 8 | flags`` column (one word per record)."""
        return self._rows

    @property
    def flag_bytes(self) -> bytes:
        """One flag byte per record (a strided byte slice of the metas)."""
        if self._flag_bytes is None:
            self._flag_bytes = self._rows.tobytes()[_FLAG_BYTE_OFFSET::8]
        return self._flag_bytes

    @property
    def value_offsets(self) -> array:
        """Per-record ``[start, end)`` offsets into the value arena
        (length ``len(trace) + 1``; a record's values are its sources
        followed by its result when flag bit 0 is set)."""
        self._require_values("value_offsets")
        if self._offsets is None:
            counts = self.flag_bytes.translate(_VALUE_COUNT_TABLE)
            self._offsets = array("q", chain((0,), accumulate(counts)))
        return self._offsets

    @property
    def arena(self) -> array:
        """The flat value arena (sources + result per record)."""
        self._require_values("arena")
        return self._arena

    @property
    def mem_addresses(self) -> array:
        """Signed-encoded effective addresses, one per memory record."""
        return self._mem

    @property
    def has_overflow_values(self) -> bool:
        """True when some values live in the exact-overflow side table.

        Columnar fast paths must fall back to the per-record view for
        such traces; the view patches the exact values back in.
        """
        return bool(self._big)

    def _mem_prefix_counts(self) -> array:
        """Memory-record ordinal of each record (for random access)."""
        if self._mem_prefix is None:
            bits = self.flag_bytes.translate(_MEM_BIT_TABLE)
            self._mem_prefix = array("q", chain((0,), accumulate(bits)))
        return self._mem_prefix

    def _address_of(self, index: int, uid: int) -> int:
        if self._addr is not None:
            return self._addr[index]
        return self._addr_by_uid[uid]

    def _next_of(self, index: int, address: int) -> int:
        if self._next is not None:
            return self._next[index]
        if index + 1 < len(self):
            return self._addr_by_uid[self._rows[index + 1] >> 8]
        return address + 4

    @property
    def has_derived_addresses(self) -> bool:
        """True when record addresses derive from the static uid map
        (simulator-emitted traces).  Hand-built traces carry explicit
        per-record address columns instead, and consumers that bake
        per-uid address facts (the compiled timing kernel) must fall
        back to the per-record column for them."""
        return self._addr is None

    @property
    def address_map(self) -> Optional[dict[int, int]]:
        """The uid → instruction-address map of a derived-address trace
        (None for traces with explicit address columns)."""
        return self._addr_by_uid

    def addresses(self) -> array:
        """The per-record instruction-address column (materialized, cached).

        Simulator traces derive addresses from the static uid; both
        timing kernels walk this column, so the derived materialization
        is cached rather than rebuilt per run.  The cache is *not* the
        explicit ``_addr`` column (snapshots serialize that one only for
        hand-built traces) and is dropped by
        :meth:`invalidate_aggregation_caches` like every derived cache.
        """
        if self._addr is not None:
            return self._addr
        if self._addr_cache is None:
            lookup = self._addr_by_uid
            self._addr_cache = array("q", (lookup[meta >> 8] for meta in self._rows))
        return self._addr_cache

    # ------------------------------------------------------------------
    # Record view (value-bearing traces)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> TraceRecord:
        self._require_values("trace[i]")
        n = len(self._rows)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace record index out of range")
        meta = self._rows[index]
        flags = meta & 0xFF
        uid = meta >> 8
        offsets = self.value_offsets
        start, end = offsets[index], offsets[index + 1]
        values = self._arena[start:end]
        big = self._big
        if big:
            values = [
                big.get(start + position, value) for position, value in enumerate(values)
            ]
        if flags & FLAG_RESULT:
            result = values[-1]
            srcs = tuple(values[:-1])
        else:
            result = None
            srcs = tuple(values)
        if flags & FLAG_MEM:
            mem_address = self._mem[self._mem_prefix_counts()[index]] & _UINT64
        else:
            mem_address = None
        taken = bool(flags & FLAG_TAKEN_TRUE) if flags & FLAG_TAKEN else None
        address = self._address_of(index, uid)
        return TraceRecord(
            uid=uid,
            address=address,
            srcs=srcs,
            result=result,
            mem_address=mem_address,
            taken=taken,
            next_address=self._next_of(index, address),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        self._require_values("iter(trace)")
        return self._iter_records()

    def _iter_records(self) -> Iterator[TraceRecord]:
        rows = self._rows
        arena = self._arena
        mem = self._mem
        big = self._big
        addr_col = self._addr
        next_col = self._next
        lookup = self._addr_by_uid
        n = len(rows)
        start = 0
        mem_cursor = 0
        record = TraceRecord
        for index in range(n):
            meta = rows[index]
            flags = meta & 0xFF
            uid = meta >> 8
            has_result = flags & FLAG_RESULT
            end = start + ((flags >> _SRC_SHIFT) & 7) + (1 if has_result else 0)
            values = arena[start:end]
            if big:
                values = [
                    big.get(start + position, value)
                    for position, value in enumerate(values)
                ]
            if has_result:
                result = values[-1]
                srcs = tuple(values[:-1])
            else:
                result = None
                srcs = tuple(values)
            if flags & FLAG_MEM:
                mem_address = mem[mem_cursor] & _UINT64
                mem_cursor += 1
            else:
                mem_address = None
            taken = bool(flags & FLAG_TAKEN_TRUE) if flags & FLAG_TAKEN else None
            if addr_col is not None:
                address = addr_col[index]
                next_address = next_col[index]
            else:
                address = lookup[uid]
                if index + 1 < n:
                    next_address = lookup[rows[index + 1] >> 8]
                else:
                    next_address = address + 4
            start = end
            yield record(uid, address, srcs, result, mem_address, taken, next_address)

    @property
    def records(self) -> TraceRecordView:
        """Sequence view of the trace as :class:`TraceRecord` tuples."""
        self._require_values("trace.records")
        return TraceRecordView(self)

    # ------------------------------------------------------------------
    # Columnar aggregates
    # ------------------------------------------------------------------
    def uid_counts(self) -> Counter:
        """Dynamic record count per static uid (cached).

        Derived from :meth:`shape_counts` when the trace holds them (a
        value-free trace always does), otherwise one C-level pass over
        the meta column.  Reused by :meth:`width_distribution`, the
        summary aggregation
        (:func:`repro.experiments.summary.aggregate_trace`) and the fused
        energy accountant, replacing what used to be three independent
        full record walks.
        """
        if self._uid_counts_cache is None:
            if self._shapes is not None:
                counts: Counter = Counter()
                for (uid, _, _), count in self._shapes.items():
                    counts[uid] += count
                self._uid_counts_cache = counts
            else:
                self._uid_counts_cache = Counter(map(rshift, self._rows, repeat(8)))
        return self._uid_counts_cache

    def shape_counts(self) -> dict:
        """Dynamic count per accounting shape ``(uid, src sigs, result sig)``.

        The per-record key is ``(uid, bytes of per-source significant-byte
        counts, result significant-byte count — or -1 when the record has
        no result)``.  The fused energy accountant consumes these shapes
        directly, and the summary statistics derive the result-size
        histogram and :meth:`uid_counts` from them — so the per-record
        Python work of the old walks collapses into per-distinct-shape
        work.

        A value-free trace holds its shape counts as primary data (the
        simulator counted them while it emitted the records, or the
        snapshot stored them).  A value-bearing trace aggregates them
        from its columns once (:meth:`_columnar_shape_counts`) and caches
        the result.
        """
        if self._shapes is None:
            self._shapes = self._columnar_shape_counts()
        return self._shapes

    def _columnar_shape_counts(self) -> dict:
        """The aggregation behind :meth:`shape_counts`, over the columns.

        The heavy lifting runs at C level: significant bytes are computed
        once per *distinct value* (a ``dict.__missing__`` cache fed by
        ``map`` translates the whole arena), per-record value chunks are
        byte slices of the translated arena, and a single ``Counter``
        pass over ``(meta, sig chunk)`` pairs groups the stream — the
        result's sig rides at the tail of the chunk, and the meta's flag
        bits disambiguate it.  Traces carrying overflow values take an
        exact per-record fold through the record view instead.
        """
        self._require_values("the columnar shape recount")
        counts: dict = {}
        get = counts.get
        if self._big:
            sig_cache = _SigCache()
            for record in self:
                sigs = bytes(sig_cache[value] for value in record.srcs)
                result = record.result
                rsig = -1 if result is None else sig_cache[result]
                key = (record.uid, sigs, rsig)
                counts[key] = get(key, 0) + 1
            return counts
        offsets = self.value_offsets
        arena_sigs = bytes(map(_SigCache().__getitem__, self._arena))
        chunks = map(arena_sigs.__getitem__, map(slice, offsets, islice(offsets, 1, None)))
        grouped = Counter(zip(self._rows, chunks))
        # Collapse the packed metas (uid | flag byte) onto plain uids and
        # split the result sig off the chunk tail; the taken/memory flag
        # bits split shapes without changing them, so this per-distinct
        # fold only merges counts.
        for (meta, chunk), count in grouped.items():
            if meta & FLAG_RESULT:
                key = (meta >> 8, chunk[:-1], chunk[-1])
            else:
                key = (meta >> 8, chunk, -1)
            counts[key] = get(key, 0) + count
        return counts

    def adopt_shape_counts(self, shapes: dict) -> None:
        """Add shape counts the producer aggregated itself (the block
        tier's signature counts, expanded by
        :func:`repro.sim.blockc.expand_signatures`) to a value-free
        trace's counts — which already hold any records a mid-unit
        landing emitted one by one.  A value-bearing trace counts its
        own shapes and refuses."""
        if self._arena is not None:
            raise TypeError("a value-bearing trace aggregates its own shape counts")
        counts = self._shapes
        get = counts.get
        for key, count in shapes.items():
            counts[key] = get(key, 0) + count
        self._uid_counts_cache = None

    def width_distribution(self) -> dict[Width, int]:
        """Dynamic instruction counts per encoded (software) width.

        Memory operations count under their access width; everything else
        under the width encoded in the opcode.  Derived from the cached
        :meth:`uid_counts`, not a record walk.
        """
        distribution: dict[Width, int] = {w: 0 for w in Width.all_widths()}
        static = self.static
        for uid, count in self.uid_counts().items():
            entry = static[uid]
            width = entry.memory_width if entry.memory_width is not None else entry.width
            distribution[width] += count
        return distribution

    def invalidate_aggregation_caches(self) -> None:
        """Drop the cached columnar aggregations (shapes, uid counts...).

        The caches assume the trace is fully built; emitting further
        records after a consumer has run would serve stale aggregates.
        Normal use never needs this — the machine finishes emission
        before handing the trace out — but benchmarks measuring the cold
        aggregation cost (and any future incremental writer) can reset
        with it.  A value-free trace keeps its shape counts: they are
        its data, not a cache, and nothing could recount them.
        """
        self._flag_bytes = None
        self._offsets = None
        self._mem_prefix = None
        self._uid_counts_cache = None
        self._addr_cache = None
        if self._arena is not None:
            self._shapes = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate heap bytes held by the trace columns (metas, the
        memory column, the value arena of a value-bearing trace and the
        explicit address columns of a hand-built one)."""
        total = 0
        for column in (self._rows, self._mem, self._arena, self._addr, self._next):
            if column is not None:
                total += len(column) * column.itemsize
        return total
