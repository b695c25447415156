"""Compiled out-of-order timing kernel: one timing emitter, two specializations.

Runs the *same scoreboard arithmetic* as the reference walk in
:meth:`repro.uarch.ooo.OutOfOrderModel.run_reference`, but as
**generated Python source** (the same technique the simulator's block
compiler uses).  One emitter, :class:`_TimingEmitter`, writes the
model's per-record update section by section, over one or more
*lanes*, and is specialized twice:

* **The lane walk** (:func:`_multi_walk_source`) walks a materialized
  trace, reading every per-record fact at run time from packed data.
  :func:`run_compiled` is its walk at one lane, and
  :func:`run_compiled_many` packs many configs into lanes.
* **Record sites** of the fused tier (:mod:`repro.sim.fusedc`) inline
  the update at each point where the simulator would emit a record, at
  one lane, with that record's static facts folded in as literals.

Both share every cache, predictor, ring and scoreboard line; a timing
model change is a change here only.

* **Lanes and cache groups**: configs that share the address mode, the
  I-cache line size and the predictor (one :func:`_walk_shape`) share
  one trace walk.  The record decode, the fetch-line test and the
  predictor stream are the same for all of them, so they run once per
  record; each distinct cache geometry in the walk is a *cache group*
  with its own I/D/L2 state and miss counters, and each config gets its
  own scoreboard *lane* (suffixed locals, its own slot allocators) with
  its cycle-valued parameters baked in as literals.  Power-of-two
  cache/line/window arithmetic compiles to shifts and masks, and only
  the configured cache-associativity variant is emitted.  A walk is
  compiled once per (lane configs, address mode) and cached for the
  process.

* **Packed static table** (:class:`StaticTable`): the per-uid facts the
  walk needs (latency, functional-unit class, class bits, destination
  register, source registers) are baked once per :class:`StaticInfo`
  into dense ``array('q')`` columns — the source registers as seven
  8-bit lanes plus a count byte, everything else fused into one *hot
  word* per uid — then flattened into one tuple per uid, so the loop
  makes a single list indexing per record for all static facts instead
  of a dataclass attribute walk.  Simulator traces derive instruction
  addresses from the uid, so the *derived* address mode also bakes the
  fetch-line number and branch pc per uid and iterates the meta column
  alone; hand-built traces take the explicit two-column variant.  A
  fused record site folds its uid's derived tuple.

* **Ring-buffer slot allocators**: the reference model's ``_Slots``
  (a per-cycle usage dict) becomes flat lists per lane — one cycle-tag
  list ``tag[slot]`` shared by the issue and functional-unit rings, and
  one count list per ring, with ``slot = cycle & mask`` — so an
  ``allocate`` is list indexing instead of dict probing, and the
  occupancy state is bounded by the ring capacity instead of growing
  with the cycle count.  An issue grant on a live slot settles the
  record's functional-unit probe on the same slot, and claiming a stale
  slot sets every ring's count at once.  Equivalence is unconditional:
  a slot write that would clobber a *live* tenant (tenant cycle ≥ the
  monotone probe floor ``fetch + frontend_depth``) grows the lane's
  rings first (:func:`_grow_rings`); stale tenants are below every
  future probe, so overwriting them is exactly the dict allocator's
  garbage.  A known-full interval memo collapses the re-walk of
  saturated cycles (see :meth:`_TimingEmitter._skip`), and the retire
  allocator's probes are monotone (``max(complete, last_commit)``), so
  it collapses further, to a frontier cycle and a countdown of the
  slots left in it.  Fetch is a countdown too, and a lane keeps only
  its probe floor: ``fetch == floor - frontend_depth`` throughout.

* **Inlined caches and predictor**: L1 set/tag math runs on flat
  MRU/LRU tag lists when the cache is 2-way (the Table 2 shape), with a
  generic per-set list fallback for other associativities; the shared
  L2 keeps the reference's per-set LRU lists (it is only touched on L1
  misses).  The gshare/bimodal/selector tables are flat lists of 2-bit
  counters updated inline with the exact saturation arithmetic of
  :class:`~repro.uarch.branch_predictor.CombinedPredictor`.

* **Timing memo** (:class:`TimingMemo`): timing results keyed by a
  SHA-256 over exactly what the walk reads (:func:`_walk_key`, uids
  relative to the table's base) and the config, so traces that time
  identically — a workload's ``none`` and ``vrp`` builds — share one
  walk.  The experiment engine owns one; the entry points above walk on
  every call.

Every counter (accesses, misses, lookups, mispredictions, loads,
stores) and every cycle of every lane is bit-exact against the
reference walk — the differential harness in
``tests/test_uarch_timing.py`` asserts field-for-field
:class:`TimingResult` equality on hypothesis-generated programs and
configs and on every suite workload.  :meth:`OutOfOrderModel.run` runs
this kernel; see ``docs/timing.md``.
"""

from __future__ import annotations

import hashlib
import sys
import weakref
from array import array
from dataclasses import dataclass, replace

from ..sim import Trace
from ..sim.trace import StaticInfo
from .config import MachineConfig
from .ooo import TimingResult

__all__ = [
    "StaticTable",
    "TimingMemo",
    "bake_static_table",
    "run_compiled",
    "run_compiled_many",
    "timing_from_counters",
    "timing_from_probe",
    "MULTI_KERNEL_MAX_LANES",
]

_UINT64 = (1 << 64) - 1

#: Hot-word layout (:attr:`StaticTable.hot_word`): one int per uid
#: fusing every scalar static fact the walk consumes.
HOT_LATENCY_MASK = 0xFF  # bits 0-7: execution latency
HOT_IMUL = 1 << 8  # functional unit: integer multiplier
HOT_MEM = 1 << 9  # functional unit: load/store queue
HOT_LOAD = 1 << 10
HOT_STORE = 1 << 11
HOT_BRANCH = 1 << 12
HOT_CONDITIONAL = 1 << 13
HOT_CALL_RETURN = 1 << 14
HOT_DEST_SHIFT = 16  # bits 16+: dest_reg + 1 (0 = no producer-visible dest)

#: Test masks the generated walk bakes in as literals (768, 3072, 20480).
HOT_FU = HOT_IMUL | HOT_MEM
HOT_LS = HOT_LOAD | HOT_STORE
HOT_CTRL = HOT_BRANCH | HOT_CALL_RETURN


@dataclass(frozen=True)
class StaticTable:
    """Per-uid static attributes packed into dense ``array('q')`` columns.

    Indexed by ``uid - uid_base`` exactly like ``StaticInfo.entries``;
    ``None`` holes bake to neutral values (they are unreachable — the
    kernel validates the trace's uid set up front, as the reference
    walk does).  ``latency``/``fu_class``/``class_bits``/``dest_reg``
    are the readable single-fact columns; ``hot_word`` fuses them per
    the ``HOT_*`` layout and is what the walk actually indexes.
    """

    uid_base: int
    latency: array
    fu_class: array
    class_bits: array
    dest_reg: array  # -1 when the entry has no producer-visible dest
    src_packed: array  # count << 56 | reg[i] << (8 * i)
    hot_word: array
    num_regs: int
    #: Mutation stamp of the StaticInfo the table was baked from.
    stamp: tuple

    def src_tuples(self) -> list[tuple[int, ...]]:
        """Decode the packed source-register column to per-uid tuples."""
        decoded: list[tuple[int, ...]] = []
        for word in self.src_packed:
            count = word >> 56
            decoded.append(tuple((word >> (8 * i)) & 0xFF for i in range(count)))
        return decoded


#: Class-bit layout of :attr:`StaticTable.class_bits` (the readable
#: column; the hot word carries the same bits shifted to ``HOT_*``).
CLS_LOAD = 1
CLS_STORE = 2
CLS_BRANCH = 4
CLS_CONDITIONAL = 8
CLS_CALL_RETURN = 16

#: Functional-unit classes (:attr:`StaticTable.fu_class`).
FU_ALU = 0
FU_IMUL = 1
FU_MEM = 2


def _static_stamp(static: StaticInfo) -> tuple:
    # version catches in-place entry replacement, which leaves the
    # shape-based components (base, length, count) unchanged.
    return (static.version, static.uid_base, len(static.entries), len(static))


def bake_static_table(static: StaticInfo) -> StaticTable:
    """Bake ``static`` into packed columns (pure function of its entries)."""
    latency = array("q")
    fu_class = array("q")
    class_bits = array("q")
    dest_reg = array("q")
    src_packed = array("q")
    hot_word = array("q")
    num_regs = 32
    for entry in static.entries:
        if entry is None:
            latency.append(0)
            fu_class.append(FU_ALU)
            class_bits.append(0)
            dest_reg.append(-1)
            src_packed.append(0)
            hot_word.append(0)
            continue
        if not 0 <= entry.latency <= HOT_LATENCY_MASK:
            raise ValueError(
                f"uid {entry.uid}: latency {entry.latency} does not fit the hot word"
            )
        latency.append(entry.latency)
        hot = entry.latency
        if entry.functional_unit == "imul":
            fu_class.append(FU_IMUL)
            hot |= HOT_IMUL
        elif entry.functional_unit == "mem":
            fu_class.append(FU_MEM)
            hot |= HOT_MEM
        else:
            fu_class.append(FU_ALU)
        cls = (
            (CLS_LOAD if entry.is_load else 0)
            | (CLS_STORE if entry.is_store else 0)
            | (CLS_BRANCH if entry.is_branch else 0)
            | (CLS_CONDITIONAL if entry.is_conditional else 0)
            | (CLS_CALL_RETURN if entry.is_call or entry.is_return else 0)
        )
        class_bits.append(cls)
        hot |= cls << 10  # CLS_* bits land on HOT_LOAD..HOT_CALL_RETURN
        dest = entry.dest_reg
        if dest is None or dest == 31:
            dest_reg.append(-1)
        else:
            dest_reg.append(dest)
            hot |= (dest + 1) << HOT_DEST_SHIFT
            if dest >= num_regs:
                num_regs = dest + 1
        srcs = entry.src_regs
        if len(srcs) > 7:
            raise ValueError(
                f"uid {entry.uid}: {len(srcs)} source registers exceed the packed lanes"
            )
        word = len(srcs) << 56
        for lane, reg in enumerate(srcs):
            if not 0 <= reg <= 0xFF:
                raise ValueError(f"uid {entry.uid}: register index {reg} does not pack")
            word |= reg << (8 * lane)
            if reg >= num_regs:
                num_regs = reg + 1
        src_packed.append(word)
        hot_word.append(hot)
    return StaticTable(
        uid_base=static.uid_base,
        latency=latency,
        fu_class=fu_class,
        class_bits=class_bits,
        dest_reg=dest_reg,
        src_packed=src_packed,
        hot_word=hot_word,
        num_regs=num_regs,
        stamp=_static_stamp(static),
    )


#: StaticInfo → baked table; weak keys so tables die with their program.
_TABLE_CACHE: "weakref.WeakKeyDictionary[StaticInfo, StaticTable]" = (
    weakref.WeakKeyDictionary()
)


def _table_for(static: StaticInfo) -> StaticTable:
    table = _TABLE_CACHE.get(static)
    if table is None or table.stamp != _static_stamp(static):
        table = bake_static_table(static)
        _TABLE_CACHE[static] = table
    return table


def _grow_rings(tags: list, floor: int, span: int, *counts: list) -> tuple:
    """Grow a lane's rings until ``span`` fits, rehashing live slots (≥ ``floor``).

    The rings share the cycle-tag list ``tags``, so they grow together;
    returns ``(tags, mask, *counts)``.  Slots below the monotone probe
    floor can never be probed again, so dropping them is exactly what
    the dict allocator's garbage is.
    """
    capacity = 2 * len(tags)
    while capacity <= span:
        capacity *= 2
    mask = capacity - 1
    new_tags = [-1] * capacity
    new_counts = [[0] * capacity for _ in counts]
    for slot, cycle in enumerate(tags):
        if cycle >= floor:
            new_slot = cycle & mask
            new_tags[new_slot] = cycle
            for new, old in zip(new_counts, counts):
                new[new_slot] = old[slot]
    return (new_tags, mask, *new_counts)


def _div(value_expr: str, divisor: int) -> str:
    """Source expression dividing ``value_expr`` by ``divisor`` (shift if pow2)."""
    if divisor & (divisor - 1) == 0:
        return f"({value_expr} >> {divisor.bit_length() - 1})"
    return f"({value_expr} // {divisor})"


def _mod(value_expr: str, divisor: int) -> str:
    """Source expression for ``value_expr % divisor`` (mask if pow2)."""
    if divisor & (divisor - 1) == 0:
        return f"({value_expr} & {divisor - 1})"
    return f"({value_expr} % {divisor})"


def _derived_mode_supported(config: MachineConfig) -> bool:
    """Derived mode reconstructs the icache's L2 line from the fetch
    line, which is exact only when the L2 line size is a whole multiple
    of the icache line size (true for any sane hierarchy, including
    Table 2's 64B over 32B)."""
    return config.l2cache.line_bytes % config.icache.line_bytes == 0


#: StaticInfo -> mode-keyed per-uid tuple lists for the walk's single
#: static lookup per record.  Weak keys: the lists die with the program.
_STATIC_OF_CACHE: "weakref.WeakKeyDictionary[StaticInfo, dict]" = (
    weakref.WeakKeyDictionary()
)


def _static_of_for(static: StaticInfo, table: StaticTable, addr_map, line_bytes: int):
    """The per-uid walk tuples for one mode (cached).

    Explicit mode: ``(hot word, src regs)``.  Derived mode adds the
    per-uid fetch-line number and branch pc — pure functions of the
    trace's uid → address map — keyed by the icache line size and
    revalidated against the trace's map (machines rebuilt for the same
    program produce equal maps; a different map just rebuilds).
    """
    modes = _STATIC_OF_CACHE.get(static)
    if modes is None:
        modes = {}
        _STATIC_OF_CACHE[static] = modes
    key = ("derived", line_bytes) if addr_map is not None else ("explicit",)
    cached = modes.get(key)
    if cached is not None:
        cached_table, cached_map, static_of = cached
        if cached_table is table and (
            cached_map is addr_map or cached_map == addr_map
        ):
            return static_of
    hot_list = table.hot_word.tolist()
    srcs_list = table.src_tuples()
    if addr_map is None:
        static_of = list(zip(hot_list, srcs_list))
    else:
        base = table.uid_base
        static_of = []
        for index, (hot, srcs) in enumerate(zip(hot_list, srcs_list)):
            address = addr_map.get(base + index)
            if address is None:
                # Unreachable after _time_lanes' uid validation.
                static_of.append((hot, -1, 0, srcs))
            else:
                static_of.append((hot, address // line_bytes, address >> 2, srcs))
    modes[key] = (table, addr_map, static_of)
    return static_of


#: Records per step of :func:`_walk_key`'s meta translation; bounds the
#: size of the big ints it builds.
_KEY_STEP = 1 << 14


def _walk_key(trace: Trace) -> bytes:
    """SHA-256 over exactly what a lane walk of ``trace`` reads.

    Call it only on a trace whose uids :func:`_address_modes` validated.
    Uids enter relative to the static table's ``uid_base``, so two builds
    of one program key equal whatever uids they drew.  The key covers
    the meta column (record order, uid position, flags), the sparse
    memory column, each static position's hot word, packed sources and
    whether it holds an entry, and the instruction addresses: per static
    position for a derived-address trace, per record for an explicit one.
    Traces with equal keys time identically under every machine config.
    Operand gating changes widths, which no walk reads, so a workload's
    ``none`` and ``vrp`` traces key equal, and so does its ``vrs`` trace
    unless VRS specialized something.
    """
    static = trace.static
    table = _table_for(static)
    base = table.uid_base
    derived = trace.has_derived_addresses and trace.address_map is not None
    mem = trace.mem_addresses
    digest = hashlib.sha256(
        repr((len(trace), len(mem), len(table.hot_word), table.num_regs, derived)).encode()
    )
    shift = base << 8
    if base >= 0:
        # A big-int subtraction takes base << 8 from every 8-byte word of
        # a step; no word borrows, because every validated uid is at least
        # base.  ``offsets`` holds the word once per record of a full step,
        # and shifting it right drops words for a shorter last step.
        offsets = int.from_bytes(array("q", (shift,)) * _KEY_STEP, sys.byteorder)
        with memoryview(trace.metas) as metas:
            for start in range(0, len(metas), _KEY_STEP):
                words = metas[start : start + _KEY_STEP]
                relative = int.from_bytes(words, sys.byteorder) - (
                    offsets >> 64 * (_KEY_STEP - len(words))
                )
                digest.update(relative.to_bytes(words.nbytes, sys.byteorder))
    else:
        # Negative uids (hand-built tables only) would borrow across words.
        digest.update(array("q", [meta - shift for meta in trace.metas]))
    digest.update(mem)
    digest.update(table.hot_word)
    digest.update(table.src_packed)
    digest.update(bytes(entry is not None for entry in static.entries))
    if derived:
        addr_map = trace.address_map
        positions = range(base, base + len(static.entries))
        digest.update(repr([addr_map.get(uid) for uid in positions]).encode())
    else:
        digest.update(trace.addresses())
    return digest.digest()


# ---------------------------------------------------------------------------
# The lane walk: one trace walk, one scoreboard lane per machine config.
#
# Within a *walk group* — configs sharing the address mode, the I-cache
# line size and the predictor configuration — the record decode, the
# fetch-line sequence and the predictor's prediction/update stream (a
# pure function of the (pc, taken) trace stream), and with it every
# mispredict and call/return redirect event, are identical across
# configs.  The generated walk exploits this: it walks the trace once,
# decodes each record, tests its fetch line and runs the predictor once,
# and keeps one set of I/D/L2 caches per *cache group* (the configs of
# one cache geometry) and one scoreboard *lane* per config (suffixed
# locals, one shared-tag ring set) with that lane's cycle-valued
# parameters baked in as literals — so N configs cost one trace decode,
# one static lookup and one predictor, one cache simulation per
# geometry, plus N scoreboards.  A single config is the same walk at one
# lane.
# ---------------------------------------------------------------------------

#: Lane cap per generated walk.  More lanes amortize the
#: shared front end further but grow the per-record bytecode body;
#: beyond ~8 lanes the marginal win is noise while the generated source
#: (and its compile time) keeps growing, so larger batches are chunked.
MULTI_KERNEL_MAX_LANES = 8

#: log2 of the initial capacity of each lane's slot-allocator rings
#: (one shared cycle-tag list plus up to four count lists per lane).
#: Growth on a live collision keeps this a sizing hint, not a
#: correctness bound; tests shrink it to force the growth path.
_MULTI_RING_BITS = 12


def _walk_shape(config: MachineConfig, derived: bool) -> tuple:
    """Grouping key under which configs share one lane walk.

    It holds what the walk's shared per-record code bakes in: the
    address mode, the I-cache line size (the fetch-line test) and the
    predictor configuration.  Cache geometries are per cache group and
    cycle-valued parameters per lane, so neither is in the key.
    """
    return (derived, config.icache.line_bytes, config.predictor)


def _cache_geometry(config: MachineConfig) -> tuple:
    """The shape one cache group shares: line, sets and ways of L1I, L1D and L2."""
    return tuple(
        (cache.line_bytes, cache.num_sets, cache.associativity)
        for cache in (config.icache, config.dcache, config.l2cache)
    )


#: The counters of a lane's 11-tuple after its cycle count (see
#: :func:`timing_from_counters`).
_COUNTERS = (
    "lookups",
    "mispredictions",
    "i_accesses",
    "i_misses",
    "d_accesses",
    "d_misses",
    "l2_accesses",
    "l2_misses",
    "loads",
    "stores",
)

#: The counters each cache group keeps for itself (as ``g<k>_<name>``);
#: the rest are shared by the whole walk.
_GROUP_COUNTERS = ("i_misses", "d_misses", "l2_accesses", "l2_misses")


def _l2_extra(config: MachineConfig) -> int:
    """Cycles an L2 miss adds beyond the L2 hit: its penalty plus memory."""
    memory_latency = config.memory_first_chunk_cycles + 3 * config.memory_interchunk_cycles
    return config.l2cache.miss_penalty_cycles + memory_latency


def _fetch_bump(config: MachineConfig, level: int) -> int:
    """Fetch stall of an I-cache miss served at ``level`` (1: L2, 2: memory).

    The reference's ``latency - hit_cycles``: the miss penalty, plus the
    L2 miss path's memory latency at level 2.
    """
    bump = config.icache.miss_penalty_cycles
    if level == 2:
        bump += _l2_extra(config)
    return bump


def _d_latency(config: MachineConfig, level: int) -> int:
    """Load latency when the D-cache access is served at ``level`` (0: L1)."""
    latency = config.dcache.hit_cycles
    if level >= 1:
        latency += config.dcache.miss_penalty_cycles
    if level == 2:
        latency += _l2_extra(config)
    return latency


def _binding_rings(config: MachineConfig) -> dict[str, int]:
    """The slot-allocator rings a lane keeps, with their widths: issue,
    plus every functional-unit class with fewer units than the issue
    width (the others can never bind, see :meth:`_TimingEmitter._issue`)."""
    rings = {"iss": config.issue_width}
    for ring, width in (
        ("alu", config.int_alus),
        ("mul", config.int_muls),
        ("lsq", config.lsq_ports),
    ):
        if width < config.issue_width:
            rings[ring] = width
    return rings


class _TimingEmitter:
    """The section emitters of the per-record timing update, over lanes.

    The one source of the model's compiled per-record arithmetic.  Each
    section takes every per-record fact either as a **run-time
    expression** (a ``str``) or as a **value known at generation time**,
    which it folds in:

    * the trace walk (:func:`_multi_walk_source`) passes expressions
      over the record it has just decoded (``hot``, ``line``, ``srcs``,
      ``meta & 8``, ...), and the run-time forms read the trace's flags
      and sparse memory column from ``meta``/``mem_column``;
    * a record site of the fused tier (:mod:`repro.sim.fusedc`) passes
      its uid's derived-walk tuple ``(hot, line, pc, srcs)``, its D-cache
      address expression, its branch outcome and its place in the unit,
      so the site holds literal cache sets and tags, only its class's
      functional-unit probe and only its outcome's predictor arm.

    The ``configs`` share one :func:`_walk_shape`.  Lane ``i``'s state
    carries the suffix ``i`` (``floor0``, ``cf0``, ``tag0``, ...), with
    that config's cycle-valued parameters baked in as literals.  Lanes of
    one cache geometry form a *cache group* ``k`` whose caches and miss
    counters carry the prefix ``g<k>_``; the fetch-line test, the
    predictor and the other counters are shared by every lane.  Sections
    append indented lines at the ``depth`` they are given; :meth:`take`
    hands them over.
    """

    def __init__(self, configs: tuple, ring_bits: int) -> None:
        self.configs = configs
        self.lanes = range(len(configs))
        groups: dict[tuple, list[int]] = {}
        for lane, config in enumerate(configs):
            groups.setdefault(_cache_geometry(config), []).append(lane)
        #: The lanes of each cache group, in first-lane order.
        self.groups = list(groups.values())
        self.group_of = {lane: group for group, lanes in enumerate(self.groups) for lane in lanes}
        self.pcfg = configs[0].predictor
        self.ring_capacity = 1 << ring_bits
        #: The distinct window sizes; lanes of one size share a window index.
        self.windows = list(dict.fromkeys(c.max_in_flight for c in configs))
        self.lines: list[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def take(self) -> list[str]:
        """The lines emitted since the last call."""
        lines, self.lines = self.lines, []
        return lines

    def _wi(self, lane: int) -> str:
        return f"wi{self.configs[lane].max_in_flight}"

    def _shape(self, group: int) -> MachineConfig:
        """A config of cache group ``group``: its cache geometries."""
        return self.configs[self.groups[group][0]]

    def _counters(self, lane: int) -> list[str]:
        """The names of lane ``lane``'s 10 counters, in tuple order."""
        prefix = f"g{self.group_of[lane]}_"
        return [prefix + name if name in _GROUP_COUNTERS else name for name in _COUNTERS]

    def _fetch_cycle(self, lane: int) -> str:
        """Lane ``lane``'s fetch cycle: its probe floor less the front end."""
        depth = self.configs[lane].frontend_depth
        return f"floor{lane} - {depth}" if depth else f"floor{lane}"

    # ------------------------------------------------------------ state
    def front_state(self, depth: int) -> None:
        """The shared front end's state: every cache group's caches, the
        predictor, the counters."""
        emit, pcfg = self.emit, self.pcfg
        for group in range(len(self.groups)):
            shape = self._shape(group)
            for cache, cfg in (("i", shape.icache), ("d", shape.dcache)):
                name, sets = f"g{group}_{cache}", cfg.num_sets
                if cfg.associativity == 2:
                    emit(depth, f"{name}_mru, {name}_lru = [None] * {sets}, [None] * {sets}")
                else:
                    emit(depth, f"{name}_ways = [[] for _ in range({sets})]")
            emit(depth, f"g{group}_l2_ways = [[] for _ in range({shape.l2cache.num_sets})]")
            emit(depth, " = ".join(f"g{group}_{name}" for name in _GROUP_COUNTERS) + " = 0")
        emit(depth, "i_accesses = d_accesses = 0")
        emit(depth, f"gshare = [1] * {pcfg.gshare_entries}")
        emit(depth, f"bimodal = [1] * {pcfg.bimodal_entries}")
        emit(depth, f"selector = [2] * {pcfg.selector_entries}")
        emit(depth, "history = 0")
        emit(depth, "lookups = mispredictions = 0")
        emit(depth, "loads = stores = 0")
        emit(depth, "current_fetch_line = -1")

    def lane_state(self, depth: int, num_regs) -> None:
        """Each lane's scoreboard: rings, commit frontier, register
        readiness over ``num_regs`` registers, window, fetch and retire
        countdowns, redirect; and one window index per window size.

        ``floor`` is the lane's probe floor, its fetch cycle plus its
        front-end depth (the fetch cycle itself is never kept), ``fl``
        the fetch slots left in the fetch cycle and ``rl`` the retire
        slots left in the commit frontier's cycle ``cf``.
        """
        emit, rc = self.emit, self.ring_capacity
        emit(depth, "redirect_pending = False")
        for lane in self.lanes:
            config = self.configs[lane]
            emit(depth, f"tag{lane}, mask{lane} = [-1] * {rc}, {rc - 1}")
            for ring in _binding_rings(config):
                emit(depth, f"{ring}{lane} = [0] * {rc}")
                emit(depth, f"{ring}{lane}_skip_from = {ring}{lane}_skip_to = -1")
            emit(depth, f"cf{lane} = -1")
            emit(depth, f"rl{lane} = 0")
            emit(depth, f"rr{lane} = [0] * {num_regs}")
            emit(depth, f"wc{lane} = [0] * {config.max_in_flight}")
            emit(depth, f"floor{lane} = {config.frontend_depth}")
            emit(depth, f"fl{lane} = {config.fetch_width}")
            emit(depth, f"redirect{lane} = 0")
        for window in self.windows:
            emit(depth, f"wi{window} = 0")

    def rebound_names(self) -> list[str]:
        """Every state name a record's update may rebind; a record site
        in a nested function declares the ones it mentions ``nonlocal``."""
        names = [
            "current_fetch_line",
            "redirect_pending",
            "history",
            *(name for name in _COUNTERS if name not in _GROUP_COUNTERS),
        ]
        for group in range(len(self.groups)):
            names += (f"g{group}_{name}" for name in _GROUP_COUNTERS)
        for lane in self.lanes:
            names += (f"floor{lane}", f"fl{lane}", f"redirect{lane}")
            names += (f"cf{lane}", f"rl{lane}", self._wi(lane), f"tag{lane}", f"mask{lane}")
            for ring in _binding_rings(self.configs[lane]):
                names += (f"{ring}{lane}", f"{ring}{lane}_skip_from", f"{ring}{lane}_skip_to")
        return list(dict.fromkeys(names))

    # ---------------------------------------------------- redirect, fetch
    def redirect(self, depth: int) -> None:
        """Apply a pending fetch redirect.

        The reference re-maxes redirect_cycle against fetch_cycle on
        every record; applying a redirect once, at the next record, is
        equivalent because fetch stays at or above it from then on.  The
        pending flag is set exactly when an event wrote every lane's
        redirect (an all-zero redirect applies as a no-op).  A lane's
        ``redirect`` is kept in probe-floor units, like ``floor``.
        """
        emit = self.emit
        emit(depth, "if redirect_pending:")
        emit(depth + 1, "redirect_pending = False")
        for lane in self.lanes:
            emit(depth + 1, f"if redirect{lane} > floor{lane}:")
            emit(depth + 2, f"floor{lane} = redirect{lane}")
            emit(depth + 2, f"fl{lane} = {self.configs[lane].fetch_width}")

    def fetch(self, depth: int, line, l2_line, current="current_fetch_line") -> None:
        """Fetch: a new fetch line takes every cache group's I-cache (and
        on a miss its L2), then every lane accounts the fetch.

        ``l2_line(line_bytes)`` is the fetch's L2 line for an L2 of that
        line size.  ``current`` is the fetch line before this record: the
        run-time ``current_fetch_line``, or the previous record's line
        when the generator knows it, which folds the line-change test
        away.
        """
        emit = self.emit
        if not isinstance(current, str):
            if line == current:
                self._fetch_lanes(depth, self.lanes, 0)
            else:
                emit(depth, f"current_fetch_line = {line}")
                self._icache(depth, line, l2_line)
            return
        emit(depth, f"if {line} != {current}:")
        emit(depth + 1, f"current_fetch_line = {line}")
        self._icache(depth + 1, line, l2_line)
        emit(depth, "else:")
        self._fetch_lanes(depth + 1, self.lanes, 0)

    def _fetch_plain(self, depth: int, lane: int) -> None:
        emit = self.emit
        emit(depth, f"if fl{lane}:")
        emit(depth + 1, f"fl{lane} -= 1")
        emit(depth, "else:")
        emit(depth + 1, f"floor{lane} += 1")
        emit(depth + 1, f"fl{lane} = {self.configs[lane].fetch_width - 1}")

    def _fetch_lanes(self, depth: int, lanes, level: int) -> None:
        # level 0: fetch hit (plain width accounting); level 1/2: the
        # lane stalls by its baked bump unless that bump is zero (a
        # zero-penalty lane treats the miss as a hit, exactly like the
        # reference's ``latency > hit_cycles`` test).
        emit = self.emit
        for lane in lanes:
            config = self.configs[lane]
            bump = _fetch_bump(config, level) if level else 0
            if bump == 0:
                self._fetch_plain(depth, lane)
            else:
                emit(depth, f"floor{lane} += {bump}")
                emit(depth, f"fl{lane} = {config.fetch_width - 1}")

    def _icache(self, depth: int, line, l2_line) -> None:
        emit = self.emit
        emit(depth, "i_accesses += 1")
        computed = None
        for group, lanes in enumerate(self.groups):
            shape = self._shape(group)
            sets = shape.icache.num_sets
            if not isinstance(line, str):
                index, tag = line % sets, line // sets
            else:
                index, tag = "iset_", "tag"
                if sets != computed:
                    emit(depth, "iset_ = " + _mod(line, sets))
                    emit(depth, "tag = " + _div(line, sets))
                    computed = sets
            self._l1(
                depth,
                f"g{group}_i",
                shape.icache.associativity,
                index,
                tag,
                lambda at: self._fetch_lanes(at, lanes, 0),
                lambda at: self._l2(
                    at,
                    group,
                    l2_line(shape.l2cache.line_bytes),
                    lambda hit: self._fetch_lanes(hit, lanes, 1),
                    lambda miss: self._fetch_lanes(miss, lanes, 2),
                ),
            )

    # ------------------------------------------- caches (per cache group)
    def _l1(self, depth: int, cache: str, ways: int, index, tag, on_hit, on_miss) -> None:
        """An L1 lookup: flat MRU/LRU tag lists when 2-way, else per-set
        LRU lists; ``on_hit``/``on_miss`` emit each outcome's tail."""
        emit = self.emit
        if ways == 2:
            emit(depth, f"if {tag} == {cache}_mru[{index}]:")
            on_hit(depth + 1)
            emit(depth, f"elif {tag} == {cache}_lru[{index}]:")
            emit(depth + 1, f"{cache}_lru[{index}] = {cache}_mru[{index}]")
            emit(depth + 1, f"{cache}_mru[{index}] = {tag}")
            on_hit(depth + 1)
            emit(depth, "else:")
            emit(depth + 1, f"{cache}_misses += 1")
            emit(depth + 1, f"{cache}_lru[{index}] = {cache}_mru[{index}]")
            emit(depth + 1, f"{cache}_mru[{index}] = {tag}")
            on_miss(depth + 1)
        else:
            emit(depth, f"ways = {cache}_ways[{index}]")
            self._lru_list(depth, cache, ways, tag, on_hit, on_miss)

    def _lru_list(self, depth: int, cache: str, ways: int, tag, on_hit, on_miss) -> None:
        emit = self.emit
        emit(depth, f"if {tag} in ways:")
        emit(depth + 1, f"ways.remove({tag})")
        emit(depth + 1, f"ways.append({tag})")
        on_hit(depth + 1)
        emit(depth, "else:")
        emit(depth + 1, f"{cache}_misses += 1")
        emit(depth + 1, f"ways.append({tag})")
        emit(depth + 1, f"if len(ways) > {ways}:")
        emit(depth + 2, "ways.pop(0)")
        on_miss(depth + 1)

    def _l2(self, depth: int, group: int, line, on_hit, on_miss) -> None:
        emit, l2cfg = self.emit, self._shape(group).l2cache
        sets, cache = l2cfg.num_sets, f"g{group}_l2"
        emit(depth, f"{cache}_accesses += 1")
        if isinstance(line, str):
            emit(depth, "l2line = " + line)
            emit(depth, f"ways = {cache}_ways[" + _mod("l2line", sets) + "]")
            emit(depth, "l2tag = " + _div("l2line", sets))
            tag = "l2tag"
        else:
            emit(depth, f"ways = {cache}_ways[{line % sets}]")
            tag = line // sets
        self._lru_list(depth, cache, l2cfg.associativity, tag, on_hit, on_miss)

    # ------------------------------------------------------- dispatch
    def dispatch(self, depth: int, hot, srcs) -> None:
        """Dispatch: the window slot's floor, one pass over the source
        registers maxing every lane's cycle, then per functional-unit
        class every lane's issue probe with its functional-unit probe."""
        emit = self.emit
        for lane in self.lanes:
            emit(depth, f"cyc{lane} = wc{lane}[{self._wi(lane)}]")
            emit(depth, f"if cyc{lane} < floor{lane}:")
            emit(depth + 1, f"cyc{lane} = floor{lane}")
        if isinstance(srcs, str):
            emit(depth, f"for reg in {srcs}:")
            regs, at = ("reg",), depth + 1
        else:
            regs, at = srcs, depth
        for reg in regs:
            for lane in self.lanes:
                emit(at, f"r = rr{lane}[{reg}]")
                emit(at, f"if r > cyc{lane}:")
                emit(at + 1, f"cyc{lane} = r")
        if isinstance(hot, str):
            emit(depth, f"if {hot} & {HOT_FU}:")
            emit(depth + 1, f"if {hot} & {HOT_MEM}:")
            self._issue(depth + 2, "lsq")
            emit(depth + 1, "else:")
            self._issue(depth + 2, "mul")
            emit(depth, "else:")
            self._issue(depth + 1, "alu")
        else:
            self._issue(depth, "lsq" if hot & HOT_MEM else "mul" if hot & HOT_IMUL else "alu")

    def _issue(self, depth: int, unit: str) -> None:
        """Every lane's issue probe of ``cyc``, then its probe of
        functional-unit class ``unit``, on the lane's shared-tag rings.

        A lane's rings share one cycle-tag list ``tag``: slot ``cycle &
        mask`` holds one cycle's count in every ring, so an issue grant
        on a live slot settles the unit probe on that same slot, and
        claiming a stale slot (``tag < floor``: below every future probe)
        sets every ring's count at once.  A live collision grows all of
        the lane's rings and re-probes, so dict-allocator equivalence is
        unconditional.

        A unit class with at least ``issue_width`` units is never
        probed: every record reaches its class at the cycle the issue
        probe granted, and the issue ring admits at most ``issue_width``
        grants per cycle — so such a class never saturates, never defers
        a probe to a later cycle, and (by induction) never accumulates
        carryover demand.  Its ring would be pure bookkeeping that
        nothing reads, so :func:`_binding_rings` leaves it out.
        """
        emit = self.emit
        for lane in self.lanes:
            rings = _binding_rings(self.configs[lane])
            c = f"cyc{lane}"
            emit(depth, "while True:")
            self._probe_slot(depth + 1, lane)
            self._take(depth + 2, f"iss{lane}", rings["iss"])
            if unit in rings:
                # The unit's probe starts at the granted cycle, whose slot
                # the issue probe has just found live.
                name = f"{unit}{lane}"
                self._take(depth + 3, name, rings[unit])
                emit(depth + 3, "else:")
                self._skip(depth + 4, name, c)
                emit(depth + 4, "while True:")
                self._probe_slot(depth + 5, lane)
                self._take(depth + 6, name, rings[unit])
                emit(depth + 7, "break")
                self._skip(depth + 6, name, c)
                self._claim(depth + 5, lane, rings, (unit,))
            emit(depth + 3, "break")
            self._skip(depth + 2, f"iss{lane}", c)
            self._claim(depth + 1, lane, rings, ("iss", unit))

    def _probe_slot(self, depth: int, lane: int) -> None:
        """A probe's slot and tenant; opens the live-tenant branch."""
        emit = self.emit
        emit(depth, f"slot = cyc{lane} & mask{lane}")
        emit(depth, f"old = tag{lane}[slot]")
        emit(depth, f"if old == cyc{lane}:")

    def _take(self, depth: int, name: str, width: int) -> None:
        """Count one use of the live ``slot`` in ring ``name`` if it has
        room; opens the granted branch."""
        self.emit(depth, f"used = {name}[slot]")
        self.emit(depth, f"if used < {width}:")
        self.emit(depth + 1, f"{name}[slot] = used + 1")

    def _claim(self, depth: int, lane: int, rings: dict, claimants: tuple) -> None:
        """A probe's stale-slot claim (the ``claimants`` rings count one,
        every other ring zero) and its live-collision growth."""
        emit, c = self.emit, f"cyc{lane}"
        emit(depth, f"elif old < floor{lane}:")
        emit(depth + 1, f"tag{lane}[slot] = {c}")
        for ring in rings:
            emit(depth + 1, f"{ring}{lane}[slot] = {int(ring in claimants)}")
        emit(depth + 1, "break")
        emit(depth, "else:")
        counts = ", ".join(f"{ring}{lane}" for ring in rings)
        emit(depth + 1, f"tag{lane}, mask{lane}, {counts} = _grow_rings(")
        emit(depth + 2, f"tag{lane}, floor{lane}, {c} - floor{lane}, {counts}")
        emit(depth + 1, ")")

    def _skip(self, depth: int, name: str, c: str) -> None:
        """Step ``c`` past a full cycle of ring ``name``.

        Saturated-prefix memoization: per-cycle usage only ever grows,
        so a cycle once seen full stays full.  Each ring remembers one
        known-full interval ``[skip_from, skip_to)``; hitting a full
        cycle inside it jumps straight past the interval instead of
        re-walking it (the dominant cost at IPC near the issue width —
        several full cycles re-probed per record).  The memo is
        consulted and maintained exclusively on the full-cycle path, so
        unconstrained allocations pay nothing.
        """
        for line in (
            f"if {name}_skip_from <= {c} < {name}_skip_to:",
            f"    {c} = {name}_skip_to",
            f"elif {c} == {name}_skip_to:",
            f"    {name}_skip_to = {c} = {c} + 1",
            "else:",
            f"    {name}_skip_from = {c}",
            f"    {name}_skip_to = {c} = {c} + 1",
        ):
            self.emit(depth, line)

    # -------------------------------------------------------- execute
    def execute(self, depth: int, hot, mem=None) -> None:
        """Execute: every lane's completion ``c<lane>``, through each
        cache group's D-cache (and on a miss its L2) for a load or store.

        At generation time ``mem`` is a load/store's address expression
        (the simulator tags every load and store with its address).  The
        trace walk reads the address from the sparse memory column when
        the record's ``meta`` carries one.
        """
        emit = self.emit
        if not isinstance(hot, str):
            if hot & HOT_LS:
                emit(depth, "loads += 1" if hot & HOT_LOAD else "stores += 1")
                self._dcache(depth, mem, hot)
            else:
                self._complete(depth, hot & HOT_LATENCY_MASK)
            return
        emit(depth, f"if {hot} & {HOT_LS}:")
        emit(depth + 1, f"if {hot} & {HOT_LOAD}:")
        emit(depth + 2, "loads += 1")
        emit(depth + 1, "else:")
        emit(depth + 2, "stores += 1")
        emit(depth + 1, "if meta & 2:")
        emit(depth + 2, f"mem_address = mem_column[mem_cursor] & {_UINT64}")
        emit(depth + 2, "mem_cursor += 1")
        self._dcache(depth + 2, "mem_address", hot)
        emit(depth + 1, "else:")
        emit(depth + 2, f"lat = {hot} & {HOT_LATENCY_MASK}")
        self._complete(depth + 2, "lat")
        emit(depth, "else:")
        emit(depth + 1, f"lat = {hot} & {HOT_LATENCY_MASK}")
        self._complete(depth + 1, "lat")
        # A non-load/store record carrying a memory address still
        # consumes its slot of the sparse column, keeping the cursor
        # aligned.
        emit(depth + 1, "if meta & 2:")
        emit(depth + 2, "mem_cursor += 1")

    def _complete(self, depth: int, latency) -> None:
        for lane in self.lanes:
            self.emit(depth, f"c{lane} = cyc{lane} + {latency}")

    def _dcache(self, depth: int, address: str, hot) -> None:
        emit = self.emit
        emit(depth, "d_accesses += 1")
        line_bytes = sets = None
        for group, lanes in enumerate(self.groups):
            shape = self._shape(group)
            dcfg = shape.dcache
            if dcfg.line_bytes != line_bytes:
                emit(depth, "dline = " + _div(address, dcfg.line_bytes))
                line_bytes, sets = dcfg.line_bytes, None
            if dcfg.num_sets != sets:
                emit(depth, "dset_ = " + _mod("dline", dcfg.num_sets))
                emit(depth, "tag = " + _div("dline", dcfg.num_sets))
                sets = dcfg.num_sets
            l2_line = _div(address, shape.l2cache.line_bytes)
            self._l1(
                depth,
                f"g{group}_d",
                dcfg.associativity,
                "dset_",
                "tag",
                lambda at: self._load_complete(at, hot, lanes, 0),
                lambda at: self._l2(
                    at,
                    group,
                    l2_line,
                    lambda hit: self._load_complete(hit, hot, lanes, 1),
                    lambda miss: self._load_complete(miss, hot, lanes, 2),
                ),
            )

    def _load_complete(self, depth: int, hot, lanes, level: int) -> None:
        # Stores retire from the store queue at latency 1 in every lane;
        # loads take the lane's baked latency for this hit/miss level.
        emit = self.emit
        if isinstance(hot, str):
            emit(depth, f"if {hot} & {HOT_STORE}:")
            for lane in lanes:
                emit(depth + 1, f"c{lane} = cyc{lane} + 1")
            emit(depth, "else:")
            depth += 1
        elif hot & HOT_STORE:
            for lane in lanes:
                emit(depth, f"c{lane} = cyc{lane} + 1")
            return
        for lane in lanes:
            emit(depth, f"c{lane} = cyc{lane} + {_d_latency(self.configs[lane], level)}")

    # --------------------------------------------------------- commit
    def commit(self, depth: int, hot) -> None:
        """Commit, window write, destination readiness, window advance.

        The reference allocates retire slots from max(complete,
        last_commit); those probes are monotone, so each lane's retire
        allocator is a frontier: the cycle ``cf`` and the slots ``rl``
        left in it.
        """
        emit = self.emit
        for lane in self.lanes:
            left = self.configs[lane].retire_width - 1
            emit(depth, f"if c{lane} > cf{lane}:")
            emit(depth + 1, f"cf{lane} = c{lane}")
            emit(depth + 1, f"rl{lane} = {left}")
            emit(depth, f"elif rl{lane}:")
            emit(depth + 1, f"rl{lane} -= 1")
            emit(depth, "else:")
            emit(depth + 1, f"cf{lane} += 1")
            emit(depth + 1, f"rl{lane} = {left}")
            emit(depth, f"wc{lane}[{self._wi(lane)}] = cf{lane}")
        if isinstance(hot, str):
            emit(depth, f"dest = {hot} >> {HOT_DEST_SHIFT}")
            emit(depth, "if dest:")
            emit(depth + 1, "dreg = dest - 1")
            for lane in self.lanes:
                emit(depth + 1, f"rr{lane}[dreg] = c{lane}")
        elif hot >> HOT_DEST_SHIFT:
            for lane in self.lanes:
                emit(depth, f"rr{lane}[{(hot >> HOT_DEST_SHIFT) - 1}] = c{lane}")
        for window in self.windows:
            index = f"wi{window}"
            if window & (window - 1) == 0:
                emit(depth, f"{index} = ({index} + 1) & {window - 1}")
            else:
                emit(depth, f"{index} += 1")
                emit(depth, f"if {index} == {window}:")
                emit(depth + 1, f"{index} = 0")

    # --------------------------------------------------------- branch
    def branch(self, depth: int, hot, pc, taken) -> None:
        """Branch outcome: a conditional branch's predictor lookup and
        update (a misprediction redirects every lane at its completion
        plus its penalty), a taken call/return's redirect.

        ``taken`` known at generation time emits only that outcome's
        predictor arm.  A run-time ``pc`` that is not a name is bound to
        ``pc`` where a conditional branch needs it.
        """
        emit = self.emit
        if not isinstance(hot, str):
            if hot & HOT_BRANCH:
                if hot & HOT_CONDITIONAL:
                    self._predict(depth, pc, taken)
            elif hot & HOT_CALL_RETURN and taken:
                self._call_redirect(depth)
            return
        emit(depth, f"if {hot} & {HOT_CTRL}:")
        emit(depth + 1, f"if {hot} & {HOT_BRANCH} and meta & 4:")
        emit(depth + 2, f"if {hot} & {HOT_CONDITIONAL}:")
        emit(depth + 3, f"taken = {taken}")
        if not pc.isidentifier():
            emit(depth + 3, f"pc = {pc}")
        self._predict(depth + 3, "pc", "taken")
        emit(depth + 1, f"elif {hot} & {HOT_CALL_RETURN} and {taken}:")
        self._call_redirect(depth + 2)

    def _predict(self, depth: int, pc, taken) -> None:
        emit, pcfg = self.emit, self.pcfg
        emit(depth, f"gkey = ({pc} ^ history) & {pcfg.gshare_entries - 1}")
        if isinstance(pc, str):
            emit(depth, f"bkey = {pc} & {pcfg.bimodal_entries - 1}")
            emit(depth, f"skey = {pc} & {pcfg.selector_entries - 1}")
            bkey, skey = "bkey", "skey"
        else:
            bkey, skey = pc & (pcfg.bimodal_entries - 1), pc & (pcfg.selector_entries - 1)
        emit(depth, "gshare_prediction = gshare[gkey] >= 2")
        emit(depth, f"bimodal_prediction = bimodal[{bkey}] >= 2")
        emit(depth, f"if selector[{skey}] >= 2:")
        emit(depth + 1, "prediction = gshare_prediction")
        emit(depth, "else:")
        emit(depth + 1, "prediction = bimodal_prediction")
        emit(depth, "lookups += 1")
        if isinstance(taken, str):
            emit(depth, f"if {taken}:")
            self._train(depth + 1, True, bkey, skey)
            emit(depth, "else:")
            self._train(depth + 1, False, bkey, skey)
        else:
            self._train(depth, taken, bkey, skey)

    def _train(self, depth: int, taken: bool, bkey, skey) -> None:
        """One outcome's saturating updates (the arithmetic of
        :class:`~repro.uarch.branch_predictor.CombinedPredictor`), the
        history shift and the misprediction check."""
        emit = self.emit
        up, down = ("if counter < 3:", "counter + 1"), ("if counter > 0:", "counter - 1")
        toward, away = (up, down) if taken else (down, up)
        emit(depth, "if gshare_prediction != bimodal_prediction:")
        emit(depth + 1, f"counter = selector[{skey}]")
        emit(depth + 1, "if gshare_prediction:")
        emit(depth + 2, toward[0])
        emit(depth + 3, f"selector[{skey}] = {toward[1]}")
        emit(depth + 1, "el" + away[0])
        emit(depth + 2, f"selector[{skey}] = {away[1]}")
        for table, key in (("gshare", "gkey"), ("bimodal", bkey)):
            emit(depth, f"counter = {table}[{key}]")
            emit(depth, toward[0])
            emit(depth + 1, f"{table}[{key}] = {toward[1]}")
        history_mask = (1 << self.pcfg.history_bits) - 1
        if taken:
            emit(depth, f"history = ((history << 1) | 1) & {history_mask}")
            emit(depth, "if not prediction:")
        else:
            emit(depth, f"history = (history << 1) & {history_mask}")
            emit(depth, "if prediction:")
        emit(depth + 1, "mispredictions += 1")
        emit(depth + 1, "redirect_pending = True")
        for lane in self.lanes:
            config = self.configs[lane]
            delay = config.mispredict_redirect_penalty + config.frontend_depth
            emit(depth + 1, f"redirect{lane} = c{lane} + {delay}")
        emit(depth + 1, "current_fetch_line = -1")

    def _call_redirect(self, depth: int) -> None:
        # A taken call/return redirects fetch one cycle on.  A pending
        # redirect was either just applied (so it is at most fetch) or
        # never set, so the reference's max(redirect, fetch + 1) is
        # fetch + 1.
        self.emit(depth, "redirect_pending = True")
        for lane in self.lanes:
            self.emit(depth, f"redirect{lane} = floor{lane} + 1")
        self.emit(depth, "current_fetch_line = -1")

    # ------------------------------------------------ record site, end
    def site(self, depth: int, facts: tuple, mem, previous_line) -> None:
        """A record's update up to its branch section, every fact folded.

        ``facts`` is the uid's derived-walk tuple ``(hot, line, pc,
        srcs)`` and ``mem`` a load/store's address expression.
        ``previous_line`` is the fetch line of the record before it in
        the same unit, or ``None`` for a unit's first record: only a
        unit-final control record posts a redirect or invalidates the
        fetch line, so only a first record applies a pending redirect
        and tests the line at run time.
        """
        hot, line, pc, srcs = facts
        if previous_line is None:
            self.redirect(depth)
            previous_line = "current_fetch_line"
        # Machine code is word-aligned (``pc << 2`` is the fetch address),
        # so the fetch's L2 line folds exactly for any line sizes.
        self.fetch(depth, line, lambda line_bytes: (pc << 2) // line_bytes, previous_line)
        self.dispatch(depth, hot, srcs)
        self.execute(depth, hot, mem)
        self.commit(depth, hot)

    def finalize(self, depth: int) -> None:
        """``return`` one 11-tuple per lane: its cycles, then its counters."""
        emit = self.emit
        emit(depth, "return (")
        for lane in self.lanes:
            counters = ", ".join(self._counters(lane))
            emit(depth + 1, f"(max(cf{lane}, {self._fetch_cycle(lane)}) + 1, {counters}),")
        emit(depth, ")")

    def snapshot(self, lane: int = 0) -> str:
        """Lane ``lane``'s probe snapshot (see :func:`timing_from_probe`)."""
        return f"(cf{lane}, {self._fetch_cycle(lane)}, {', '.join(self._counters(lane))})"


def _multi_walk_source(configs: tuple, derived: bool) -> str:
    """Generate the walk source for the lanes ``configs`` of one walk group.

    The trace walk of :class:`_TimingEmitter`: every section reads the
    record it has just decoded at run time.  The shared sections
    (redirect, fetch-line test, FU-class dispatch, dest decode,
    branch/predictor) run once per record, the cache sections once per
    cache group, and they branch into per-lane blocks (fetch accounting,
    dependence/issue probes, completion, commit, redirect application)
    with each lane's scalar parameters baked in as literals.  A single
    config is one lane.  Bit-exactness of every lane against
    ``run_reference`` is asserted by the differential tests in
    ``tests/test_uarch_timing.py``.

    ``derived`` selects the address mode.  Simulator traces derive the
    instruction address from the static uid, so the fetch-line number
    and branch pc are *static* per-uid facts: the derived walk reads
    them from the per-uid tuples, iterates the meta column alone and
    reconstructs each L2's line from the fetch line.  Hand-built traces
    carry an explicit address column and take the two-column variant.
    """
    lanes = _TimingEmitter(configs, _MULTI_RING_BITS)
    emit = lanes.emit
    i_line = configs[0].icache.line_bytes
    emit(0, "def _timing_walk_multi(rows, addresses, mem_column, static_of, base, num_regs):")
    lanes.front_state(1)
    emit(1, "mem_cursor = 0")
    lanes.lane_state(1, "num_regs")
    if derived:
        emit(1, "for meta in rows:")
        emit(2, "hot, line, pc, srcs = static_of[(meta >> 8) - base]")

        # addr // l2_line == (addr // l1_line) // (l2_line // l1_line)
        # exactly, because _derived_mode_supported checked divisibility.
        def l2_line(line_bytes: int) -> str:
            return _div("line", line_bytes // i_line)

        pc = "pc"
    else:
        emit(1, "for meta, address in zip(rows, addresses):")
        emit(2, "hot, srcs = static_of[(meta >> 8) - base]")
        emit(2, "line = " + _div("address", i_line))

        def l2_line(line_bytes: int) -> str:
            return _div("address", line_bytes)

        pc = "address >> 2"
    lanes.redirect(2)
    lanes.fetch(2, "line", l2_line)
    lanes.dispatch(2, "hot", "srcs")
    lanes.execute(2, "hot")
    lanes.commit(2, "hot")
    lanes.branch(2, "hot", pc, "meta & 8")
    lanes.finalize(1)
    return "\n".join(lanes.take()) + "\n"


#: (lane-config tuple, derived) -> compiled walk (configs are frozen/hashable).
_MULTI_WALK_CACHE: dict = {}


def _multi_walk_for(configs: tuple, derived: bool):
    key = (configs, derived)
    walk = _MULTI_WALK_CACHE.get(key)
    if walk is None:
        namespace = {"_grow_rings": _grow_rings}
        exec(
            compile(_multi_walk_source(configs, derived), "<timing-kernel>", "exec"),
            namespace,
        )
        walk = namespace["_timing_walk_multi"]
        _MULTI_WALK_CACHE[key] = walk
    return walk


def _address_modes(trace: Trace, configs: list) -> list[bool]:
    """Validate ``trace``'s uids; True per config that walks it in derived mode.

    Same up-front uid validation (and the same KeyError) as the
    reference walk: a record without a static entry must not silently
    index a hole or an unrelated entry, and a derived-address record
    without an address must fail exactly like the reference's
    address-column materialization does.
    """
    static = trace.static
    addr_map = trace.address_map
    uid_counts = trace.uid_counts()
    for uid in uid_counts:
        if static.get(uid) is None:
            raise KeyError(uid)
    has_derived = trace.has_derived_addresses and addr_map is not None
    modes = [has_derived and _derived_mode_supported(config) for config in configs]
    if any(modes):
        for uid in uid_counts:
            if uid not in addr_map:
                raise KeyError(uid)
    return modes


def _time_lanes(trace: Trace, configs) -> list:
    """Time ``trace`` under each of ``configs`` (``None`` = default config).

    Validates the trace's uids once, times each distinct config once,
    groups distinct configs by :func:`_walk_shape`, walks each group in
    chunks of at most :data:`MULTI_KERNEL_MAX_LANES` lanes and maps every
    lane's counters to a :class:`TimingResult`, in ``configs`` order.
    """
    resolved = [config or MachineConfig() for config in configs]
    if not resolved:
        return []
    lane_index: dict[MachineConfig, int] = {}
    unique: list[MachineConfig] = []
    for config in resolved:
        if config not in lane_index:
            lane_index[config] = len(unique)
            unique.append(config)
    derived_flags = _address_modes(trace, unique)
    static = trace.static
    addr_map = trace.address_map

    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(unique):
        groups.setdefault(_walk_shape(config, derived_flags[index]), []).append(index)

    table = _table_for(static)
    counters: list = [None] * len(unique)
    for (derived, line_bytes, _), members in groups.items():
        static_of = _static_of_for(static, table, addr_map if derived else None, line_bytes)
        for start in range(0, len(members), MULTI_KERNEL_MAX_LANES):
            chunk = members[start : start + MULTI_KERNEL_MAX_LANES]
            walk = _multi_walk_for(tuple(unique[index] for index in chunk), derived)
            out = walk(
                trace.metas,
                None if derived else trace.addresses(),
                trace.mem_addresses,
                static_of,
                table.uid_base,
                table.num_regs,
            )
            for index, lane in zip(chunk, out):
                counters[index] = lane

    instructions = len(trace)
    return [
        timing_from_counters(counters[lane_index[config]], instructions)
        for config in resolved
    ]


def run_compiled(trace: Trace, config: MachineConfig | None = None):
    """Time ``trace`` under one machine config: the lane walk at one lane.

    Bit-exact against :meth:`OutOfOrderModel.run_reference
    <repro.uarch.ooo.OutOfOrderModel.run_reference>`.
    """
    return _time_lanes(trace, (config,))[0]


def run_compiled_many(trace: Trace, configs) -> list:
    """Time ``trace`` under many machine configs in batched lane walks.

    Order-preserving: ``results[i]`` corresponds to ``configs[i]``
    (``None`` entries mean the default :class:`MachineConfig`), and
    every result is field-for-field identical to
    ``run_compiled(trace, configs[i])``.  Duplicate configs are timed
    once; distinct configs are grouped by :func:`_walk_shape` (address
    mode, I-cache line size, predictor) so each group shares one trace
    walk — record decode, fetch-line test and predictor once, caches
    once per geometry, one scoreboard lane per config — chunked at
    :data:`MULTI_KERNEL_MAX_LANES` lanes.
    """
    return _time_lanes(trace, configs)


class TimingMemo:
    """Timing results by :func:`_walk_key` and machine config.

    :meth:`time` answers exactly like :func:`run_compiled_many` but walks
    a trace only under the configs not yet timed for an equal key, so
    timing-identical traces share one walk.  The memo holds results,
    never a trace, and every call returns fresh copies, so two callers
    never share a mutable :class:`TimingResult`.  Threads may share a
    memo: two threads missing on one key both walk and store equal
    results.
    """

    def __init__(self) -> None:
        self._results: dict[tuple[bytes, MachineConfig], TimingResult] = {}

    def time(self, trace: Trace, configs) -> list:
        """``run_compiled_many(trace, configs)``, walking only what is new."""
        resolved = [config or MachineConfig() for config in configs]
        if not resolved:
            return []
        _address_modes(trace, resolved)
        key = _walk_key(trace)
        results = self._results
        missing = [config for config in dict.fromkeys(resolved) if (key, config) not in results]
        if missing:
            for config, timing in zip(missing, run_compiled_many(trace, missing)):
                results[(key, config)] = timing
        return [_copy(results[(key, config)]) for config in resolved]


def _copy(timing: TimingResult) -> TimingResult:
    return replace(timing, extra=dict(timing.extra))


def timing_from_counters(counters: tuple, instructions: int) -> TimingResult:
    """Build a :class:`TimingResult` from the kernel's 11-counter tuple.

    The one mapping of that tuple: the lane walk and the fused tier's
    ``_finalize()`` return one per lane (:meth:`_TimingEmitter.finalize`).
    """
    (
        cycles,
        lookups,
        mispredictions,
        i_accesses,
        i_misses,
        d_accesses,
        d_misses,
        l2_accesses,
        l2_misses,
        loads,
        stores,
    ) = counters
    return TimingResult(
        cycles=cycles,
        instructions=instructions,
        branch_lookups=lookups,
        branch_mispredictions=mispredictions,
        icache_accesses=i_accesses,
        icache_misses=i_misses,
        dcache_accesses=d_accesses,
        dcache_misses=d_misses,
        l2_accesses=l2_accesses,
        l2_misses=l2_misses,
        loads=loads,
        stores=stores,
    )


def timing_from_probe(snapshot: tuple, instructions: int) -> TimingResult:
    """Project a per-record probe snapshot onto a prefix TimingResult.

    A probe snapshot (:meth:`_TimingEmitter.snapshot`) is
    ``(commit_frontier, fetch_cycle, <10 counters>)`` taken immediately
    after one record's full update.  Finalizing from it reproduces what
    the compiled kernel returns for the trace prefix that ends at that
    record: a redirect the final record posts is never consumed, so it
    doesn't enter the cycle count on either side.
    """
    commit_frontier, fetch_cycle = snapshot[0], snapshot[1]
    last_commit = commit_frontier if commit_frontier >= 0 else 0
    cycles = (last_commit if last_commit > fetch_cycle else fetch_cycle) + 1
    return timing_from_counters((cycles,) + tuple(snapshot[2:]), instructions)
