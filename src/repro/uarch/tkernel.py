"""Compiled out-of-order timing kernel: one generated lane walk.

Runs the *same scoreboard arithmetic* as the reference walk in
:meth:`repro.uarch.ooo.OutOfOrderModel.run_reference`, but as
**generated Python source** (the same technique the simulator's block
compiler uses) driven off precomputed packed data.  One generator,
:func:`_multi_walk_source`, emits every compiled timing walk:
:func:`run_compiled` is its walk at one lane, and
:func:`run_compiled_many` packs many configs into lanes.

* **Lane walk**: configs that share cache geometries, predictor tables
  and address mode (one :func:`_lane_shape` group) share one trace
  walk.  The fetch line, every cache access and the predictor stream
  are the same for all of them, so they are simulated once per record;
  each config gets its own scoreboard *lane* (suffixed locals, its own
  slot allocators) with its cycle-valued parameters baked in as
  literals.  Power-of-two cache/line/window arithmetic compiles to
  shifts and masks, and only the configured cache-associativity variant
  is emitted.  Compiled once per (lane configs, address mode) and
  cached for the process.

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
  alone; hand-built traces take the explicit two-column variant.

* **Ring-buffer slot allocators**: the reference model's ``_Slots``
  (a per-cycle usage dict) becomes a pair of flat lists per allocator —
  ``cycle_at[slot]``/``count[slot]`` with ``slot = cycle & mask`` — so
  an ``allocate`` is list indexing instead of dict probing, and the
  occupancy state is bounded by the ring capacity instead of growing
  with the cycle count.  Equivalence is unconditional: a slot write
  that would clobber a *live* tenant (tenant cycle ≥ the monotone probe
  floor ``fetch + frontend_depth``) grows the ring first
  (:func:`_grow_ring`); stale tenants are below every future probe, so
  overwriting them is exactly the dict allocator's garbage.  A
  known-full interval memo collapses the re-walk of saturated cycles
  (see :func:`_ring_probe`), and the retire allocator's probes are
  monotone (``max(complete, last_commit)``), so it collapses further,
  to a frontier ``(cycle, used)`` scalar pair.

* **Inlined caches and predictor**: L1 set/tag math runs on flat
  MRU/LRU tag lists when the cache is 2-way (the Table 2 shape), with a
  generic per-set list fallback for other associativities; the shared
  L2 keeps the reference's per-set LRU lists (it is only touched on L1
  misses).  The gshare/bimodal/selector tables are flat lists of 2-bit
  counters updated inline with the exact saturation arithmetic of
  :class:`~repro.uarch.branch_predictor.CombinedPredictor`.

Every counter (accesses, misses, lookups, mispredictions, loads,
stores) and every cycle of every lane is bit-exact against the
reference walk — the differential harness in
``tests/test_uarch_timing.py`` asserts field-for-field
:class:`TimingResult` equality on hypothesis-generated programs and
configs and on every suite workload.  Select the kernel with
``REPRO_TIMING_KERNEL=reference|compiled`` (compiled is the default);
see ``docs/timing.md``.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass

from ..sim import Trace
from ..sim.fusedc import timing_from_counters
from ..sim.trace import StaticInfo
from .config import MachineConfig

__all__ = [
    "StaticTable",
    "bake_static_table",
    "run_compiled",
    "run_compiled_many",
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


def _grow_ring(
    cycle_at: list, count: list, floor: int, span: int
) -> tuple[list, list, int]:
    """Grow a ring until ``span`` fits, rehashing live entries (≥ ``floor``).

    Entries below the monotone probe floor can never be probed again, so
    dropping them is exactly what the dict allocator's garbage is.
    """
    capacity = 2 * len(cycle_at)
    while capacity <= span:
        capacity *= 2
    mask = capacity - 1
    new_cycle_at = [-1] * capacity
    new_count = [0] * capacity
    for cycle, used in zip(cycle_at, count):
        if cycle >= floor:
            slot = cycle & mask
            new_cycle_at[slot] = cycle
            new_count[slot] = used
    return new_cycle_at, new_count, mask


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


def _ring_probe(
    name: str,
    width: int,
    indent: str,
    cycle_var: str,
    floor_var: str = "floor",
) -> str:
    """Source for one inlined ring-allocator probe from ``cycle_var``.

    A slot write may only clobber a stale tenant (``old < floor``:
    below every future probe); a live collision grows the ring and
    re-probes, so dict-allocator equivalence is unconditional.

    Saturated-prefix memoization: per-cycle usage only ever grows, so a
    cycle once seen full stays full.  Each allocator remembers one
    known-full interval ``[skip_from, skip_to)``; hitting a full cycle
    inside it jumps straight past the interval instead of re-walking it
    (the dominant cost at IPC near the issue width — several full
    cycles re-probed per record).  The memo is consulted and maintained
    exclusively on the full-cycle path, so unconstrained allocations
    pay nothing.

    ``cycle_var`` is the cycle being probed and ``floor_var`` its
    monotone floor: the lane walk probes each lane's ``cyc<lane>``
    against ``floor<lane>``, the fused tier (:mod:`repro.sim.fusedc`)
    its ``_cy`` against ``floor``.
    """
    n = name
    c = cycle_var
    f = floor_var
    lines = [
        "while True:",
        f"    slot = {c} & {n}_mask",
        f"    old = {n}_cycle_at[slot]",
        f"    if old == {c}:",
        f"        used = {n}_count[slot]",
        f"        if used < {width}:",
        f"            {n}_count[slot] = used + 1",
        "            break",
        f"        if {n}_skip_from <= {c} < {n}_skip_to:",
        f"            {c} = {n}_skip_to",
        f"        elif {c} == {n}_skip_to:",
        f"            {n}_skip_to = {c} = {c} + 1",
        "        else:",
        f"            {n}_skip_from = {c}",
        f"            {n}_skip_to = {c} = {c} + 1",
        f"    elif old < {f}:",
        f"        {n}_cycle_at[slot] = {c}",
        f"        {n}_count[slot] = 1",
        "        break",
        "    else:",
        f"        {n}_cycle_at, {n}_count, {n}_mask = _grow_ring(",
        f"            {n}_cycle_at, {n}_count, {f}, {c} - {f}",
        "        )",
    ]
    return "\n".join(indent + line for line in lines)


def _fu_probe(
    name: str,
    width: int,
    issue_width: int,
    indent: str,
    cycle_var: str,
    floor_var: str = "floor",
) -> str | None:
    """A functional-unit probe, or ``None`` when it can never bind.

    Every record reaches its functional-unit class at the cycle the
    issue probe granted, and the issue ring admits at most
    ``issue_width`` grants per cycle — so a class with at least
    ``issue_width`` units sees at most ``issue_width`` same-cycle
    probes, never saturates, never defers a probe to a later cycle, and
    (by induction) never accumulates carryover demand.  Its ring is
    then pure bookkeeping that nothing reads: the probe is a timing
    no-op and is elided from the generated walk entirely.
    """
    if width >= issue_width:
        return None
    return _ring_probe(name, width, indent, cycle_var=cycle_var, floor_var=floor_var)


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


# ---------------------------------------------------------------------------
# The lane walk: one trace walk, one scoreboard lane per machine config.
#
# Within a *shape group* — configs sharing cache geometries (line/sets/
# associativity for L1I, L1D and L2), the predictor configuration and
# the address mode — the entire front-end event stream is identical
# across configs: the fetch-line sequence, every cache hit/miss level,
# the predictor's prediction/update stream (a pure function of the
# (pc, taken) trace stream), mispredict events and call/return
# redirect events.  Configs in a group may still differ in every
# *cycle-valued* parameter: pipeline widths, window size, frontend
# depth, mispredict penalty, functional-unit counts and all cache
# latencies.  The generated walk exploits this: it walks the trace
# once, computes the shared stream once per record, and carries one
# scoreboard *lane* per config (suffixed locals, per-lane ring
# allocators) with that lane's constants baked in as literals — so N
# configs cost one trace decode, one static lookup, one cache/predictor
# simulation, plus N scoreboards.  A single config is the same walk at
# one lane.
# ---------------------------------------------------------------------------

#: Lane cap per generated walk.  More lanes amortize the
#: shared front-end further but grow the per-record bytecode body;
#: beyond ~8 lanes the marginal win is noise while the generated source
#: (and its compile time) keeps growing, so larger batches are chunked.
MULTI_KERNEL_MAX_LANES = 8

#: log2 of the initial capacity of each lane's slot-allocator rings (up
#: to four per lane, so a walk allocates ``4 * lanes``).  Growth on a
#: live collision keeps this a sizing hint, not a correctness bound;
#: tests shrink it to force the growth path.
_MULTI_RING_BITS = 12


def _lane_shape(config: MachineConfig, derived: bool) -> tuple:
    """Grouping key under which configs can share one lane walk.

    Everything the *shared* (per-group) generated code bakes in must be
    in the key: cache geometries, predictor table sizes/history and the
    address mode.  Cycle-valued parameters are per-lane and excluded.
    """
    icfg, dcfg, l2cfg = config.icache, config.dcache, config.l2cache
    return (
        derived,
        (icfg.line_bytes, icfg.num_sets, icfg.associativity),
        (dcfg.line_bytes, dcfg.num_sets, dcfg.associativity),
        (l2cfg.line_bytes, l2cfg.num_sets, l2cfg.associativity),
        config.predictor,
    )


def _multi_walk_source(configs: tuple, derived: bool) -> str:
    """Generate the walk source for the lanes ``configs`` of one shape group.

    The per-record body is the reference walk's scoreboard arithmetic:
    shared sections (extract, fetch-line/icache, FU-class dispatch,
    dcache, dest decode, branch/predictor) are emitted once and branch
    into per-lane blocks (fetch accounting, dependence/issue probes,
    completion, commit, redirect application) with each lane's scalar
    parameters baked in as literals.  A single config is one lane.
    Bit-exactness of every lane against ``run_reference`` is asserted by
    the differential tests in ``tests/test_uarch_timing.py``.

    ``derived`` selects the address mode.  Simulator traces derive the
    instruction address from the static uid, so the fetch-line number
    and branch pc are *static* per-uid facts: the derived walk reads
    them from the per-uid tuples, iterates the meta column alone and
    reconstructs the icache's L2 line from the fetch line.  Hand-built
    traces carry an explicit address column and take the two-column
    variant.
    """
    n = len(configs)
    shape = configs[0]
    icfg, dcfg, l2cfg = shape.icache, shape.dcache, shape.l2cache
    pcfg = shape.predictor
    rc = 1 << _MULTI_RING_BITS
    lanes = range(n)
    same_window = len({c.max_in_flight for c in configs}) == 1
    src: list[str] = []

    def emit(depth: int, text: str = "") -> None:
        src.append("    " * depth + text if text else "")

    def l2_extra(config: MachineConfig) -> int:
        memory_latency = (
            config.memory_first_chunk_cycles + 3 * config.memory_interchunk_cycles
        )
        return config.l2cache.miss_penalty_cycles + memory_latency

    def fetch_bump(config: MachineConfig, level: int) -> int:
        # A missed instruction fetch stalls fetch by its latency beyond
        # the hit time (the reference's ``latency - hit_cycles``):
        # miss_penalty at L2-hit level, plus the L2 miss path's memory
        # latency at L2-miss level.
        bump = config.icache.miss_penalty_cycles
        if level == 2:
            bump += l2_extra(config)
        return bump

    def d_latency(config: MachineConfig, level: int) -> int:
        latency = config.dcache.hit_cycles
        if level >= 1:
            latency += config.dcache.miss_penalty_cycles
        if level == 2:
            latency += l2_extra(config)
        return latency

    def emit_fetch_plain(depth: int, lane: int) -> None:
        config = configs[lane]
        emit(depth, f"if fic{lane} >= {config.fetch_width}:")
        emit(depth + 1, f"fetch{lane} += 1")
        emit(depth + 1, f"fic{lane} = 1")
        emit(depth + 1, f"floor{lane} += 1")
        emit(depth, "else:")
        emit(depth + 1, f"fic{lane} += 1")

    def emit_fetch_all(depth: int, level: int) -> None:
        # level 0: fetch hit (plain width accounting); level 1/2: the
        # lane stalls by its baked bump unless that bump is zero (a
        # zero-penalty lane treats the miss as a hit, exactly like the
        # reference's ``latency > hit_cycles`` test).
        for lane in lanes:
            bump = fetch_bump(configs[lane], level) if level else 0
            if bump == 0:
                emit_fetch_plain(depth, lane)
            else:
                emit(depth, f"fetch{lane} += {bump}")
                emit(depth, f"fic{lane} = 1")
                emit(depth, f"floor{lane} = fetch{lane} + {configs[lane].frontend_depth}")

    def emit_l2(depth: int, line_expr: str, on_hit, on_miss) -> None:
        emit(depth, "l2_accesses += 1")
        emit(depth, "l2line = " + line_expr)
        emit(depth, "ways = l2_ways[" + _mod("l2line", l2cfg.num_sets) + "]")
        emit(depth, "l2tag = " + _div("l2line", l2cfg.num_sets))
        emit(depth, "if l2tag in ways:")
        emit(depth + 1, "ways.remove(l2tag)")
        emit(depth + 1, "ways.append(l2tag)")
        on_hit(depth + 1)
        emit(depth, "else:")
        emit(depth + 1, "l2_misses += 1")
        emit(depth + 1, "ways.append(l2tag)")
        emit(depth + 1, f"if len(ways) > {l2cfg.associativity}:")
        emit(depth + 2, "ways.pop(0)")
        on_miss(depth + 1)

    def emit_load_complete(depth: int, level: int) -> None:
        # Stores retire from the store queue at latency 1 in every lane;
        # loads take the lane's baked latency for this hit/miss level.
        emit(depth, "if hot & 2048:")
        for lane in lanes:
            emit(depth + 1, f"c{lane} = cyc{lane} + 1")
        emit(depth, "else:")
        for lane in lanes:
            emit(depth + 1, f"c{lane} = cyc{lane} + {d_latency(configs[lane], level)}")

    # ----------------------------------------------------------- header
    emit(0, "def _timing_walk_multi(rows, addresses, mem_column, static_of, base, num_regs):")
    if icfg.associativity == 2:
        emit(1, f"i_mru, i_lru = [None] * {icfg.num_sets}, [None] * {icfg.num_sets}")
    else:
        emit(1, f"i_ways = [[] for _ in range({icfg.num_sets})]")
    if dcfg.associativity == 2:
        emit(1, f"d_mru, d_lru = [None] * {dcfg.num_sets}, [None] * {dcfg.num_sets}")
    else:
        emit(1, f"d_ways = [[] for _ in range({dcfg.num_sets})]")
    emit(1, f"l2_ways = [[] for _ in range({l2cfg.num_sets})]")
    emit(1, "i_accesses = i_misses = d_accesses = d_misses = l2_accesses = l2_misses = 0")
    emit(1, f"gshare = [1] * {pcfg.gshare_entries}")
    emit(1, f"bimodal = [1] * {pcfg.bimodal_entries}")
    emit(1, f"selector = [2] * {pcfg.selector_entries}")
    emit(1, "history = 0")
    emit(1, "lookups = mispredictions = 0")
    emit(1, "loads = stores = 0")
    emit(1, "current_fetch_line = -1")
    emit(1, "mem_cursor = 0")
    emit(1, "redirect_pending = False")
    def binding_rings(lane: int) -> list[str]:
        # Functional-unit rings with at least issue_width units can
        # never bind (see _fu_probe) and are elided per lane.
        config = configs[lane]
        rings = ["iss"]
        for ring, width in (
            ("alu", config.int_alus),
            ("mul", config.int_muls),
            ("lsq", config.lsq_ports),
        ):
            if width < config.issue_width:
                rings.append(ring)
        return rings

    for lane in lanes:
        config = configs[lane]
        for ring in binding_rings(lane):
            name = f"{ring}{lane}"
            emit(1, f"{name}_cycle_at, {name}_count, {name}_mask = [-1] * {rc}, [0] * {rc}, {rc - 1}")
            emit(1, f"{name}_skip_from = {name}_skip_to = -1")
        emit(1, f"cf{lane} = -1")
        emit(1, f"cu{lane} = 0")
        emit(1, f"rr{lane} = [0] * num_regs")
        emit(1, f"wc{lane} = [0] * {config.max_in_flight}")
        emit(1, f"fetch{lane} = 0")
        emit(1, f"fic{lane} = 0")
        emit(1, f"floor{lane} = {config.frontend_depth}")
        emit(1, f"redirect{lane} = 0")
    if same_window:
        emit(1, "wi = 0")
    else:
        for lane in lanes:
            emit(1, f"wi{lane} = 0")

    # ------------------------------------------------------------- loop
    if derived:
        emit(1, "for meta in rows:")
        emit(2, "hot, line, pc, srcs = static_of[(meta >> 8) - base]")
        # addr // l2_line == (addr // l1_line) // (l2_line // l1_line)
        # exactly, because _derived_mode_supported checked divisibility.
        i_l2_line = _div("line", l2cfg.line_bytes // icfg.line_bytes)
    else:
        emit(1, "for meta, address in zip(rows, addresses):")
        emit(2, "hot, srcs = static_of[(meta >> 8) - base]")
        emit(2, "line = " + _div("address", icfg.line_bytes))
        i_l2_line = _div("address", l2cfg.line_bytes)

    # Redirect application.  The reference re-maxes redirect_cycle
    # against fetch_cycle on every record; applying a redirect once, at
    # the next record, is equivalent because fetch stays at or above it
    # from then on.  The pending flag is set exactly when an event wrote
    # every lane's redirect (an all-zero redirect applies as a no-op).
    emit(2, "if redirect_pending:")
    emit(3, "redirect_pending = False")
    for lane in lanes:
        emit(3, f"if redirect{lane} > fetch{lane}:")
        emit(4, f"fetch{lane} = redirect{lane}")
        emit(4, f"fic{lane} = 0")
        emit(4, f"floor{lane} = fetch{lane} + {configs[lane].frontend_depth}")

    # Shared fetch line + icache, branching into per-lane fetch blocks.
    emit(2, "if line != current_fetch_line:")
    emit(3, "current_fetch_line = line")
    emit(3, "i_accesses += 1")
    emit(3, "iset_ = " + _mod("line", icfg.num_sets))
    emit(3, "tag = " + _div("line", icfg.num_sets))
    if icfg.associativity == 2:
        emit(3, "if tag == i_mru[iset_]:")
        emit_fetch_all(4, 0)
        emit(3, "elif tag == i_lru[iset_]:")
        emit(4, "i_lru[iset_] = i_mru[iset_]")
        emit(4, "i_mru[iset_] = tag")
        emit_fetch_all(4, 0)
        emit(3, "else:")
        emit(4, "i_misses += 1")
        emit(4, "i_lru[iset_] = i_mru[iset_]")
        emit(4, "i_mru[iset_] = tag")
        emit_l2(
            4,
            i_l2_line,
            lambda depth: emit_fetch_all(depth, 1),
            lambda depth: emit_fetch_all(depth, 2),
        )
    else:
        emit(3, "ways = i_ways[iset_]")
        emit(3, "if tag in ways:")
        emit(4, "ways.remove(tag)")
        emit(4, "ways.append(tag)")
        emit_fetch_all(4, 0)
        emit(3, "else:")
        emit(4, "i_misses += 1")
        emit(4, "ways.append(tag)")
        emit(4, f"if len(ways) > {icfg.associativity}:")
        emit(5, "ways.pop(0)")
        emit_l2(
            4,
            i_l2_line,
            lambda depth: emit_fetch_all(depth, 1),
            lambda depth: emit_fetch_all(depth, 2),
        )
    emit(2, "else:")
    for lane in lanes:
        emit_fetch_plain(3, lane)

    # Per-lane dispatch (window floor), one shared dependence loop that
    # maxes every lane's cycle in a single pass over srcs, then the
    # per-lane issue probes.
    for lane in lanes:
        wiv = "wi" if same_window else f"wi{lane}"
        emit(2, f"cyc{lane} = wc{lane}[{wiv}]")
        emit(2, f"if cyc{lane} < floor{lane}:")
        emit(3, f"cyc{lane} = floor{lane}")
    emit(2, "for reg in srcs:")
    for lane in lanes:
        emit(3, f"r = rr{lane}[reg]")
        emit(3, f"if r > cyc{lane}:")
        emit(4, f"cyc{lane} = r")
    for lane in lanes:
        src.append(
            _ring_probe(
                f"iss{lane}",
                configs[lane].issue_width,
                " " * 8,
                cycle_var=f"cyc{lane}",
                floor_var=f"floor{lane}",
            )
        )

    # Shared FU-class dispatch, per-lane functional-unit probes
    # (lanes whose class can never bind are elided, see _fu_probe).
    def emit_fu_probes(ring: str, widths, indent: str, pad_depth: int) -> None:
        emitted = False
        for lane in lanes:
            probe = _fu_probe(
                f"{ring}{lane}",
                widths[lane],
                configs[lane].issue_width,
                indent,
                cycle_var=f"cyc{lane}",
                floor_var=f"floor{lane}",
            )
            if probe is not None:
                src.append(probe)
                emitted = True
        if not emitted:
            emit(pad_depth, "pass")

    emit(2, "if hot & 768:")
    emit(3, "if hot & 512:")
    emit_fu_probes("lsq", [c.lsq_ports for c in configs], " " * 16, 4)
    emit(3, "else:")
    emit_fu_probes("mul", [c.int_muls for c in configs], " " * 16, 4)
    emit(2, "else:")
    emit_fu_probes("alu", [c.int_alus for c in configs], " " * 12, 3)

    # Shared execute: dcache levels fan into per-lane completions.
    emit(2, "if hot & 3072:")
    emit(3, "if hot & 1024:")
    emit(4, "loads += 1")
    emit(3, "else:")
    emit(4, "stores += 1")
    emit(3, "if meta & 2:")
    emit(4, f"mem_address = mem_column[mem_cursor] & {_UINT64}")
    emit(4, "mem_cursor += 1")
    emit(4, "d_accesses += 1")
    emit(4, "dline = " + _div("mem_address", dcfg.line_bytes))
    emit(4, "dset_ = " + _mod("dline", dcfg.num_sets))
    emit(4, "tag = " + _div("dline", dcfg.num_sets))
    d_l2_line = _div("mem_address", l2cfg.line_bytes)
    if dcfg.associativity == 2:
        emit(4, "if tag == d_mru[dset_]:")
        emit_load_complete(5, 0)
        emit(4, "elif tag == d_lru[dset_]:")
        emit(5, "d_lru[dset_] = d_mru[dset_]")
        emit(5, "d_mru[dset_] = tag")
        emit_load_complete(5, 0)
        emit(4, "else:")
        emit(5, "d_misses += 1")
        emit(5, "d_lru[dset_] = d_mru[dset_]")
        emit(5, "d_mru[dset_] = tag")
        emit_l2(
            5,
            d_l2_line,
            lambda depth: emit_load_complete(depth, 1),
            lambda depth: emit_load_complete(depth, 2),
        )
    else:
        emit(4, "ways = d_ways[dset_]")
        emit(4, "if tag in ways:")
        emit(5, "ways.remove(tag)")
        emit(5, "ways.append(tag)")
        emit_load_complete(5, 0)
        emit(4, "else:")
        emit(5, "d_misses += 1")
        emit(5, "ways.append(tag)")
        emit(5, f"if len(ways) > {dcfg.associativity}:")
        emit(6, "ways.pop(0)")
        emit_l2(
            5,
            d_l2_line,
            lambda depth: emit_load_complete(depth, 1),
            lambda depth: emit_load_complete(depth, 2),
        )
    emit(3, "else:")
    emit(4, "lat = hot & 255")
    for lane in lanes:
        emit(4, f"c{lane} = cyc{lane} + lat")
    emit(2, "else:")
    emit(3, "lat = hot & 255")
    for lane in lanes:
        emit(3, f"c{lane} = cyc{lane} + lat")
    # A non-load/store record carrying a memory address still consumes
    # its slot of the sparse column, keeping the cursor aligned.
    emit(3, "if meta & 2:")
    emit(4, "mem_cursor += 1")

    # Per-lane commit and window write.  The reference allocates retire
    # slots from max(complete, last_commit); those probes are monotone,
    # so each lane's retire allocator is a frontier (cycle, used) pair.
    for lane in lanes:
        config = configs[lane]
        wiv = "wi" if same_window else f"wi{lane}"
        emit(2, f"if c{lane} > cf{lane}:")
        emit(3, f"cf{lane} = c{lane}")
        emit(3, f"cu{lane} = 1")
        emit(2, f"elif cu{lane} >= {config.retire_width}:")
        emit(3, f"cf{lane} += 1")
        emit(3, f"cu{lane} = 1")
        emit(2, "else:")
        emit(3, f"cu{lane} += 1")
        emit(2, f"wc{lane}[{wiv}] = cf{lane}")

    emit(2, "dest = hot >> 16")
    emit(2, "if dest:")
    emit(3, "dreg = dest - 1")
    for lane in lanes:
        emit(3, f"rr{lane}[dreg] = c{lane}")

    if same_window:
        window = shape.max_in_flight
        if window & (window - 1) == 0:
            emit(2, f"wi = (wi + 1) & {window - 1}")
        else:
            emit(2, "wi += 1")
            emit(2, f"if wi == {window}:")
            emit(3, "wi = 0")
    else:
        for lane in lanes:
            window = configs[lane].max_in_flight
            if window & (window - 1) == 0:
                emit(2, f"wi{lane} = (wi{lane} + 1) & {window - 1}")
            else:
                emit(2, f"wi{lane} += 1")
                emit(2, f"if wi{lane} == {window}:")
                emit(3, f"wi{lane} = 0")

    # Shared branch/predictor section; redirect events write every lane.
    emit(2, "if hot & 20480:")
    emit(3, "if hot & 4096 and meta & 4:")
    emit(4, "if hot & 8192:")
    emit(5, "taken = meta & 8")
    if not derived:
        emit(5, "pc = address >> 2")
    emit(5, f"gkey = (pc ^ history) & {pcfg.gshare_entries - 1}")
    emit(5, f"bkey = pc & {pcfg.bimodal_entries - 1}")
    emit(5, f"skey = pc & {pcfg.selector_entries - 1}")
    emit(5, "gshare_prediction = gshare[gkey] >= 2")
    emit(5, "bimodal_prediction = bimodal[bkey] >= 2")
    emit(5, "if selector[skey] >= 2:")
    emit(6, "prediction = gshare_prediction")
    emit(5, "else:")
    emit(6, "prediction = bimodal_prediction")
    emit(5, "lookups += 1")
    history_mask = (1 << pcfg.history_bits) - 1

    def emit_mispredict(depth: int) -> None:
        emit(depth, "mispredictions += 1")
        emit(depth, "redirect_pending = True")
        for lane in lanes:
            penalty = configs[lane].mispredict_redirect_penalty
            emit(depth, f"redirect{lane} = c{lane} + {penalty}")
        emit(depth, "current_fetch_line = -1")

    emit(5, "if taken:")
    emit(6, "if gshare_prediction != bimodal_prediction:")
    emit(7, "counter = selector[skey]")
    emit(7, "if gshare_prediction:")
    emit(8, "if counter < 3:")
    emit(9, "selector[skey] = counter + 1")
    emit(7, "elif counter > 0:")
    emit(8, "selector[skey] = counter - 1")
    emit(6, "counter = gshare[gkey]")
    emit(6, "if counter < 3:")
    emit(7, "gshare[gkey] = counter + 1")
    emit(6, "counter = bimodal[bkey]")
    emit(6, "if counter < 3:")
    emit(7, "bimodal[bkey] = counter + 1")
    emit(6, f"history = ((history << 1) | 1) & {history_mask}")
    emit(6, "if not prediction:")
    emit_mispredict(7)
    emit(5, "else:")
    emit(6, "if gshare_prediction != bimodal_prediction:")
    emit(7, "counter = selector[skey]")
    emit(7, "if gshare_prediction:")
    emit(8, "if counter > 0:")
    emit(9, "selector[skey] = counter - 1")
    emit(7, "elif counter < 3:")
    emit(8, "selector[skey] = counter + 1")
    emit(6, "counter = gshare[gkey]")
    emit(6, "if counter > 0:")
    emit(7, "gshare[gkey] = counter - 1")
    emit(6, "counter = bimodal[bkey]")
    emit(6, "if counter > 0:")
    emit(7, "bimodal[bkey] = counter - 1")
    emit(6, f"history = (history << 1) & {history_mask}")
    emit(6, "if prediction:")
    emit_mispredict(7)
    # A taken call/return redirects fetch one cycle on.  A pending
    # redirect was either just applied (so it is at most fetch) or never
    # set, so the reference's max(redirect, fetch + 1) is fetch + 1.
    emit(3, "elif hot & 16384 and meta & 8:")
    emit(4, "redirect_pending = True")
    for lane in lanes:
        emit(4, f"redirect{lane} = fetch{lane} + 1")
    emit(4, "current_fetch_line = -1")

    # --------------------------------------------------------- epilogue
    for lane in lanes:
        emit(1, f"if cf{lane} < 0:")
        emit(2, f"cf{lane} = 0")
    emit(1, "return (")
    for lane in lanes:
        emit(2, f"(cf{lane} if cf{lane} > fetch{lane} else fetch{lane}) + 1,")
    emit(2, "lookups,")
    emit(2, "mispredictions,")
    emit(2, "i_accesses,")
    emit(2, "i_misses,")
    emit(2, "d_accesses,")
    emit(2, "d_misses,")
    emit(2, "l2_accesses,")
    emit(2, "l2_misses,")
    emit(2, "loads,")
    emit(2, "stores,")
    emit(1, ")")
    return "\n".join(src) + "\n"


#: (lane-config tuple, derived) -> compiled walk (configs are frozen/hashable).
_MULTI_WALK_CACHE: dict = {}


def _multi_walk_for(configs: tuple, derived: bool):
    key = (configs, derived)
    walk = _MULTI_WALK_CACHE.get(key)
    if walk is None:
        namespace = {"_grow_ring": _grow_ring}
        exec(
            compile(_multi_walk_source(configs, derived), "<timing-kernel>", "exec"),
            namespace,
        )
        walk = namespace["_timing_walk_multi"]
        _MULTI_WALK_CACHE[key] = walk
    return walk


def _time_lanes(trace: Trace, configs) -> list:
    """Time ``trace`` under each of ``configs`` (``None`` = default config).

    Validates the trace's uids once, times each distinct config once,
    groups distinct configs by :func:`_lane_shape`, walks each group in
    chunks of at most :data:`MULTI_KERNEL_MAX_LANES` lanes and maps every
    lane's counters to a :class:`TimingResult`, in ``configs`` order.
    """
    resolved = [config or MachineConfig() for config in configs]
    if not resolved:
        return []
    static = trace.static
    addr_map = trace.address_map
    has_derived = trace.has_derived_addresses and addr_map is not None
    uid_counts = trace.uid_counts()
    # Same up-front uid validation (and the same KeyError) as the
    # reference walk: a record without a static entry must not silently
    # index a hole or an unrelated entry, and a derived-address record
    # without an address must fail exactly like the reference's
    # address-column materialization does.
    for uid in uid_counts:
        if static.get(uid) is None:
            raise KeyError(uid)

    lane_index: dict[MachineConfig, int] = {}
    unique: list[MachineConfig] = []
    for config in resolved:
        if config not in lane_index:
            lane_index[config] = len(unique)
            unique.append(config)
    derived_flags = [has_derived and _derived_mode_supported(c) for c in unique]
    if any(derived_flags):
        for uid in uid_counts:
            if uid not in addr_map:
                raise KeyError(uid)

    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(unique):
        groups.setdefault(_lane_shape(config, derived_flags[index]), []).append(index)

    table = _table_for(static)
    counters: list = [None] * len(unique)
    for shape_key, members in groups.items():
        derived = shape_key[0]
        static_of = _static_of_for(
            static,
            table,
            addr_map if derived else None,
            unique[members[0]].icache.line_bytes,
        )
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
            shared = out[len(chunk) :]
            for lane, index in enumerate(chunk):
                counters[index] = (out[lane], *shared)

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
    once; distinct configs are grouped by :func:`_lane_shape` so each
    group shares one trace walk (front-end simulated once, one
    scoreboard lane per config), chunked at
    :data:`MULTI_KERNEL_MAX_LANES` lanes.  A config alone in its shape
    group is a one-lane walk, exactly what :func:`run_compiled` runs.
    """
    return _time_lanes(trace, configs)
