"""Fused simulate→time→account source tier.

The materialized pipeline runs three passes: the block-compiled simulator
emits a full columnar trace (:mod:`repro.sim.blockc`), the compiled
timing kernel walks it once (:mod:`repro.uarch.tkernel`), and the fused
accountant aggregates it again into record *shapes*
(:meth:`~repro.sim.trace.Trace.shape_counts`).  The trace itself is the
bottleneck: ~26 bytes per dynamic record of peak memory plus two extra
full walks, all to carry information that is consumed exactly once.

This module generates a third source tier that merges all three passes.
For every basic-block unit the block compiler would emit, it emits the
same straight-line simulation code and then, *inline at each
trace-emission point*, the per-record update of the timing kernel
(fetch/dispatch/issue/execute/commit plus caches and the branch
predictor) — with the record's static facts (code address, fetch line,
cache set/tag, latency, functional unit, destination register) folded
into literals at generation time, exactly as ``tkernel`` folds them when
it walks a materialized trace.

Accounting does not need the records at all, only the multiset of record
shapes ``(uid, per-value significant-byte signature)``.  The fused tier
therefore counts *block-level width signatures*: each executed unit folds
the significant-byte sizes of every value it produced into one tuple and
bumps ``counts[sig_tuple] += 1`` in a per-unit dict.  A block re-entered
with an identical operand-width signature is a single dict hit — the
memoization the ROADMAP asks for — and the expansion from signature
tuples to per-record shape keys runs once per *distinct* signature
(cached on the compiled program, so it also persists across runs).  The
expanded :class:`ShapeAggregate` reproduces ``shape_counts`` /
``uid_counts`` / ``width_distribution`` bit-exactly, so the existing
:class:`~repro.power.MultiPolicyEnergyAccountant` and the experiment
summaries consume it unchanged.

The materialized path stays verbatim as the bit-exact oracle;
``repro.coexec.compare_fused`` bisects any disagreement to the exact
record.  See ``docs/fused.md`` for the design notes and the memoization
invariants.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..isa import Opcode, OpKind, Width, significant_bytes
from .blockc import (
    _CONTROL_KINDS,
    _PRED_EXPR,
    _UnitWriter,
    _gen_straightline,
)
from .trace import FLAG_RESULT, StaticInfo, _SigCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..uarch.config import MachineConfig
    from ..uarch.ooo import TimingResult
    from .machine import Machine

__all__ = [
    "PIPELINES",
    "FusedOutcome",
    "FusedProgram",
    "ShapeAggregate",
    "compile_fused",
    "default_pipeline",
    "fused_program_for",
    "outcome_from_trace",
    "timing_from_counters",
    "timing_from_probe",
]

#: The pipeline vocabulary accepted by the experiment engine, sweeps, the
#: CLI and the service.  ``auto`` means "fused unless something needs the
#: records" (snapshot persistence, value observers, …).
PIPELINES = ("auto", "fused", "materialized")

#: ``REPRO_PIPELINE`` spellings of the materialized pipeline.
_MATERIALIZED_ALIASES = ("materialized", "off", "0", "false", "no", "disabled")


def _checked_pipeline(pipeline: str) -> str:
    """``pipeline`` itself if it is in :data:`PIPELINES`, else ValueError."""
    if pipeline not in PIPELINES:
        raise ValueError(
            f"unknown pipeline {pipeline!r}; expected one of {', '.join(PIPELINES)}"
        )
    return pipeline


def default_pipeline() -> str:
    """Pipeline choice from ``REPRO_PIPELINE`` (``auto`` when unset).

    Unset (or empty) and ``auto`` select ``auto``, ``fused`` the fused
    tier and the :data:`_MATERIALIZED_ALIASES` the trace pipeline; any
    other value is a misconfiguration and raises instead of silently
    running a default.
    """
    value = os.environ.get("REPRO_PIPELINE", "").strip().lower()
    if value in ("", "auto"):
        return "auto"
    if value == "fused":
        return "fused"
    if value in _MATERIALIZED_ALIASES:
        return "materialized"
    raise ValueError(
        f"REPRO_PIPELINE={value!r} is not a pipeline; expected one of "
        f"{', '.join(PIPELINES)} (materialized aliases: {', '.join(_MATERIALIZED_ALIASES[1:])})"
    )


# ----------------------------------------------------------------------
# The shape carrier the fused run produces instead of a Trace
# ----------------------------------------------------------------------
class ShapeAggregate:
    """Trace-shaped view over fused shape counts (no records).

    Implements exactly the surface the analysis consumers touch on a
    materialized :class:`~repro.sim.trace.Trace` — ``shape_counts()``,
    ``uid_counts()``, ``width_distribution()``, ``len()`` and the
    ``static`` table — with the same key formats and the same width
    attribution, so :class:`~repro.power.MultiPolicyEnergyAccountant`
    and :func:`repro.experiments.summary.aggregate_trace` consume it
    unchanged.  Iterating records is impossible by construction and
    raises ``TypeError``.
    """

    __slots__ = ("static", "_shapes", "_length", "_uid_counts")

    def __init__(
        self, static: StaticInfo, shapes: dict[tuple[int, bytes, int], int], length: int
    ) -> None:
        self.static = static
        self._shapes = shapes
        self._length = length
        self._uid_counts: Optional[Counter] = None

    def __len__(self) -> int:
        return self._length

    def shape_counts(self) -> dict[tuple[int, bytes, int], int]:
        """Same key format as :meth:`Trace.shape_counts`."""
        return self._shapes

    def uid_counts(self) -> Counter:
        """Dynamic execution count per static uid (derived from shapes)."""
        if self._uid_counts is None:
            counts: Counter = Counter()
            for (uid, _sigs, _rsig), count in self._shapes.items():
                counts[uid] += count
            self._uid_counts = counts
        return self._uid_counts

    def width_distribution(self) -> dict[Width, int]:
        """Same attribution as :meth:`Trace.width_distribution`."""
        distribution: dict[Width, int] = {width: 0 for width in Width.all_widths()}
        static = self.static
        for uid, count in self.uid_counts().items():
            entry = static[uid]
            width = entry.memory_width if entry.memory_width is not None else entry.width
            distribution[width] += count
        return distribution

    def __iter__(self):
        raise TypeError(
            "fused runs do not materialize trace records; "
            "use the materialized pipeline for record-level access"
        )


@dataclass
class FusedOutcome:
    """What a fused run yields instead of a trace: timing + shapes."""

    timing: "TimingResult"
    shapes: ShapeAggregate


# ----------------------------------------------------------------------
# Compiled fused program
# ----------------------------------------------------------------------
@dataclass
class FusedProgram:
    """A compiled fused program for one (program, machine config) pair.

    ``bind(...)`` returns ``(funcs, collect, finalize)`` where ``funcs``
    mirrors the block compiler's per-entry unit functions, ``collect()``
    flushes the pending run-length counters and returns one
    signature-count dict per *counted* unit (in ``unit_specs`` order)
    and ``finalize()`` snapshots the timing state into the compiled
    kernel's 11-tuple.  ``expand`` turns the signature counts back into
    per-record shape keys, memoized per distinct signature in
    ``key_caches`` (persistent across runs of the same compiled
    program).
    """

    bind: Callable
    consts: tuple
    lengths: list[int]
    entry_points: tuple[int, ...]
    source: str
    config: "MachineConfig"
    probe: bool
    #: Per counted unit: tuple of ``(uid, start, end, has_result)`` record
    #: specs indexing nibbles of that unit's packed value signature.
    unit_specs: tuple
    #: Per counted unit: dict mapping a packed signature to its expanded
    #: tuple of shape keys.
    key_caches: tuple
    static: StaticInfo
    sig_cache: _SigCache
    #: ``static.uid_base`` of the machine that compiled this program.
    #: A machine from an *identical rebuild* of the same IR (the module
    #: cache serves those) has uids shifted by a uniform offset;
    #: ``expand`` translates.
    uid_base: int = 0

    def expand(
        self,
        unit_counts,
        length: int,
        static: Optional[StaticInfo] = None,
        uid_base: Optional[int] = None,
    ) -> ShapeAggregate:
        """Expand per-unit signature counts into per-record shape counts.

        A signature is one int packing each value's significant-byte
        count (1..8) into its own nibble; the record specs carve the
        nibbles back into per-record ``(uid, srcs, result)`` shape keys.
        Pass the running machine's ``static``/``uid_base`` when this
        compiled program came out of the module cache: uids in the
        cached specs are uniformly shifted to the running build's.
        """
        if static is None:
            static = self.static
        delta = 0 if uid_base is None else uid_base - self.uid_base
        shapes: dict[tuple[int, bytes, int], int] = {}
        get = shapes.get
        for counts, specs, cache in zip(unit_counts, self.unit_specs, self.key_caches):
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
                if delta:
                    keys = [(uid + delta, sigs, rsig) for uid, sigs, rsig in keys]
                for key in keys:
                    shapes[key] = get(key, 0) + count
        return ShapeAggregate(static, shapes, length)


def timing_from_counters(counters: tuple, instructions: int) -> "TimingResult":
    """Build a :class:`TimingResult` from the kernel's 11-counter tuple.

    The one mapping of that tuple: every lane of the compiled timing
    walk (:mod:`repro.uarch.tkernel`) and the fused tier's
    ``_finalize()`` return the identical tuple shape.
    """
    from ..uarch.ooo import TimingResult

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


def timing_from_probe(snapshot: tuple, instructions: int) -> "TimingResult":
    """Project a per-record probe snapshot onto a prefix TimingResult.

    A probe snapshot is ``(commit_frontier, fetch_cycle, <9 counters>)``
    taken immediately after one record's full update.  Finalizing from it
    reproduces what the compiled kernel returns for the trace prefix that
    ends at that record: a redirect the final record posts is never
    consumed, so it doesn't enter the cycle count on either side.
    """
    commit_frontier, fetch_cycle = snapshot[0], snapshot[1]
    last_commit = commit_frontier if commit_frontier >= 0 else 0
    cycles = (last_commit if last_commit > fetch_cycle else fetch_cycle) + 1
    return timing_from_counters((cycles,) + tuple(snapshot[2:]), instructions)


def outcome_from_trace(trace, config: "MachineConfig") -> FusedOutcome:
    """Materialized-path :class:`FusedOutcome` (the fallback/oracle).

    Used when the fused tier cannot run (mid-unit entry via a computed
    return address, non-``block`` dispatch tier) and by the differential
    suite: the timing comes from the compiled kernel over the real trace
    and the shapes from the trace's own aggregation, so the result is
    bit-identical to what the streaming tier produces on the same run.
    """
    from ..uarch.tkernel import run_compiled

    timing = run_compiled(trace, config)
    shapes = ShapeAggregate(trace.static, dict(trace.shape_counts()), len(trace))
    return FusedOutcome(timing=timing, shapes=shapes)


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------
#: Matches value expressions that are compile-time integer literals —
#: immediates ``(42)``, folded raw constants ``(-5)`` and the hardwired
#: zero register ``0`` — whose significant-byte size folds at codegen.
_CONST_VALUE = re.compile(r"^\(?(-?\d+)\)?$")

#: Matches a register-entry value name emitted by the unit writer
#: (``rN`` is only ever the value ``regs[N]`` held at unit entry), whose
#: significance is already cached in the ``rsig`` list.
_REG_VALUE = re.compile(r"^r(\d+)$")

#: Process-wide source→code-object cache.  ``compile()`` of a fused
#: source dominates cold compile cost (~0.13 s for a suite workload);
#: the generated text is a complete fingerprint of everything that
#: matters (program layout, config literals, probe mode), so identical
#: rebuilds of the same workload hit even across Machine instances —
#: the engine builds a fresh Machine per evaluation.
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_LIMIT = 32

#: log2 of the initial ring capacity of the issue-family slot
#: allocators.  16384 cycles is far beyond any reachable issue-to-fetch
#: span of the Table 2 machine (the 64-entry window bounds it to a few
#: thousand cycles even on pathological miss chains); the rings grow on
#: collision regardless, so this is a sizing hint, not a correctness
#: bound.  Tests shrink it to force the growth path.
_RING_BITS = 14

_PROBE_LINE = (
    "probe_append((commit_frontier, fetch_cycle, lookups, mispredictions, "
    "i_accesses, i_misses, d_accesses, d_misses, l2_accesses, l2_misses, "
    "loads, stores))"
)

#: Timing-state scalars a counted unit may reassign.  They live in the
#: bind scope; each unit declares ``nonlocal`` for exactly the ones its
#: tail mentions (cell access costs the same as a local on CPython
#: 3.11+, so no load/write-back hoisting).
_SCALARS = (
    "fetch_cycle",
    "fic",
    "current_fetch_line",
    "redirect_cycle",
    "floor",
    "commit_frontier",
    "commit_used",
    "window_index",
    "history",
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

class _Rec:
    """Codegen-time facts for one record a unit emits."""

    __slots__ = ("pc", "uid", "v0", "v1", "has_result", "mem")

    def __init__(self, pc, uid, v0, v1, has_result, mem):
        self.pc = pc
        self.uid = uid
        self.v0 = v0
        self.v1 = v1
        self.has_result = has_result
        self.mem = mem


def compile_fused(machine: "Machine", config=None, probe: bool = False) -> FusedProgram:
    """Generate the fused simulate→time→account tier for *machine*.

    The unit decomposition, straight-line simulation code and control
    tails mirror :func:`repro.sim.blockc.compile_blocks` exactly; the
    per-record timing updates run the scoreboard arithmetic of one lane
    of the compiled timing walk that
    :func:`repro.uarch.tkernel._multi_walk_source` generates for
    *config* (same ring probes, same literals, same counters).  ``probe``
    additionally emits a per-record snapshot of the timing counters into
    a caller-supplied sink — the hook ``compare_fused`` uses to bisect a
    divergence to the exact record.
    """
    from ..uarch.config import MachineConfig
    from ..uarch.tkernel import (
        _div,
        _fu_probe,
        _grow_ring,
        _mod,
        _ring_probe,
        _table_for,
    )

    if config is None:
        config = MachineConfig()

    flat = machine._flat
    block_start = machine._block_start
    function_entry = machine._function_entry
    total = len(flat)
    static = machine.static_info
    table = _table_for(static)
    uid_base = table.uid_base
    hot_words = table.hot_word
    src_tuples = table.src_tuples()

    icfg = config.icache
    dcfg = config.dcache
    l2cfg = config.l2cache
    predictor = config.predictor
    memory_latency = (
        config.memory_first_chunk_cycles + 3 * config.memory_interchunk_cycles
    )
    l2_extra = l2cfg.miss_penalty_cycles + memory_latency
    frontend = config.frontend_depth
    ring_capacity = 1 << _RING_BITS

    gshare_mask = predictor.gshare_entries - 1
    bimodal_mask = predictor.bimodal_entries - 1
    selector_mask = predictor.selector_entries - 1
    history_mask = (1 << predictor.history_bits) - 1

    # Rings that can actually bind (a functional-unit probe is elided
    # when its width covers the whole issue width).
    rings = ["iss"]
    if config.int_alus < config.issue_width:
        rings.append("alu")
    if config.int_muls < config.issue_width:
        rings.append("mul")
    if config.lsq_ports < config.issue_width:
        rings.append("lsq")

    # -- per-record timing snippets (relative indentation; the writer
    # -- prepends the unit-body indent) -------------------------------
    def width_block(out, ind):
        out.append(ind + f"if fic >= {config.fetch_width}:")
        out.append(ind + "    fetch_cycle += 1")
        out.append(ind + "    fic = 1")
        out.append(ind + "    floor += 1")
        out.append(ind + "else:")
        out.append(ind + "    fic += 1")

    def bump_block(out, ind, bump):
        # Mirrors the compiled kernel's ``latency > I_HIT`` split: a
        # zero bump is plain fetch-width accounting.
        if bump == 0:
            width_block(out, ind)
        else:
            out.append(ind + f"fetch_cycle += {bump}")
            out.append(ind + "fic = 1")
            out.append(ind + f"floor = fetch_cycle + {frontend}")

    def i_l2_block(out, ind, address):
        l2_line = address // l2cfg.line_bytes
        l2_set = l2_line % l2cfg.num_sets
        l2_tag = l2_line // l2cfg.num_sets
        out.append(ind + "l2_accesses += 1")
        out.append(ind + f"_w2 = l2_ways[{l2_set}]")
        out.append(ind + f"if {l2_tag} in _w2:")
        out.append(ind + f"    _w2.remove({l2_tag})")
        out.append(ind + f"    _w2.append({l2_tag})")
        bump_block(out, ind + "    ", icfg.miss_penalty_cycles)
        out.append(ind + "else:")
        out.append(ind + "    l2_misses += 1")
        out.append(ind + f"    _w2.append({l2_tag})")
        out.append(ind + f"    if len(_w2) > {l2cfg.associativity}:")
        out.append(ind + "        _w2.pop(0)")
        bump_block(out, ind + "    ", icfg.miss_penalty_cycles + l2_extra)

    def icache_block(out, ind, address):
        line = address // icfg.line_bytes
        set_ = line % icfg.num_sets
        tag = line // icfg.num_sets
        out.append(ind + "i_accesses += 1")
        if icfg.associativity == 2:
            out.append(ind + f"if {tag} == i_mru[{set_}]:")
            width_block(out, ind + "    ")
            out.append(ind + f"elif {tag} == i_lru[{set_}]:")
            out.append(ind + f"    i_lru[{set_}] = i_mru[{set_}]")
            out.append(ind + f"    i_mru[{set_}] = {tag}")
            width_block(out, ind + "    ")
            out.append(ind + "else:")
            out.append(ind + "    i_misses += 1")
            out.append(ind + f"    i_lru[{set_}] = i_mru[{set_}]")
            out.append(ind + f"    i_mru[{set_}] = {tag}")
            i_l2_block(out, ind + "    ", address)
        else:
            out.append(ind + f"_w = i_ways[{set_}]")
            out.append(ind + f"if {tag} in _w:")
            out.append(ind + f"    _w.remove({tag})")
            out.append(ind + f"    _w.append({tag})")
            width_block(out, ind + "    ")
            out.append(ind + "else:")
            out.append(ind + "    i_misses += 1")
            out.append(ind + f"    _w.append({tag})")
            out.append(ind + f"    if len(_w) > {icfg.associativity}:")
            out.append(ind + "        _w.pop(0)")
            i_l2_block(out, ind + "    ", address)

    def fetch_section(out, address, first, prev_address):
        line = address // icfg.line_bytes
        if first:
            # The only records that post a redirect or invalidate the
            # fetch line are unit-final control records, so the dynamic
            # checks are needed on the unit's first record only.
            out.append("if redirect_cycle:")
            out.append("    if redirect_cycle > fetch_cycle:")
            out.append("        fetch_cycle = redirect_cycle")
            out.append("        fic = 0")
            out.append(f"        floor = fetch_cycle + {frontend}")
            out.append("    redirect_cycle = 0")
            out.append(f"if current_fetch_line != {line}:")
            out.append(f"    current_fetch_line = {line}")
            icache_block(out, "    ", address)
            out.append("else:")
            width_block(out, "    ")
        elif line == prev_address // icfg.line_bytes:
            width_block(out, "")
        else:
            out.append(f"current_fetch_line = {line}")
            icache_block(out, "", address)

    def dcache_l2_block(out, ind, mem, complete):
        out.append(ind + "l2_accesses += 1")
        out.append(ind + f"_l2 = {_div(mem, l2cfg.line_bytes)}")
        out.append(ind + f"_w2 = l2_ways[{_mod('_l2', l2cfg.num_sets)}]")
        out.append(ind + f"_l2t = {_div('_l2', l2cfg.num_sets)}")
        out.append(ind + "if _l2t in _w2:")
        out.append(ind + "    _w2.remove(_l2t)")
        out.append(ind + "    _w2.append(_l2t)")
        complete(out, ind + "    ", 1)
        out.append(ind + "else:")
        out.append(ind + "    l2_misses += 1")
        out.append(ind + "    _w2.append(_l2t)")
        out.append(ind + f"    if len(_w2) > {l2cfg.associativity}:")
        out.append(ind + "        _w2.pop(0)")
        complete(out, ind + "    ", 2)

    def dcache_block(out, hot, mem):
        is_store = bool(hot & 2048)

        def complete(lines, ind, level):
            if is_store:
                lines.append(ind + "_cp = _cy + 1")
            else:
                latency = dcfg.hit_cycles
                if level >= 1:
                    latency += dcfg.miss_penalty_cycles
                if level == 2:
                    latency += l2_extra
                lines.append(ind + f"_cp = _cy + {latency}")

        out.append("d_accesses += 1")
        out.append(f"_dl = {_div(mem, dcfg.line_bytes)}")
        out.append(f"_ds = {_mod('_dl', dcfg.num_sets)}")
        out.append(f"_dt = {_div('_dl', dcfg.num_sets)}")
        if dcfg.associativity == 2:
            out.append("if _dt == d_mru[_ds]:")
            complete(out, "    ", 0)
            out.append("elif _dt == d_lru[_ds]:")
            out.append("    d_lru[_ds] = d_mru[_ds]")
            out.append("    d_mru[_ds] = _dt")
            complete(out, "    ", 0)
            out.append("else:")
            out.append("    d_misses += 1")
            out.append("    d_lru[_ds] = d_mru[_ds]")
            out.append("    d_mru[_ds] = _dt")
            dcache_l2_block(out, "    ", mem, complete)
        else:
            out.append("_w = d_ways[_ds]")
            out.append("if _dt in _w:")
            out.append("    _w.remove(_dt)")
            out.append("    _w.append(_dt)")
            complete(out, "    ", 0)
            out.append("else:")
            out.append("    d_misses += 1")
            out.append("    _w.append(_dt)")
            out.append(f"    if len(_w) > {dcfg.associativity}:")
            out.append("        _w.pop(0)")
            dcache_l2_block(out, "    ", mem, complete)

    def record_shared(out, rec, first, prev_address):
        """Fetch → dispatch → issue → FU → execute → commit → dest."""
        address = machine.address_of_index(rec.pc)
        hot = hot_words[rec.uid - uid_base]
        fetch_section(out, address, first, prev_address)
        # Dispatch: window slot + source-operand readiness.
        out.append("_cy = window_commits[window_index]")
        out.append("if _cy < floor:")
        out.append("    _cy = floor")
        for reg in src_tuples[rec.uid - uid_base]:
            out.append(f"_r = reg_ready[{reg}]")
            out.append("if _r > _cy:")
            out.append("    _cy = _r")
        out.extend(_ring_probe("iss", config.issue_width, "", cycle_var="_cy").split("\n"))
        if hot & 768:
            if hot & 512:
                fu = _fu_probe("lsq", config.lsq_ports, config.issue_width, "", cycle_var="_cy")
            else:
                fu = _fu_probe("mul", config.int_muls, config.issue_width, "", cycle_var="_cy")
        else:
            fu = _fu_probe("alu", config.int_alus, config.issue_width, "", cycle_var="_cy")
        if fu is not None:
            out.extend(fu.split("\n"))
        # Execute: the simulator always tags LOAD/STORE records with
        # their memory address, so the data-cache path is static.
        if hot & 3072:
            if hot & 1024:
                out.append("loads += 1")
            else:
                out.append("stores += 1")
            dcache_block(out, hot, rec.mem)
        else:
            out.append(f"_cp = _cy + {hot & 255}")
        # Commit.
        out.append("if _cp > commit_frontier:")
        out.append("    commit_frontier = _cp")
        out.append("    commit_used = 1")
        out.append(f"elif commit_used >= {config.retire_width}:")
        out.append("    commit_frontier += 1")
        out.append("    commit_used = 1")
        out.append("else:")
        out.append("    commit_used += 1")
        out.append("window_commits[window_index] = commit_frontier")
        window = config.max_in_flight
        if window & (window - 1) == 0:
            out.append(f"window_index = (window_index + 1) & {window - 1}")
        else:
            out.append("window_index += 1")
            out.append(f"if window_index == {window}:")
            out.append("    window_index = 0")
        dest = hot >> 16
        if dest:
            out.append(f"reg_ready[{dest - 1}] = _cp")

    def predictor_arm(out, ind, pc_value, taken):
        """Gshare/bimodal/selector update with the outcome baked in."""
        bkey = pc_value & bimodal_mask
        skey = pc_value & selector_mask
        out.append(ind + f"_gk = ({pc_value} ^ history) & {gshare_mask}")
        out.append(ind + "_gp = gshare[_gk] >= 2")
        out.append(ind + f"_bp = bimodal[{bkey}] >= 2")
        out.append(ind + f"if selector[{skey}] >= 2:")
        out.append(ind + "    _pr = _gp")
        out.append(ind + "else:")
        out.append(ind + "    _pr = _bp")
        out.append(ind + "lookups += 1")
        if taken:
            out.append(ind + "if _gp != _bp:")
            out.append(ind + f"    _ct = selector[{skey}]")
            out.append(ind + "    if _gp:")
            out.append(ind + "        if _ct < 3:")
            out.append(ind + f"            selector[{skey}] = _ct + 1")
            out.append(ind + "    elif _ct > 0:")
            out.append(ind + f"        selector[{skey}] = _ct - 1")
            out.append(ind + "_ct = gshare[_gk]")
            out.append(ind + "if _ct < 3:")
            out.append(ind + "    gshare[_gk] = _ct + 1")
            out.append(ind + f"_ct = bimodal[{bkey}]")
            out.append(ind + "if _ct < 3:")
            out.append(ind + f"    bimodal[{bkey}] = _ct + 1")
            out.append(ind + f"history = ((history << 1) | 1) & {history_mask}")
            out.append(ind + "if not _pr:")
            out.append(ind + "    mispredictions += 1")
            out.append(
                ind + f"    redirect_cycle = _cp + {config.mispredict_redirect_penalty}"
            )
            out.append(ind + "    current_fetch_line = -1")
        else:
            out.append(ind + "if _gp != _bp:")
            out.append(ind + f"    _ct = selector[{skey}]")
            out.append(ind + "    if _gp:")
            out.append(ind + "        if _ct > 0:")
            out.append(ind + f"            selector[{skey}] = _ct - 1")
            out.append(ind + "    elif _ct < 3:")
            out.append(ind + f"        selector[{skey}] = _ct + 1")
            out.append(ind + "_ct = gshare[_gk]")
            out.append(ind + "if _ct > 0:")
            out.append(ind + "    gshare[_gk] = _ct - 1")
            out.append(ind + f"_ct = bimodal[{bkey}]")
            out.append(ind + "if _ct > 0:")
            out.append(ind + f"    bimodal[{bkey}] = _ct - 1")
            out.append(ind + f"history = (history << 1) & {history_mask}")
            out.append(ind + "if _pr:")
            out.append(ind + "    mispredictions += 1")
            out.append(
                ind + f"    redirect_cycle = _cp + {config.mispredict_redirect_penalty}"
            )
            out.append(ind + "    current_fetch_line = -1")

    def bump_writeback_lines(entry, unit):
        # Pack the unit's value signature into ONE int: value i's
        # significant-byte count (1..8, so it fits a nibble) lands at
        # bit 4*i.  Constant values fold into a single literal; a value
        # expression appearing at several positions costs one lookup,
        # multiplied onto all of its nibbles at once (no carries: every
        # nibble holds at most 8).  An int signature hashes and compares
        # much faster than the tuple it replaces.
        #
        # Register write-backs ride along so the per-register sig cache
        # ``rsig`` stays exact: a value read from ``regs[n]`` costs a
        # list index (``rsig[n]``) instead of a dict lookup, and every
        # write-back refreshes ``rsig`` with the sig its own result
        # already needed for the signature pack.
        values = unit.values
        written = sorted(unit.written.items())
        written_regs = {index for index, _ in written}
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
        for index, value in enumerate(values):
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
        # Run-length memo: loops overwhelmingly re-enter a block with the
        # signature of the previous iteration, so the hot path is one
        # compare + increment; the dict is touched only when the
        # signature changes (and once more at collection time).
        lines = pre + [
            f"_s = {' | '.join(parts)}",
            f"if _s == _p{entry}:",
            f"    _n{entry} += 1",
            "else:",
            f"    if _n{entry}:",
            f"        _k{entry}[_p{entry}] = _kg{entry}(_p{entry}, 0) + _n{entry}",
            f"    _p{entry} = _s",
            f"    _n{entry} = 1",
        ]
        for (index, _name), sig in zip(written, wb_sigs):
            lines.append(f"regs[{index}] = {_name}; rsig[{index}] = {sig}")
        return lines

    # -- unit decomposition (identical to compile_blocks) -------------
    entries = set(block_start.values())
    for pc, (_function, _label, inst) in enumerate(flat):
        if inst.kind is OpKind.CALL and pc + 1 < total:
            entries.add(pc + 1)
    entry_points = tuple(sorted(pc for pc in entries if pc < total))
    lengths = [0] * total

    counted_entries: list[int] = []
    unit_specs: list[tuple] = []
    # Block/function counters are derived at collection time from the
    # per-unit signature dicts (sum of counts == executions), so the hot
    # loop carries no dict bump at all.  Units that always die (ghost
    # branches, dead calls) never surface their counts — the run aborts
    # and the dicts are discarded — so they need no flush entry.
    block_flush: list[tuple[int, tuple[str, str]]] = []
    call_flush: list[tuple[int, str]] = []
    body: list[str] = []

    for position, entry in enumerate(entry_points):
        end = entry_points[position + 1] if position + 1 < len(entry_points) else total
        stop = entry
        while stop < end and flat[stop][2].kind not in _CONTROL_KINDS:
            stop += 1
        has_control = stop < end
        if has_control:
            stop += 1
        lengths[entry] = stop - entry
        function_name, block_label, _inst = flat[entry]
        block_key = (function_name, block_label)

        unit = _UnitWriter()
        heads_block = block_start.get(block_key) == entry

        recs: list[_Rec] = []
        for pc in range(entry, stop - 1 if has_control else stop):
            inst = flat[pc][2]
            v0 = len(unit.values)
            m0 = len(unit.mems)
            _gen_straightline(unit, inst, True)
            meta = unit.metas[-1]
            recs.append(
                _Rec(
                    pc,
                    inst.uid,
                    v0,
                    len(unit.values),
                    bool(meta & FLAG_RESULT),
                    unit.mems[m0] if len(unit.mems) > m0 else None,
                )
            )

        tail: list[str] = []
        counted = True
        control: Optional[_Rec] = None

        def emit_records(records, out=tail):
            prev_address = None
            for index, rec in enumerate(records):
                record_shared(out, rec, index == 0 and prev_address is None, prev_address)
                if probe:
                    out.append(_PROBE_LINE)
                prev_address = machine.address_of_index(rec.pc)
            return prev_address

        if not has_control:
            emit_records(recs)
            tail.extend(bump_writeback_lines(entry, unit))
            tail.append(f"return {stop}")
        else:
            pc = stop - 1
            inst = flat[pc][2]
            kind = inst.kind
            address = machine.address_of_index(pc)
            if kind is OpKind.BRANCH:
                if inst.op is Opcode.BR:
                    taken_pc = block_start.get((function_name, inst.target))
                    if taken_pc is None:
                        # Ghost branch: the unit always dies with the
                        # oracle's KeyError before emitting anything.
                        counted = False
                        tail.append(f"return _bs[({function_name!r}, {inst.target!r})]")
                    else:
                        control = _Rec(pc, inst.uid, len(unit.values), len(unit.values), False, None)
                        prev_address = emit_records(recs)
                        record_shared(tail, control, not recs, prev_address)
                        # Unconditional branches reach the kernel's
                        # branch section but take no predictor action.
                        if probe:
                            tail.append(_PROBE_LINE)
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"return {taken_pc}")
                else:
                    condition = unit.operand(inst.srcs[0])
                    predicate = _PRED_EXPR[inst.op](condition)
                    taken_pc = block_start.get((function_name, inst.target))
                    v0 = len(unit.values)
                    unit.values.append(condition)
                    control = _Rec(pc, inst.uid, v0, v0 + 1, False, None)
                    pc_value = address >> 2
                    if taken_pc is None:
                        # Ghost conditional: blockc emits the unit's
                        # records only on the fall-through path, so all
                        # timing/accounting sits behind the ghost check.
                        tail.append(f"if {predicate}:")
                        tail.append(f"    return _bs[({function_name!r}, {inst.target!r})]")
                        prev_address = emit_records(recs)
                        record_shared(tail, control, not recs, prev_address)
                        predictor_arm(tail, "", pc_value, False)
                        if probe:
                            tail.append(_PROBE_LINE)
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"return {stop}")
                    else:
                        prev_address = emit_records(recs)
                        record_shared(tail, control, not recs, prev_address)
                        # The shape signature is outcome-independent
                        # (shape keys ignore the taken bits), so the
                        # bump and writebacks stay outside the split.
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"if {predicate}:")
                        predictor_arm(tail, "    ", pc_value, True)
                        if probe:
                            tail.append("    " + _PROBE_LINE)
                        tail.append(f"    return {taken_pc}")
                        predictor_arm(tail, "", pc_value, False)
                        if probe:
                            tail.append(_PROBE_LINE)
                        tail.append(f"return {stop}")
            elif kind is OpKind.CALL:
                return_address = machine.address_of_index(pc + 1)
                unit.write(inst.dest, f"({return_address})")
                target_pc = function_entry.get(inst.target)
                if target_pc is None:
                    # Dead call: dies with the oracle's KeyError before
                    # any record of the unit is emitted.  The run aborts
                    # on the next line, so the plain write-backs may
                    # leave ``rsig`` stale without consequence.
                    counted = False
                    tail.extend(unit.writeback_lines())
                    tail.append(f"return _fe[{inst.target!r}]")
                else:
                    v0 = len(unit.values)
                    unit.values.append(f"({return_address})")
                    control = _Rec(pc, inst.uid, v0, v0 + 1, True, None)
                    prev_address = emit_records(recs)
                    record_shared(tail, control, not recs, prev_address)
                    tail.append("redirect_cycle = fetch_cycle + 1")
                    tail.append("current_fetch_line = -1")
                    if probe:
                        tail.append(_PROBE_LINE)
                    tail.extend(bump_writeback_lines(entry, unit))
                    call_flush.append((entry, inst.target))
                    tail.append(f"return {target_pc}")
            elif kind is OpKind.RETURN:
                return_value = unit.operand(inst.srcs[0])
                v0 = len(unit.values)
                unit.values.append(return_value)
                control = _Rec(pc, inst.uid, v0, v0 + 1, False, None)
                prev_address = emit_records(recs)
                record_shared(tail, control, not recs, prev_address)
                tail.append("redirect_cycle = fetch_cycle + 1")
                tail.append("current_fetch_line = -1")
                if probe:
                    tail.append(_PROBE_LINE)
                tail.extend(bump_writeback_lines(entry, unit))
                tail.append(f"if {return_value} == {machine._stop_address}:")
                tail.append("    return -1")
                tail.append(f"return _ioa({return_value})")
            else:  # HALT
                control = _Rec(pc, inst.uid, len(unit.values), len(unit.values), False, None)
                prev_address = emit_records(recs)
                record_shared(tail, control, not recs, prev_address)
                if probe:
                    tail.append(_PROBE_LINE)
                tail.extend(bump_writeback_lines(entry, unit))
                tail.append("return -1")

        if counted:
            counted_entries.append(entry)
            if heads_block:
                block_flush.append((entry, block_key))
            # Every record the unit can emit, in emission order: the
            # straight-line records plus (when live) the control record
            # whose values were appended during tail construction.
            specs = [(rec.uid, rec.v0, rec.v1, rec.has_result) for rec in recs]
            if control is not None:
                specs.append((control.uid, control.v0, control.v1, control.has_result))
            unit_specs.append(tuple(specs))

        body.append(f"    def _u{entry}():")
        if counted:
            # Declare exactly the timing scalars (and grow-reassignable
            # ring names) this unit's tail touches.  A per-unit
            # load-into-locals/write-back scheme was measured against
            # this and lost slightly on CPython 3.11 — cell access costs
            # about the same as a local, so the transfer code is pure
            # overhead for short units.
            words = set(re.findall(r"\w+", "\n".join(tail)))
            mutated = [n for n in _SCALARS if n in words]
            for ring in rings:
                if f"{ring}_cycle_at" in words:
                    mutated += (
                        f"{ring}_cycle_at",
                        f"{ring}_count",
                        f"{ring}_mask",
                        f"{ring}_skip_from",
                        f"{ring}_skip_to",
                    )
            for start in range(0, len(mutated), 6):
                chunk = ", ".join(mutated[start : start + 6])
                body.append(f"        nonlocal {chunk}")
            body.append(f"        nonlocal _p{entry}, _n{entry}")
        for line in unit.lines:
            body.append(f"        {line}")
        for line in tail:
            body.append(f"        {line}")

    # -- bind source --------------------------------------------------
    lines = [
        "def bind(regs, load, store, pages_get, page_for, output_append,",
        "         block_counts, call_counts, consts, sig_get, probe_append):",
        "    _cc = call_counts.get",
        "    _ifb = int.from_bytes",
        # Per-register significance cache: refreshed by every register
        # write-back, so operand sigs for register-entry values are a
        # list index instead of a dict probe.
        "    rsig = list(map(sig_get, regs))",
        "    (_ioa, _bs, _fe, _W8, _W16, _W32, _W64, _grow_ring,) = consts",
    ]
    if icfg.associativity == 2:
        lines.append(
            f"    i_mru, i_lru = [None] * {icfg.num_sets}, [None] * {icfg.num_sets}"
        )
    else:
        lines.append(f"    i_ways = [[] for _ in range({icfg.num_sets})]")
    if dcfg.associativity == 2:
        lines.append(
            f"    d_mru, d_lru = [None] * {dcfg.num_sets}, [None] * {dcfg.num_sets}"
        )
    else:
        lines.append(f"    d_ways = [[] for _ in range({dcfg.num_sets})]")
    lines.append(f"    l2_ways = [[] for _ in range({l2cfg.num_sets})]")
    lines.append("    i_accesses = i_misses = d_accesses = d_misses = 0")
    lines.append("    l2_accesses = l2_misses = 0")
    lines.append(f"    gshare = [1] * {predictor.gshare_entries}")
    lines.append(f"    bimodal = [1] * {predictor.bimodal_entries}")
    lines.append(f"    selector = [2] * {predictor.selector_entries}")
    lines.append("    history = 0")
    lines.append("    lookups = mispredictions = 0")
    for ring in rings:
        lines.append(
            f"    {ring}_cycle_at, {ring}_count, {ring}_mask = "
            f"[-1] * {ring_capacity}, [0] * {ring_capacity}, {ring_capacity - 1}"
        )
        lines.append(f"    {ring}_skip_from = {ring}_skip_to = -1")
    lines.append("    commit_frontier = -1")
    lines.append("    commit_used = 0")
    lines.append(f"    reg_ready = [0] * {table.num_regs}")
    lines.append(f"    window_commits = [0] * {config.max_in_flight}")
    lines.append("    window_index = 0")
    lines.append("    fetch_cycle = 0")
    lines.append("    fic = 0")
    lines.append("    current_fetch_line = -1")
    lines.append("    redirect_cycle = 0")
    lines.append(f"    floor = {frontend}")
    lines.append("    loads = stores = 0")
    for entry in counted_entries:
        lines.append(f"    _k{entry} = {{}}")
        lines.append(f"    _kg{entry} = _k{entry}.get")
        lines.append(f"    _p{entry} = -1")
        lines.append(f"    _n{entry} = 0")
    lines.extend(body)
    lines.append("    def _finalize():")
    lines.append("        _lc = commit_frontier if commit_frontier >= 0 else 0")
    lines.append("        return (")
    lines.append("            (_lc if _lc > fetch_cycle else fetch_cycle) + 1,")
    lines.append("            lookups, mispredictions,")
    lines.append("            i_accesses, i_misses,")
    lines.append("            d_accesses, d_misses,")
    lines.append("            l2_accesses, l2_misses,")
    lines.append("            loads, stores,")
    lines.append("        )")
    lines.append("    def _collect():")
    if counted_entries:
        for start in range(0, len(counted_entries), 8):
            chunk = ", ".join(
                f"_n{entry}" for entry in counted_entries[start : start + 8]
            )
            lines.append(f"        nonlocal {chunk}")
        for entry in counted_entries:
            lines.append(f"        if _n{entry}:")
            lines.append(
                f"            _k{entry}[_p{entry}] = "
                f"_kg{entry}(_p{entry}, 0) + _n{entry}"
            )
            lines.append(f"            _n{entry} = 0")
    # Block/function entry counts fall out of the signature dicts for
    # free: the bump runs exactly once per surviving unit execution.
    for entry, key in block_flush:
        lines.append(f"        _t = sum(_k{entry}.values())")
        lines.append("        if _t:")
        lines.append(f"            block_counts[{key!r}] = _t")
    for entry, target in call_flush:
        lines.append(f"        _t = sum(_k{entry}.values())")
        lines.append("        if _t:")
        lines.append(f"            call_counts[{target!r}] = _cc({target!r}, 0) + _t")
    counts_list = ", ".join(f"_k{entry}" for entry in counted_entries)
    lines.append(f"        return [{counts_list}]")
    lines.append(f"    _funcs = [None] * {total}")
    for entry in entry_points:
        lines.append(f"    _funcs[{entry}] = _u{entry}")
    lines.append("    return _funcs, _collect, _finalize")
    source = "\n".join(lines) + "\n"

    namespace: dict = {}
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
        code = compile(source, "<repro.sim.fusedc>", "exec")
        _CODE_CACHE[source] = code
    exec(code, namespace)  # noqa: S102
    consts = (
        machine.index_of_address,
        block_start,
        function_entry,
        Width.BYTE,
        Width.HALF,
        Width.WORD,
        Width.QUAD,
        _grow_ring,
    )
    return FusedProgram(
        bind=namespace["bind"],
        consts=consts,
        lengths=lengths,
        entry_points=entry_points,
        source=source,
        config=config,
        probe=probe,
        unit_specs=tuple(unit_specs),
        key_caches=tuple({} for _ in unit_specs),
        static=static,
        sig_cache=_SigCache(),
        uid_base=uid_base,
    )


#: Process-wide compiled-program cache, keyed by a content fingerprint
#: of everything the generator reads.  The experiment engine builds a
#: fresh Machine (over a fresh IR build) per evaluation; without this,
#: every cold evaluation pays full source generation (~0.02 s) and, for
#: a new source, ``compile()`` (~0.13 s) again.
_PROGRAM_CACHE: dict[tuple, FusedProgram] = {}
_PROGRAM_CACHE_LIMIT = 32


def _fingerprint(machine: "Machine", config, probe: bool) -> tuple:
    """Content key covering every input of :func:`compile_fused`.

    Uids enter relative to the build's ``uid_base`` so identical
    rebuilds of the same IR (fresh uid counters, same structure) hit.
    """
    base = machine.static_info.uid_base
    return (
        config,
        probe,
        machine._stop_address,
        machine.program.entry,
        tuple(
            (
                function_name,
                block_label,
                inst.uid - base,
                inst.op,
                inst.dest,
                inst.srcs,
                inst.width,
                inst.target,
                inst.is_guard,
            )
            for function_name, block_label, inst in machine._flat
        ),
    )


def fused_program_for(machine: "Machine", config=None, probe: bool = False) -> FusedProgram:
    """Compiled fused program for *machine*, served from the module cache.

    Bit-exact under reuse: the generated source depends only on the
    fingerprinted content, and the consumers translate the uid shift
    (:meth:`FusedProgram.expand`).
    """
    from ..uarch.config import MachineConfig

    if config is None:
        config = MachineConfig()
    key = _fingerprint(machine, config, probe)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = compile_fused(machine, config, probe=probe)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[key] = program
    return program
