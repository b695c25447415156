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
trace-emission point*, the per-record update of the timing model
(fetch/dispatch/issue/execute/commit plus caches and the branch
predictor).  That update is not written here: the timing emitter of
:mod:`repro.uarch.tkernel`, which also writes the trace walk, emits it
at one lane with the record's static facts (fetch line, cache set/tag,
latency, functional unit, source and destination registers, branch pc
and outcome) folded into literals.  This module keeps only what is
specific to the fused tier: the unit walker, the run-length signature
memo, the probe hook and the bind scaffolding.

Accounting does not need the records at all, only the multiset of record
shapes ``(uid, per-value significant-byte signature)``.  The fused tier
therefore counts *block-level width signatures* with the block compiler's
signature emitter (:func:`repro.sim.blockc._sig_count_lines`): each
executed unit packs the significant-byte sizes of every value it produced
into one int, and a run-length memo around that pack makes a block
re-entered with the previous iteration's signature a compare and an
increment.  The expansion from signatures to per-record shape keys
(:func:`repro.sim.blockc.expand_signatures`, shared with the traced block
flavour) runs once per *distinct* signature, cached on the compiled
program, so it also persists across runs.  The expanded
:class:`ShapeAggregate` reproduces ``shape_counts`` / ``uid_counts`` /
``width_distribution`` bit-exactly, so the existing
:class:`~repro.power.MultiPolicyEnergyAccountant` and the experiment
summaries consume it unchanged.

The materialized path stays verbatim as the bit-exact oracle;
``repro.coexec.compare_fused`` bisects any disagreement to the exact
record.  It is also the production path: the experiment engine's
``auto`` resolves to it, and this tier runs only when a caller asks for
``pipeline="fused"``.  See ``docs/fused.md`` for the design notes and
the memoization invariants.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..isa import Opcode, OpKind, Width
from .blockc import (
    _CONTROL_KINDS,
    _PRED_EXPR,
    _UnitWriter,
    _gen_straightline,
    _sig_count_lines,
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
    "fused_program_for",
    "outcome_from_trace",
]

#: The pipeline vocabulary accepted by the experiment engine, sweeps, the
#: CLI and the service.  ``auto`` means materialized: the fused tier runs
#: only when a caller names it, as a cross-check path.
PIPELINES = ("auto", "fused", "materialized")


def _checked_pipeline(pipeline: str) -> str:
    """``pipeline`` itself if it is in :data:`PIPELINES`, else ValueError."""
    if pipeline not in PIPELINES:
        raise ValueError(
            f"unknown pipeline {pipeline!r}; expected one of {', '.join(PIPELINES)}"
        )
    return pipeline


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

    #: Like a value-free :class:`~repro.sim.trace.Trace`, it keeps no values.
    carries_values = False

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
    kernel's 11-tuples, one per lane (one lane here).
    :func:`~repro.sim.blockc.expand_signatures` turns
    the signature counts back into per-record shape keys, memoized per
    distinct signature in ``key_caches`` (persistent across runs of the
    same compiled program).
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
    sig_cache: _SigCache
    #: ``static.uid_base`` of the machine that compiled this program.
    #: A machine from an *identical rebuild* of the same IR (the module
    #: cache serves those) has uids shifted by a uniform offset, which the
    #: expansion translates.
    uid_base: int = 0


def outcome_from_trace(trace, config: "MachineConfig") -> FusedOutcome:
    """Materialized-path :class:`FusedOutcome` (the fallback/oracle).

    Used when the fused tier cannot run (mid-unit entry via a computed
    return address) and by the differential
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
#: log2 of the initial ring capacity of the issue-family slot
#: allocators.  16384 cycles is far beyond any reachable issue-to-fetch
#: span of the Table 2 machine (the 64-entry window bounds it to a few
#: thousand cycles even on pathological miss chains); the rings grow on
#: collision regardless, so this is a sizing hint, not a correctness
#: bound.  Tests shrink it to force the growth path.
_RING_BITS = 14


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
    tails mirror :func:`repro.sim.blockc.compile_blocks` exactly.  The
    timing side — every record site's update, the bind-scope timing
    state, the ``nonlocal`` names and ``_finalize()`` — comes from the
    timing emitter of :mod:`repro.uarch.tkernel` at one lane for
    *config*, with each record's static facts (its uid's derived-walk
    tuple, its D-cache address expression, its branch outcome and its
    place in the unit) folded in.  ``probe`` additionally emits a
    per-record snapshot of the timing counters into a caller-supplied
    sink — the hook ``compare_fused`` uses to bisect a divergence to the
    exact record.
    """
    from ..uarch import tkernel
    from ..uarch.config import MachineConfig

    if config is None:
        config = MachineConfig()

    flat = machine._flat
    block_start = machine._block_start
    function_entry = machine._function_entry
    total = len(flat)
    static = machine.static_info
    table = tkernel._table_for(static)
    uid_base = table.uid_base
    static_of = tkernel._static_of_for(
        static, table, machine.address_by_uid, config.icache.line_bytes
    )
    timing = tkernel._TimingEmitter((config,), _RING_BITS)
    rebound = timing.rebound_names()
    probe_line = f"probe_append({timing.snapshot()})"

    def record_sites(tail, recs, control):
        """Every record's timing update, each straight-line record's
        followed by its probe.  The control record's update stops before
        its branch section, which ``outcome`` adds; returns its facts."""
        previous_line = None
        for rec in recs:
            facts = static_of[rec.uid - uid_base]
            timing.site(0, facts, rec.mem, previous_line)
            if probe:
                timing.emit(0, probe_line)
            previous_line = facts[1]
        facts = None
        if control is not None:
            facts = static_of[control.uid - uid_base]
            timing.site(0, facts, None, previous_line)
        tail.extend(timing.take())
        return facts

    def outcome(tail, depth, facts, taken):
        """The control record's branch section for one outcome, then its probe."""
        hot, _line, pc, _srcs = facts
        timing.branch(depth, hot, pc, taken)
        if probe:
            timing.emit(depth, probe_line)
        tail.extend(timing.take())

    def nonlocal_lines(lines, indent):
        # Declare exactly the timing names these lines mention.  A
        # per-unit load-into-locals/write-back scheme was measured
        # against this and lost slightly on CPython 3.11 — cell access
        # costs about the same as a local, so the transfer code is pure
        # overhead for short units.
        words = set(re.findall(r"\w+", "\n".join(lines)))
        names = [name for name in rebound if name in words]
        return [
            f"{indent}nonlocal {', '.join(names[start : start + 6])}"
            for start in range(0, len(names), 6)
        ]

    def bump_writeback_lines(entry, unit):
        # Run-length memo around the shared signature pack: loops
        # overwhelmingly re-enter a block with the signature of the
        # previous iteration, so the hot path is one compare + increment;
        # the dict is touched only when the signature changes (and once
        # more at collection time).
        return _sig_count_lines(
            unit,
            [
                f"if _s == _p{entry}:",
                f"    _n{entry} += 1",
                "else:",
                f"    if _n{entry}:",
                f"        _k{entry}[_p{entry}] = _kg{entry}(_p{entry}, 0) + _n{entry}",
                f"    _p{entry} = _s",
                f"    _n{entry} = 1",
            ],
        )

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

        if not has_control:
            record_sites(tail, recs, None)
            tail.extend(bump_writeback_lines(entry, unit))
            tail.append(f"return {stop}")
        else:
            pc = stop - 1
            inst = flat[pc][2]
            kind = inst.kind
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
                        facts = record_sites(tail, recs, control)
                        outcome(tail, 0, facts, True)
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"return {taken_pc}")
                else:
                    condition = unit.operand(inst.srcs[0])
                    predicate = _PRED_EXPR[inst.op](condition)
                    taken_pc = block_start.get((function_name, inst.target))
                    v0 = len(unit.values)
                    unit.values.append(condition)
                    control = _Rec(pc, inst.uid, v0, v0 + 1, False, None)
                    if taken_pc is None:
                        # Ghost conditional: blockc emits the unit's
                        # records only on the fall-through path, so all
                        # timing/accounting sits behind the ghost check.
                        tail.append(f"if {predicate}:")
                        tail.append(f"    return _bs[({function_name!r}, {inst.target!r})]")
                        facts = record_sites(tail, recs, control)
                        outcome(tail, 0, facts, False)
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"return {stop}")
                    else:
                        facts = record_sites(tail, recs, control)
                        # The shape signature is outcome-independent
                        # (shape keys ignore the taken bits), so the
                        # bump and writebacks stay outside the split.
                        tail.extend(bump_writeback_lines(entry, unit))
                        tail.append(f"if {predicate}:")
                        outcome(tail, 1, facts, True)
                        tail.append(f"    return {taken_pc}")
                        outcome(tail, 0, facts, False)
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
                    facts = record_sites(tail, recs, control)
                    outcome(tail, 0, facts, True)
                    tail.extend(bump_writeback_lines(entry, unit))
                    call_flush.append((entry, inst.target))
                    tail.append(f"return {target_pc}")
            elif kind is OpKind.RETURN:
                return_value = unit.operand(inst.srcs[0])
                v0 = len(unit.values)
                unit.values.append(return_value)
                control = _Rec(pc, inst.uid, v0, v0 + 1, False, None)
                facts = record_sites(tail, recs, control)
                outcome(tail, 0, facts, True)
                tail.extend(bump_writeback_lines(entry, unit))
                tail.append(f"if {return_value} == {machine._stop_address}:")
                tail.append("    return -1")
                tail.append(f"return _ioa({return_value})")
            else:  # HALT
                control = _Rec(pc, inst.uid, len(unit.values), len(unit.values), False, None)
                facts = record_sites(tail, recs, control)
                outcome(tail, 0, facts, True)
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
            body.extend(nonlocal_lines(tail, "        "))
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
        "    (_ioa, _bs, _fe, _W8, _W16, _W32, _W64, _grow_rings,) = consts",
    ]
    timing.front_state(1)
    timing.lane_state(1, table.num_regs)
    lines.extend(timing.take())
    for entry in counted_entries:
        lines.append(f"    _k{entry} = {{}}")
        lines.append(f"    _kg{entry} = _k{entry}.get")
        lines.append(f"    _p{entry} = -1")
        lines.append(f"    _n{entry} = 0")
    lines.extend(body)
    lines.append("    def _finalize():")
    timing.finalize(2)
    finalize = timing.take()
    lines.extend(nonlocal_lines(finalize, "        "))
    lines.extend(finalize)
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
    exec(compile(source, "<repro.sim.fusedc>", "exec"), namespace)  # noqa: S102
    consts = (
        machine.index_of_address,
        block_start,
        function_entry,
        Width.BYTE,
        Width.HALF,
        Width.WORD,
        Width.QUAD,
        tkernel._grow_rings,
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
    fingerprinted content, and the expansion translates the uid shift
    (:attr:`FusedProgram.uid_base`).
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
