"""First-class differential and unit suite for the `uarch` timing model.

The out-of-order model now has two kernel tiers: the reference
scoreboard walk (`OutOfOrderModel.run_reference`, locked against a
verbatim record-list copy by ``tests/test_trace_columnar.py``) and the
compiled kernel (`repro/uarch/tkernel.py`: one generated lane walk over
a packed static table, ring-buffer slot allocators, inlined caches and
predictor; a single config is one lane).  This suite locks the compiled
tier, at one lane and batched, against the reference tier
**field-for-field on every TimingResult member** — cycles, predictor
counters, cache/L2 counters, loads/stores — over:

1. hypothesis-generated programs (arithmetic, multiplies, memory
   traffic, calls, data-dependent branches) in *both* address modes
   (derived uid→address map and explicit per-record columns),
2. every suite workload (suite/slow tier),
3. non-default machine configurations (narrow widths, non-2-way and
   non-power-of-two caches, tiny predictors) that force the generic
   codegen variants, and batches that mix cache geometries in one walk,
4. adversarial probes: forced ring growth (one-lane, batched,
   mixed-geometry and fused walks), the missing-static-uid
   ``KeyError`` equivalence, and
   mem-flagged records on non-memory instructions (sparse-column cursor
   alignment).

Plus direct unit tests for the pieces the kernels inline: the combined
branch predictor (selector crossover, history wraparound), the cache
models (set/tag aliasing, LRU boundary eviction, L2 sharing) and the
slot allocators (width-1 serialization, the bounded ``_Slots`` fix).
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.sim import Machine, Trace, fusedc
from repro.sim import trace as trace_flags
from repro.sim.trace import StaticInfo
from repro.uarch import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    CombinedPredictor,
    MachineConfig,
    OutOfOrderModel,
    PredictorConfig,
    bake_static_table,
)
from repro.uarch import tkernel
from repro.uarch.ooo import _Slots
from repro.workloads import SUITE_NAMES, workload_by_name


def _assert_kernels_agree(trace, config=None):
    """Compiled ≡ reference on every TimingResult field, both address modes.

    A mismatch is re-diagnosed through the coexec comparator so the
    failure names the first diverging record, not just the end-of-run
    summary fields.
    """
    model = OutOfOrderModel(config)
    reference = asdict(model.run_reference(trace))
    if asdict(model.run(trace)) != reference:
        from repro.coexec import compare_timing

        divergence = compare_timing(trace, config)
        pytest.fail(f"timing kernels diverged:\n{divergence.describe()}")
    # The record-rebuilt trace carries explicit address columns, forcing
    # the compiled kernel's explicit-address variant.
    rebuilt = Trace(records=list(trace), static=trace.static)
    assert not rebuilt.has_derived_addresses
    if asdict(model.run(rebuilt)) != reference:
        from repro.coexec import compare_timing

        divergence = compare_timing(rebuilt, config)
        pytest.fail(f"timing kernels diverged (explicit-address mode):\n{divergence.describe()}")
    return reference


# ----------------------------------------------------------------------
# Hypothesis-generated programs
# ----------------------------------------------------------------------
_ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl")
_CMP_OPS = ("cmpeq", "cmplt", "cmple", "cmpult")
_IMMEDIATES = (-129, -1, 0, 1, 7, 127, 255, 4095, 2**31, 2**40 - 3)


@st.composite
def _programs(draw) -> str:
    """Small terminating programs stressing every timing-relevant shape.

    A call-taking helper exercises call/return redirects, the counted
    loop's body mixes ALU/multiplier/LSQ traffic (all three FU
    allocators), long dependence chains through r1, and data-dependent
    forward branches that train and mistrain the predictor.
    """
    body_ops = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
    trip_count = draw(st.integers(min_value=1, max_value=8))
    seed_value = draw(st.sampled_from(_IMMEDIATES))
    lines = [
        ".data buf 64 64",
        ".func helper 1",
        "entry:",
        "    mul v0, a0, 3",
        "    ret",
        ".endfunc",
        ".func main 0",
        "entry:",
        f"    li r1, {seed_value}",
        "    li r2, =buf",
        "    li r3, 0",
        "loop:",
    ]
    for index, choice in enumerate(body_ops):
        dest = f"r{4 + (index % 5)}"
        if choice == 0:
            op = draw(st.sampled_from(_ARITH_OPS))
            imm = draw(st.sampled_from(_IMMEDIATES))
            lines.append(f"    {op} {dest}, r1, {imm}")
        elif choice == 1:
            op = draw(st.sampled_from(_CMP_OPS))
            lines.append(f"    {op} {dest}, r1, r3")
        elif choice == 2:
            # Dependence chain through r1 (producer feeds next reader).
            lines.append("    mul r1, r1, 3")
            lines.append("    add r1, r1, 1")
        elif choice == 3:
            offset = draw(st.integers(min_value=0, max_value=7)) * 8
            store = draw(st.sampled_from(("stq", "stw", "stb")))
            load = draw(st.sampled_from(("ldq", "ldw", "ldb")))
            lines.append(f"    {store} r1, {offset}(r2)")
            lines.append(f"    {load} {dest}, {offset}(r2)")
        elif choice == 4:
            lines.append("    mov a0, r1")
            lines.append("    jsr helper")
            lines.append(f"    mov {dest}, v0")
        else:
            skip = f"skip{index}"
            lines.append(f"    blt r1, {skip}")
            lines.append(f"fall{index}:")
            lines.append(f"    xor {dest}, r1, 85")
            lines.append(f"{skip}:")
            lines.append("    nop")
    lines += [
        "    add r1, r1, 3",
        "    add r3, r3, 1",
        f"    cmplt r9, r3, {trip_count}",
        "    bne r9, loop",
        "done:",
        "    print r1",
        "    halt",
        ".endfunc",
    ]
    return "\n".join(lines)


def _machine_trace(asm: str):
    """A simulator trace that keeps its values: the reference loop's, with
    the same metas and memory column as ``Machine.run``'s, and the record
    stream the hand-built variants below are derived from."""
    return Machine(assemble_program(asm)).run_reference(collect_trace=True).trace


class TestGeneratedPrograms:
    @settings(max_examples=25, deadline=None)
    @given(_programs())
    def test_compiled_equals_reference(self, asm):
        trace = _machine_trace(asm)
        assert trace.has_derived_addresses
        _assert_kernels_agree(trace)

    @settings(max_examples=10, deadline=None)
    @given(_programs())
    def test_compiled_equals_reference_on_narrow_machine(self, asm):
        """Non-default widths change every allocator's contention."""
        config = replace(
            MachineConfig(),
            fetch_width=2,
            issue_width=2,
            retire_width=1,
            int_alus=1,
            lsq_ports=1,
            frontend_depth=1,
            max_in_flight=8,
        )
        _assert_kernels_agree(_machine_trace(asm), config)


# ----------------------------------------------------------------------
# Non-default configurations: force the generic codegen variants
# ----------------------------------------------------------------------
_SMOKE_ASM = """
.data buf 64 64
.func main 0
entry:
    li r1, 7
    li r2, =buf
    li r3, 0
loop:
    mul r4, r1, 5
    stq r4, 0(r2)
    ldq r5, 0(r2)
    add r1, r5, 1
    add r3, r3, 1
    cmplt r9, r3, 50
    bne r9, loop
done:
    print r1
    halt
.endfunc
"""


class TestConfigurationVariants:
    def test_non_two_way_and_non_pow2_caches(self):
        """Direct-mapped + 4-way L1s with 3-set geometry: the generic
        list-based cache variant and the true-division index math."""
        config = replace(
            MachineConfig(),
            icache=CacheConfig(
                size_bytes=3 * 32, associativity=1, line_bytes=32,
                hit_cycles=1, miss_penalty_cycles=6,
            ),
            dcache=CacheConfig(
                size_bytes=4 * 3 * 32, associativity=4, line_bytes=32,
                hit_cycles=2, miss_penalty_cycles=9,
            ),
        )
        _assert_kernels_agree(_machine_trace(_SMOKE_ASM), config)

    def test_l2_line_not_multiple_of_l1_disables_derived_mode(self):
        """A 48B L2 line over 32B L1 lines cannot reconstruct the L2
        line from the fetch line; the kernel must fall back to the
        explicit-address walk and stay bit-exact."""
        config = replace(
            MachineConfig(),
            l2cache=CacheConfig(
                size_bytes=4 * 16 * 48, associativity=4, line_bytes=48,
                hit_cycles=6, miss_penalty_cycles=18,
            ),
        )
        assert not tkernel._derived_mode_supported(config)
        _assert_kernels_agree(_machine_trace(_SMOKE_ASM), config)

    def test_tiny_predictor_tables(self):
        """Small power-of-two tables exercise key aliasing heavily."""
        config = replace(
            MachineConfig(),
            predictor=PredictorConfig(
                gshare_entries=16, history_bits=3,
                bimodal_entries=8, selector_entries=4,
            ),
        )
        _assert_kernels_agree(_machine_trace(_SMOKE_ASM), config)


# ----------------------------------------------------------------------
# Real workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ijpeg_trace():
    workload = workload_by_name("ijpeg")
    program = workload.build()
    workload.apply_input(program, "ref")
    return Machine(program).run_reference(collect_trace=True).trace


class TestRealWorkloads:
    def test_ijpeg_compiled_equals_reference(self, ijpeg_trace):
        reference = _assert_kernels_agree(ijpeg_trace)
        # Sanity: the workload actually exercises every subsystem.
        assert reference["branch_mispredictions"] > 0
        assert reference["icache_misses"] > 0
        assert reference["dcache_misses"] > 0
        assert reference["l2_accesses"] > 0
        assert reference["loads"] > 0 and reference["stores"] > 0

    def test_machine_traces_take_the_derived_address_mode(self, ijpeg_trace):
        assert ijpeg_trace.has_derived_addresses
        assert ijpeg_trace.address_map is not None
        OutOfOrderModel().run(ijpeg_trace)
        modes = tkernel._STATIC_OF_CACHE.get(ijpeg_trace.static)
        assert modes is not None
        assert any(key[0] == "derived" for key in modes)


@pytest.mark.suite
@pytest.mark.slow
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_workload_compiled_equals_reference(name):
    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "ref")
    trace = Machine(program).run_reference(collect_trace=True).trace
    _assert_kernels_agree(trace)


# ----------------------------------------------------------------------
# Multi-config batched kernel (run_compiled_many)
# ----------------------------------------------------------------------
def _lane_config_pool() -> tuple:
    """Machine-config variants spanning every batching regime.

    Entries 0-8 share the default cache/predictor geometry (one cache
    group, covering cycle-valued variation: widths, window — including a
    non-power-of-two one — frontend depth, penalties, FU counts, memory
    latency, a zero fetch-bump icache).  Entry 9 joins their walk as a
    second cache group (a different icache geometry); entry 10 opens a
    second walk (4-way L1s + a small predictor).  Entry 11 has a 48B L2
    line over 32B L1 lines, which disables the derived-address mode and
    forces that lane onto an explicit-address walk.  ``None`` is the
    default-config spelling.
    """
    base = MachineConfig()
    return (
        None,
        base,
        replace(base, fetch_width=2, issue_width=2, retire_width=1),
        replace(base, max_in_flight=8, frontend_depth=1),
        replace(base, max_in_flight=48),
        replace(base, frontend_depth=0, mispredict_redirect_penalty=0),
        replace(base, int_alus=1, int_muls=2, lsq_ports=1),
        replace(base, icache=replace(base.icache, miss_penalty_cycles=0)),
        replace(base, memory_first_chunk_cycles=40, memory_interchunk_cycles=8),
        replace(
            base,
            icache=CacheConfig(
                size_bytes=32 * 1024, associativity=2, line_bytes=32,
                hit_cycles=1, miss_penalty_cycles=6,
            ),
        ),
        replace(
            base,
            icache=CacheConfig(
                size_bytes=64 * 1024, associativity=4, line_bytes=32,
                hit_cycles=1, miss_penalty_cycles=6,
            ),
            dcache=CacheConfig(
                size_bytes=64 * 1024, associativity=4, line_bytes=32,
                hit_cycles=2, miss_penalty_cycles=9,
            ),
            predictor=PredictorConfig(
                gshare_entries=4096, history_bits=10,
                bimodal_entries=512, selector_entries=256,
            ),
        ),
        replace(
            base,
            l2cache=CacheConfig(
                size_bytes=4 * 16 * 48, associativity=4, line_bytes=48,
                hit_cycles=6, miss_penalty_cycles=18,
            ),
        ),
    )


def _geometry_pool() -> tuple:
    """Configs of one walk shape (32B I-lines, the default predictor) in
    many cache geometries: 2-way, direct-mapped and 4-way L1s, 16B, 32B
    and 64B D-lines, non-power-of-two set counts, and L2s of other line
    sizes, ways and sets.  Some also vary cycle-valued parameters."""
    base = MachineConfig()

    def cache(size, ways, line, hit=1, penalty=6):
        return CacheConfig(
            size_bytes=size, associativity=ways, line_bytes=line,
            hit_cycles=hit, miss_penalty_cycles=penalty,
        )

    return (
        base,
        replace(base, icache=cache(16 * 1024, 2, 32), dcache=cache(16 * 1024, 2, 32)),
        replace(base, icache=cache(3 * 32, 1, 32), dcache=cache(4 * 3 * 64, 4, 64, 2, 9)),
        replace(base, dcache=cache(512, 2, 16), max_in_flight=16, fetch_width=2),
        replace(
            base,
            icache=cache(256, 2, 32, 1, 3),
            dcache=cache(256, 1, 32, 1, 4),
            l2cache=cache(8 * 2 * 128, 8, 128, 4, 12),
        ),
        replace(base, l2cache=cache(1024, 2, 32, 6, 18), issue_width=2, int_alus=1),
        replace(
            base,
            icache=cache(5 * 2 * 32, 2, 32, 1, 0),
            dcache=cache(512, 4, 64),
            l2cache=cache(3 * 4 * 64, 4, 64),
            memory_first_chunk_cycles=40,
        ),
        replace(base, icache=cache(512, 4, 32), frontend_depth=0, retire_width=1),
    )


class TestMultiConfigKernel:
    """``run_compiled_many`` must be a pure batching of single runs."""

    @settings(max_examples=12, deadline=None)
    @given(
        _programs(),
        st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=8),
    )
    def test_mixed_geometry_walk_matches_reference(self, asm, picks):
        """Lanes of many cache geometries that share the I-line size and
        the predictor run in one walk, one cache group per geometry, and
        every lane stays bit-exact against the reference walk, in both
        address modes."""
        trace = _machine_trace(asm)
        pool = _geometry_pool()
        configs = [pool[index] for index in picks]
        assert len({tkernel._walk_shape(config, True) for config in configs}) == 1
        rebuilt = Trace(records=list(trace), static=trace.static)
        for walked in (trace, rebuilt):
            batched = tkernel.run_compiled_many(walked, configs)
            for lane, config in zip(batched, configs, strict=True):
                assert asdict(lane) == asdict(OutOfOrderModel(config).run_reference(walked))

    def test_default_sweep_is_one_walk_per_trace(self, monkeypatch):
        """The default sweep's 8 configs share one walk shape, so a trace
        compiles and runs one 8-lane walk with two cache groups."""
        from repro.experiments.sweep import default_sweep_configs

        compiled = []
        source = tkernel._multi_walk_source

        def counting(configs, derived):
            compiled.append((len(configs), derived))
            return source(configs, derived)

        monkeypatch.setattr(tkernel, "_multi_walk_source", counting)
        monkeypatch.setattr(tkernel, "_MULTI_WALK_CACHE", {})
        configs = tuple(config for _, config in default_sweep_configs())
        tkernel.run_compiled_many(_machine_trace(_SMOKE_ASM), configs)
        assert compiled == [(8, True)]
        assert len(tkernel._TimingEmitter(configs, 3).groups) == 2

    @settings(max_examples=12, deadline=None)
    @given(
        _programs(),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=6),
    )
    def test_batch_matches_singles_and_reference(self, asm, picks):
        """Field-for-field bit-exact vs N independent compiled AND
        reference runs, for arbitrary config mixes (shared shapes,
        duplicate lanes, mixed derived/explicit address modes)."""
        trace = _machine_trace(asm)
        pool = _lane_config_pool()
        configs = [pool[index] for index in picks]
        batched = tkernel.run_compiled_many(trace, configs)
        assert len(batched) == len(configs)
        for lane, config in zip(batched, configs):
            model = OutOfOrderModel(config)
            assert asdict(lane) == asdict(model.run(trace))
            assert asdict(lane) == asdict(model.run_reference(trace))

    def test_explicit_address_trace_batch(self):
        """A record-rebuilt trace (no derived addresses) routes every
        lane through the explicit-address variant and stays bit-exact."""
        trace = _machine_trace(_SMOKE_ASM)
        rebuilt = Trace(records=list(trace), static=trace.static)
        assert not rebuilt.has_derived_addresses
        configs = [None, replace(MachineConfig(), fetch_width=2, max_in_flight=16)]
        batched = tkernel.run_compiled_many(rebuilt, configs)
        for lane, config in zip(batched, configs):
            assert asdict(lane) == asdict(tkernel.run_compiled(rebuilt, config))
            # run_compiled is the same generator at one lane, so the
            # reference walk is the independent oracle here.
            assert asdict(lane) == asdict(OutOfOrderModel(config).run_reference(rebuilt))

    def test_duplicate_lanes_share_work_but_not_objects(self):
        base = MachineConfig()
        trace = _machine_trace(_SMOKE_ASM)
        batched = tkernel.run_compiled_many(trace, [base, base, None])
        assert batched[0] == batched[1] == batched[2]
        # Fresh result objects per requested position: mutating one must
        # not alias another.
        assert batched[0] is not batched[1]

    def test_lane_chunking_is_invisible(self, monkeypatch):
        """Chunking a walk group (including down to one-lane chunks)
        never changes any field."""
        base = MachineConfig()
        configs = [replace(base, max_in_flight=window) for window in (16, 32, 48, 64, 128)]
        trace = _machine_trace(_SMOKE_ASM)
        full = tkernel.run_compiled_many(trace, configs)
        for lane_cap in (1, 2, 8):
            monkeypatch.setattr(tkernel, "MULTI_KERNEL_MAX_LANES", lane_cap)
            chunked = tkernel.run_compiled_many(trace, configs)
            assert [asdict(result) for result in chunked] == [
                asdict(result) for result in full
            ]

    def test_empty_batch(self):
        assert tkernel.run_compiled_many(_machine_trace(_SMOKE_ASM), []) == []

    def test_missing_static_uid_raises_keyerror(self):
        """Same contract as run_compiled and the reference walk: unknown
        uid is a KeyError naming the uid, not a wrong-entry walk."""
        trace = _machine_trace(_SMOKE_ASM)
        records = list(trace)
        bogus_uid = trace.static.uid_base + len(trace.static.entries) + 7
        records[3] = records[3]._replace(uid=bogus_uid)
        broken = Trace(records=records, static=trace.static)
        with pytest.raises(KeyError) as exc:
            tkernel.run_compiled_many(broken, [None])
        assert exc.value.args[0] == bogus_uid


@pytest.mark.suite
@pytest.mark.slow
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_workload_multi_config_batch(name):
    """The sweep's default 8-config axis, batched vs single runs on every
    suite workload, with the reference oracle on one lane per cache group."""
    from repro.experiments.sweep import default_sweep_configs

    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "ref")
    trace = Machine(program).run(collect_trace=True).trace
    configs = [config for _, config in default_sweep_configs()]
    batched = tkernel.run_compiled_many(trace, configs)
    for lane, config in zip(batched, configs):
        assert asdict(lane) == asdict(tkernel.run_compiled(trace, config))
    # Reference spot-checks: lane 0 (the default-geometry cache group)
    # and lane 5 ("l1-16k", alone in its cache group of the same walk).
    for index in (0, 5):
        reference = OutOfOrderModel(configs[index]).run_reference(trace)
        assert asdict(batched[index]) == asdict(reference)


# ----------------------------------------------------------------------
# The walk key and the timing memo
# ----------------------------------------------------------------------
#: The smoke loop plus a block nothing branches to: its instructions
#: have static entries but never execute.
_DEAD_CODE_ASM = _SMOKE_ASM.replace(
    "    halt\n.endfunc",
    "    halt\ndead:\n    add r7, r7, 1\n    halt\n.endfunc",
)


def _copied_static(static: StaticInfo, changes=None) -> StaticInfo:
    """A copy of ``static``; ``changes`` maps uids to a new entry or None (a hole)."""
    changes = changes or {}
    copy = StaticInfo()
    for entry in static:
        entry = changes.get(entry.uid, entry)
        if entry is not None:
            copy.add_entry(entry)
    assert copy.uid_base == static.uid_base
    return copy


def _derived_copy(trace, static=None, metas=None, mem=None, addresses=None):
    """A derived-address trace with ``trace``'s columns, some replaced."""
    copy = Trace(
        static=static if static is not None else trace.static,
        addresses=addresses if addresses is not None else dict(trace.address_map),
    )
    extend_rows, append_mem = copy.block_emitters()
    extend_values, _ = copy.block_value_emitters()
    extend_rows(metas if metas is not None else trace.metas)
    extend_values(trace.arena)
    for address in mem if mem is not None else trace.mem_addresses:
        append_mem(address)
    assert copy.has_derived_addresses
    return copy


def _key(trace) -> bytes:
    tkernel._address_modes(trace, [MachineConfig()])
    return tkernel._walk_key(trace)


@pytest.fixture(scope="module")
def li_traces():
    """li's traces per mechanism, plus a second ``none`` build."""
    from repro.experiments.runner import _compute_evaluation

    li = workload_by_name("li")
    traces = {
        mechanism: _compute_evaluation(li, mechanism=mechanism).trace
        for mechanism in ("none", "vrp", "vrs")
    }
    traces["none-again"] = _compute_evaluation(li).trace
    return traces


class TestWalkKey:
    """``tkernel._walk_key`` covers exactly what a lane walk reads."""

    def test_timing_identical_li_traces_key_equal(self, li_traces):
        none = li_traces["none"]
        assert li_traces["none-again"].static.uid_base != none.static.uid_base
        assert _key(li_traces["none-again"]) == _key(none)
        assert li_traces["vrp"].static.uid_base != none.static.uid_base
        assert _key(li_traces["vrp"]) == _key(none)
        # VRS specialized li: its trace is a different instruction stream.
        assert _key(li_traces["vrs"]) != _key(none)

    def test_a_copy_keys_equal(self):
        trace = _machine_trace(_DEAD_CODE_ASM)
        assert _key(_derived_copy(trace, static=_copied_static(trace.static))) == _key(trace)

    def test_negative_uids_key_like_their_twin(self):
        """A hand-built table whose uids straddle 0 takes the key's
        per-word translation, and keys equal to the same program at other
        uids."""
        trace = _machine_trace(_SMOKE_ASM)
        rebuilt = Trace(records=list(trace), static=trace.static)
        offset = trace.static.uid_base + 5
        shifted = StaticInfo()
        for entry in trace.static:
            shifted.add_entry(replace(entry, uid=entry.uid - offset))
        negative = Trace(
            records=[record._replace(uid=record.uid - offset) for record in trace],
            static=shifted,
        )
        assert shifted.uid_base < 0 < shifted.uid_base + len(shifted.entries)
        assert _key(negative) == _key(rebuilt)
        memo = tkernel.TimingMemo()
        (first,) = memo.time(rebuilt, [None])
        (hit,) = memo.time(negative, [None])
        assert len(memo._results) == 1
        assert asdict(hit) == asdict(first) == asdict(OutOfOrderModel().run_reference(negative))

    @pytest.mark.parametrize(
        "flag", (trace_flags.FLAG_MEM, trace_flags.FLAG_TAKEN, trace_flags.FLAG_TAKEN_TRUE)
    )
    def test_each_flag_the_walk_reads_changes_the_key(self, flag):
        trace = _machine_trace(_DEAD_CODE_ASM)
        metas = array("q", trace.metas)
        metas[-2] ^= flag
        assert _key(_derived_copy(trace, metas=metas)) != _key(trace)

    def test_a_rebound_trace_keeps_the_column_digest_and_rekeys_its_static_side(self):
        """``Trace.with_static`` hands on the digest of the columns it
        shares; the static side is keyed afresh, so a changed static fact
        still changes the key."""
        trace = _machine_trace(_DEAD_CODE_ASM)
        key = _key(trace)
        rebound = trace.with_static(_copied_static(trace.static), dict(trace.address_map))
        assert rebound.column_digest is trace.column_digest is not None
        assert _key(rebound) == key
        entry = next(entry for entry in trace.static if entry.latency == 1)
        slower = _copied_static(trace.static, {entry.uid: replace(entry, latency=2)})
        changed = trace.with_static(slower, dict(trace.address_map))
        assert _key(changed) != key
        assert changed.column_digest is trace.column_digest

    def test_a_memory_address_changes_the_key(self):
        trace = _machine_trace(_DEAD_CODE_ASM)
        mem = array("q", trace.mem_addresses)
        mem[len(mem) // 2] += 8
        assert _key(_derived_copy(trace, mem=mem)) != _key(trace)

    @pytest.mark.parametrize(
        "change",
        (
            {"latency": 2},
            {"functional_unit": "imul"},
            {"dest_reg": 6},
            {"src_regs": (2,)},
        ),
        ids=("latency", "functional-unit", "destination", "source-register"),
    )
    def test_each_static_fact_changes_the_key(self, change):
        trace = _machine_trace(_DEAD_CODE_ASM)
        # The loop's `add r3, r3, 1`: one-cycle ALU, dest r3, source r3.
        entry = next(
            entry
            for entry in trace.static
            if entry.opcode.name.lower() == "add" and entry.src_regs == (3,)
        )
        assert (entry.latency, entry.functional_unit, entry.dest_reg) == (1, "ialu", 3)
        static = _copied_static(trace.static, {entry.uid: replace(entry, **change)})
        assert _key(_derived_copy(trace, static=static)) != _key(trace)

    def test_an_instruction_address_changes_the_key(self):
        trace = _machine_trace(_DEAD_CODE_ASM)
        addresses = dict(trace.address_map)
        uid = trace.metas[5] >> 8
        addresses[uid] += 4
        assert _key(_derived_copy(trace, addresses=addresses)) != _key(trace)
        # An explicit-address trace keys its per-record column.
        rebuilt = Trace(records=list(trace), static=trace.static)
        records = list(trace)
        records[5] = records[5]._replace(address=records[5].address + 4)
        moved = Trace(records=records, static=trace.static)
        assert _key(moved) != _key(rebuilt)

    def test_a_missing_static_entry_changes_the_key(self):
        trace = _machine_trace(_DEAD_CODE_ASM)
        executed = trace.uid_counts()
        dead = next(entry for entry in trace.static if entry.uid not in executed)
        # A dead entry that bakes like a hole, so only its presence differs.
        blank = replace(
            dead,
            latency=0,
            functional_unit="ialu",
            is_load=False,
            is_store=False,
            is_branch=False,
            is_conditional=False,
            is_call=False,
            is_return=False,
            dest_reg=None,
            src_regs=(),
        )
        with_blank = _copied_static(trace.static, {dead.uid: blank})
        with_hole = _copied_static(trace.static, {dead.uid: None})
        assert with_hole.get(dead.uid) is None
        assert (
            tkernel._table_for(with_blank).hot_word == tkernel._table_for(with_hole).hot_word
        )
        assert _key(_derived_copy(trace, static=with_hole)) != _key(
            _derived_copy(trace, static=with_blank)
        )


class TestTimingMemo:
    """``TimingMemo.time`` answers exactly like ``run_compiled_many``."""

    @settings(max_examples=12, deadline=None)
    @given(
        _programs(),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=6),
    )
    def test_miss_and_hit_match_batch_and_reference(self, asm, picks):
        trace = _machine_trace(asm)
        pool = _lane_config_pool()
        configs = [pool[index] for index in picks]
        memo = tkernel.TimingMemo()
        missed = memo.time(trace, configs)
        entries = dict(memo._results)
        # A second build of the same program draws other uids: a hit.
        hit = memo.time(_machine_trace(asm), configs)
        assert memo._results == entries
        assert all(memo._results[key] is entries[key] for key in entries)
        batched = tkernel.run_compiled_many(trace, configs)
        for config, lane, first, second in zip(configs, batched, missed, hit, strict=True):
            reference = asdict(OutOfOrderModel(config).run_reference(trace))
            assert asdict(first) == asdict(second) == asdict(lane) == reference

    def test_hits_walk_nothing_and_share_no_object(self, monkeypatch):
        walks = []
        many = tkernel.run_compiled_many

        def counting(trace, configs):
            walks.append(list(configs))
            return many(trace, configs)

        monkeypatch.setattr(tkernel, "run_compiled_many", counting)
        base = MachineConfig()
        narrow = replace(base, fetch_width=2, issue_width=2)
        memo = tkernel.TimingMemo()
        first = memo.time(_machine_trace(_SMOKE_ASM), [base, None, narrow])
        assert walks == [[base, narrow]]
        second = memo.time(_machine_trace(_SMOKE_ASM), [narrow, base])
        assert walks == [[base, narrow]]
        assert second == [first[2], first[0]]
        objects = first + second
        assert len({id(timing) for timing in objects}) == len(objects)
        assert len({id(timing.extra) for timing in objects}) == len(objects)
        first[0].extra["mutated"] = 1.0
        first[0].cycles += 1
        third = memo.time(_machine_trace(_SMOKE_ASM), [base])
        assert third == [second[1]]
        assert third[0].extra == {}

    def test_empty_batch(self):
        assert tkernel.TimingMemo().time(_machine_trace(_SMOKE_ASM), []) == []

    def test_missing_uid_raises_after_a_valid_twin_was_memoized(self):
        """Validation runs on every call, before the key: a trace whose
        executed uid lost its static entry, or its address, still raises
        the KeyError ``run_compiled_many`` raises."""
        trace = _machine_trace(_SMOKE_ASM)
        memo = tkernel.TimingMemo()
        memo.time(trace, [None])
        uid = trace.metas[3] >> 8
        no_entry = _derived_copy(trace, static=_copied_static(trace.static, {uid: None}))
        addresses = dict(trace.address_map)
        del addresses[uid]
        no_address = _derived_copy(trace, addresses=addresses)
        for broken in (no_entry, no_address):
            for time in (memo.time, tkernel.run_compiled_many):
                with pytest.raises(KeyError) as exc:
                    time(broken, [None])
                assert exc.value.args[0] == uid
        # A uid below the table's base, on the last record: its meta word
        # would borrow out of the key's big-int translation.
        records = list(trace)
        below = trace.static.uid_base - 1
        records[-1] = records[-1]._replace(uid=below)
        memo.time(Trace(records=list(trace), static=trace.static), [None])
        for time in (memo.time, tkernel.run_compiled_many):
            with pytest.raises(KeyError) as exc:
                time(Trace(records=records, static=trace.static), [None])
            assert exc.value.args[0] == below


# ----------------------------------------------------------------------
# Adversarial probes
# ----------------------------------------------------------------------
class TestAdversarialProbes:
    def test_missing_static_uid_raises_keyerror_in_both_kernels(self):
        """A record without a static entry must raise KeyError (with the
        uid) from both kernels, never wrap-index to a wrong entry."""
        trace = _machine_trace(_SMOKE_ASM)
        records = list(trace)
        bogus_uid = trace.static.uid_base + len(trace.static.entries) + 7
        records[3] = records[3]._replace(uid=bogus_uid)
        broken = Trace(records=records, static=trace.static)
        model = OutOfOrderModel()
        for run in (model.run, model.run_reference):
            with pytest.raises(KeyError) as exc:
                run(broken)
            assert exc.value.args[0] == bogus_uid

    @pytest.mark.parametrize("walk", ("one-lane", "batch", "mixed-batch", "fused"))
    def test_forced_ring_growth_stays_bit_exact(self, monkeypatch, walk):
        """An 8-entry ring collides constantly; growth must preserve
        exact equivalence with the dict allocator in every compiled
        walk: the lane walk at one lane, a batch of lanes whose FU
        counts and windows differ, a batch whose lanes also differ in
        cache geometry (one walk, several cache groups), and the fused
        tier's inline walk."""
        grown = []
        real_grow = tkernel._grow_rings

        def counting_grow(*args):
            grown.append(args)
            return real_grow(*args)

        # Both generators bind _grow_rings from tkernel when they compile,
        # so each walk is rebuilt from an emptied cache.
        monkeypatch.setattr(tkernel, "_grow_rings", counting_grow)
        if walk == "fused":
            monkeypatch.setattr(fusedc, "_RING_BITS", 3)
            monkeypatch.setattr(fusedc, "_PROGRAM_CACHE", {})
        else:
            monkeypatch.setattr(tkernel, "_MULTI_RING_BITS", 3)
            monkeypatch.setattr(tkernel, "_MULTI_WALK_CACHE", {})
        # A narrow issue stage keeps the rings saturated, so the tenants
        # a growth rehashes are probed again: losing one changes timing.
        narrow = replace(MachineConfig(), issue_width=2, int_alus=1, lsq_ports=1)
        configs = [narrow]
        if walk == "batch":
            configs += [
                replace(narrow, int_muls=2, max_in_flight=16),
                replace(MachineConfig(), int_alus=2, lsq_ports=2, max_in_flight=128),
            ]
        elif walk == "mixed-batch":
            pool = _geometry_pool()
            configs += [
                replace(pool[1], issue_width=2, int_alus=1, max_in_flight=16),
                replace(pool[4], int_alus=2, lsq_ports=2, max_in_flight=128),
            ]
            assert len({tkernel._walk_shape(config, True) for config in configs}) == 1
            assert len({tkernel._cache_geometry(config) for config in configs}) == 3
        program = assemble_program(_SMOKE_ASM)
        trace = Machine(program).run(collect_trace=True).trace
        if walk == "one-lane":
            results = [tkernel.run_compiled(trace, narrow)]
        elif walk in ("batch", "mixed-batch"):
            results = tkernel.run_compiled_many(trace, configs)
        else:
            run = Machine(program).run(pipeline="fused", machine_config=narrow)
            results = [run.fused.timing]
        assert grown, f"the {walk} walk never grew a ring"
        for result, config in zip(results, configs, strict=True):
            assert asdict(result) == asdict(OutOfOrderModel(config).run_reference(trace))

    def test_mem_flag_on_non_memory_record_keeps_cursor_aligned(self):
        """A hand-built ALU record carrying a mem address must consume
        one sparse-column slot in both kernels (cursor alignment)."""
        trace = _machine_trace(_SMOKE_ASM)
        records = list(trace)
        # Attach an address to the first non-memory, non-branch record
        # that precedes a real load/store, then verify both kernels
        # still agree (the load's address must not shift).
        for index, record in enumerate(records):
            entry = trace.static[record.uid]
            if not (entry.is_load or entry.is_store or entry.is_branch
                    or entry.is_call or entry.is_return):
                records[index] = record._replace(mem_address=0x1230)
                break
        weird = Trace(records=records, static=trace.static)
        model = OutOfOrderModel()
        assert asdict(model.run(weird)) == asdict(model.run_reference(weird))

    def test_negative_instruction_addresses_stay_bit_exact(self):
        """Hand-built traces may carry negative addresses; negative
        fetch-line tags must not alias the empty-way sentinel of the
        compiled kernel's flat 2-way tag lists (regression: a tag of -1
        counted as a hit against an uninitialized way)."""
        trace = _machine_trace(_SMOKE_ASM)
        records = [r._replace(address=r.address - (1 << 20)) for r in trace]
        shifted = Trace(records=records, static=trace.static)
        model = OutOfOrderModel()
        assert asdict(model.run(shifted)) == asdict(model.run_reference(shifted))

    def test_in_place_entry_replacement_rebakes_the_table(self):
        """StaticInfo.add_entry over an existing uid changes no shape
        observable; the version counter must still invalidate the baked
        table so the kernels keep agreeing (regression: stale table)."""
        trace = _machine_trace(_SMOKE_ASM)
        static = trace.static
        model = OutOfOrderModel()
        before = asdict(model.run(trace))
        hot_uid = max(trace.uid_counts(), key=trace.uid_counts().get)
        version = static.version
        static.add_entry(replace(static[hot_uid], latency=9))
        assert static.version > version
        after_reference = asdict(model.run_reference(trace))
        after_compiled = asdict(model.run(trace))
        assert after_compiled == after_reference
        assert after_compiled["cycles"] != before["cycles"]

    def test_empty_trace(self):
        trace = Trace(records=[], static=StaticInfo())
        model = OutOfOrderModel()
        for run in (model.run, model.run_reference):
            timing = run(trace)
            assert timing.cycles == 1
            assert timing.instructions == 0


# ----------------------------------------------------------------------
# Packed static table
# ----------------------------------------------------------------------
class TestStaticTable:
    def test_columns_match_entries(self, ijpeg_trace):
        static = ijpeg_trace.static
        table = bake_static_table(static)
        srcs = table.src_tuples()
        for index, entry in enumerate(static.entries):
            if entry is None:
                continue
            assert table.latency[index] == entry.latency
            expected_fu = {"imul": tkernel.FU_IMUL, "mem": tkernel.FU_MEM}.get(
                entry.functional_unit, tkernel.FU_ALU
            )
            assert table.fu_class[index] == expected_fu
            cls = table.class_bits[index]
            assert bool(cls & tkernel.CLS_LOAD) == entry.is_load
            assert bool(cls & tkernel.CLS_STORE) == entry.is_store
            assert bool(cls & tkernel.CLS_BRANCH) == entry.is_branch
            assert bool(cls & tkernel.CLS_CONDITIONAL) == entry.is_conditional
            assert bool(cls & tkernel.CLS_CALL_RETURN) == (
                entry.is_call or entry.is_return
            )
            expected_dest = (
                -1
                if entry.dest_reg is None or entry.dest_reg == 31
                else entry.dest_reg
            )
            assert table.dest_reg[index] == expected_dest
            assert srcs[index] == entry.src_regs

    def test_hot_word_fuses_the_columns(self, ijpeg_trace):
        table = bake_static_table(ijpeg_trace.static)
        for index in range(len(table.hot_word)):
            hot = table.hot_word[index]
            assert hot & tkernel.HOT_LATENCY_MASK == table.latency[index]
            fu = table.fu_class[index]
            assert bool(hot & tkernel.HOT_IMUL) == (fu == tkernel.FU_IMUL)
            assert bool(hot & tkernel.HOT_MEM) == (fu == tkernel.FU_MEM)
            assert (hot >> 10) & 0x1F == table.class_bits[index]
            assert (hot >> tkernel.HOT_DEST_SHIFT) == table.dest_reg[index] + 1

    def test_unpackable_entries_rejected(self, ijpeg_trace):
        source = next(iter(ijpeg_trace.static))
        info = StaticInfo()
        info.add_entry(replace(source, uid=1, latency=4096))
        with pytest.raises(ValueError, match="latency"):
            bake_static_table(info)
        info = StaticInfo()
        info.add_entry(replace(source, uid=1, src_regs=tuple(range(8))))
        with pytest.raises(ValueError, match="source registers"):
            bake_static_table(info)

    def test_table_cached_per_static_and_invalidated_on_growth(self, ijpeg_trace):
        source = next(iter(ijpeg_trace.static))
        info = StaticInfo()
        info.add_entry(replace(source, uid=50))
        first = tkernel._table_for(info)
        assert tkernel._table_for(info) is first
        # Mutating the static info must rotate the stamp and rebake.
        info.add_entry(replace(source, uid=53))
        second = tkernel._table_for(info)
        assert second is not first
        assert second.stamp != first.stamp


# ----------------------------------------------------------------------
# Branch predictor units
# ----------------------------------------------------------------------
class TestCombinedPredictorUnits:
    def test_selector_crossover(self):
        """The selector must migrate toward whichever component predicts
        a history-dependent alternating branch correctly (gshare), and
        the misprediction rate must collapse once it has."""
        predictor = CombinedPredictor()
        outcome = True
        for _ in range(512):
            predictor.update(0x9000, outcome)
            outcome = not outcome
        warm_mispredictions = predictor.mispredictions
        for _ in range(512):
            predictor.update(0x9000, outcome)
            outcome = not outcome
        late = predictor.mispredictions - warm_mispredictions
        assert late < 16  # gshare, via the selector, nails the pattern
        assert predictor.misprediction_rate < 0.5

    def test_history_wraparound(self):
        """With 2 history bits, the history register must stay masked,
        and patterns longer than the history must keep aliasing."""
        config = PredictorConfig(
            gshare_entries=8, history_bits=2, bimodal_entries=4, selector_entries=4
        )
        predictor = CombinedPredictor(config)
        for step in range(64):
            predictor.update(0x40, step % 3 == 0)
            assert 0 <= predictor._history < 4
        assert predictor.lookups == 64

    def test_prediction_before_update_is_weakly_not_taken(self):
        predictor = CombinedPredictor()
        assert predictor.predict(0x1234) is False
        assert predictor.misprediction_rate == 0.0

    def test_minimum_table_sizes_validated(self):
        with pytest.raises(ValueError):
            PredictorConfig(gshare_entries=0)
        with pytest.raises(ValueError):
            PredictorConfig(history_bits=-1)


# ----------------------------------------------------------------------
# Cache units
# ----------------------------------------------------------------------
class TestCacheUnits:
    def test_set_and_tag_aliasing(self):
        """Addresses one set-stride apart alias the same set with
        different tags; addresses one line apart do not conflict."""
        config = CacheConfig(
            size_bytes=4 * 32, associativity=1, line_bytes=32,
            hit_cycles=1, miss_penalty_cycles=6,
        )  # 4 sets, direct-mapped: set stride 128
        cache = Cache(config)
        assert cache.access(0x000) is False
        assert cache.access(0x080) is False  # same set, new tag: evicts
        assert cache.access(0x000) is False  # original line was evicted
        assert cache.access(0x020) is False  # different set: no conflict
        assert cache.access(0x020) is True

    def test_lru_eviction_at_the_boundary(self):
        """In a 2-way set the least-recently *used* way is evicted, and
        a hit refreshes recency."""
        config = CacheConfig(
            size_bytes=2 * 32, associativity=2, line_bytes=32,
            hit_cycles=1, miss_penalty_cycles=6,
        )  # one set, two ways
        cache = Cache(config)
        cache.access(0 * 32)
        cache.access(1 * 32)
        cache.access(0 * 32)  # refresh line 0: line 1 becomes LRU
        assert cache.access(2 * 32) is False  # evicts line 1
        assert cache.access(0 * 32) is True
        assert cache.access(1 * 32) is False

    def test_l2_shared_between_instruction_and_data_paths(self):
        config = MachineConfig()
        l2 = Cache(config.l2cache, name="l2")
        icache = CacheHierarchy(config.icache, l2, memory_latency=22)
        dcache = CacheHierarchy(config.dcache, l2, memory_latency=22)
        address = 0x4000
        miss = icache.access(address)
        assert miss > config.icache.hit_cycles
        assert l2.accesses == 1 and l2.misses == 1
        # The data path missing L1 on the same line must now hit in L2.
        hit_via_l2 = dcache.access(address)
        assert l2.accesses == 2 and l2.misses == 1
        assert hit_via_l2 == (
            config.dcache.hit_cycles + config.dcache.miss_penalty_cycles
        )

    def test_bad_geometry_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=16, associativity=1, line_bytes=32,
                        hit_cycles=1, miss_penalty_cycles=6)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=0, line_bytes=32,
                        hit_cycles=1, miss_penalty_cycles=6)


# ----------------------------------------------------------------------
# Slot allocators
# ----------------------------------------------------------------------
class TestSlotAllocators:
    def test_width_one_serializes(self):
        slots = _Slots(1)
        assert [slots.allocate(5) for _ in range(4)] == [5, 6, 7, 8]

    def test_width_n_packs_then_overflows(self):
        slots = _Slots(3)
        assert [slots.allocate(2) for _ in range(5)] == [2, 2, 2, 3, 3]

    def test_release_below_keeps_dict_bounded_without_changing_results(self):
        """The regression probe for the unbounded ``_used`` dict: under
        a monotone floor the pruned allocator must return exactly the
        same cycles as an unpruned twin while holding a bounded dict."""
        pruned = _Slots(2)
        unpruned = _Slots(2)
        for cycle in range(0, 200_000, 2):
            for _ in range(3):  # overflows each cycle into the next
                assert pruned.allocate(cycle) == unpruned.allocate(cycle)
            pruned.release_below(cycle - 64)
        assert len(unpruned._used) > _Slots.PRUNE_THRESHOLD
        assert len(pruned._used) <= _Slots.PRUNE_THRESHOLD + 64

    def test_reference_walk_prunes_slot_dicts_on_long_traces(self, monkeypatch):
        """End to end: with a tiny prune threshold, the reference walk's
        allocators must stay small across a long trace."""
        observed = []
        original = _Slots.release_below

        def spying(self, floor):
            original(self, floor)
            observed.append(len(self._used))

        monkeypatch.setattr(_Slots, "PRUNE_THRESHOLD", 64)
        monkeypatch.setattr(_Slots, "release_below", spying)
        trace = _machine_trace(_SMOKE_ASM)
        OutOfOrderModel().run_reference(trace)
        assert observed, "the walk never released exhausted cycles"
        assert max(observed) <= 64 + 128


def test_ring_allocator_growth_rehashes_live_entries():
    cycle_at, count = [-1] * 8, [0] * 8
    # Live tenants at cycles 100..103 (slots 4..7), stale one at cycle 3.
    for cycle in (100, 101, 102, 103):
        cycle_at[cycle & 7] = cycle
        count[cycle & 7] = 2
    cycle_at[3], count[3] = 3, 9
    other = [used + 1 for used in count]
    new_cycle_at, mask, new_count, new_other = tkernel._grow_rings(
        cycle_at, 100, 40, count, other
    )
    assert mask >= 63  # grew until the span fits
    for cycle in (100, 101, 102, 103):
        assert new_cycle_at[cycle & mask] == cycle
        assert new_count[cycle & mask] == 2
        assert new_other[cycle & mask] == 3  # every ring moves with its tag
    assert all(c != 3 for c in new_cycle_at)  # the stale tenant is gone
