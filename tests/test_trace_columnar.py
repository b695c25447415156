"""Differential harness for the columnar trace engine.

Locks the columnar :class:`~repro.sim.trace.Trace` and its columnar
consumers against **verbatim record-list references** — copies of the
walkers as they existed when the trace was a ``list[TraceRecord]`` — in
the style of ``tests/test_power_fused.py``:

1. **Emission**: both interpreter tiers (reference and block-compiled)
   must produce identical records through the shared columnar append
   encoding, and a trace rebuilt from its own record view
   must be indistinguishable from the machine-emitted original.
2. **Kernels, bit-exact**: cycle counts (reference timing walk), energy
   shape counts (reference per-record fold), energy breakdowns for all
   six gating policies, all four summary distributions and the width
   distribution must match the record-list references exactly — integer
   results bit-for-bit, float accumulations float-for-float (both sides
   share the canonical sorted-shape kernel).
3. **Coverage**: hypothesis-generated programs (random arithmetic,
   logic, memory traffic, loops, calls) plus every real suite workload.
4. **Snapshots**: a trace survives the binary snapshot round trip
   exactly, and an analysis-only re-run replays from the snapshot store
   with **zero** simulator calls while producing a bit-identical summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.experiments import POLICY_NAMES
from repro.experiments.summary import COUNTED_KINDS, aggregate_trace
from repro.hardware import gating
from repro.isa import OpKind, Width, significant_bytes
from repro.isa.opcodes import OPERATION_TYPE
from repro.power import MultiPolicyEnergyAccountant
from repro.sim import Machine, Trace
from repro.sim.snapshot import SimulationArtifact, decode_artifact, encode_artifact
from repro.sim.trace import StaticInfo
from repro.uarch import MachineConfig, OutOfOrderModel, TimingResult
from repro.uarch.branch_predictor import CombinedPredictor
from repro.uarch.caches import Cache, CacheHierarchy
from repro.workloads import SUITE_NAMES, workload_by_name


# ----------------------------------------------------------------------
# Verbatim record-list references
# ----------------------------------------------------------------------
class _RefSlots:
    """Verbatim copy of the timing model's per-cycle slot allocator."""

    def __init__(self, width):
        self.width = width
        self._used = {}

    def allocate(self, earliest):
        cycle = earliest
        used = self._used
        while used.get(cycle, 0) >= self.width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle


def _reference_timing(records, static, config=None) -> TimingResult:
    """The record-list timing walk, verbatim from the pre-columnar model."""
    config = config or MachineConfig()
    l2 = Cache(config.l2cache, name="l2")
    memory_latency = config.memory_first_chunk_cycles + 3 * config.memory_interchunk_cycles
    icache = CacheHierarchy(config.icache, l2, memory_latency)
    dcache = CacheHierarchy(config.dcache, l2, memory_latency)
    predictor = CombinedPredictor(config.predictor)

    issue_slots = _RefSlots(config.issue_width)
    retire_slots = _RefSlots(config.retire_width)
    alu_slots = _RefSlots(config.int_alus)
    mul_slots = _RefSlots(config.int_muls)
    lsq_slots = _RefSlots(config.lsq_ports)

    reg_ready = {}
    window_commits = [0] * config.max_in_flight
    window_index = 0
    fetch_cycle = 0
    fetched_in_cycle = 0
    current_fetch_line = -1
    redirect_cycle = 0
    last_commit = 0
    loads = stores = 0
    line_bytes = config.icache.line_bytes
    frontend = config.frontend_depth

    for record in records:
        entry = static[record.uid]

        earliest_fetch = max(fetch_cycle, redirect_cycle)
        if earliest_fetch > fetch_cycle:
            fetch_cycle = earliest_fetch
            fetched_in_cycle = 0
        line = record.address // line_bytes
        if line != current_fetch_line:
            current_fetch_line = line
            latency = icache.access(record.address)
            if latency > config.icache.hit_cycles:
                fetch_cycle += latency - config.icache.hit_cycles
                fetched_in_cycle = 0
        if fetched_in_cycle >= config.fetch_width:
            fetch_cycle += 1
            fetched_in_cycle = 0
        fetch = fetch_cycle
        fetched_in_cycle += 1

        dispatch = fetch + frontend
        window_slot_free = window_commits[window_index]
        if window_slot_free > dispatch:
            dispatch = window_slot_free

        ready = dispatch
        for reg_index in entry.src_regs:
            producer_complete = reg_ready.get(reg_index, 0)
            if producer_complete > ready:
                ready = producer_complete
        issue = issue_slots.allocate(ready)
        if entry.functional_unit == "imul":
            issue = mul_slots.allocate(issue)
        elif entry.functional_unit == "mem":
            issue = lsq_slots.allocate(issue)
        else:
            issue = alu_slots.allocate(issue)

        latency = entry.latency
        if entry.is_load or entry.is_store:
            if entry.is_load:
                loads += 1
            else:
                stores += 1
            if record.mem_address is not None:
                latency = dcache.access(record.mem_address)
                if entry.is_store:
                    latency = 1
        complete = issue + latency

        commit = retire_slots.allocate(max(complete, last_commit))
        last_commit = commit
        window_commits[window_index] = commit
        window_index = (window_index + 1) % config.max_in_flight

        if entry.dest_reg is not None and entry.dest_reg != 31:
            reg_ready[entry.dest_reg] = complete

        if entry.is_branch and record.taken is not None:
            if entry.is_conditional:
                correct = predictor.update(record.address, record.taken)
                if not correct:
                    redirect_cycle = complete + config.mispredict_redirect_penalty
                    current_fetch_line = -1
        elif (entry.is_call or entry.is_return) and record.taken:
            redirect_cycle = max(redirect_cycle, fetch + 1)
            current_fetch_line = -1

    cycles = max(last_commit, fetch_cycle) + 1
    return TimingResult(
        cycles=cycles,
        instructions=len(records),
        branch_lookups=predictor.lookups,
        branch_mispredictions=predictor.mispredictions,
        icache_accesses=icache.l1.accesses,
        icache_misses=icache.l1.misses,
        dcache_accesses=dcache.l1.accesses,
        dcache_misses=dcache.l1.misses,
        l2_accesses=l2.accesses,
        l2_misses=l2.misses,
        loads=loads,
        stores=stores,
    )


def _reference_shape_counts(records):
    """The fused accountant's per-record shape fold, verbatim (PR 2)."""
    sig_cache = {}
    sig_get = sig_cache.get
    counts = {}
    counts_get = counts.get
    for record in records:
        srcs = record.srcs
        if srcs:
            sig_list = []
            for value in srcs:
                sig = sig_get(value)
                if sig is None:
                    sig = significant_bytes(value)
                    sig_cache[value] = sig
                sig_list.append(sig)
            sigs = tuple(sig_list)
        else:
            sigs = ()
        result = record.result
        if result is None:
            rsig = -1
        else:
            rsig = sig_get(result)
            if rsig is None:
                rsig = significant_bytes(result)
                sig_cache[result] = rsig
        key = (record.uid, sigs, rsig)
        counts[key] = counts_get(key, 0) + 1
    return counts


def _reference_aggregate(records, static):
    """The summary aggregation's fused record walk, verbatim (seed)."""
    width_distribution = {w: 0 for w in Width.all_widths()}
    counted = {w: 0 for w in Width.all_widths()}
    sizes = {size: 0 for size in range(1, 9)}
    per_type = {}
    for record in records:
        entry = static[record.uid]
        kind = entry.kind
        width = entry.memory_width if entry.memory_width is not None else entry.width
        width_distribution[width] += 1
        if kind in COUNTED_KINDS:
            counted[width] += 1
            if kind not in (OpKind.LOAD, OpKind.STORE, OpKind.MOVE):
                op_type = OPERATION_TYPE[entry.opcode]
                widths = per_type.setdefault(op_type, {w: 0 for w in Width.all_widths()})
                widths[entry.width] += 1
        if record.result is not None:
            sizes[significant_bytes(record.result)] += 1
    return width_distribution, counted, sizes, per_type


def _canonical_shapes(legacy_counts):
    """Legacy (record-order, tuple-sig) shape counts → canonical form."""
    return sorted(
        ((uid, bytes(sigs), rsig), count) for (uid, sigs, rsig), count in legacy_counts.items()
    )


def _all_policies():
    return gating.registry()


# ----------------------------------------------------------------------
# Hypothesis-generated programs
# ----------------------------------------------------------------------
_ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl")
_CMP_OPS = ("cmpeq", "cmplt", "cmple", "cmpult")
_WIDTH_SUFFIXES = ("", ".8", ".16", ".32")
_IMMEDIATES = (-129, -1, 0, 1, 7, 127, 128, 255, 4095, 2**31, 2**40 - 3)


@st.composite
def _programs(draw) -> str:
    """Small terminating programs mixing every trace-record shape.

    Structure: a data segment, an argument-doubling helper (exercises
    call/return records), a counted loop whose body is a random mix of
    arithmetic, comparisons, cmov, sign extension, memory traffic and a
    data-dependent forward branch.
    """
    body_ops = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10))
    trip_count = draw(st.integers(min_value=1, max_value=6))
    seed_value = draw(st.sampled_from(_IMMEDIATES))
    lines = [
        ".data buf 64 64",
        ".func helper 1",
        "entry:",
        "    add v0, a0, a0",
        "    ret",
        ".endfunc",
        ".func main 0",
        "entry:",
        f"    li r1, {seed_value}",
        "    li r2, =buf",
        "    li r3, 0",
        "loop:",
    ]
    for index, choice in enumerate(body_ops):  # r4..r8 rotate as destinations
        dest = f"r{4 + (index % 5)}"
        if choice == 0:
            op = draw(st.sampled_from(_ARITH_OPS)) + draw(st.sampled_from(_WIDTH_SUFFIXES))
            imm = draw(st.sampled_from(_IMMEDIATES))
            lines.append(f"    {op} {dest}, r1, {imm}")
        elif choice == 1:
            op = draw(st.sampled_from(_CMP_OPS))
            lines.append(f"    {op} {dest}, r1, r3")
        elif choice == 2:
            cmov = draw(st.sampled_from(("cmoveq", "cmovne")))
            lines.append(f"    {cmov} {dest}, r3, r1")
        elif choice == 3:
            ext = draw(st.sampled_from(("sextb", "sextw", "mskb", "mskw")))
            lines.append(f"    {ext} {dest}, r1")
        elif choice == 4:
            offset = draw(st.integers(min_value=0, max_value=7)) * 8
            store = draw(st.sampled_from(("stq", "stw", "stb")))
            load = draw(st.sampled_from(("ldq", "ldw", "ldb")))
            lines.append(f"    {store} r1, {offset}(r2)")
            lines.append(f"    {load} {dest}, {offset}(r2)")
        elif choice == 5:
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
        "    print r3",
        "    halt",
        ".endfunc",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
def _assert_columnar_equals_reference(trace: Trace, instructions: int, output: list[int]):
    """Every columnar consumer ≡ its verbatim record-list reference."""
    records = list(trace)
    static = trace.static

    # Record-view contract: indexing, slicing, equality, round trip.
    assert len(trace.records) == len(records)
    if records:
        assert trace[0] == records[0]
        assert trace[-1] == records[-1]
        assert trace.records[: min(3, len(records))] == records[: min(3, len(records))]
    assert trace.records == records
    rebuilt = Trace(records=records, static=static)
    assert rebuilt.records == records
    assert len(rebuilt) == len(trace)

    # uid_counts ≡ a full record walk.
    assert trace.uid_counts() == Counter(record.uid for record in records)

    # Timing: bit-exact against the verbatim record walk, on both the
    # machine-emitted trace and the record-rebuilt one.
    reference_timing = _reference_timing(records, static)
    assert asdict(OutOfOrderModel().run(trace)) == asdict(reference_timing)
    assert asdict(OutOfOrderModel().run(rebuilt)) == asdict(reference_timing)

    # Energy shape counts: bit-exact against the verbatim per-record fold.
    canonical = _canonical_shapes(_reference_shape_counts(records))
    assert MultiPolicyEnergyAccountant._shape_counts(trace) == canonical
    assert MultiPolicyEnergyAccountant._shape_counts(rebuilt) == canonical

    # Energy breakdowns: float-for-float identical for all six policies
    # regardless of trace storage.
    policies = _all_policies()
    fused = MultiPolicyEnergyAccountant(policies).account(trace, reference_timing)
    fused_rebuilt = MultiPolicyEnergyAccountant(policies).account(rebuilt, reference_timing)
    assert set(fused) == set(POLICY_NAMES)
    for name in POLICY_NAMES:
        assert fused[name].by_structure == fused_rebuilt[name].by_structure, name

    # Summary distributions and the width distribution: exact.
    reference_aggregates = _reference_aggregate(records, static)
    assert aggregate_trace(trace) == reference_aggregates
    assert aggregate_trace(rebuilt) == reference_aggregates
    assert trace.width_distribution() == reference_aggregates[0]

    # Binary snapshot round trip: records, kernels and metadata survive.
    artifact = SimulationArtifact(trace=trace, instructions=instructions, output=list(output))
    restored = decode_artifact(encode_artifact(artifact))
    assert restored.instructions == instructions
    assert restored.output == list(output)
    assert restored.trace.records == records
    assert MultiPolicyEnergyAccountant._shape_counts(restored.trace) == canonical
    assert asdict(OutOfOrderModel().run(restored.trace)) == asdict(reference_timing)


def _assert_runs_match(run, reference):
    assert run.output == reference.output
    assert run.instructions == reference.instructions
    assert run.block_counts == reference.block_counts
    assert run.call_counts == reference.call_counts
    assert run.trace.records == reference.trace.records


def _run_differential(asm: str):
    program = assemble_program(asm)
    machine = Machine(program)
    reference = machine.run(collect_trace=True, dispatch="reference")
    # Both interpreter tiers share one emission encoding; their traces,
    # outputs and counters must be indistinguishable.
    run = machine.run(collect_trace=True, dispatch="block")
    _assert_runs_match(run, reference)
    _assert_columnar_equals_reference(run.trace, run.instructions, run.output)


class TestGeneratedPrograms:
    @settings(max_examples=25, deadline=None)
    @given(_programs())
    def test_columnar_equals_record_list_reference(self, asm):
        _run_differential(asm)


# ----------------------------------------------------------------------
# Real workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ijpeg_run():
    workload = workload_by_name("ijpeg")
    program = workload.build()
    workload.apply_input(program, "ref")
    return Machine(program).run(collect_trace=True)


class TestRealWorkloads:
    def test_ijpeg_columnar_equals_reference(self, ijpeg_run):
        _assert_columnar_equals_reference(
            ijpeg_run.trace, ijpeg_run.instructions, ijpeg_run.output
        )

    def test_ijpeg_memory_footprint_beats_record_list(self, ijpeg_run):
        """The point of the columnar layout: bytes per record must be far
        below a NamedTuple record's footprint (~150+ bytes)."""
        trace = ijpeg_run.trace
        assert trace.memory_bytes() / len(trace) < 64


@pytest.mark.suite
@pytest.mark.slow
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_workload_columnar_equals_reference(name):
    """Every suite workload, under both dispatch tiers: bit-exact traces,
    outputs and counters, and every columnar consumer equal to its
    record-list reference."""
    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "ref")
    machine = Machine(program)
    reference = machine.run(collect_trace=True, dispatch="reference")
    run = machine.run(collect_trace=True, dispatch="block")
    _assert_runs_match(run, reference)
    _assert_columnar_equals_reference(run.trace, run.instructions, run.output)


# ----------------------------------------------------------------------
# Overflow values (beyond int64) stay exact through the slow paths
# ----------------------------------------------------------------------
class TestOverflowValues:
    def _overflow_trace(self):
        program = assemble_program(
            """
.func main 0
entry:
    li r1, 1
    mov r2, r1
    add r3, r2, 1
    print r3
    halt
.endfunc
"""
        )
        from repro.isa import Imm

        mov = [i for i in program.functions["main"].instructions() if i.op.value == "mov"][0]
        mov.srcs = (Imm(2**64 - 1),)  # raw unsigned bit pattern
        return Machine(program).run(collect_trace=True)

    def test_exact_view_and_reference_equality(self):
        run = self._overflow_trace()
        trace = run.trace
        assert trace.has_overflow_values
        records = list(trace)
        mov_record = records[1]
        assert mov_record.srcs == (2**64 - 1,)
        assert mov_record.result == 2**64 - 1
        # Kernels take the exact per-record fallback and still match the
        # verbatim references bit-for-bit.
        _assert_columnar_equals_reference(trace, run.instructions, run.output)

    def test_overflow_survives_record_round_trip_and_snapshot(self):
        run = self._overflow_trace()
        records = list(run.trace)
        rebuilt = Trace(records=records, static=run.trace.static)
        assert rebuilt.has_overflow_values
        assert rebuilt.records == records
        restored = decode_artifact(
            encode_artifact(
                SimulationArtifact(
                    trace=run.trace, instructions=run.instructions, output=run.output
                )
            )
        )
        assert restored.trace.records == records


# ----------------------------------------------------------------------
# Dense static table
# ----------------------------------------------------------------------
class TestDenseStaticInfo:
    def test_dense_layout_with_offset_and_holes(self, ijpeg_run):
        static = ijpeg_run.trace.static
        # Real programs allocate uids from a global counter: the dense
        # table is indexed relative to uid_base.
        assert len(static.entries) >= len(static) > 0
        for entry in static:
            assert static[entry.uid] is entry
            assert entry.uid in static
        with pytest.raises(KeyError):
            static[static.uid_base - 1]
        assert (static.uid_base - 1) not in static

    def test_out_of_order_and_sparse_insertion(self, ijpeg_run):
        source = [entry for entry in ijpeg_run.trace.static][:3]
        assert len(source) == 3
        info = StaticInfo()
        # Insert out of order with a gap; lookups must stay exact.
        info.add_entry(replace(source[1], uid=105))
        info.add_entry(replace(source[0], uid=100))
        info.add_entry(replace(source[2], uid=103))
        assert info.uid_base == 100
        assert len(info) == 3
        assert info[105].opcode == source[1].opcode
        assert info[100].opcode == source[0].opcode
        assert 101 not in info
        with pytest.raises(KeyError):
            info[101]


# ----------------------------------------------------------------------
# Replay from the snapshot store: zero simulator calls
# ----------------------------------------------------------------------
#: A machine config that keys different summaries but the same snapshots.
NARROW_FETCH = replace(MachineConfig(), fetch_width=2, issue_width=2)


class TestSnapshotReplay:
    @pytest.fixture
    def engine_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.store import ResultStore

        return ExperimentEngine(store=ResultStore(tmp_path), jobs=1)

    def _counting_machine_run(self, monkeypatch):
        calls = {"count": 0}
        original = Machine.run

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting)
        return calls

    def test_analysis_only_rerun_is_simulation_free(self, engine_env, monkeypatch, tmp_path):
        """An analysis-only change (here: a rotated analysis-code
        fingerprint) must be served by replaying the stored trace
        snapshot — zero ``Machine.run`` calls — with a summary that is
        bit-identical to the cold one."""
        from repro.experiments import store as store_module
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        config = ExperimentConfig(workload="ijpeg")
        calls = self._counting_machine_run(monkeypatch)
        cold = engine_env.evaluate(config)
        assert calls["count"] > 0
        assert cold.freshly_computed
        cold_summary = cold.summarize().to_json_dict()

        # Rotate the full code fingerprint (as editing power/uarch code
        # would) while the simulator-side fingerprint stays put.
        monkeypatch.setattr(store_module, "_code_fingerprint", lambda: "f" * 64)
        store_module._config_material.cache_clear()

        calls["count"] = 0
        warm = ExperimentEngine(store=ResultStore(tmp_path), jobs=1).evaluate(config)
        assert calls["count"] == 0, "analysis-only re-run must not simulate"
        assert warm.replayed_from_store
        assert warm.is_restored
        assert warm.summarize().to_json_dict() == cold_summary
        store_module._config_material.cache_clear()

    def test_machine_config_change_replays_without_simulation(
        self, engine_env, monkeypatch, tmp_path
    ):
        """A different timing-model configuration keys a different summary
        but the same trace snapshot: timing is re-run, the simulator is
        not."""
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        calls = self._counting_machine_run(monkeypatch)
        engine_env.evaluate(ExperimentConfig(workload="ijpeg"))
        assert calls["count"] > 0

        calls["count"] = 0
        warm = ExperimentEngine(store=ResultStore(tmp_path), jobs=1).evaluate(
            ExperimentConfig(workload="ijpeg", machine_config=NARROW_FETCH)
        )
        assert calls["count"] == 0
        assert warm.replayed_from_store
        # The replayed evaluation really used the modified machine model.
        baseline = engine_env.evaluate(ExperimentConfig(workload="ijpeg"))
        assert warm.timing.cycles > baseline.timing.cycles

    @pytest.fixture(scope="class")
    def warm_snapshots(self, tmp_path_factory):
        """A store holding li's and ijpeg's trace snapshots, plus the
        summaries a live compute yields for both under ``NARROW_FETCH``."""
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        root = tmp_path_factory.mktemp("warm-snapshots")
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_TRACE_STORE", raising=False)
            engine = ExperimentEngine(store=ResultStore(root), jobs=1)
            engine.map([ExperimentConfig(workload=name) for name in ("li", "ijpeg")])
            expected = [
                engine.compute(ExperimentConfig(workload=name, machine_config=NARROW_FETCH))
                .summarize()
                .to_json_dict()
                for name in ("li", "ijpeg")
            ]
        return root, expected

    @pytest.mark.parametrize("caller", ["evaluate", "map-serial", "map-pool"])
    def test_every_resolver_caller_replays(self, caller, warm_snapshots, tmp_path, monkeypatch):
        """``evaluate``, the serial ``map`` loop and the pool workers all
        resolve a changed machine config by replaying the stored snapshot:
        zero simulations (counted by probe markers, since pool workers
        simulate in child processes) and the live compute's summary."""
        import shutil

        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        source, expected = warm_snapshots
        root = tmp_path / "store"
        shutil.copytree(source, root)
        probes = tmp_path / "probes"
        monkeypatch.setenv("REPRO_SIM_PROBE_DIR", str(probes))
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        engine = ExperimentEngine(store=ResultStore(root), jobs=1)
        # Two points: map() falls back to serial for a single miss.
        configs = [
            ExperimentConfig(workload=name, machine_config=NARROW_FETCH)
            for name in ("li", "ijpeg")
        ]
        if caller == "evaluate":
            evaluations = [engine.evaluate(config) for config in configs]
        else:
            evaluations = engine.map(configs, jobs=2 if caller == "map-pool" else 1)
        assert all(evaluation.replayed_from_store for evaluation in evaluations)
        assert not probes.exists() or not any(probes.iterdir())
        assert [evaluation.summarize().to_json_dict() for evaluation in evaluations] == expected

    def test_snapshot_layer_can_be_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path)
        assert store.enabled and not store.trace_enabled
        engine = ExperimentEngine(store=store, jobs=1)
        engine.evaluate(ExperimentConfig(workload="ijpeg"))
        assert not (tmp_path / "traces").exists()
