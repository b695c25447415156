"""Differential suite for the streaming fused pipeline (``repro.sim.fusedc``).

The fused tier promises *bit-exactness* against the materialized
pipeline: identical :class:`TimingResult`, identical per-policy energy
breakdowns for every registered gating policy, identical width
distribution and shape counts, identical engine summaries — while never
materializing a trace.  Every comparison here shares ONE built program
between both pipelines (uids are process-global, so separately built
programs would have incomparable shape keys), and failures are routed
through :func:`repro.coexec.compare_fused`, which bisects to the exact
first diverging record instead of reporting two end-of-run summaries.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.coexec import compare_fused
from repro.coexec import kernels as kernels_module
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.experiments.engine import _resolve_pipeline
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepResult, SweepSpec, default_sweep_configs
from repro.hardware import gating
from repro.power import MultiPolicyEnergyAccountant
from repro.sim import Machine, blockc
from repro.sim.fusedc import (
    PIPELINES,
    FusedOutcome,
    fused_program_for,
    outcome_from_trace,
)
from repro.uarch import CacheConfig, MachineConfig, OutOfOrderModel, tkernel
from repro.workloads import workload_by_name

NARROW = replace(
    MachineConfig(),
    issue_width=2,
    int_alus=1,
    int_muls=1,
    lsq_ports=1,
    fetch_width=2,
    retire_width=2,
    max_in_flight=48,
)


def _assert_fused_exact(program, config=None):
    """Full-surface fused ≡ materialized check over ONE built program.

    Fast path: compare end-of-run results directly.  On any mismatch,
    re-diagnose through the coexec bisector so the failure names the
    first diverging record.
    """
    if config is None:
        config = MachineConfig()
    machine = Machine(program)
    reference = machine.run_reference(collect_trace=True)
    trace = reference.trace
    # The reference trace's shapes are the columnar aggregation of its
    # values, independent of the signature emitter the fused tier shares
    # with the block tier.
    timing = OutOfOrderModel(config).run(trace)
    fused_run = machine.run(pipeline="fused", machine_config=config)
    fused = fused_run.fused

    exact = (
        fused_run.instructions == reference.instructions
        and fused_run.output == reference.output
        and fused_run.block_counts == reference.block_counts
        and fused_run.call_counts == reference.call_counts
        and fused.timing == timing
        and fused.shapes.shape_counts() == dict(trace.shape_counts())
    )
    if not exact:
        divergence = compare_fused(program, config)
        pytest.fail(
            "fused pipeline diverged from the materialized oracle:\n"
            + (divergence.describe() if divergence is not None else "(not bisectable)")
        )

    # Derived surfaces: widths, uid counts, and all six gating policies.
    assert fused.shapes.uid_counts() == trace.uid_counts()
    assert fused.shapes.width_distribution() == trace.width_distribution()
    assert len(fused.shapes) == len(trace)
    accountant = MultiPolicyEnergyAccountant(gating.registry())
    assert accountant.account(fused.shapes, fused.timing) == accountant.account(trace, timing)
    return fused_run, reference


# ----------------------------------------------------------------------
# Hypothesis-generated programs (same shape zoo as the timing suite)
# ----------------------------------------------------------------------
_ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl")
_CMP_OPS = ("cmpeq", "cmplt", "cmple", "cmpult")
_IMMEDIATES = (-129, -1, 0, 1, 7, 127, 255, 4095, 2**31, 2**40 - 3)


@st.composite
def _programs(draw) -> str:
    """Small terminating programs stressing every fused codegen shape.

    Calls/returns (redirects + call counters), ALU/MUL/LSQ traffic (all
    functional-unit rings), dependence chains through one register
    (run-length memo breaks on every width change), stores+loads (dcache
    paths) and data-dependent branches (ghost/live conditional arms).
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


class TestGeneratedPrograms:
    @settings(max_examples=25, deadline=None)
    @given(_programs())
    def test_fused_equals_materialized(self, asm):
        _assert_fused_exact(assemble_program(asm))

    @settings(max_examples=10, deadline=None)
    @given(_programs())
    def test_fused_equals_materialized_on_narrow_machine(self, asm):
        """Non-default widths change every ring/allocator literal baked
        into the generated source."""
        _assert_fused_exact(assemble_program(asm), NARROW)


# ----------------------------------------------------------------------
# Record-site names
# ----------------------------------------------------------------------
#: A loop with every record class a site folds: ALU, multiply, store,
#: load, a call and its return, conditional branches.
_SITE_ASM = """
.data buf 64 64
.func helper 1
entry:
    mul v0, a0, 3
    ret
.endfunc
.func main 0
entry:
    li r1, 7
    li r2, =buf
    li r3, 0
loop:
    stq r1, 8(r2)
    ldq r4, 8(r2)
    mov a0, r4
    jsr helper
    add r1, v0, 1
    add r3, r3, 1
    cmplt r9, r3, 5
    bne r9, loop
done:
    print r1
    halt
.endfunc
"""

#: The block compiler's unit-local temporaries (``blockc._UnitWriter``):
#: registers ``r<N>``, values ``t<N>``, addresses ``m<N>``, pages
#: ``p<N>`` and page offsets ``o<N>``.
_BLOCK_TEMPORARY = re.compile(r"[tmopr]\d+")


class TestRecordSiteNames:
    def test_block_temporaries_match_the_guarded_pattern(self):
        unit = blockc._UnitWriter()
        names = [unit.read(5), unit.assign("0")]
        names += [unit.temp_name(prefix) for prefix in "mpo"]
        assert all(_BLOCK_TEMPORARY.fullmatch(name) for name in names), names

    @pytest.mark.parametrize("lanes", ("one-lane", "mixed-batch"))
    def test_timing_names_never_take_a_block_temporary_name(self, lanes):
        """Fused record sites inline the timing emitter's state and
        locals into the block compiler's unit functions, next to its
        temporaries.  A shared name corrupts the run silently (a ring
        mask named like an address temporary once skewed the fused
        D-cache counts), so no name the emitter rebinds or writes in a
        site — cache-group, ring and lane names included — may take a
        temporary's form, whatever the lanes and cache groups."""
        configs = (NARROW,)
        if lanes == "mixed-batch":
            small = CacheConfig(16 * 1024, 4, 32, 1, 6)
            configs += (
                replace(MachineConfig(), icache=small, max_in_flight=32),
                replace(NARROW, dcache=small, l2cache=CacheConfig(4096, 2, 128, 6, 18)),
            )
        timing = tkernel._TimingEmitter(configs, 3)
        assert len(timing.groups) == len(configs)
        machine = Machine(assemble_program(_SITE_ASM))
        static = machine.static_info
        table = tkernel._table_for(static)
        static_of = tkernel._static_of_for(static, table, machine.address_by_uid, 32)
        timing.front_state(0)
        timing.lane_state(0, table.num_regs)
        previous_line = None
        for facts in static_of:
            timing.site(0, facts, "address", previous_line)
            for taken in (False, True):
                timing.branch(0, facts[0], facts[2], taken)
            previous_line = facts[1]
        timing.finalize(0)
        written = set(re.findall(r"[A-Za-z_]\w*", "\n".join(timing.take())))
        rebound = timing.rebound_names()
        assert {f"g{group}_d_misses" for group in range(len(configs))} <= set(rebound)
        clashes = sorted(
            name for name in written | set(rebound) if _BLOCK_TEMPORARY.fullmatch(name)
        )
        assert clashes == []


# ----------------------------------------------------------------------
# Suite workloads
# ----------------------------------------------------------------------
class TestSuiteWorkloads:
    @pytest.mark.parametrize("name", ("li", "ijpeg"))
    def test_fused_exact_on_workload(self, name):
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        _assert_fused_exact(program)

    @pytest.mark.parametrize("name", ("li",))
    def test_fused_exact_on_workload_narrow(self, name):
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        _assert_fused_exact(program, NARROW)

    @pytest.mark.slow
    def test_fused_exact_on_whole_suite(self):
        from repro.workloads import load_suite

        for workload in load_suite():
            program = workload.build()
            workload.apply_input(program, "ref")
            _assert_fused_exact(program)

    def test_engine_summaries_identical(self, tmp_path):
        """The engine's persisted summary is pipeline-independent."""
        config = ExperimentConfig(workload="li")
        fused = ExperimentEngine(store=ResultStore(tmp_path / "a")).compute(
            config, pipeline="fused"
        )
        materialized = ExperimentEngine(store=ResultStore(tmp_path / "b")).compute(
            config, pipeline="materialized"
        )
        assert fused.pipeline == "fused"
        assert materialized.pipeline == "materialized"
        assert (
            fused.summarize().to_json_dict() == materialized.summarize().to_json_dict()
        )


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
class TestMemoization:
    #: A loop whose body re-executes thousands of times with identical
    #: operand widths: the per-unit run-length memo and the signature→keys
    #: cache should collapse the stream to a handful of distinct entries.
    STEADY_LOOP = """
.func main 0
entry:
    li r1, 1000
    li r2, 0
loop:
    add r2, r2, 7
    and r3, r2, 255
    sub r1, r1, 1
    bne r1, loop
done:
    print r2
    halt
.endfunc
"""

    def test_signature_cache_collapses_repeats(self):
        program = assemble_program(self.STEADY_LOOP)
        machine = Machine(program)
        fused_program = fused_program_for(machine)
        run = machine.run(pipeline="fused")
        distinct = sum(len(cache) for cache in fused_program.key_caches)
        # Thousands of records, but only a handful of distinct
        # width signatures per block.
        assert run.instructions > 4000
        assert 0 < distinct < 64
        _assert_fused_exact(program)

    def test_key_caches_persist_across_runs(self):
        program = assemble_program(self.STEADY_LOOP)
        machine = Machine(program)
        fused_program = fused_program_for(machine)
        first = machine.run(pipeline="fused")
        populated = [dict(cache) for cache in fused_program.key_caches]
        second = machine.run(pipeline="fused")
        assert [dict(cache) for cache in fused_program.key_caches] == populated
        assert first.fused.timing == second.fused.timing
        assert first.fused.shapes.shape_counts() == second.fused.shapes.shape_counts()

    def test_program_cache_translates_uids_across_rebuilds(self):
        """An identical rebuild gets the cached compiled program (uids are
        allocated from a process-global counter, so they differ by a
        uniform offset) and ``expand`` translates the cached shape keys
        into the running build's uid space."""
        first_program = assemble_program(self.STEADY_LOOP)
        second_program = assemble_program(self.STEADY_LOOP)
        first_machine = Machine(first_program)
        second_machine = Machine(second_program)
        assert first_machine.static_info.uid_base != second_machine.static_info.uid_base
        cached = fused_program_for(first_machine)
        reused = fused_program_for(second_machine)
        assert reused is cached
        # The second build's fused run must report keys in ITS uid space,
        # bit-exact against its own materialized oracle.
        _assert_fused_exact(second_program)


# ----------------------------------------------------------------------
# Pipeline plumbing: engine resolution, validation
# ----------------------------------------------------------------------
class TestPipelinePlumbing:
    def test_resolution_auto_is_materialized(self, tmp_path, monkeypatch):
        """``auto`` depends neither on the snapshot layer nor on a store:
        with the layer on, off, and with no store it is materialized."""
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert ResultStore(tmp_path).trace_enabled
        assert _resolve_pipeline("auto") == "materialized"
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert not ResultStore(tmp_path).trace_enabled
        assert _resolve_pipeline("auto") == "materialized"
        # It takes no store (and no lane count) to consult.
        assert list(inspect.signature(_resolve_pipeline).parameters) == ["pipeline"]
        # Explicit choices are kept as they are.
        assert _resolve_pipeline("materialized") == "materialized"
        assert _resolve_pipeline("fused") == "fused"
        with pytest.raises(ValueError):
            _resolve_pipeline("turbo")

    def test_unknown_pipeline_is_rejected_everywhere(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(tmp_path), jobs=1)
        config = ExperimentConfig(workload="li")
        with pytest.raises(ValueError, match="unknown pipeline 'fuse'"):
            engine.compute(config, pipeline="fuse")
        with pytest.raises(ValueError, match="unknown pipeline 'fuse'"):
            list(engine.sweep(SweepSpec.cartesian(workloads=["li"]), pipeline="fuse"))
        with pytest.raises(ValueError, match="unknown pipeline 'fuse'"):
            engine.map([config], pipeline="fuse")
        # compute() keeps its materialized default for "auto".
        assert engine.compute(config, pipeline="auto").pipeline == "materialized"

    def test_machine_run_validation(self):
        machine = Machine(assemble_program(TestMemoization.STEADY_LOOP))
        with pytest.raises(ValueError, match="unknown pipeline"):
            machine.run(pipeline="turbo")
        with pytest.raises(ValueError, match="never materializes"):
            machine.run(pipeline="fused", collect_trace=True)
        with pytest.raises(ValueError, match="value observers"):
            machine.run(pipeline="fused", value_observer=lambda *a: None)
        with pytest.raises(ValueError, match="machine_config"):
            machine.run(machine_config=MachineConfig())

    def test_shape_aggregate_refuses_record_iteration(self):
        machine = Machine(assemble_program(TestMemoization.STEADY_LOOP))
        run = machine.run(pipeline="fused")
        assert isinstance(run.fused, FusedOutcome)
        assert run.trace is None
        with pytest.raises(TypeError, match="do not materialize trace records"):
            list(run.fused.shapes)

    def test_pipeline_vocabulary(self):
        assert PIPELINES == ("auto", "fused", "materialized")

    def test_mid_unit_landing_falls_back_to_materialized(self, monkeypatch):
        """A computed return that lands mid-unit stops the fused stream;
        the run falls back to the materialized oracle exactly once and
        still presents the fused result surface, bit-exact."""
        from test_sim_machine import _MID_UNIT_RETURN_ASM

        machine = Machine(assemble_program(_MID_UNIT_RETURN_ASM))
        calls = []
        fallback = Machine._fused_fallback
        monkeypatch.setattr(
            Machine,
            "_fused_fallback",
            lambda self, *args: calls.append(args) or fallback(self, *args),
        )
        run = machine.run(pipeline="fused")
        assert len(calls) == 1
        assert run.trace is None
        assert run.output == [7, 36]
        oracle = outcome_from_trace(machine.run(collect_trace=True).trace, MachineConfig())
        assert run.fused.timing == oracle.timing
        assert run.fused.shapes.shape_counts() == oracle.shapes.shape_counts()


# ----------------------------------------------------------------------
# Summary-only evaluations: ``auto`` materializes, explicit fused builds
# no trace
# ----------------------------------------------------------------------
class TestNoTraceForSummaryOnly:
    def test_explicit_fused_evaluation_never_constructs_a_trace(
        self, tmp_path, monkeypatch
    ):
        """A cold ``engine.evaluate(pipeline="fused")`` keeps memory
        bounded: the trace must not even be *constructed*, not merely
        dropped after the fact."""
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")

        def explode(self):
            raise AssertionError("a fused evaluation materialized a trace")

        monkeypatch.setattr(Machine, "_new_trace", explode)
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        config = ExperimentConfig(workload="li")
        evaluation = engine.evaluate(config, pipeline="fused")
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "fused"
        # The summary was persisted; a second engine restores it without
        # simulating at all.
        restored = ExperimentEngine(store=ResultStore(tmp_path)).evaluate(config)
        assert not restored.freshly_computed
        assert restored.summarize().to_json_dict() == evaluation.summarize().to_json_dict()

    def test_auto_materializes_with_snapshot_layer_off(self, tmp_path, monkeypatch):
        """With ``REPRO_TRACE_STORE=off`` a cold ``auto`` evaluation runs
        materialized, writes no snapshot, and reports what the fused
        pipeline reports."""
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        config = ExperimentConfig(workload="li")
        evaluation = ExperimentEngine(store=ResultStore(tmp_path / "auto")).evaluate(config)
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "materialized"
        assert not (tmp_path / "auto" / "traces").exists()
        assert not list((tmp_path / "auto").rglob("*.trace"))
        fused = ExperimentEngine(store=ResultStore(tmp_path / "fused")).compute(
            config, pipeline="fused"
        )
        assert evaluation.summarize().to_json_dict() == fused.summarize().to_json_dict()

    def test_snapshots_enabled_keeps_materialized_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        evaluation = engine.evaluate(ExperimentConfig(workload="li"))
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "materialized"


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestSweepPipeline:
    # Every default config: wide-8 elides every functional-unit probe,
    # window-32/128 and l1-16k change the window and the cache geometry.
    SPEC = SweepSpec.cartesian(
        workloads=("li", "ijpeg"),
        configs=default_sweep_configs(),
        policies=("baseline", "hw-significance"),
    )

    def test_fused_sweep_rows_bit_exact(self, tmp_path):
        materialized = SweepResult.collect(
            ExperimentEngine(store=ResultStore(tmp_path / "a")).sweep(
                self.SPEC, pipeline="materialized"
            )
        )
        fused = SweepResult.collect(
            ExperimentEngine(store=ResultStore(tmp_path / "b")).sweep(
                self.SPEC, pipeline="fused"
            )
        )
        assert len(materialized) == len(fused) == len(self.SPEC)
        for left, right in zip(materialized, fused):
            assert left.source == "computed"
            assert right.source == "fused"
            assert dataclasses.replace(left, source="") == dataclasses.replace(
                right, source=""
            )
        assert fused.simulations == materialized.simulations == 2  # one per workload

    def test_warm_snapshot_replays_even_under_fused(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExperimentEngine(store=store)
        SweepResult.collect(engine.sweep(self.SPEC, pipeline="materialized"))
        warm = SweepResult.collect(engine.sweep(self.SPEC, pipeline="fused"))
        assert all(row.source == "replayed" for row in warm)
        assert warm.simulations == 0

    def test_auto_materializes_single_config_groups(self, tmp_path, monkeypatch):
        """A one-config group with the snapshot layer off is simulated
        materialized under ``auto``; only an explicit ``fused`` streams."""
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        spec = SweepSpec.cartesian(
            workloads=("li",),
            configs=default_sweep_configs()[:1],
            policies=("baseline",),
        )
        auto = SweepResult.collect(
            ExperimentEngine(store=ResultStore(tmp_path / "auto")).sweep(spec)
        )
        fused = SweepResult.collect(
            ExperimentEngine(store=ResultStore(tmp_path / "fused")).sweep(spec, pipeline="fused")
        )
        assert [row.source for row in auto] == ["computed"]
        assert [row.source for row in fused] == ["fused"]
        assert dataclasses.replace(auto.rows[0], source="") == dataclasses.replace(
            fused.rows[0], source=""
        )

    def test_unknown_pipeline_rejected(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        with pytest.raises(ValueError, match="unknown pipeline"):
            list(engine.sweep(self.SPEC, pipeline="turbo"))


# ----------------------------------------------------------------------
# The bisector itself
# ----------------------------------------------------------------------
class TestCompareFused:
    def test_agreement_returns_none(self):
        program = assemble_program(TestMemoization.STEADY_LOOP)
        assert compare_fused(program) is None

    def test_fixture_routes_through_bisector(self, assert_fused_agrees):
        assert_fused_agrees(assemble_program(TestMemoization.STEADY_LOOP))

    def test_timing_bisection_finds_exact_record(self, monkeypatch):
        """An oracle kernel broken from record THRESHOLD onwards must be
        pinned to exactly that record by the probe-projection bisection."""
        program = assemble_program(TestMemoization.STEADY_LOOP)
        trace = Machine(program).run_reference(collect_trace=True).trace
        threshold = len(trace) // 2
        real = kernels_module.run_compiled

        def broken(prefix, config=None):
            result = real(prefix, config)
            if len(prefix) > threshold:
                result = dataclasses.replace(result, cycles=result.cycles + 1)
            return result

        monkeypatch.setattr(kernels_module, "run_compiled", broken)
        divergence = compare_fused(program)
        assert divergence is not None
        assert divergence.kind == "fused-timing"
        assert divergence.tiers == ("materialized", "fused")
        assert divergence.step == threshold
        assert divergence.uid == trace[threshold].uid
        assert "cycles" in divergence.fields
