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
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_program
from repro.coexec import compare_fused
from repro.coexec import kernels as kernels_module
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.experiments.engine import _resolve_pipeline
from repro.experiments.runner import _compute_evaluation
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepResult, SweepSpec, default_sweep_configs
from repro.hardware import gating
from repro.power import MultiPolicyEnergyAccountant
from repro.sim import Machine
from repro.sim.fusedc import (
    PIPELINES,
    FusedOutcome,
    ShapeAggregate,
    default_pipeline,
    fused_program_for,
)
from repro.uarch import MachineConfig, OutOfOrderModel
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
    reference = machine.run(collect_trace=True)
    trace = reference.trace
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
# Pipeline plumbing: env knob, engine resolution, validation
# ----------------------------------------------------------------------
class TestPipelinePlumbing:
    def test_default_pipeline_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        assert default_pipeline() == "auto"
        accepted = {
            "": "auto",
            "auto": "auto",
            "AUTO": "auto",
            "fused": "fused",
            " Fused ": "fused",
            "materialized": "materialized",
            "off": "materialized",
            "0": "materialized",
            "false": "materialized",
            "no": "materialized",
            "disabled": "materialized",
        }
        for value, expected in accepted.items():
            monkeypatch.setenv("REPRO_PIPELINE", value)
            assert default_pipeline() == expected, value
        # A typo must fail loudly rather than silently run another pipeline.
        for value in ("bogus", "fussed", "fuse", "materialised"):
            monkeypatch.setenv("REPRO_PIPELINE", value)
            with pytest.raises(ValueError, match=f"REPRO_PIPELINE='{value}'"):
                default_pipeline()

    def test_resolution_auto_follows_snapshot_layer(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        store = ResultStore(tmp_path)
        assert _resolve_pipeline("auto", store) == "materialized"
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert _resolve_pipeline("auto", store) == "fused"
        assert _resolve_pipeline("auto", None) == "fused"
        # Explicit choices win over everything.
        assert _resolve_pipeline("materialized", None) == "materialized"
        monkeypatch.setenv("REPRO_PIPELINE", "materialized")
        assert _resolve_pipeline("fused", store) == "fused"
        with pytest.raises(ValueError):
            _resolve_pipeline("turbo", store)

    def test_unknown_pipeline_is_rejected_everywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
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

    def test_env_forces_fused_in_engine(self, tmp_path, monkeypatch):
        """REPRO_PIPELINE=fused streams even when snapshots are enabled."""
        monkeypatch.setenv("REPRO_PIPELINE", "fused")
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        evaluation = engine.evaluate(ExperimentConfig(workload="li"))
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "fused"

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

    def test_fallback_on_non_block_tier(self):
        """Non-block dispatch tiers fall back to the materialized oracle
        but still present the fused result surface, bit-exact."""
        program = assemble_program(TestMemoization.STEADY_LOOP)
        machine = Machine(program)
        streamed = machine.run(pipeline="fused")
        fallback = machine.run(pipeline="fused", dispatch="reference")
        assert fallback.trace is None
        assert fallback.fused.timing == streamed.fused.timing
        assert (
            fallback.fused.shapes.shape_counts() == streamed.fused.shapes.shape_counts()
        )
        assert fallback.output == streamed.output


# ----------------------------------------------------------------------
# Satellite 4 regression: summary-only evaluations never build a trace
# ----------------------------------------------------------------------
class TestNoTraceForSummaryOnly:
    def test_summary_only_evaluation_never_constructs_a_trace(
        self, tmp_path, monkeypatch
    ):
        """With ``REPRO_TRACE_STORE=off`` a cold ``engine.evaluate`` must
        resolve through the fused pipeline — the trace must not even be
        *constructed*, not merely dropped after the fact."""
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")

        def explode(self):
            raise AssertionError("summary-only evaluation materialized a trace")

        monkeypatch.setattr(Machine, "_new_trace", explode)
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        config = ExperimentConfig(workload="li")
        evaluation = engine.evaluate(config)
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "fused"
        # The summary was persisted; a second engine restores it without
        # simulating at all.
        restored = ExperimentEngine(store=ResultStore(tmp_path)).evaluate(config)
        assert not restored.freshly_computed
        assert restored.summarize().to_json_dict() == evaluation.summarize().to_json_dict()

    def test_snapshots_enabled_keeps_materialized_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        engine = ExperimentEngine(store=ResultStore(tmp_path))
        evaluation = engine.evaluate(ExperimentConfig(workload="li"))
        assert evaluation.freshly_computed
        assert evaluation.pipeline == "materialized"


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestSweepPipeline:
    SPEC = SweepSpec.cartesian(
        workloads=("li",),
        configs=default_sweep_configs()[:2],
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
        assert fused.simulations == materialized.simulations == 1

    def test_warm_snapshot_replays_even_under_fused(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExperimentEngine(store=store)
        SweepResult.collect(engine.sweep(self.SPEC, pipeline="materialized"))
        warm = SweepResult.collect(engine.sweep(self.SPEC, pipeline="fused"))
        assert all(row.source == "replayed" for row in warm)
        assert warm.simulations == 0

    def test_auto_streams_single_config_groups(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        spec = SweepSpec.cartesian(
            workloads=("li",),
            configs=default_sweep_configs()[:1],
            policies=("baseline",),
        )
        rows = SweepResult.collect(
            ExperimentEngine(store=ResultStore(tmp_path)).sweep(spec)
        )
        assert [row.source for row in rows] == ["fused"]

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
        trace = Machine(program).run(collect_trace=True).trace
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
