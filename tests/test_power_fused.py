"""Differential harness for the fused multi-policy energy accountant.

Three layers of defence around ``MultiPolicyEnergyAccountant``:

1. **Property tests** over hypothesis-generated random traces (mixed
   loads/stores/branches/imul, values spanning every width class, records
   with and without results) asserting the fused walk is *exactly* —
   float-for-float — equal to one ``EnergyAccountant`` pass per policy,
   for every policy and every structure.
2. An independently written **reference model** (a verbatim copy of the
   original single-policy accountant, predating the fused core) that the
   fused results must match within floating-point reassociation tolerance.
3. **Real workloads**: the same exact-equality differential over the
   actual suite traces, plus a walk-count probe asserting that a cold
   ``summarize()`` performs exactly one trace walk for energy accounting.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import POLICY_NAMES, ExperimentConfig, default_engine
from repro.experiments.runner import WorkloadEvaluation
from repro.hardware import (
    CooperativeGating,
    GatingPolicy,
    NoGating,
    SignificanceCompression,
    SizeCompression,
    SoftwareGating,
    gating,
)
from repro.isa import INT64_MAX, INT64_MIN, OpKind, Opcode, Width
from repro.power import STRUCTURES, EnergyAccountant, MultiPolicyEnergyAccountant
from repro.sim import Machine, Trace
from repro.sim.trace import StaticEntry, StaticInfo, TraceRecord
from repro.uarch import TimingResult
from repro.workloads import SUITE_NAMES

_MUL_ENERGY_FACTOR = 3.0


def _all_policies() -> dict[str, GatingPolicy]:
    return gating.registry()


# ----------------------------------------------------------------------
# Reference model: the original per-policy accountant, kept verbatim so
# the fused kernel is checked against an independent implementation.
# ----------------------------------------------------------------------
class _ReferenceAccountant:
    def __init__(self, policy: GatingPolicy) -> None:
        self.policy = policy

    def account(self, trace, timing):
        policy = self.policy
        static = trace.static
        self._totals = {name: 0.0 for name in STRUCTURES}

        for record in trace.records:
            entry = static[record.uid]
            source_bytes = [policy.value_bytes(entry, value) for value in record.srcs]
            result_bytes = (
                policy.value_bytes(entry, record.result) if record.result is not None else 0
            )

            self._add("rename", 1, None)
            self._add("rob", 2, result_bytes if record.result is not None else None)
            if source_bytes:
                average = sum(source_bytes) / len(source_bytes)
                self._add("instruction_queue", 2, average)
            else:
                self._add("instruction_queue", 2, None)

            for nbytes in source_bytes:
                self._add("register_file", 1, nbytes)
            if record.result is not None:
                self._add("register_file", 1, result_bytes)
                self._add("rename_buffers", 1, result_bytes)
                self._add("result_bus", 1, result_bytes)

            operand_candidates = source_bytes + (
                [result_bytes] if record.result is not None else []
            )
            fu_bytes = max(operand_candidates) if operand_candidates else 8
            fu_weight = _MUL_ENERGY_FACTOR if entry.functional_unit == "imul" else 1.0
            self._add("alu", fu_weight, fu_bytes)

            if entry.is_load or entry.is_store:
                data_bytes = (
                    result_bytes if entry.is_load else (source_bytes[0] if source_bytes else 8)
                )
                self._add("lsq", 2, data_bytes)
                self._add("dcache_l1", 1, data_bytes)
            if entry.is_branch:
                self._add("branch_predictor", 1, None)

        self._add("icache", timing.icache_accesses, None)
        self._add("dcache_l2", timing.l2_accesses, None)
        self._add("branch_predictor", timing.icache_accesses, None)
        self._add("clock", timing.cycles, None)
        return dict(self._totals)

    def _add(self, name, accesses, active_bytes):
        params = STRUCTURES[name]
        if active_bytes is None:
            activity = 1.0
        else:
            activity = active_bytes / 8.0
        energy = params.energy_per_access * accesses * (
            (1.0 - params.data_fraction) + params.data_fraction * activity
        )
        if params.stores_values and self.policy.tag_bits:
            energy += (
                params.energy_per_access
                * accesses
                * params.data_fraction
                * self.policy.tag_overhead_fraction
            )
        self._totals[name] += energy


# ----------------------------------------------------------------------
# Random-trace strategies
# ----------------------------------------------------------------------
#: Values spanning every significant-byte and size-class boundary.
_BOUNDARY_VALUES = [
    0, 1, -1, 127, 128, -128, -129, 0xFF, 0x100,
    0x7FFF, 0x8000, -0x8000, -0x8001,
    2**31 - 1, 2**31, -(2**31), 2**32, 2**33 - 1, 2**33,
    2**39 - 1, 2**39, 2**40, INT64_MAX, INT64_MIN,
]

_values = st.one_of(
    st.sampled_from(_BOUNDARY_VALUES),
    st.integers(min_value=-256, max_value=256),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)

_entry_kinds = st.sampled_from(["alu", "imul", "load", "store", "branch"])


@st.composite
def _static_entry(draw, uid: int) -> StaticEntry:
    kind = draw(_entry_kinds)
    width = draw(st.sampled_from(Width.all_widths()))
    is_load = kind == "load"
    is_store = kind == "store"
    memory_width = (
        draw(st.sampled_from(Width.all_widths())) if (is_load or is_store) else None
    )
    num_srcs = draw(st.integers(min_value=0, max_value=3))
    has_dest = draw(st.booleans())
    return StaticEntry(
        uid=uid,
        opcode=Opcode.ADD,
        kind=OpKind.ALU,
        width=width,
        functional_unit="imul" if kind == "imul" else "ialu",
        latency=1,
        energy_class="alu",
        is_load=is_load,
        is_store=is_store,
        is_branch=kind == "branch",
        is_conditional=kind == "branch",
        is_call=False,
        is_return=False,
        is_guard=False,
        memory_width=memory_width,
        num_src_regs=num_srcs,
        has_dest=has_dest,
        src_regs=tuple(range(num_srcs)),
        dest_reg=0 if has_dest else None,
        function="f",
        block="b",
    )


@st.composite
def _trace_and_timing(draw) -> tuple[Trace, TimingResult]:
    n_static = draw(st.integers(min_value=1, max_value=6))
    static = StaticInfo()
    for uid in range(n_static):
        static.add_entry(draw(_static_entry(uid)))

    n_records = draw(st.integers(min_value=0, max_value=40))
    records = []
    for position in range(n_records):
        uid = draw(st.integers(min_value=0, max_value=n_static - 1))
        entry = static[uid]
        srcs = tuple(draw(_values) for _ in range(entry.num_src_regs))
        # ``result`` may be absent even for instructions with a destination:
        # the accountant must key off the record, not the static entry.
        has_result = entry.has_dest and draw(st.booleans())
        result = draw(_values) if has_result else None
        records.append(
            TraceRecord(
                uid=uid,
                address=0x1000 + 4 * position,
                srcs=srcs,
                result=result,
                mem_address=0x8000 if (entry.is_load or entry.is_store) else None,
                taken=draw(st.booleans()) if entry.is_branch else None,
                next_address=0x1000 + 4 * (position + 1),
            )
        )

    timing = TimingResult(
        cycles=draw(st.integers(min_value=1, max_value=100_000)),
        instructions=n_records,
        branch_lookups=draw(st.integers(min_value=0, max_value=10_000)),
        branch_mispredictions=0,
        icache_accesses=draw(st.integers(min_value=0, max_value=10_000)),
        icache_misses=0,
        dcache_accesses=0,
        dcache_misses=0,
        l2_accesses=draw(st.integers(min_value=0, max_value=10_000)),
        l2_misses=0,
        loads=0,
        stores=0,
    )
    return Trace(records=records, static=static), timing


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
class TestFusedDifferential:
    @settings(max_examples=75, deadline=None)
    @given(_trace_and_timing())
    def test_fused_exactly_equals_per_policy_accountant(self, data):
        """Fused walk ≡ six independent single-policy walks, bit for bit."""
        trace, timing = data
        policies = _all_policies()
        fused = MultiPolicyEnergyAccountant(policies).account(trace, timing)
        assert set(fused) == set(POLICY_NAMES)
        for name, policy in policies.items():
            single = EnergyAccountant(policy).account(trace, timing)
            assert fused[name].by_structure == single.by_structure, name
            assert set(fused[name].by_structure) == set(STRUCTURES)
            assert fused[name].cycles == single.cycles
            assert fused[name].instructions == single.instructions == len(trace.records)
            assert fused[name].policy == policy.name

    @settings(max_examples=75, deadline=None)
    @given(_trace_and_timing())
    def test_fused_matches_reference_model(self, data):
        """Fused walk matches the original implementation (copied above)
        within floating-point reassociation tolerance."""
        trace, timing = data
        policies = _all_policies()
        fused = MultiPolicyEnergyAccountant(policies).account(trace, timing)
        for name, policy in policies.items():
            reference = _ReferenceAccountant(policy).account(trace, timing)
            for structure, expected in reference.items():
                actual = fused[name].by_structure[structure]
                assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9), (
                    name,
                    structure,
                    actual,
                    expected,
                )

    @settings(max_examples=25, deadline=None)
    @given(_trace_and_timing())
    def test_opaque_policy_falls_back_to_direct_walk(self, data):
        """A policy with ``width_source=None`` still accounts correctly."""

        class OpaqueSignificance(SignificanceCompression):
            width_source = None

        trace, timing = data
        opaque = OpaqueSignificance()
        fused = MultiPolicyEnergyAccountant([opaque]).account(trace, timing)
        reference = _ReferenceAccountant(SignificanceCompression()).account(trace, timing)
        # The direct path replays the reference arithmetic verbatim, so
        # this comparison is exact, not merely within tolerance.
        assert fused[opaque.name].by_structure == reference

    @settings(max_examples=25, deadline=None)
    @given(_trace_and_timing())
    def test_subclass_without_width_source_stays_correct(self, data):
        """A naive subclass that overrides ``value_bytes`` but never heard
        of ``width_source`` inherits the opaque default and must be
        accounted through the exact direct walk — not silently treated as
        a full-width policy."""

        class Halves(GatingPolicy):
            name = "halves"

            def value_bytes(self, entry, value):
                return 4

        trace, timing = data
        policy = Halves()
        assert policy.width_source is None
        fused = MultiPolicyEnergyAccountant([policy]).account(trace, timing)
        reference = _ReferenceAccountant(policy).account(trace, timing)
        assert fused["halves"].by_structure == reference

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError):
            MultiPolicyEnergyAccountant([NoGating(), NoGating()])

    def test_empty_policy_set(self):
        trace = Trace(records=[], static=StaticInfo())
        timing = TimingResult(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert MultiPolicyEnergyAccountant([]).account(trace, timing) == {}

    def test_width_sources_cover_all_stored_policies(self):
        """Every stored policy is recognized by the fused fast path."""
        recognized = {"full", "encoded", "significant", "size_class",
                      "min:significant", "min:size_class"}
        for name, policy in _all_policies().items():
            assert policy.width_source in recognized, name
        assert CooperativeGating(NoGating()).width_source == "encoded"
        assert CooperativeGating(SoftwareGating()).width_source == "encoded"
        assert SizeCompression().width_source == "size_class"


# ----------------------------------------------------------------------
# Real workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ijpeg_evaluation():
    return default_engine().compute(ExperimentConfig(workload="ijpeg"))


def _assert_fused_equals_sequential(trace, timing):
    policies = _all_policies()
    fused = MultiPolicyEnergyAccountant(policies).account(trace, timing)
    for name, policy in policies.items():
        single = EnergyAccountant(policy).account(trace, timing)
        assert fused[name].by_structure == single.by_structure, name


class TestRealWorkloads:
    def test_fused_equals_sequential_on_ijpeg(self, ijpeg_evaluation):
        _assert_fused_equals_sequential(ijpeg_evaluation.trace, ijpeg_evaluation.timing)


@pytest.mark.suite
@pytest.mark.slow
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_fused_equals_sequential_on_suite_workload(name):
    """Exact fused/sequential equivalence over every real suite trace."""
    evaluation = default_engine().compute(ExperimentConfig(workload=name))
    _assert_fused_equals_sequential(evaluation.trace, evaluation.timing)


# ----------------------------------------------------------------------
# Walk-count probe
# ----------------------------------------------------------------------
class _CountingRecords(list):
    """List of trace records that counts full iterations (walks)."""

    def __init__(self, records):
        super().__init__(records)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _probed_evaluation(evaluation) -> tuple[WorkloadEvaluation, _CountingRecords]:
    # The live trace keeps no values; the reference loop's trace of the
    # same program supplies the record stream.
    reference = Machine(evaluation.program).run_reference(collect_trace=True).trace
    records = _CountingRecords(reference.records)
    trace = Trace(records=records, static=reference.static)
    fresh = WorkloadEvaluation(
        workload=evaluation.workload,
        program=evaluation.program,
        trace=trace,
        run=evaluation.run,
        timing=evaluation.timing,
    )
    return fresh, records


class TestWalkCounts:
    def test_first_outcome_fills_all_siblings_without_record_walks(self, ijpeg_evaluation):
        """The columnar accountant never re-reads the record stream: the
        single walk is the one that ingested the records into columns."""
        evaluation, records = _probed_evaluation(ijpeg_evaluation)
        assert records.walks == 1  # columnar ingestion
        evaluation.outcome("hw-size")
        assert records.walks == 1
        for name in POLICY_NAMES:
            evaluation.outcome(name)
        assert records.walks == 1  # siblings were cached by the fused walk

    def test_cold_summarize_performs_zero_record_walks(self, ijpeg_evaluation):
        """Energy accounting *and* the four dynamic distributions run off
        the columns (cached combo/uid aggregations), so a cold summarize
        adds no walk beyond the ingestion one."""
        evaluation, records = _probed_evaluation(ijpeg_evaluation)
        summary = evaluation.summarize()
        assert records.walks == 1
        assert set(summary.energies) == set(POLICY_NAMES)
        # Re-summarizing and re-querying outcomes is free.
        evaluation.summarize()
        for name in POLICY_NAMES:
            evaluation.outcome(name)
        assert records.walks == 1

    def test_trace_level_aggregations_are_cached(self, ijpeg_evaluation):
        trace = ijpeg_evaluation.trace
        assert trace.uid_counts() is trace.uid_counts()
        assert trace.shape_counts() is trace.shape_counts()
        assert sum(trace.uid_counts().values()) == len(trace)
        assert sum(trace.shape_counts().values()) == len(trace)
