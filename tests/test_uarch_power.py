"""Tests for the timing model, caches, branch predictor, power model, gating."""

import pytest

from repro.hardware import (
    CooperativeGating,
    GatingPolicy,
    NoGating,
    SignificanceCompression,
    SizeCompression,
    SoftwareGating,
)
from repro.isa import INT64_MAX, INT64_MIN, OpKind, Opcode, Width
from repro.minic import compile_source
from repro.power import EnergyAccountant, EnergyBreakdown, STRUCTURES
from repro.sim import Machine
from repro.sim.trace import StaticEntry
from repro.uarch import Cache, CacheConfig, CombinedPredictor, MachineConfig, OutOfOrderModel

_SOURCE = """
int table[64];
int main() {
    int i;
    long total;
    total = 0;
    for (i = 0; i < 64; i = i + 1) { table[i] = (i * 13) & 255; }
    for (i = 0; i < 64; i = i + 1) { total = total + table[i]; }
    print(total);
    return 0;
}
"""


def _trace():
    program = compile_source(_SOURCE)
    run = Machine(program).run(collect_trace=True)
    return run.trace


class TestCaches:
    def test_hits_after_first_access(self):
        cache = Cache(CacheConfig(1024, 2, 32, 1, 6))
        assert cache.access(0x100) is False
        assert cache.access(0x104) is True
        assert cache.miss_rate < 1.0

    def test_lru_eviction(self):
        cache = Cache(CacheConfig(64, 1, 32, 1, 6))  # 2 sets, direct mapped
        assert cache.access(0) is False
        assert cache.access(64) is False  # same set, evicts line 0
        assert cache.access(0) is False   # line 0 was evicted


class TestBranchPredictor:
    def test_learns_a_strongly_biased_branch(self):
        predictor = CombinedPredictor()
        for _ in range(200):
            predictor.update(0x4000, True)
        assert predictor.predict(0x4000) is True
        assert predictor.misprediction_rate < 0.2

    def test_alternating_pattern_uses_history(self):
        predictor = CombinedPredictor()
        outcome = True
        for _ in range(400):
            predictor.update(0x8000, outcome)
            outcome = not outcome
        # gshare should learn the period-2 pattern far better than chance.
        assert predictor.misprediction_rate < 0.5


class TestTimingModel:
    def test_cycles_bounded_by_width_and_instructions(self):
        trace = _trace()
        timing = OutOfOrderModel().run(trace)
        config = MachineConfig()
        assert timing.instructions == len(trace)
        assert timing.cycles >= timing.instructions / config.fetch_width
        assert timing.cycles < timing.instructions * 10
        assert 0.0 < timing.ipc <= config.issue_width

    def test_memory_ops_counted(self):
        trace = _trace()
        timing = OutOfOrderModel().run(trace)
        assert timing.loads > 0
        assert timing.stores > 0
        assert timing.dcache_accesses == timing.loads + timing.stores


class TestGatingPolicies:
    def test_policy_byte_counts(self):
        trace = _trace()
        entry = next(iter(trace.static))
        assert NoGating().value_bytes(entry, 3) == entry.width.bytes if entry.memory_width is None else True
        assert SignificanceCompression().value_bytes(entry, 3) == 1
        assert SizeCompression().value_bytes(entry, 0x1_0000_0000) == 5
        cooperative = CooperativeGating(SignificanceCompression())
        assert cooperative.value_bytes(entry, 3) == 1

    def test_tag_overheads(self):
        assert SignificanceCompression().tag_bits == 7
        assert SizeCompression().tag_bits == 2
        assert SoftwareGating().tag_bits == 0


def _entry(width=Width.QUAD, memory_width=None) -> StaticEntry:
    """A synthetic static entry with the given encoded widths."""
    return StaticEntry(
        uid=0,
        opcode=Opcode.ADD,
        kind=OpKind.ALU,
        width=width,
        functional_unit="ialu",
        latency=1,
        energy_class="alu",
        is_load=memory_width is not None,
        is_store=False,
        is_branch=False,
        is_conditional=False,
        is_call=False,
        is_return=False,
        is_guard=False,
        memory_width=memory_width,
        num_src_regs=2,
        has_dest=True,
        src_regs=(1, 2),
        dest_reg=3,
        function="f",
        block="b",
    )


class TestGatingPolicyTables:
    """Boundary-value pins for the value-dependent gating policies, so a
    kernel regression in the fused accountant cannot hide behind an
    identical regression in the policies themselves."""

    #: value → (significant bytes, 1/2/5/8 size class)
    BOUNDARY_BYTES = [
        (0, 1, 1),
        (1, 1, 1),
        (-1, 1, 1),
        (127, 1, 1),
        (128, 2, 2),
        (-128, 1, 1),
        (-129, 2, 2),
        (0xFF, 2, 2),
        (0x100, 2, 2),
        (0x7FFF, 2, 2),
        (0x8000, 3, 5),
        (-0x8000, 2, 2),
        (2**31 - 1, 4, 5),
        (2**31, 5, 5),
        (-(2**31), 4, 5),
        (2**39 - 1, 5, 5),
        (2**39, 6, 8),
        (INT64_MAX, 8, 8),
        (INT64_MIN, 8, 8),
    ]

    @pytest.mark.parametrize("value,significant,size_class", BOUNDARY_BYTES)
    def test_significance_compression_value_bytes(self, value, significant, size_class):
        assert SignificanceCompression().value_bytes(_entry(), value) == significant

    @pytest.mark.parametrize("value,significant,size_class", BOUNDARY_BYTES)
    def test_size_compression_value_bytes(self, value, significant, size_class):
        assert SizeCompression().value_bytes(_entry(), value) == size_class

    @pytest.mark.parametrize("value,significant,size_class", BOUNDARY_BYTES)
    def test_cooperative_gating_takes_the_minimum(self, value, significant, size_class):
        wide = _entry(width=Width.QUAD)
        narrow = _entry(width=Width.HALF)
        via_memory = _entry(width=Width.QUAD, memory_width=Width.BYTE)
        assert CooperativeGating(SignificanceCompression()).value_bytes(wide, value) == min(
            8, significant
        )
        assert CooperativeGating(SignificanceCompression()).value_bytes(narrow, value) == min(
            2, significant
        )
        assert CooperativeGating(SizeCompression()).value_bytes(narrow, value) == min(
            2, size_class
        )
        # The memory width overrides the opcode width for memory operations.
        assert CooperativeGating(SignificanceCompression()).value_bytes(
            via_memory, value
        ) == min(1, significant)

    @pytest.mark.parametrize(
        "policy,expected_bits,expected_fraction",
        [
            (NoGating(), 0, 0.0),
            (SoftwareGating(), 0, 0.0),
            (GatingPolicy(), 0, 0.0),
            (SignificanceCompression(), 7, 7 / 64.0),
            (SizeCompression(), 2, 2 / 64.0),
            (CooperativeGating(SignificanceCompression()), 2, 2 / 64.0),
            (CooperativeGating(SizeCompression()), 2, 2 / 64.0),
        ],
    )
    def test_tag_overhead_fraction(self, policy, expected_bits, expected_fraction):
        assert policy.tag_bits == expected_bits
        assert policy.tag_overhead_fraction == expected_fraction

    def test_encoded_policies_ignore_the_value(self):
        narrow = _entry(width=Width.WORD)
        for policy in (NoGating(), SoftwareGating()):
            assert policy.value_bytes(narrow, 0) == 4
            assert policy.value_bytes(narrow, INT64_MAX) == 4
        assert NoGating().value_bytes(_entry(memory_width=Width.HALF), INT64_MAX) == 2


class TestSavingsVs:
    def test_structures_only_in_self_are_reported(self):
        mine = EnergyBreakdown(by_structure={"alu": 2.0, "new_unit": 3.0}, cycles=10)
        base = EnergyBreakdown(by_structure={"alu": 4.0}, cycles=10)
        savings = mine.savings_vs(base)
        # Previously "new_unit" was silently dropped from the result.
        assert set(savings) == {"alu", "new_unit", "processor"}
        assert savings["alu"] == 0.5
        # A structure without baseline energy follows the existing
        # zero-baseline convention: a saving of 0.0, not a KeyError.
        assert savings["new_unit"] == 0.0
        assert savings["processor"] == 1.0 - 5.0 / 4.0

    def test_zero_baseline_structure_keeps_convention(self):
        mine = EnergyBreakdown(by_structure={"alu": 1.0})
        base = EnergyBreakdown(by_structure={"alu": 0.0})
        assert mine.savings_vs(base)["alu"] == 0.0


class TestEnergyModel:
    def test_breakdown_covers_all_structures(self):
        trace = _trace()
        timing = OutOfOrderModel().run(trace)
        breakdown = EnergyAccountant(NoGating()).account(trace, timing)
        assert set(breakdown.by_structure) == set(STRUCTURES)
        assert breakdown.total > 0
        assert breakdown.energy_delay_squared() > 0

    def test_hardware_gating_reduces_data_structures_only(self):
        trace = _trace()
        timing = OutOfOrderModel().run(trace)
        baseline = EnergyAccountant(NoGating()).account(trace, timing)
        gated = EnergyAccountant(SignificanceCompression()).account(trace, timing)
        savings = gated.savings_vs(baseline)
        assert savings["register_file"] > 0.0
        assert savings["icache"] == 0.0
        assert savings["processor"] > 0.0

    def test_cooperative_is_at_least_as_good_as_software(self):
        trace = _trace()
        timing = OutOfOrderModel().run(trace)
        software = EnergyAccountant(SoftwareGating()).account(trace, timing)
        cooperative = EnergyAccountant(CooperativeGating(SizeCompression())).account(trace, timing)
        # The cooperative scheme gates at least as many bytes but pays a small
        # tag overhead, so allow a tiny tolerance.
        assert cooperative.total <= software.total * 1.05
