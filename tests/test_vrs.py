"""Tests for VRS: energy model, candidates, specialization transform, folding."""

import copy
from dataclasses import replace

import pytest

from repro.core import (
    ALU_ENERGY_SAVINGS_NJ,
    EnergyModel,
    GuardCost,
    VRSConfig,
    ValueRange,
    alu_energy_saving_nj,
    apply_widths,
    fold_constants_in_region,
    identify_candidates,
    run_vrp,
    run_vrs,
    specialize_candidate,
)
from repro.core import vrs as vrs_module
from repro.ir import IRBuilder, Program, validate_function
from repro.isa import Instruction, Opcode, Reg, Width
from repro.experiments.summary import vrs_stats
from repro.minic import compile_source
from repro.sim import Machine, SimulationLimitExceeded, ValueProfiler, ValueTable, fusedc
from repro.workloads import SUITE_NAMES, workload_by_name


class TestEnergyModel:
    def test_table1_is_antisymmetric_and_consistent(self):
        for dest, row in ALU_ENERGY_SAVINGS_NJ.items():
            for source, value in row.items():
                assert value == -ALU_ENERGY_SAVINGS_NJ[source][dest]
        assert alu_energy_saving_nj(Width.QUAD, Width.BYTE) == 6.0
        # Narrowing in two steps equals narrowing in one.
        assert (
            alu_energy_saving_nj(Width.QUAD, Width.WORD)
            + alu_energy_saving_nj(Width.WORD, Width.BYTE)
            == alu_energy_saving_nj(Width.QUAD, Width.BYTE)
        )

    def test_guard_costs_follow_section_3_2(self):
        guard = GuardCost()
        zero_test = guard.test_cost_nj(ValueRange.constant(0))
        single_value = guard.test_cost_nj(ValueRange.constant(5))
        full_range = guard.test_cost_nj(ValueRange(1, 8))
        assert zero_test < single_value < full_range
        assert guard.test_instruction_count(ValueRange.constant(0)) == 1
        assert guard.test_instruction_count(ValueRange(1, 8)) == 4

    def test_no_saving_when_width_grows(self):
        model = EnergyModel()
        inst = Instruction(Opcode.ADD, Reg(1), (Reg(2), Reg(3)))
        assert model.instruction_saving_nj(inst, Width.BYTE, Width.QUAD) == 0.0
        assert model.instruction_saving_nj(inst, Width.QUAD, Width.BYTE) > 0.0


class TestValueProfiler:
    def test_table_tracks_dominant_value(self):
        table = ValueTable(capacity=4)
        for _ in range(90):
            table.observe(7)
        for value in range(10):
            table.observe(value + 100)
        dominant = table.dominant_value()
        assert dominant[0] == 7
        assert dominant[1] > 0.8
        assert table.total == 100

    def test_range_frequency_is_conservative(self):
        table = ValueTable(capacity=2, clean_interval=1000)
        for value in (1, 2, 3, 4, 5, 6):
            table.observe(value)
        # Only two values fit the table; the rest count as "outside".
        assert table.range_frequency(1, 6) <= 1.0
        assert table.covered <= table.total

    def test_profiler_only_observes_watched_uids(self):
        profiler = ValueProfiler({42})
        profiler.observe(42, 5)
        assert profiler.table(42).total == 1
        assert profiler.table(99) is None

    def test_observe_all_equals_observing_one_by_one(self):
        """A replay across several cleanings fills the table exactly as
        the observations one at a time do, entry order included."""
        values = [(index * 7919) % 23 if index % 3 else 5 for index in range(1000)]
        one_by_one = ValueTable(capacity=4, clean_interval=64)
        for value in values:
            one_by_one.observe(value)
        replayed = ValueTable(capacity=4, clean_interval=64)
        replayed.observe_all(values[:100])
        replayed.observe_all(values[100:])
        assert replayed.total == one_by_one.total == 1000
        assert list(replayed.entries.items()) == list(one_by_one.entries.items())
        assert replayed._since_clean == one_by_one._since_clean


def _straightline_function():
    builder = IRBuilder("f")
    builder.block("entry")
    builder.load(Opcode.LDW, Reg(1), Reg(16), 0)
    builder.add(Reg(2), Reg(1), 10)
    builder.mul(Reg(3), Reg(2), 3)
    builder.store(Opcode.STW, Reg(3), Reg(16), 8)
    builder.ret()
    return builder.build()


class TestSpecializationTransform:
    def test_range_guard_and_clone_created(self):
        function = _straightline_function()
        load = next(i for i in function.instructions() if i.op is Opcode.LDW)
        record = specialize_candidate(function, load.uid, ValueRange(0, 15))
        assert record is not None
        assert len(record.guard_uids) == 4  # two compares, an AND, a branch
        assert record.cloned_instructions > 0
        validate_function(function)

    def test_single_value_guard_is_shorter(self):
        function = _straightline_function()
        load = next(i for i in function.instructions() if i.op is Opcode.LDW)
        record = specialize_candidate(function, load.uid, ValueRange.constant(0))
        assert len(record.guard_uids) == 1  # zero test is a lone branch
        validate_function(function)

    def test_specialization_preserves_behaviour(self):
        source = """
        int modes[64];
        long acc;
        int main() {
            int i;
            int m;
            acc = 0;
            for (i = 0; i < 64; i = i + 1) {
                m = modes[i];
                if (m == 1) { acc = acc + i; } else { acc = acc + m * i; }
            }
            print(acc);
            return 0;
        }
        """
        program = compile_source(source)
        values = tuple(1 if i % 7 else 3 for i in range(64))
        program.data_objects["modes"].initial_values = values
        baseline = Machine(program).run().output

        specialized_program = compile_source(source)
        specialized_program.data_objects["modes"].initial_values = values
        result = run_vrs(specialized_program, VRSConfig(threshold_nj=1.0))
        assert Machine(specialized_program).run().output == baseline
        assert result.points_profiled >= result.points_specialized


class TestConstantFolding:
    def test_fold_constants_and_resolve_branch(self):
        builder = IRBuilder("g")
        builder.block("entry")
        builder.li(Reg(1), 0)
        builder.block("region")
        builder.add(Reg(2), Reg(1), 5)
        builder.cmp(Opcode.CMPEQ, Reg(3), Reg(2), 5)
        builder.beq(Reg(3), "dead")
        builder.block("live")
        builder.print_(Reg(2))
        builder.br("exit")
        builder.block("dead")
        builder.print_(Reg(1))
        builder.block("exit")
        builder.halt()
        function = builder.build()

        stats = fold_constants_in_region(
            function,
            region_labels={"region", "live", "dead"},
            entry_label="region",
            seed={Reg(1): 0},
        )
        assert stats.folded_to_constant >= 2
        assert stats.branches_resolved == 1
        # The "dead" block became unreachable and was removed.
        assert "dead" in stats.blocks_removed
        program = Program(entry="g")
        program.add_function(function)
        assert Machine(program).run().output == [5]


class TestVrsPipeline:
    def test_skewed_mode_variable_gets_specialized(self):
        source = """
        int modes[256];
        int table[64];
        long acc;
        long work(int mode, int i) {
            long r;
            if (mode == 0) { r = table[i & 63] + i; }
            else { r = (table[i & 63] * mode) + (i & mode); }
            return r;
        }
        int main() {
            int i;
            acc = 0;
            for (i = 0; i < 256; i = i + 1) {
                acc = acc + work(modes[i], i);
            }
            print(acc);
            return 0;
        }
        """
        program = compile_source(source)
        program.data_objects["modes"].initial_values = tuple(
            0 if i % 11 else 5 for i in range(256)
        )
        program.data_objects["table"].initial_values = tuple((i * 3) & 63 for i in range(64))
        baseline_program = compile_source(source)
        baseline_program.data_objects["modes"].initial_values = program.data_objects[
            "modes"
        ].initial_values
        baseline_program.data_objects["table"].initial_values = program.data_objects[
            "table"
        ].initial_values
        baseline = Machine(baseline_program).run().output

        result = run_vrs(program, VRSConfig(threshold_nj=5.0))
        assert result.points_profiled > 0
        assert Machine(program).run().output == baseline
        # Figure 4/5 bookkeeping stays consistent.
        assert result.points_specialized == len(result.records)
        assert result.static_specialized_instructions >= 0


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_candidate_value_profiles_match_reference_tier(name):
    """VRS's profiling run — train input, the real candidate set — fills
    the same value tables from the block tier's compiled observer calls
    as from the reference loop."""
    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "train")
    config = VRSConfig()
    vrp = run_vrp(program, config.vrp)
    apply_widths(program, vrp)
    machine = Machine(program, max_instructions=config.train_max_instructions)
    candidates = identify_candidates(
        program,
        vrp,
        machine.run().instruction_counts(program),
        min_execution_count=config.min_execution_count,
    )
    assert candidates
    tables = {}
    for tier in ("reference", "block"):
        profiler = ValueProfiler(
            {candidate.uid for candidate in candidates}, capacity=config.profiler_capacity
        )
        run = machine.run_reference if tier == "reference" else machine.run
        run(value_observer=profiler)
        tables[tier] = {
            uid: (table.total, table.entries) for uid, table in profiler.tables.items()
        }
    assert tables["block"] == tables["reference"]
    assert tables["block"]


def _two_run_training(build, config):
    """VRS's steps 2-4 as two train runs of a copy of ``build`` do them:
    an untraced run counts, then a run watching only the candidates
    fills their tables.  Returns ``(counts, candidates, tables)``."""
    program = copy.deepcopy(build)
    vrp = run_vrp(program, config.vrp)
    apply_widths(program, vrp)
    machine = Machine(program, max_instructions=config.train_max_instructions)
    counts = machine.run().instruction_counts(program)
    candidates = identify_candidates(
        program, vrp, counts, min_execution_count=config.min_execution_count
    )
    profiler = ValueProfiler(
        {candidate.uid for candidate in candidates}, capacity=config.profiler_capacity
    )
    if candidates:
        machine.run(value_observer=profiler)
    return counts, candidates, profiler.tables


def _record_facts(record) -> tuple:
    """A specialization record but the uids its guard and clones drew."""
    return (
        record.candidate_uid,
        record.function,
        record.value_range,
        record.guard_label,
        record.clone_entry_label,
        record.original_region_labels,
        record.cloned_labels,
        len(record.guard_uids),
        len(record.cloned_uids),
        record.cloned_instructions,
        record.fold_stats,
    )


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_one_training_run_equals_a_count_run_and_a_profiling_run(name):
    """``run_vrs`` trains in one run that watches every statically
    eligible instruction.  Its counts, candidates and value tables equal
    those of a counting run followed by a run watching only the
    candidates, and VRS driven by those gives the same outcomes,
    specializations and widths."""
    workload = workload_by_name(name)
    build = workload.build()
    workload.apply_input(build, "train")
    config = VRSConfig()
    single_program = copy.deepcopy(build)
    single = run_vrs(single_program, config)
    counts, candidates, tables = _two_run_training(build, config)

    assert single.training.instruction_counts == counts
    assert [
        (candidate.uid, candidate.execution_count, candidate.preliminary_benefit_nj)
        for candidate in single.candidates
    ] == [
        (candidate.uid, candidate.execution_count, candidate.preliminary_benefit_nj)
        for candidate in candidates
    ]
    assert {
        uid: (list(table.entries.items()), table.total)
        for uid, table in single.training.tables.items()
    } == {uid: (list(table.entries.items()), table.total) for uid, table in tables.items()}

    reference_program = copy.deepcopy(build)
    reference = run_vrs(
        reference_program,
        config,
        training=replace(
            single.training,
            instruction_counts=counts,
            candidates=tuple(candidates),
            tables=tables,
        ),
    )
    assert single.outcomes == reference.outcomes
    assert [_record_facts(record) for record in single.records] == [
        _record_facts(record) for record in reference.records
    ]
    assert vrs_stats(single) == vrs_stats(reference)
    assert [inst.width for inst in single_program.instructions()] == [
        inst.width for inst in reference_program.instructions()
    ]


@pytest.fixture
def machine_runs(monkeypatch):
    """Every ``Machine.run`` call from now on, as its keyword arguments."""
    calls = []
    run = Machine.run

    def counted_run(self, *args, **kwargs):
        calls.append(kwargs)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counted_run)
    return calls


def _li_train_build():
    workload = workload_by_name("li")
    program = workload.build()
    workload.apply_input(program, "train")
    return program


class TestTraining:
    def test_run_vrs_runs_the_train_input_once(self, machine_runs):
        result = run_vrs(_li_train_build(), VRSConfig())
        assert result.points_profiled > 0
        assert len(machine_runs) == 1
        assert machine_runs[0]["value_observer"] is not None

    def test_the_recorder_keeps_every_value_in_order(self):
        """A recording starts at one byte a value and widens as its values
        need, past eight bytes to a list (a ``mov``'s raw immediate)."""
        recorder = vrs_module._ValueRecorder({1, 2})
        values = [1, -128, 300, -70_000, 1 << 40, 1 << 63, -5]
        for value in values:
            recorder.observe(1, value)
            recorder.observe(2, value % 100)
        assert list(recorder.values[1]) == values
        assert list(recorder.values[2]) == [value % 100 for value in values]
        assert recorder.values[2].itemsize == 1

    def test_a_train_limit_below_the_run_raises(self):
        with pytest.raises(SimulationLimitExceeded):
            run_vrs(_li_train_build(), VRSConfig(train_max_instructions=1_000))

    def test_a_training_serves_another_threshold(self, machine_runs):
        """A training reused at another threshold gives what training
        afresh there gives, and runs nothing."""
        build = _li_train_build()
        first = run_vrs(copy.deepcopy(build), VRSConfig(threshold_nj=30.0))
        fresh = run_vrs(copy.deepcopy(build), VRSConfig(threshold_nj=110.0))
        del machine_runs[:]
        reused = run_vrs(
            copy.deepcopy(build), VRSConfig(threshold_nj=110.0), training=first.training
        )
        assert machine_runs == []
        assert reused.training is first.training
        assert reused.outcomes == fresh.outcomes
        assert vrs_stats(reused) == vrs_stats(fresh) != vrs_stats(first)

    def test_rejects_another_training_configuration(self):
        build = _li_train_build()
        training = run_vrs(copy.deepcopy(build), VRSConfig()).training
        for changed in (
            VRSConfig(min_execution_count=8),
            VRSConfig(profiler_capacity=8),
            VRSConfig(train_max_instructions=10_000_000),
        ):
            assert not training.serves(changed)
            with pytest.raises(ValueError, match="training ran under"):
                run_vrs(copy.deepcopy(build), changed, training=training)

    def test_rejects_another_builds_training(self):
        training = run_vrs(_li_train_build(), VRSConfig()).training
        with pytest.raises(ValueError, match="another program"):
            run_vrs(_li_train_build(), VRSConfig(), training=training)

    def test_rejects_a_training_on_another_input(self):
        build = _li_train_build()
        training = run_vrs(copy.deepcopy(build), VRSConfig()).training
        program = copy.deepcopy(build)
        workload_by_name("li").apply_input(program, "ref")
        with pytest.raises(ValueError, match="another input"):
            run_vrs(program, VRSConfig(), training=training)


@pytest.mark.parametrize("name", ("li", "m88ksim"))
def test_vrs_stats_do_not_depend_on_earlier_builds(name):
    """VRS's savings walk visits def-use edges in a build-independent
    order: building gcc first, which shifts every uid the next build
    allocates, changes none of the workload's VRS statistics.  Walking
    the uid-keyed use sets in set order gave li 16 or 17 profiled points
    and m88ksim 18 or 19, depending on how many builds came before."""
    workload = workload_by_name(name)
    gcc = workload_by_name("gcc")
    stats = []
    for earlier in range(6):
        for _ in range(earlier):
            gcc.build()
        program = workload.build()
        workload.apply_input(program, "train")
        stats.append(vrs_stats(run_vrs(program, VRSConfig())))
    assert stats == [stats[0]] * len(stats)


def test_vrs_clone_labels_repeat_across_rebuilds(monkeypatch):
    """Two builds of li through VRS lay out the same blocks under the same
    labels, so the second machine is served the first one's fused program
    from the cache instead of compiling its own."""
    workload = workload_by_name("li")
    layouts, machines = [], []
    for _ in range(2):
        program = workload.build()
        workload.apply_input(program, "train")
        assert run_vrs(program, VRSConfig()).records
        workload.apply_input(program, "ref")
        layouts.append({name: function.layout() for name, function in program.functions.items()})
        machines.append(Machine(program))
    assert layouts[0] == layouts[1]

    first = fusedc.fused_program_for(machines[0])

    def no_compile(*args, **kwargs):
        raise AssertionError("compile_fused called for an identical rebuild")

    monkeypatch.setattr(fusedc, "compile_fused", no_compile)
    assert fusedc.fused_program_for(machines[1]) is first
