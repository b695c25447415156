"""Tests for the work one workload's points share in ``ExperimentEngine.map``.

The serial loop of ``map`` resolves cold points workload by workload, in
pipeline order, and each group holds one build, one VRP analysis per
configuration and its previous traced run
(:class:`repro.experiments.runner.SharedWork`).  These tests pin the
premises that make sharing exact, what it saves, and the checks that keep
a wrong analysis or a different program from being shared.
"""

import copy
import random
import weakref
from collections import Counter

import pytest

from repro.core import VRPConfig, VRSConfig, apply_widths, run_vrp, run_vrs
from repro.core import vrs as vrs_module
from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore, runner
from repro.experiments import distributions, energy, timing
from repro.experiments import engine as engine_module
from repro.experiments.summary import vrp_stats, vrs_stats
from repro.isa import Opcode, Width
from repro.sim import Machine
from repro.workloads import SUITE_NAMES, Workload, workload_by_name


def _summary(evaluation) -> dict:
    """``evaluation``'s whole summary, in its persisted form."""
    return evaluation.summarize().to_json_dict()


def _positional_widths(program, result) -> list:
    """``result``'s widths in program order (builds draw different uids)."""
    return [result.widths.get(inst.uid) for inst in program.instructions()]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_vrp_reads_code_only(name):
    """A build without input, with the train input and with the ref input
    analyse alike, so one analysis serves points that install different
    inputs."""
    workload = workload_by_name(name)
    seen = []
    for which in (None, "train", "ref"):
        program = workload.build()
        if which is not None:
            workload.apply_input(program, which)
        result = run_vrp(program, VRPConfig())
        seen.append((_positional_widths(program, result), vrp_stats(result)))
    assert seen[1] == seen[0]
    assert seen[2] == seen[0]


class TestGroupedMap:
    POINTS = [
        ExperimentConfig(workload=name, mechanism=mechanism)
        for name in ("gcc", "li")
        for mechanism in ("none", "vrp", "vrs")
    ]

    @pytest.fixture
    def counts(self, monkeypatch):
        """Builds, VRP analyses and traced runs per workload, plus every
        ``SharedWork`` made (as weak references)."""
        counts = {"build": Counter(), "vrp": 0, "traced": Counter(), "shared": []}
        computing = []

        build = Workload.build

        def counted_build(self):
            counts["build"][self.name] += 1
            return build(self)

        def counted_vrp(*args, **kwargs):
            counts["vrp"] += 1
            return run_vrp(*args, **kwargs)

        compute = engine_module._compute_evaluation

        def tracked_compute(workload, *args, **kwargs):
            # The engine holds one workload's shared work at a time.
            assert sum(ref() is not None for ref in counts["shared"]) <= 1
            computing.append(workload.name)
            return compute(workload, *args, **kwargs)

        run = Machine.run

        def counted_run(self, *args, **kwargs):
            if kwargs.get("collect_trace") or (args and args[0]):
                counts["traced"][computing[-1]] += 1
            return run(self, *args, **kwargs)

        shared_work = engine_module.SharedWork

        def tracked_shared(workload):
            shared = shared_work(workload)
            counts["shared"].append(weakref.ref(shared))
            return shared

        monkeypatch.setattr(Workload, "build", counted_build)
        monkeypatch.setattr(runner, "run_vrp", counted_vrp)
        monkeypatch.setattr(vrs_module, "run_vrp", counted_vrp)
        monkeypatch.setattr(engine_module, "_compute_evaluation", tracked_compute)
        monkeypatch.setattr(Machine, "run", counted_run)
        monkeypatch.setattr(engine_module, "SharedWork", tracked_shared)
        return counts

    def test_cold_map_shares_work_and_matches_compute(self, tmp_path, counts):
        """A shuffled cold ``map`` of gcc and li under ``none``/``vrp``/``vrs``
        builds each workload once, analyses with VRP once per workload
        plus VRS's own second analysis, and simulates gcc's ``vrs``
        program — equal to its ``vrp`` program, since VRS specializes
        nothing there — not at all.  Every summary equals the point's
        ``compute()`` (a group of one); results arrive workload by
        workload in pipeline order."""
        points = list(self.POINTS)
        random.Random(5).shuffle(points)
        arrived = []
        engine = ExperimentEngine(ResultStore(tmp_path / "store"), jobs=1)
        results = engine.map(points, jobs=1, on_result=lambda index, _: arrived.append(index))

        assert counts["build"] == {"gcc": 1, "li": 1}
        assert counts["vrp"] == 4
        assert counts["traced"] == {"gcc": 2, "li": 3}
        assert len(counts["shared"]) == 2
        assert all(evaluation.freshly_computed for evaluation in results)

        first_seen = list(dict.fromkeys(point.workload for point in points))
        rank = {"none": 0, "vrp": 1, "vrs": 2}
        expected = sorted(
            range(len(points)),
            key=lambda i: (first_seen.index(points[i].workload), rank[points[i].mechanism]),
        )
        assert arrived == expected

        for point, evaluation in zip(points, results):
            assert _summary(evaluation) == _summary(engine.compute(point)), point


class TestSuiteVariants:
    """The figure modules map every configuration a figure combines in
    one ``map`` call (``ExperimentEngine.map_suites``), so a workload's
    points share their work there too."""

    def test_map_suites_maps_once_and_equals_map_suite(self, tmp_path, monkeypatch):
        suite = [workload_by_name("compress"), workload_by_name("li")]
        monkeypatch.setattr(engine_module, "load_suite", lambda: list(suite))
        builds = Counter()
        build = Workload.build

        def counted_build(self):
            builds[self.name] += 1
            return build(self)

        maps = []
        real_map = ExperimentEngine.map

        def counted_map(self, configs, **kwargs):
            maps.append(len(configs))
            return real_map(self, configs, **kwargs)

        monkeypatch.setattr(Workload, "build", counted_build)
        monkeypatch.setattr(ExperimentEngine, "map", counted_map)
        variants = ({"mechanism": "none"}, {"mechanism": "vrp"})
        engine = ExperimentEngine(ResultStore(tmp_path / "together"), jobs=1)
        together = engine.map_suites(*variants)
        assert maps == [4]
        assert builds == {"compress": 1, "li": 1}

        separate = ExperimentEngine(ResultStore(tmp_path / "separate"), jobs=1)
        assert len(together) == len(variants)
        for variant, evaluations in zip(variants, together):
            own = separate.map_suite(**variant)
            assert list(evaluations) == list(own) == ["compress", "li"]
            for name, evaluation in evaluations.items():
                assert evaluation.mechanism == variant["mechanism"]
                assert _summary(evaluation) == _summary(own[name]), (variant, name)

    class _Mapped(Exception):
        pass

    _VRS = {("vrs", threshold, False) for threshold in energy.VRS_THRESHOLDS_NJ}

    @pytest.mark.parametrize(
        ("figure", "variants"),
        [
            (distributions.figure02_vrp_width_distribution, {("vrp", 50.0, True), ("vrp", 50.0, False)}),
            (
                distributions.figure07_width_by_mechanism,
                {("none", 50.0, False), ("vrp", 50.0, False), ("vrs", 50.0, False)},
            ),
            (energy.figure03_vrp_energy_by_structure, {("none", 50.0, False), ("vrp", 50.0, False)}),
            (energy.figure08_energy_savings_by_benchmark, {("none", 50.0, False), ("vrp", 50.0, False)} | _VRS),
            (energy.figure09_energy_by_structure, {("none", 50.0, False), ("vrp", 50.0, False)} | _VRS),
            (timing.figure10_execution_time_savings, {("none", 50.0, False)} | _VRS),
            (timing.figure11_ed2_savings, {("none", 50.0, False), ("vrp", 50.0, False)} | _VRS),
            (
                timing.figure15_combined_ed2_savings,
                {("none", 50.0, False), ("vrp", 50.0, False), ("vrs", 50.0, False)},
            ),
        ],
        ids=lambda value: getattr(value, "__name__", ""),
    )
    def test_a_figure_maps_its_configurations_in_one_call(self, figure, variants, monkeypatch):
        def first_map(self, configs, **kwargs):
            raise TestSuiteVariants._Mapped(list(configs))

        monkeypatch.setattr(ExperimentEngine, "map", first_map)
        with pytest.raises(TestSuiteVariants._Mapped) as mapped:
            figure()
        (configs,) = mapped.value.args
        assert {
            (config.mechanism, config.threshold_nj, config.conventional_vrp) for config in configs
        } == variants
        per_workload = Counter(config.workload for config in configs)
        assert set(per_workload) == set(SUITE_NAMES)
        assert len(set(per_workload.values())) == 1


class TestTracedRunKey:
    @pytest.fixture(scope="class")
    def program(self):
        workload = workload_by_name("li")
        program = workload.build()
        workload.apply_input(program, "ref")
        return program

    @staticmethod
    def _changed(program, change):
        copied = copy.deepcopy(program)
        change(copied)
        return copied

    @staticmethod
    def _assert_adopted_is_own(donor: Machine, adopter: Machine) -> None:
        adopted = adopter.adopt_traced_run(donor.run(collect_trace=True))
        own = adopter.run(collect_trace=True)
        assert adopted.trace.static is adopter.static_info
        for run in (adopted, own):
            assert run.trace.address_map is adopter.address_by_uid
        assert (adopted.instructions, adopted.output, adopted.halted) == (
            own.instructions,
            own.output,
            own.halted,
        )
        assert adopted.block_counts == own.block_counts
        assert adopted.call_counts == own.call_counts
        assert list(adopted.trace.metas) == list(own.trace.metas)
        assert list(adopted.trace.mem_addresses) == list(own.trace.mem_addresses)
        assert adopted.trace.shape_counts() == own.trace.shape_counts()
        assert adopted.trace.width_distribution() == own.trace.width_distribution()

    def test_equal_copies_key_equal_and_adopt_each_others_run(self, program):
        copied = copy.deepcopy(program)
        assert Machine(copied).traced_run_key() == Machine(program).traced_run_key()
        self._assert_adopted_is_own(Machine(program), Machine(copied))

    def test_a_width_the_run_reads_misses(self, program):
        def narrow_an_add(changed):
            add = next(inst for inst in changed.instructions() if inst.op is Opcode.ADD)
            add.width = Width.BYTE if add.width is not Width.BYTE else Width.HALF

        changed = self._changed(program, narrow_an_add)
        assert Machine(changed).traced_run_key() != Machine(program).traced_run_key()

    def test_one_input_value_misses(self, program):
        def bump_a_value(changed):
            obj = next(obj for obj in changed.data_objects.values() if obj.initial_values)
            obj.initial_values = (obj.initial_values[0] + 1, *obj.initial_values[1:])

        changed = self._changed(program, bump_a_value)
        assert Machine(changed).traced_run_key() != Machine(program).traced_run_key()

    def test_a_width_the_run_does_not_read_is_adopted_with_it(self, program):
        """A ``mov``'s width changes no step of the run, so the key holds;
        the adopted trace still carries the adopter's width, because its
        static side table is the adopter's."""

        executed = Machine(program).run().instruction_counts(program)
        uid = next(
            inst.uid
            for inst in program.instructions()
            if inst.op is Opcode.MOV and executed.get(inst.uid)
        )

        def narrow_a_mov(changed):
            mov = next(inst for inst in changed.instructions() if inst.uid == uid)
            mov.width = Width.BYTE if mov.width is not Width.BYTE else Width.HALF

        changed = self._changed(program, narrow_a_mov)
        donor, adopter = Machine(program), Machine(changed)
        assert adopter.traced_run_key() == donor.traced_run_key()
        self._assert_adopted_is_own(donor, adopter)
        assert (
            adopter.adopt_traced_run(donor.run(collect_trace=True)).trace.width_distribution()
            != donor.run(collect_trace=True).trace.width_distribution()
        )


class TestInjectedAnalysis:
    @staticmethod
    def _narrowed_analysis(program, config=None):
        """``run_vrp`` of a copy of ``program``, the copy narrowed by it."""
        analysed = copy.deepcopy(program)
        result = run_vrp(analysed, config or VRPConfig())
        apply_widths(analysed, result)
        return result

    def test_rejects_another_builds_analysis(self):
        workload = workload_by_name("li")
        one, other = workload.build(), workload.build()
        workload.apply_input(other, "train")
        with pytest.raises(ValueError, match="another program"):
            run_vrs(other, VRSConfig(), vrp_before=self._narrowed_analysis(one))

    def test_rejects_another_configuration(self):
        program = workload_by_name("li").build()
        before = self._narrowed_analysis(program, VRPConfig().conventional())
        with pytest.raises(ValueError, match="analysed under"):
            run_vrs(program, VRSConfig(), vrp_before=before)

    def test_rejects_a_copy_its_widths_were_not_applied_to(self):
        program = workload_by_name("li").build()
        before = run_vrp(copy.deepcopy(program), VRPConfig())
        with pytest.raises(ValueError, match="apply_widths"):
            run_vrs(program, VRSConfig(), vrp_before=before)

    @pytest.mark.parametrize("name", ["compress", "gcc", "li"])
    def test_injected_analysis_matches_the_programs_own(self, name):
        """VRS given a copy's analysis specializes exactly as it does
        analysing the program itself (gcc: nothing; compress, li: some)."""
        workload = workload_by_name(name)
        build = workload.build()
        results = []
        for before in (None, self._narrowed_analysis(build)):
            program = copy.deepcopy(build)
            workload.apply_input(program, "train")
            results.append(run_vrs(program, VRSConfig(), vrp_before=before))
        own, injected = results
        assert vrs_stats(injected) == vrs_stats(own)
        assert vrp_stats(injected.vrp_after) == vrp_stats(own.vrp_after)
        assert _positional_widths(injected.program, injected.vrp_after) == _positional_widths(
            own.program, own.vrp_after
        )
