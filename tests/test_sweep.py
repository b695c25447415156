"""Tests for the batched design-space sweep engine and the policy registry.

The load-bearing properties:

* every sweep row is bit-identical to the one-point-at-a-time engine path
  (``engine.evaluate`` with the same machine config) for the same cell,
* a warm-store sweep performs **zero** simulator calls,
* the policy registry on ``hardware/gating`` is the single enumeration
  point for policy names.
"""

from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentEngine,
    POLICY_NAMES,
    ResultStore,
    SweepPoint,
    SweepResult,
    SweepRow,
    SweepSpec,
    default_sweep_configs,
)
from repro.hardware import gating
from repro.uarch import CacheConfig, MachineConfig
from repro.workloads import Workload

TINY_SOURCE = """
int job_size;
int data[16];

int main() {
    int i;
    long acc;
    acc = 0;
    for (i = 0; i < job_size; i = i + 1) {
        acc = acc + data[i & 15];
    }
    print(acc);
    return 0;
}
"""


def make_tiny() -> Workload:
    return Workload(
        name="tiny",
        description="16-element accumulation loop",
        source=TINY_SOURCE,
        train_data={"job_size": (8,), "data": tuple(range(16))},
        ref_data={"job_size": (40,), "data": tuple(range(100, 116))},
    )


def tiny_configs() -> tuple[tuple[str, MachineConfig], ...]:
    """Three named configs: two sharing the default cache geometry (one
    multi-lane batch) and one with its own shape (singleton group)."""
    base = MachineConfig()
    return (
        ("base", base),
        ("narrow", replace(base, fetch_width=2, issue_width=2, max_in_flight=16)),
        (
            "smallcache",
            replace(
                base,
                icache=CacheConfig(16 * 1024, 2, 32, 1, 6),
                dcache=CacheConfig(16 * 1024, 2, 32, 1, 6),
            ),
        ),
    )


@pytest.fixture
def store(tmp_path, monkeypatch):
    # Sweeps lean on the trace-snapshot layer; shield the suite from a
    # developer's REPRO_TRACE_STORE=off.
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    return ResultStore(tmp_path / "store")


# ----------------------------------------------------------------------
# The policy registry (hardware/gating)
# ----------------------------------------------------------------------
class TestGatingRegistry:
    def test_registry_is_the_policy_name_source(self):
        assert tuple(gating.registry()) == POLICY_NAMES

    def test_get_returns_shared_instances(self):
        assert gating.get("hw-size") is gating.get("hw-size")

    def test_cooperative_keys_are_config_names(self):
        """Registry keys are configuration names; the instances' own
        ``.name`` describes the mechanism and may differ."""
        policy = gating.get("sw+hw-significance")
        assert policy.name == "software+hw-significance"

    def test_unknown_name_lists_valid_policies(self):
        with pytest.raises(KeyError) as exc:
            gating.get("nosuch")
        assert "baseline" in str(exc.value)

    def test_registry_copy_is_defensive(self):
        snapshot = gating.registry()
        snapshot["bogus"] = snapshot["baseline"]
        assert "bogus" not in gating.registry()


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_cartesian_defaults(self):
        spec = SweepSpec.cartesian()
        assert len(spec) == 8 * len(POLICY_NAMES) * 8
        assert spec.policies == POLICY_NAMES
        assert [name for name, _ in spec.configs] == [
            name for name, _ in default_sweep_configs()
        ]

    def test_points_are_workload_major(self):
        spec = SweepSpec.cartesian(
            workloads=("li", "go"), configs=tiny_configs(), policies=("baseline",)
        )
        points = list(spec.iter_points())
        assert [point.workload for point in points] == ["li"] * 3 + ["go"] * 3

    def test_explicit_points(self):
        points = (
            SweepPoint(workload="li", config="base", policy="baseline"),
            SweepPoint(workload="li", config="narrow", policy="software", mechanism="vrp"),
        )
        spec = SweepSpec.explicit(points, configs=tiny_configs())
        assert len(spec) == 2
        assert tuple(spec.iter_points()) == points

    def test_duplicate_config_names_rejected(self):
        base = MachineConfig()
        with pytest.raises(ValueError):
            SweepSpec.cartesian(configs=(("x", base), ("x", base)))


# ----------------------------------------------------------------------
# Engine.sweep
# ----------------------------------------------------------------------
class TestEngineSweep:
    def test_rows_bit_exact_vs_per_point_evaluation(self, store):
        """The batched path must reproduce engine.evaluate exactly —
        cycles, total energy and ED² — for every (config, policy) cell."""
        engine = ExperimentEngine(store)
        tiny = make_tiny()
        spec = SweepSpec.cartesian(workloads=("tiny",), configs=tiny_configs())
        rows = list(engine.sweep(spec, workloads={"tiny": tiny}))
        assert len(rows) == 3 * len(POLICY_NAMES)
        config_map = spec.config_map()
        for row in rows:
            evaluation = engine.evaluate(
                ExperimentConfig(workload="tiny", machine_config=config_map[row.config]),
                workload=tiny,
            )
            outcome = evaluation.outcome(row.policy)
            assert row.cycles == outcome.cycles
            assert row.energy_nj == outcome.energy.total
            assert row.ed2 == outcome.ed2
            assert row.instructions == evaluation.total_dynamic_instructions

    def test_warm_store_sweep_replays_without_simulating(self, store, monkeypatch):
        tiny = make_tiny()
        spec = SweepSpec.cartesian(workloads=("tiny",), configs=tiny_configs())
        cold = SweepResult.collect(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        assert {row.source for row in cold.rows} == {"computed"}
        assert cold.simulations == 1  # one trace signature, many cells

        # A fresh engine over the same store must resolve the whole
        # matrix from the snapshot layer: zero simulator calls, enforced
        # by making any Machine.run attempt an assertion failure.
        from repro.sim.machine import Machine

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called despite a warm result store")

        monkeypatch.setattr(Machine, "run", _forbidden)
        warm = SweepResult.collect(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        assert {row.source for row in warm.rows} == {"replayed"}
        assert warm.simulations == 0
        def _payload(row):
            fields = row.to_json_dict()
            del fields["source"]
            return fields

        assert [_payload(row) for row in warm.rows] == [_payload(row) for row in cold.rows]

    @pytest.mark.parametrize("mechanism", ["none", "vrp", "vrs"])
    def test_computed_and_replayed_lanes_summarize_alike(self, store, tmp_path, mechanism):
        """A two-lane li group summarizes alike computed and replayed, with
        the VRP, VRS and runtime-specialization statistics its mechanism
        carries, and every lane equals a fresh-store evaluate of its point."""
        from repro.experiments.engine import _resolve_miss
        from repro.uarch import TimingMemo
        from repro.workloads import workload_by_name

        configs = [pair for pair in default_sweep_configs() if pair[0] in ("table2", "wide-8")]
        spec = SweepSpec.cartesian(workloads=("li",), configs=configs, mechanism=mechanism)
        cold = list(ExperimentEngine(store).sweep(spec))
        replayed = list(ExperimentEngine(store).sweep(spec))
        assert {row.source for row in cold} == {"computed"}
        assert {row.source for row in replayed} == {"replayed"}

        def payload(rows):
            return [{**row.to_json_dict(), "source": None} for row in rows]

        assert payload(replayed) == payload(cold)

        li = workload_by_name("li")
        points = [
            ExperimentConfig(workload="li", mechanism=mechanism, machine_config=config)
            for _, config in configs
        ]

        def group(root):
            group_store = ResultStore(root)
            key = ExperimentEngine(group_store).key_for(points[0], li)
            _, summaries, provenance = _resolve_miss(
                group_store, key, points[0], li, "auto", [configs[1][1]], memo=TimingMemo()
            )
            return summaries, provenance

        summaries, provenance = group(tmp_path / "group")
        assert provenance == "computed"
        again, provenance = group(tmp_path / "group")
        assert provenance == "replayed"
        assert [s.to_json_dict() for s in again] == [s.to_json_dict() for s in summaries]
        for index, (point, summary) in enumerate(zip(points, summaries)):
            fresh = ExperimentEngine(ResultStore(tmp_path / f"fresh-{index}")).evaluate(point)
            assert fresh.freshly_computed
            assert summary.to_json_dict() == fresh.summarize().to_json_dict(), point
        first = summaries[0]
        assert (first.vrp is not None) == (mechanism != "none")
        assert (first.vrs is not None) == (mechanism == "vrs")
        assert (first.runtime_specialization is not None) == (mechanism == "vrs")

    def test_unreplayable_snapshot_is_quarantined_and_recomputed(self, store):
        """A snapshot that decodes but does not replay (an executed uid's
        static entry is gone) must not turn a group into error rows: the
        sweep quarantines it and computes the group like a cold one, and
        the next sweep replays the fresh snapshot."""
        from repro.experiments.engine import _snapshot_key
        from repro.sim.snapshot import decode_artifact, encode_artifact
        from repro.workloads import workload_by_name

        configs = [pair for pair in default_sweep_configs() if pair[0] in ("table2", "wide-8")]
        spec = SweepSpec.cartesian(workloads=("li",), configs=configs, policies=("baseline",))
        cold = list(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in cold] == ["computed", "computed"]

        snapshot = store.trace_path_for(
            _snapshot_key(ExperimentConfig(workload="li"), workload_by_name("li"))
        )
        artifact = decode_artifact(snapshot.read_bytes())
        static = artifact.trace.static
        uid = next(iter(artifact.trace.uid_counts()))
        static.entries[uid - static.uid_base] = None
        broken = encode_artifact(artifact)
        snapshot.write_bytes(broken)
        assert decode_artifact(snapshot.read_bytes()) is not None
        assert store.fsck(repair=False).clean

        def payload(rows):
            return [{**row.to_json_dict(), "source": None} for row in rows]

        second = list(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in second] == ["computed", "computed"]
        assert payload(second) == payload(cold)
        quarantined = [
            path
            for path, manifest in store.quarantined()
            if manifest.get("original_path") == str(snapshot)
        ]
        assert quarantined, f"no quarantine manifest names {snapshot}"
        assert quarantined[0].read_bytes() == broken

        third = list(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in third] == ["replayed", "replayed"]
        assert payload(third) == payload(cold)

    def test_one_config_sweep_resolves_like_its_point(self, store, monkeypatch):
        """A one-config group is a paper point: a cold sweep materializes
        and publishes the point's entry and snapshot, ``evaluate`` of the
        point is then a store hit, and a repeat sweep shares the entry."""
        from repro.experiments.engine import _snapshot_key
        from repro.sim.machine import Machine
        from repro.workloads import workload_by_name

        configs = [pair for pair in default_sweep_configs() if pair[0] == "table2"]
        spec = SweepSpec.cartesian(
            workloads=("li",), configs=configs, policies=("baseline", "software")
        )
        cold = SweepResult.collect(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in cold] == ["computed", "computed"]
        assert cold.simulations == 1
        point = ExperimentConfig(workload="li", machine_config=configs[0][1])
        engine = ExperimentEngine(store)
        assert [entry.key for entry in store.entries()] == [engine.key_for(point)]
        assert store.trace_path_for(
            _snapshot_key(point, workload_by_name("li"))
        ).is_file()

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called despite a published entry")

        monkeypatch.setattr(Machine, "run", _forbidden)
        evaluation = engine.evaluate(point)
        assert not evaluation.freshly_computed
        assert not evaluation.replayed_from_store
        for row in cold:
            assert row.cycles == evaluation.outcome(row.policy).cycles
            assert row.energy_nj == evaluation.outcome(row.policy).energy.total

        warm = SweepResult.collect(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in warm] == ["shared", "shared"]
        assert warm.simulations == 0
        assert [{**row.to_json_dict(), "source": None} for row in warm] == [
            {**row.to_json_dict(), "source": None} for row in cold
        ]

    def test_warm_multi_config_sweep_publishes_nothing(self, store, monkeypatch):
        """A warm group of several configs replays every lane from the
        snapshot and writes no summary entry — neither its first lane's,
        when that entry is gone, nor any other lane's."""
        from repro.sim.machine import Machine

        tiny = make_tiny()
        spec = SweepSpec.cartesian(
            workloads=("tiny",), configs=tiny_configs(), policies=("baseline",)
        )
        cold = list(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        before = store.entries()
        assert len(before) == 1

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called despite a warm snapshot")

        monkeypatch.setattr(Machine, "run", _forbidden)
        warm = list(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        assert {row.source for row in warm} == {"replayed"}
        assert store.entries() == before
        before[0].path.unlink()
        again = list(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        assert {row.source for row in again} == {"replayed"}
        assert store.entries() == []
        payload = [{**row.to_json_dict(), "source": None} for row in cold]
        for rows in (warm, again):
            assert [{**row.to_json_dict(), "source": None} for row in rows] == payload

    def test_cold_group_publishes_snapshot_before_entry(self, store, monkeypatch):
        """A cold group publishes its snapshot before its first lane's
        entry, so a process that finds the entry finds the snapshot too."""
        from repro.experiments.engine import _snapshot_key

        tiny = make_tiny()
        snapshot = store.trace_path_for(_snapshot_key(ExperimentConfig(workload="tiny"), tiny))
        published = []
        save = ResultStore.save

        def save_after_snapshot(self, key, summary):
            published.append(snapshot.is_file())
            return save(self, key, summary)

        monkeypatch.setattr(ResultStore, "save", save_after_snapshot)
        spec = SweepSpec.cartesian(
            workloads=("tiny",), configs=tiny_configs(), policies=("baseline",)
        )
        list(ExperimentEngine(store).sweep(spec, workloads={"tiny": tiny}))
        assert published == [True]

    def test_group_without_snapshot_computes_under_its_lock(self, store, monkeypatch):
        """A group of several configs whose snapshot is gone but whose first
        lane's entry is kept simulates holding that lane's lock, so a second
        process waits instead of simulating too; no group parses an entry."""
        from repro.experiments import engine as engine_module
        from repro.experiments.engine import _snapshot_key
        from repro.workloads import workload_by_name

        configs = [pair for pair in default_sweep_configs() if pair[0] in ("table2", "wide-8")]
        spec = SweepSpec.cartesian(workloads=("li",), configs=configs, policies=("baseline",))
        cold = list(ExperimentEngine(store).sweep(spec))
        li = workload_by_name("li")
        point = ExperimentConfig(workload="li", machine_config=configs[0][1])
        store.trace_path_for(_snapshot_key(point, li)).unlink()
        assert len(store.entries()) == 1
        lock = store.lock_path_for(ExperimentEngine(store).key_for(point, li))

        held = []
        compute = engine_module._compute_evaluation

        def compute_holding(*args, **kwargs):
            held.append(lock.is_file())
            return compute(*args, **kwargs)

        loads = []
        load = ResultStore.load

        def counted_load(self, key):
            loads.append(key)
            return load(self, key)

        monkeypatch.setattr(engine_module, "_compute_evaluation", compute_holding)
        monkeypatch.setattr(ResultStore, "load", counted_load)
        rows = list(ExperimentEngine(store).sweep(spec))
        assert held == [True]
        assert not lock.exists()
        warm = list(ExperimentEngine(store).sweep(spec))
        assert held == [True]
        assert loads == []

        def payload(rows):
            return [{**row.to_json_dict(), "source": None} for row in rows]

        assert [row.source for row in rows] == ["computed", "computed"]
        assert [row.source for row in warm] == ["replayed", "replayed"]
        assert payload(rows) == payload(warm) == payload(cold)

    def test_mechanism_signatures_resolve_separate_traces(self, store):
        """Explicit points with different mechanisms score different
        traces (one artifact resolution per signature)."""
        engine = ExperimentEngine(store)
        tiny = make_tiny()
        points = (
            SweepPoint(workload="tiny", config="base", policy="baseline"),
            SweepPoint(workload="tiny", config="base", policy="baseline", mechanism="vrp"),
        )
        spec = SweepSpec.explicit(points, configs=tiny_configs())
        rows = list(engine.sweep(spec, workloads={"tiny": tiny}))
        assert [row.mechanism for row in rows] == ["none", "vrp"]
        result = SweepResult.collect(rows)
        assert result.simulations == 2

    def test_unknown_config_name_raises(self, store):
        engine = ExperimentEngine(store)
        tiny = make_tiny()
        spec = SweepSpec.explicit(
            (SweepPoint(workload="tiny", config="nosuch", policy="baseline"),),
            configs=tiny_configs(),
        )
        with pytest.raises(KeyError) as exc:
            list(engine.sweep(spec, workloads={"tiny": tiny}))
        assert "nosuch" in str(exc.value)


# ----------------------------------------------------------------------
# The engine's timing memo: one walk per timing-identical trace
# ----------------------------------------------------------------------
#: Records of li's ``none`` (and ``vrp``) trace, and of its ``vrs`` trace.
LI_RECORDS = 32_407
LI_VRS_RECORDS = 32_727


@pytest.fixture
def walked(monkeypatch):
    """Records walked by the compiled timing kernel, one entry per walk.

    Counts the batched entry point where the memo walks through it and
    where the memo-less ``compute()`` does.
    """
    from repro.experiments import runner as runner_module
    from repro.uarch import tkernel

    records = []
    many = tkernel.run_compiled_many

    def counted_many(trace, configs):
        results = many(trace, configs)
        records.append(len(trace) * len(results))
        return results

    monkeypatch.setattr(tkernel, "run_compiled_many", counted_many)
    monkeypatch.setattr(runner_module, "run_compiled_many", counted_many)
    return records


@pytest.fixture
def passes(monkeypatch):
    """Walk keys taken (``tkernel._walk_key``) and accounting passes run
    (``MultiPolicyEnergyAccountant._account``)."""
    from repro.power import MultiPolicyEnergyAccountant
    from repro.uarch import tkernel

    counts = {"walk_key": 0, "account": 0}
    walk_key = tkernel._walk_key
    account = MultiPolicyEnergyAccountant._account

    def counted_walk_key(trace):
        counts["walk_key"] += 1
        return walk_key(trace)

    def counted_account(self, trace, timings):
        counts["account"] += 1
        return account(self, trace, timings)

    monkeypatch.setattr(tkernel, "_walk_key", counted_walk_key)
    monkeypatch.setattr(MultiPolicyEnergyAccountant, "_account", counted_account)
    return counts


def _li_points() -> list[ExperimentConfig]:
    return [ExperimentConfig(workload="li", mechanism=m) for m in ("none", "vrp", "vrs")]


def _scored(summary) -> tuple:
    """What the machine config decides in a summary: timing and energies."""
    return summary.instructions, summary.timing, summary.energies


class TestTimingMemo:
    def test_map_walks_each_timing_identical_trace_once(self, store, walked):
        engine = ExperimentEngine(store, jobs=1)
        evaluations = engine.map(_li_points(), pipeline="materialized")
        # li's vrp trace times like its none trace; VRS specialized li.
        assert walked == [LI_RECORDS, LI_VRS_RECORDS]
        assert sum(walked) == 65_134
        for point, evaluation in zip(_li_points(), evaluations):
            live = engine.compute(point)
            assert _scored(evaluation.summarize()) == _scored(live.summarize()), point
        assert len(walked) == 2 + 3  # compute() walks every time

    @pytest.mark.parametrize(
        ("name", "hashed"), [("li", 2), pytest.param("gcc", 1, marks=pytest.mark.suite)]
    )
    def test_an_adopted_run_keeps_its_column_digest(self, store, monkeypatch, name, hashed):
        """The walk key hashes a trace's meta and memory columns once per
        simulated run: an adopted run's trace shares the columns and
        their digest.  li's ``vrp`` point adopts the ``none`` run and its
        ``vrs`` point simulates; gcc's ``vrp`` and ``vrs`` points adopt."""
        from repro.uarch import tkernel

        hashes = []
        column_digest = tkernel._column_digest

        def counted_column_digest(trace, base):
            kept = trace.column_digest
            digest = column_digest(trace, base)
            if trace.column_digest is not kept:
                hashes.append(digest)
            return digest

        monkeypatch.setattr(tkernel, "_column_digest", counted_column_digest)
        points = [ExperimentConfig(workload=name, mechanism=m) for m in ("none", "vrp", "vrs")]
        engine = ExperimentEngine(store, jobs=1)
        evaluations = engine.map(points, pipeline="materialized")
        assert len(hashes) == hashed
        for point, evaluation in zip(points, evaluations):
            live = engine.compute(point)
            assert _scored(evaluation.summarize()) == _scored(live.summarize()), point

    def test_evaluate_after_a_timing_identical_point_walks_nothing(self, store, walked):
        none, vrp, _ = _li_points()
        engine = ExperimentEngine(store)
        first = engine.evaluate(none, pipeline="materialized")
        assert walked == [LI_RECORDS]
        second = engine.evaluate(vrp, pipeline="materialized")
        assert second.freshly_computed
        assert walked == [LI_RECORDS]
        # Points served from one walk never share a mutable TimingResult.
        assert second.timing == first.timing
        assert second.timing is not first.timing
        assert second.timing.extra is not first.timing.extra
        first.timing.extra["mutated"] = 1.0
        assert second.timing.extra == {}
        # compute() bypasses every cache, the memo too.
        live = engine.compute(vrp)
        assert walked == [LI_RECORDS, LI_RECORDS]
        assert live.timing == second.timing

    def test_sweep_walks_each_trace_and_config_once(self, store, walked):
        configs = [pair for pair in default_sweep_configs() if pair[0] in ("table2", "wide-8")]
        points = [
            SweepPoint(workload="li", config=name, policy="baseline", mechanism=mechanism)
            for mechanism in ("none", "vrp")
            for name, _ in configs
        ]
        spec = SweepSpec.explicit(points, configs=configs)
        rows = list(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in rows] == ["computed"] * 4
        # The none group walks table2 (first lane) and wide-8 in one
        # two-lane walk; the vrp group's trace keys equal, so both of its
        # lanes are hits.
        assert walked == [2 * LI_RECORDS]
        cycles = {(row.mechanism, row.config): row.cycles for row in rows}
        for name, _ in configs:
            assert cycles["vrp", name] == cycles["none", name]
        assert cycles["none", "table2"] != cycles["none", "wide-8"]

    def test_cold_group_keys_and_accounts_its_trace_once(self, store, passes):
        """A cold 8-lane group times all of its lanes in one memo call and
        summarizes them from one accounting pass."""
        spec = SweepSpec.cartesian(workloads=("li",), policies=("baseline",))
        rows = list(ExperimentEngine(store).sweep(spec))
        assert [row.source for row in rows] == ["computed"] * len(default_sweep_configs())
        assert passes == {"walk_key": 1, "account": 1}

    def test_cold_point_keys_and_accounts_its_trace_once(self, store, passes):
        evaluation = ExperimentEngine(store).evaluate(ExperimentConfig(workload="li"))
        assert evaluation.freshly_computed
        assert passes == {"walk_key": 1, "account": 1}

    @pytest.mark.slow
    def test_threads_sharing_one_engine_get_identical_results(self, monkeypatch):
        """Four threads map the same mixed points on one engine at once.

        With the store off, every thread resolves its own points, so the
        threads time timing-identical traces through one memo
        concurrently.  A duplicate walk is allowed; a wrong result is not.
        """
        import sys
        import threading
        import time

        monkeypatch.setenv("REPRO_RESULT_STORE", "off")
        points = _li_points()
        reference = [
            _scored(evaluation.summarize())
            for evaluation in ExperimentEngine(ResultStore(), jobs=1).map(
                points, pipeline="materialized"
            )
        ]

        def stress(engine: ExperimentEngine) -> list:
            results: dict[int, list] = {}
            errors = []

            def worker(index: int) -> None:
                # Each thread starts at a different point of the same list.
                order = points[index % 3 :] + points[: index % 3]
                try:
                    evaluations = engine.map(order, pipeline="materialized")
                    by_point = dict(zip(order, evaluations))
                    results[index] = [_scored(by_point[point].summarize()) for point in points]
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), "threads hung"
            assert errors == []
            return [results[index] for index in range(4)]

        # Rounds on fresh engines for about five seconds, at least two,
        # with threads switching far more often than by default.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rounds = 0
            deadline = time.monotonic() + 5.0
            while rounds < 2 or time.monotonic() < deadline:
                assert stress(ExperimentEngine(ResultStore(), jobs=1)) == [reference] * 4
                rounds += 1
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# SweepResult reports (pure functions over rows)
# ----------------------------------------------------------------------
def _row(workload, config, policy, cycles, energy):
    return SweepRow(
        workload=workload,
        config=config,
        policy=policy,
        mechanism="none",
        threshold_nj=50.0,
        conventional_vrp=False,
        cycles=cycles,
        instructions=100,
        energy_nj=energy,
        ed2=energy * cycles * cycles,
        source="replayed",
    )


class TestSweepResultReports:
    def test_ed2_savings_vs_same_config_baseline(self):
        result = SweepResult(
            rows=[
                _row("li", "base", "baseline", 100, 10.0),
                _row("li", "base", "software", 100, 8.0),
                _row("li", "narrow", "baseline", 200, 9.0),
                _row("li", "narrow", "software", 200, 9.0),
            ]
        )
        savings = result.ed2_savings()
        assert savings[("base", "software")]["li"] == pytest.approx(0.2)
        assert savings[("narrow", "software")]["li"] == 0.0
        assert savings[("base", "baseline")]["li"] == 0.0

    def test_ed2_savings_vs_fixed_baseline_config(self):
        result = SweepResult(
            rows=[
                _row("li", "base", "baseline", 100, 10.0),
                _row("li", "narrow", "baseline", 50, 10.0),
            ]
        )
        savings = result.ed2_savings(baseline_config="base")
        # narrow halves the delay: ED² falls by 1 - (50²/100²) = 75%.
        assert savings[("narrow", "baseline")]["li"] == pytest.approx(0.75)

    def test_ed2_savings_requires_baseline_rows(self):
        result = SweepResult(rows=[_row("li", "base", "software", 100, 8.0)])
        with pytest.raises(KeyError):
            result.ed2_savings()

    def test_pareto_frontier_drops_dominated_points(self):
        rows = [
            _row("li", "a", "baseline", 100, 10.0),  # frontier (fastest)
            _row("li", "b", "baseline", 120, 8.0),   # frontier (cheapest)
            _row("li", "c", "baseline", 120, 9.0),   # dominated by b
            _row("li", "d", "baseline", 150, 12.0),  # dominated by a and b
            _row("go", "d", "baseline", 1, 1.0),     # other workload: incomparable
        ]
        result = SweepResult(rows=rows)
        frontier = result.pareto_frontier("li")
        assert [(row.config) for row in frontier] == ["a", "b"]
        # The all-workloads view concatenates per-workload frontiers.
        assert [(row.workload, row.config) for row in result.pareto_frontier()] == [
            ("li", "a"),
            ("li", "b"),
            ("go", "d"),
        ]

    def test_pareto_keeps_ties(self):
        rows = [
            _row("li", "a", "baseline", 100, 10.0),
            _row("li", "b", "baseline", 100, 10.0),  # exact tie: neither dominates
        ]
        assert len(SweepResult(rows=rows).pareto_frontier("li")) == 2


# ----------------------------------------------------------------------
# CLI: the sweep subcommand
# ----------------------------------------------------------------------
class TestSweepCLI:
    @pytest.fixture
    def cli_store(self, tmp_path, monkeypatch):
        from repro.experiments import reset_default_engine

        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        reset_default_engine()
        yield
        reset_default_engine()

    def test_cli_sweep_json(self, cli_store, capsys):
        import json

        from repro.experiments.__main__ import main

        status = main(
            [
                "sweep",
                "--workload",
                "li",
                "--config",
                "table2",
                "--config",
                "window-32",
                "--policy",
                "baseline",
                "--policy",
                "software",
                "--json",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 4
        assert payload["simulations"] == 1
        assert {row["config"] for row in payload["rows"]} == {"table2", "window-32"}
        assert len(payload["ed2_savings"]) == 4
        assert payload["pareto"]

    def test_cli_sweep_table_reports(self, cli_store, capsys):
        from repro.experiments.__main__ import main

        status = main(["sweep", "--workload", "li", "--config", "table2"])
        assert status == 0
        out = capsys.readouterr().out
        assert "ED^2 savings vs baseline policy" in out
        assert "Pareto frontier" in out
        assert "points/minute" in out
        assert "cold simulation" in out

    def test_cli_sweep_rejects_unknown_workload(self, cli_store, capsys):
        from repro.experiments.__main__ import main

        assert main(["sweep", "--workload", "nosuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_cli_run_json(self, cli_store, capsys):
        import json

        from repro.experiments.__main__ import main

        status = main(["run", "--workload", "li", "--policy", "all", "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["workload"] == "li"
        assert set(row["energy_nj"]) == set(POLICY_NAMES)

    def test_cli_run_reports_snapshot_replay(self, cli_store, tmp_path, capsys):
        """A row rebuilt from a trace snapshot is ``replayed``, in the JSON
        and in the table; ``store`` stays the label of an entry hit."""
        import json

        from repro.experiments import reset_default_engine
        from repro.experiments.__main__ import main

        store = ResultStore(tmp_path / "store")

        def run(*extra):
            reset_default_engine()  # a fresh session: nothing memoized
            assert main(["run", "--workload", "li", *extra]) == 0
            return capsys.readouterr().out

        def json_source():
            (row,) = json.loads(run("--json"))["rows"]
            return row["source"]

        def drop_entries():
            entries = store.entries()
            assert entries
            for entry in entries:
                entry.path.unlink()

        assert json_source() == "computed"
        drop_entries()
        assert json_source() == "replayed"
        assert json_source() == "store"
        drop_entries()
        (row,) = [line.split() for line in run().splitlines() if line.startswith("li ")]
        assert row[-1] == "replayed"
