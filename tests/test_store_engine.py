"""Tests for the persistent result store and the parallel experiment engine."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import (
    EvaluationSummary,
    ExperimentConfig,
    ExperimentEngine,
    POLICY_NAMES,
    ResultStore,
    config_key,
)
from repro.uarch import MachineConfig
from repro.workloads import Workload

# A deliberately small mini-C workload so store/engine mechanics can be
# exercised in milliseconds instead of re-simulating a suite benchmark.
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


def make_tiny(source: str = TINY_SOURCE) -> Workload:
    return Workload(
        name="tiny",
        description="16-element accumulation loop",
        source=source,
        train_data={"job_size": (8,), "data": tuple(range(16))},
        ref_data={"job_size": (40,), "data": tuple(range(100, 116))},
    )


@pytest.fixture
def store(tmp_path, monkeypatch):
    # The clear()/snapshot assertions assume the trace-snapshot layer is
    # active; shield the suite from a developer's REPRO_TRACE_STORE=off.
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    return ResultStore(tmp_path / "store")


class TestConfigKey:
    def test_key_is_stable(self):
        workload = make_tiny()
        assert config_key(workload, "none", 50.0, False) == config_key(
            workload, "none", 50.0, False
        )

    def test_key_perturbation(self):
        """Every ingredient of the key changes the hash."""
        workload = make_tiny()
        base = config_key(workload, "none", 50.0, False)
        perturbed = {
            "mechanism": config_key(workload, "vrp", 50.0, False),
            "threshold": config_key(workload, "vrs", 30.0, False),
            "conventional": config_key(workload, "vrp", 50.0, True),
            "machine": config_key(workload, "none", 50.0, False, MachineConfig(issue_width=8)),
            "source": config_key(
                make_tiny(TINY_SOURCE.replace("i & 15", "i & 7")), "none", 50.0, False
            ),
        }
        keys = [base, *perturbed.values()]
        assert len(set(keys)) == len(keys), perturbed

    def test_input_data_changes_key(self):
        workload = make_tiny()
        modified = make_tiny()
        modified.ref_data = dict(modified.ref_data, job_size=(41,))
        assert workload.content_hash() != modified.content_hash()
        assert config_key(workload, "none", 50.0, False) != config_key(
            modified, "none", 50.0, False
        )


class TestResultStore:
    def test_miss_then_hit_across_engines(self, store):
        workload = make_tiny()
        config = ExperimentConfig(workload="tiny")
        first_engine = ExperimentEngine(store=store, jobs=1)
        live = first_engine.evaluate(config, workload=workload)
        assert not live.is_restored

        # A fresh engine models a fresh process: no memo, only the disk.
        second_engine = ExperimentEngine(store=store, jobs=1)
        restored = second_engine.evaluate(config, workload=workload)
        assert restored.is_restored
        assert restored.timing.cycles == live.timing.cycles
        assert restored.total_dynamic_instructions == live.total_dynamic_instructions
        assert restored.dynamic_width_distribution() == live.dynamic_width_distribution()
        assert restored.counted_width_counts() == live.counted_width_counts()
        assert restored.result_size_histogram() == live.result_size_histogram()
        for policy in POLICY_NAMES:
            assert (
                restored.outcome(policy).energy.by_structure
                == live.outcome(policy).energy.by_structure
            )

    def test_summary_round_trips_through_json(self, store):
        workload = make_tiny()
        engine = ExperimentEngine(store=store, jobs=1)
        live = engine.evaluate(ExperimentConfig(workload="tiny"), workload=workload)
        summary = live.summarize()
        rebuilt = EvaluationSummary.from_json_dict(
            json.loads(json.dumps(summary.to_json_dict()))
        )
        assert rebuilt.to_json_dict() == summary.to_json_dict()

    def test_vrp_statistics_identical_live_and_restored(self, store):
        workload = make_tiny()
        config = ExperimentConfig(workload="tiny", mechanism="vrp")
        live = ExperimentEngine(store=store, jobs=1).evaluate(config, workload=workload)
        restored = ExperimentEngine(store=store, jobs=1).evaluate(config, workload=workload)
        assert restored.is_restored
        # Observational equivalence includes key types: the static width
        # distribution is keyed by int bit counts on both paths.
        assert restored.vrp_statistics() == live.vrp_statistics()

    def test_corrupted_entry_is_recovered(self, store):
        workload = make_tiny()
        config = ExperimentConfig(workload="tiny")
        engine = ExperimentEngine(store=store, jobs=1)
        engine.evaluate(config, workload=workload)
        key = engine.key_for(config, workload)
        path = store.path_for(key)
        assert path.exists()
        path.write_text("{ truncated garbage", encoding="utf-8")

        assert store.load(key) is None
        assert not path.exists()  # the bad entry was evicted

        recovered_engine = ExperimentEngine(store=store, jobs=1)
        recovered = recovered_engine.evaluate(config, workload=workload)
        # The summary was rebuilt — replayed from the binary trace
        # snapshot when one survived (zero simulator steps), recomputed
        # otherwise — and re-persisted either way.
        assert recovered.replayed_from_store or recovered.freshly_computed
        assert path.exists()

    def test_stale_generations_pruned_on_save(self, store):
        stale = store.root / "deadbeef0000" / "ab"
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("{}")
        # Unrelated user data in the same root must never be touched.
        precious = store.root / "my-precious-data"
        precious.mkdir(parents=True)
        (precious / "notes.txt").write_text("keep me")
        engine = ExperimentEngine(store=store, jobs=1)
        engine.evaluate(ExperimentConfig(workload="tiny"), workload=make_tiny())
        assert not (store.root / "deadbeef0000").exists()
        assert (precious / "notes.txt").read_text() == "keep me"
        assert len(store.entries()) == 1
        store.clear()
        assert (precious / "notes.txt").exists()

    def test_entries_and_clear(self, store):
        workload = make_tiny()
        engine = ExperimentEngine(store=store, jobs=1)
        engine.evaluate(ExperimentConfig(workload="tiny"), workload=workload)
        engine.evaluate(ExperimentConfig(workload="tiny", mechanism="vrp"), workload=workload)
        entries = store.entries()
        assert len(entries) == 2
        assert {entry.workload for entry in entries} == {"tiny"}
        assert {entry.mechanism for entry in entries} == {"none", "vrp"}
        # clear() counts summary entries and binary trace snapshots alike:
        # each cold evaluation persisted one of each.
        assert store.clear() == 4
        assert store.entries() == []
        assert not (store.root / "traces").exists() or not any(
            (store.root / "traces").iterdir()
        )

    def test_unwritable_store_does_not_lose_the_result(self, tmp_path):
        # Root is a *file*, so every mkdir/write under it fails with OSError.
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        engine = ExperimentEngine(store=ResultStore(blocked), jobs=1)
        evaluation = engine.evaluate(ExperimentConfig(workload="tiny"), workload=make_tiny())
        assert evaluation.timing.cycles > 0  # computed fine, persistence skipped

    def test_disabled_store_still_computes(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", "off")
        disabled = ResultStore()
        assert not disabled.enabled
        assert disabled.entries() == []
        assert disabled.clear() == 0
        engine = ExperimentEngine(store=disabled, jobs=1)
        evaluation = engine.evaluate(ExperimentConfig(workload="tiny"), workload=make_tiny())
        assert not evaluation.is_restored
        assert evaluation.timing.cycles > 0


class TestKeyValidation:
    """Path builders refuse anything that is not a hex content hash, so a
    hostile key (path traversal from the service's result endpoint) can
    never resolve — let alone quarantine — a file outside the store."""

    def test_path_builders_reject_malformed_keys(self, store):
        bad_keys = (
            "../../../../etc/hostname",
            "..",
            "a/b" + "0" * 62,
            "0" * 8,  # too short to be any content hash
            "G" * 64,  # not hex
            ("0" * 63) + "Z",
        )
        for bad in bad_keys:
            with pytest.raises(ValueError):
                store.path_for(bad)
            with pytest.raises(ValueError):
                store.trace_path_for(bad)
            with pytest.raises(ValueError):
                store.lock_path_for(bad)

    def test_real_keys_still_resolve(self, store):
        key = config_key(make_tiny(), "none", 50.0, False)
        assert store.path_for(key).name == f"{key}.json"


class TestEngine:
    def test_memo_returns_same_object(self, store):
        engine = ExperimentEngine(store=store, jobs=1)
        workload = make_tiny()
        config = ExperimentConfig(workload="tiny")
        assert engine.evaluate(config, workload=workload) is engine.evaluate(
            config, workload=workload
        )

    def test_map_preserves_order_and_mixes_hits(self, store):
        engine = ExperimentEngine(store=store, jobs=1)
        tiny = make_tiny()
        warm = engine.evaluate(ExperimentConfig(workload="tiny"), workload=tiny)
        # 'tiny' is not in the registry, so map() is driven by suite names.
        configs = [
            ExperimentConfig(workload="li"),
            ExperimentConfig(workload="ijpeg"),
        ]
        results = engine.map(configs)
        assert [evaluation.workload.name for evaluation in results] == ["li", "ijpeg"]
        assert warm is engine.evaluate(ExperimentConfig(workload="tiny"), workload=tiny)

    def test_map_deduplicates_identical_configs(self, store):
        engine = ExperimentEngine(store=store, jobs=1)
        results = engine.map([ExperimentConfig(workload="li"), ExperimentConfig(workload="li")])
        assert results[0] is results[1]
        assert len(store.entries()) == 1

    def test_serial_map_frees_each_live_evaluation(self, store, monkeypatch):
        """The serial loop drops each point's live evaluation before the
        next point builds, analyses and simulates; only the traced runs
        its workload group holds outlive it (see
        ``tests/test_shared_work.py``)."""
        import weakref

        from repro.experiments import engine as engine_module

        original = engine_module._compute_evaluation
        computed: list[weakref.ref] = []
        alive_at_call: list[int] = []

        def tracked(*args, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in computed))
            evaluation = original(*args, **kwargs)
            computed.append(weakref.ref(evaluation))
            return evaluation

        monkeypatch.setattr(engine_module, "_compute_evaluation", tracked)
        configs = [
            ExperimentConfig(workload="li"),
            ExperimentConfig(workload="li", mechanism="vrp"),
            ExperimentConfig(workload="ijpeg"),
        ]
        results = ExperimentEngine(store=store, jobs=1).map(configs, jobs=1)
        assert all(evaluation.freshly_computed for evaluation in results)
        assert alive_at_call == [0, 0, 0]

    def test_parallel_and_serial_summaries_are_identical(self, tmp_path):
        """Pool-computed evaluations are observationally equal to serial ones.

        Two distinct cold configs are required: with a single config,
        ``map()`` clamps the worker count to 1 and takes the serial
        fallback, never exercising the pool.
        """
        configs = [ExperimentConfig(workload="li"), ExperimentConfig(workload="ijpeg")]

        serial_engine = ExperimentEngine(store=ResultStore(tmp_path / "serial"), jobs=1)
        serial = [serial_engine.evaluate(config) for config in configs]
        assert not any(evaluation.is_restored for evaluation in serial)

        parallel_engine = ExperimentEngine(store=ResultStore(tmp_path / "parallel"), jobs=2)
        parallel = parallel_engine.map(configs, jobs=2)

        for serial_evaluation, parallel_evaluation in zip(serial, parallel):
            assert (
                parallel_evaluation.summarize().to_json_dict()
                == serial_evaluation.summarize().to_json_dict()
            )


class TestEntryReads:
    """How often resolving a point reads its summary entry: a cold point
    once without the lock and once under it, a stored point once, with no
    lock taken."""

    CONFIGS = [ExperimentConfig(workload="li"), ExperimentConfig(workload="li", mechanism="vrp")]

    @pytest.fixture
    def reads(self, monkeypatch):
        """Keys passed to ``ResultStore.load`` and to ``ResultStore.claim``
        (the lock protocol; every lock file comes from it)."""
        reads = {"load": [], "claim": []}
        load, claim = ResultStore.load, ResultStore.claim

        def counted_load(self, key):
            reads["load"].append(key)
            return load(self, key)

        def counted_claim(self, key, *args, **kwargs):
            reads["claim"].append(key)
            return claim(self, key, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "load", counted_load)
        monkeypatch.setattr(ResultStore, "claim", counted_claim)
        return reads

    def test_cold_map_reads_each_entry_twice(self, store, reads):
        """``map`` reads every point first; a miss then reads its entry
        only under the lock, not a third time before it.  Stored points
        are still delivered before the cold ones."""
        stored = ExperimentConfig(workload="li", mechanism="vrs")
        ExperimentEngine(store=store, jobs=1).evaluate(stored)
        reads["load"].clear()
        reads["claim"].clear()
        order = []
        results = ExperimentEngine(store=store, jobs=1).map(
            [*self.CONFIGS, stored], jobs=1, on_result=lambda index, _: order.append(index)
        )
        assert order == [2, 0, 1]
        assert [evaluation.freshly_computed for evaluation in results] == [True, True, False]
        engine = ExperimentEngine(store=store)
        cold = [engine.key_for(config) for config in self.CONFIGS]
        assert sorted(reads["load"]) == sorted([*cold, *cold, engine.key_for(stored)])
        assert sorted(reads["claim"]) == sorted(cold)

    def test_stored_points_take_one_read_and_no_lock(self, store, reads):
        """``evaluate``, ``map`` (serial and with a pool requested) and
        one-lane sweep groups serve a stored point from one unlocked read."""
        from repro.experiments.sweep import SweepSpec, default_sweep_configs

        spec = SweepSpec.cartesian(
            workloads=("li",),
            configs=[pair for pair in default_sweep_configs() if pair[0] == "table2"],
            policies=("baseline",),
        )
        ExperimentEngine(store=store, jobs=1).map(self.CONFIGS)
        list(ExperimentEngine(store=store, jobs=1).sweep(spec))
        keys = [ExperimentEngine(store=store).key_for(config) for config in self.CONFIGS]
        for resolve in (
            lambda engine: [engine.evaluate(config) for config in self.CONFIGS],
            lambda engine: engine.map(self.CONFIGS, jobs=1),
            lambda engine: engine.map(self.CONFIGS, jobs=2),
        ):
            reads["load"].clear()
            reads["claim"].clear()
            results = resolve(ExperimentEngine(store=store, jobs=1))
            assert not any(evaluation.freshly_computed for evaluation in results)
            assert reads["load"] == keys
            assert reads["claim"] == []
        reads["load"].clear()
        rows = list(ExperimentEngine(store=store, jobs=1).sweep(spec))
        assert {row.source for row in rows} == {"shared"}
        assert len(reads["load"]) == 1
        assert reads["claim"] == []


def test_fresh_process_is_served_without_simulation(tmp_path):
    """End-to-end zero-rerun check on the tiny workload: a second process
    resolves the same configuration purely from the store."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["REPRO_RESULT_STORE"] = str(tmp_path / "store")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    prologue = textwrap.dedent(
        f"""
        import json
        from repro.experiments import ExperimentConfig, default_engine
        from repro.workloads import Workload

        workload = Workload(
            name="tiny",
            description="16-element accumulation loop",
            source={TINY_SOURCE!r},
            train_data={{"job_size": (8,), "data": tuple(range(16))}},
            ref_data={{"job_size": (40,), "data": tuple(range(100, 116))}},
        )
        """
    )
    warm_script = prologue + textwrap.dedent(
        """
        evaluation = default_engine().evaluate(ExperimentConfig(workload="tiny"), workload=workload)
        print(json.dumps([evaluation.is_restored, evaluation.timing.cycles]))
        """
    )
    served_script = (
        textwrap.dedent(
            """
        from repro.sim.machine import Machine
        def _forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called despite a warm result store")
        Machine.run = _forbidden
        """
        )
        + prologue
        + textwrap.dedent(
            """
        evaluation = default_engine().evaluate(ExperimentConfig(workload="tiny"), workload=workload)
        print(json.dumps([evaluation.is_restored, evaluation.timing.cycles]))
        """
        )
    )

    warm = subprocess.run(
        [sys.executable, "-c", warm_script], env=env, capture_output=True, text=True, timeout=300
    )
    assert warm.returncode == 0, warm.stderr
    warm_restored, warm_cycles = json.loads(warm.stdout.strip().splitlines()[-1])
    assert warm_restored is False

    served = subprocess.run(
        [sys.executable, "-c", served_script], env=env, capture_output=True, text=True, timeout=300
    )
    assert served.returncode == 0, served.stderr
    served_restored, served_cycles = json.loads(served.stdout.strip().splitlines()[-1])
    assert served_restored is True
    assert served_cycles == warm_cycles


# ----------------------------------------------------------------------
# CLI: the profile subcommand
# ----------------------------------------------------------------------
def test_cli_profile_prints_cumulative_top(capsys):
    """`python -m repro.experiments profile` runs one workload under
    cProfile and prints a cumulative-time ranking (the before/after
    evidence future performance PRs cite)."""
    from repro.experiments.__main__ import main

    assert main(["profile", "--workload", "ijpeg", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "profile: workload=ijpeg" in out
    assert "dynamic instructions" in out
    assert "cumulative" in out  # pstats ordering header
    assert "_compute_evaluation" in out


def test_cli_profile_rejects_unknown_workload(capsys):
    from repro.experiments.__main__ import main

    assert main(["profile", "--workload", "nosuch"]) == 2
    assert "unknown workload" in capsys.readouterr().err
