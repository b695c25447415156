"""Fault-tolerant evaluation runtime: taxonomy, supervision, chaos, fsck.

Covers the resilience substrate end to end: the ``EvaluationError``
taxonomy and its classifier, the deterministic retry policy, the chaos
harness (``REPRO_CHAOS``), ``supervised_map``'s retry/reap/degradation
stages, the engine's partial-failure semantics (``on_error="keep"``),
the simulator's resource budgets, and the store's crash-consistency
machinery (stale-temp reaping, quarantine, fsck).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments.chaos import (
    ChaosInjectedError,
    chaos_blob,
    chaos_probe,
    parse_chaos_spec,
    reset_chaos,
)
from repro.experiments.engine import ExperimentConfig, ExperimentEngine
from repro.experiments.resilience import (
    DEGRADATION_STAGES,
    CorruptEntry,
    EvaluationError,
    ResourceExhausted,
    RetryPolicy,
    SimulationFault,
    TaskTimeout,
    WorkerCrash,
    classify_failure,
    supervised_map,
)
from repro.experiments.store import ResultStore
from repro.experiments.summary import EvaluationSummary
from repro.experiments.sweep import SweepResult, SweepSpec
from repro.sim import ValueProfiler


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    reset_chaos()
    yield
    reset_chaos()


# ----------------------------------------------------------------------
# Taxonomy and classification
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_transient_flags(self):
        assert WorkerCrash("x").transient
        assert TaskTimeout("x").transient
        assert CorruptEntry("x").transient
        assert not ResourceExhausted("x").transient
        assert not SimulationFault("x").transient

    def test_classify_is_idempotent(self):
        error = WorkerCrash("already classified")
        assert classify_failure(error) is error

    def test_classify_pool_failures_as_worker_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        for raw in (BrokenProcessPool("pool"), EOFError(), BrokenPipeError()):
            wrapped = classify_failure(raw)
            assert isinstance(wrapped, WorkerCrash)
            assert wrapped.transient
            assert wrapped.__cause__ is raw

    def test_classify_chaos_as_worker_crash(self):
        assert isinstance(classify_failure(ChaosInjectedError("boom")), WorkerCrash)

    def test_classify_limit_as_resource_exhausted(self):
        from repro.sim.machine import SimulationLimitExceeded

        wrapped = classify_failure(SimulationLimitExceeded("limit"))
        assert isinstance(wrapped, ResourceExhausted)
        assert not wrapped.transient

    def test_classify_unknown_as_permanent_fault(self):
        wrapped = classify_failure(ValueError("bad input"))
        assert isinstance(wrapped, SimulationFault)
        assert not wrapped.transient

    def test_describe_names_the_kind(self):
        assert TaskTimeout("late").describe() == "TaskTimeout: late"

    def test_stage_order(self):
        assert DEGRADATION_STAGES == (
            "retry-task",
            "replace-worker",
            "fresh-pool",
            "serial",
        )


class TestRetryPolicy:
    def test_jitter_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay_for(2, "task-1") == policy.delay_for(2, "task-1")
        assert policy.delay_for(2, "task-1") != policy.delay_for(2, "task-2")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.3, jitter=0.0)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(5) == pytest.approx(0.3)

    def test_should_retry_respects_transience_and_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1, WorkerCrash("x"))
        assert policy.should_retry(2, WorkerCrash("x"))
        assert not policy.should_retry(3, WorkerCrash("x"))
        assert not policy.should_retry(1, SimulationFault("x"))


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_full_grammar(self):
        config = parse_chaos_spec(
            "42:worker-task=kill,store-save=truncate:7@2,sweep-group=raise:Label"
        )
        assert config.seed == 42
        kill, truncate, injected = config.rules
        assert (kill.point, kill.action) == ("worker-task", "kill")
        assert (truncate.truncate_to, truncate.occurrence) == (7, 2)
        assert injected.label == "Label"

    @pytest.mark.parametrize(
        "spec",
        [
            "noseed",
            "x:worker-task=kill",
            "1:bogus-point=kill",
            "1:worker-task=explode",
            "1:worker-task=kill@0",
            "1:worker-task=sleep:abc",
            "1:worker-task",
        ],
    )
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_chaos_spec(spec)

    def test_rules_fire_once_at_their_occurrence(self):
        config = parse_chaos_spec("1:worker-task=raise@2")
        assert config.hit("worker-task") is None
        assert config.hit("worker-task") is not None
        assert config.hit("worker-task") is None

    def test_state_dir_claims_across_configs(self, tmp_path):
        # Two configs sharing seed + state dir model a retried fork worker:
        # the second parse must not re-fire the already-claimed rule.
        first = parse_chaos_spec("9:worker-task=kill", state_dir=str(tmp_path))
        assert first.hit("worker-task") is not None
        second = parse_chaos_spec("9:worker-task=kill", state_dir=str(tmp_path))
        assert second.hit("worker-task") is None

    def test_probe_raises_injected_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "3:worker-task=raise:Boom")
        reset_chaos()
        with pytest.raises(ChaosInjectedError, match="Boom"):
            chaos_probe("worker-task")
        chaos_probe("worker-task")  # one-shot: second hit is a no-op

    def test_blob_truncation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "4:store-save=truncate:3")
        reset_chaos()
        assert chaos_blob("store-save", b"abcdef") == b"abc"
        assert chaos_blob("store-save", b"abcdef") == b"abcdef"  # one-shot

    def test_unarmed_probe_is_noop(self):
        chaos_probe("worker-task")
        assert chaos_blob("store-save", b"payload") == b"payload"


# ----------------------------------------------------------------------
# supervised_map
# ----------------------------------------------------------------------
def _double(value):
    return value * 2


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _flaky(value, marker_dir):
    # Transient failure: raise only the first time each task runs.
    marker = os.path.join(marker_dir, f"ran-{value}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ChaosInjectedError(f"first attempt of {value}")
    return value * 10


def _die_once(value, marker_dir):
    # SIGKILL the worker on the first run of task 0 only.
    if value == 0:
        marker = os.path.join(marker_dir, "killed")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return value + 100


def _sleepy(value, seconds):
    time.sleep(seconds)
    return value


class TestSupervisedMap:
    def test_serial_shortcut(self):
        outcomes = supervised_map(_double, [(1,), (2,), (3,)], worker_count=1)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.stage == "serial" for o in outcomes)

    def test_permanent_failure_lands_in_outcome_not_raise(self):
        outcomes = supervised_map(_fail_on_three, [(1,), (3,)], worker_count=1)
        assert outcomes[0].ok and outcomes[0].value == 1
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, SimulationFault)

    def test_transient_failures_are_retried(self, tmp_path, caplog):
        fast = RetryPolicy(base_delay_s=0.001, max_delay_s=0.01)
        with caplog.at_level("WARNING", logger="repro.experiments.resilience"):
            outcomes = supervised_map(
                _flaky,
                [(value, str(tmp_path)) for value in range(3)],
                worker_count=2,
                retry=fast,
            )
        assert [o.value for o in outcomes] == [0, 10, 20]
        assert all(o.attempts == 2 for o in outcomes)
        assert any("'retry-task'" in line for line in caplog.messages)

    def test_sigkilled_worker_recovers_via_replace_worker(self, tmp_path, caplog):
        fast = RetryPolicy(base_delay_s=0.001, max_delay_s=0.01)
        with caplog.at_level("WARNING", logger="repro.experiments.resilience"):
            outcomes = supervised_map(
                _die_once,
                [(value, str(tmp_path)) for value in range(4)],
                worker_count=2,
                retry=fast,
            )
        assert [o.value for o in outcomes] == [100, 101, 102, 103]
        assert any("'replace-worker'" in line for line in caplog.messages)

    def test_on_result_sees_every_success(self):
        arrived = []
        supervised_map(
            _double,
            [(value,) for value in range(4)],
            worker_count=2,
            on_result=lambda index, value: arrived.append((index, value)),
        )
        assert sorted(arrived) == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_deadline_reaps_hung_workers(self, caplog):
        fast = RetryPolicy(max_attempts=1, base_delay_s=0.001, max_delay_s=0.01)
        with caplog.at_level("WARNING", logger="repro.experiments.resilience"):
            outcomes = supervised_map(
                _sleepy,
                [(0, 30.0), (1, 30.0)],
                worker_count=2,
                task_timeout_s=0.5,
                retry=fast,
            )
        assert all(not o.ok for o in outcomes)
        assert all(
            isinstance(o.error, (TaskTimeout, WorkerCrash)) for o in outcomes
        )
        assert any("deadline" in line for line in caplog.messages)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineResilience:
    def test_pool_creation_failure_logs_stage_and_falls_back(
        self, tmp_path, caplog, monkeypatch
    ):
        # Regression for the silent `return None` fallback: pool
        # unavailability must be named in the logs, not swallowed.
        import repro.experiments.resilience as resilience

        def broken_map(*args, **kwargs):
            raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr("repro.experiments.engine.supervised_map", broken_map)
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=2)
        configs = [
            ExperimentConfig(workload="li"),
            ExperimentConfig(workload="li", mechanism="vrp"),
        ]
        with caplog.at_level("WARNING", logger="repro.experiments.engine"):
            evaluations = engine.map(configs)
        assert len(evaluations) == 2
        assert all(e.summary is not None for e in evaluations)
        fallback_lines = [
            line
            for line in caplog.messages
            if "process-pool fan-out unavailable" in line
        ]
        assert fallback_lines, "pool failure fell back silently"
        assert "OSError" in fallback_lines[0]
        assert "'serial'" in fallback_lines[0]

    def test_map_on_error_keep_returns_failure_evaluations(self, tmp_path, caplog):
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        bad = ExperimentConfig(workload="li", mechanism="not-a-mechanism")
        good = ExperimentConfig(workload="li")
        with caplog.at_level("WARNING", logger="repro.experiments.engine"):
            evaluations = engine.map([bad, good], on_error="keep")
        assert evaluations[0].summary.failed
        assert evaluations[0].summary.failure["kind"] == "SimulationFault"
        assert not evaluations[1].summary.failed
        # The failed point is never memoized or persisted.
        assert engine.store.load(engine.key_for(bad)) is None

    def test_map_on_error_raise_propagates_classified_error(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        with pytest.raises(EvaluationError):
            engine.map([ExperimentConfig(workload="li", mechanism="not-a-mechanism")])

    def test_evaluate_on_error_keep(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        bad = ExperimentConfig(workload="li", mechanism="not-a-mechanism")
        evaluation = engine.evaluate(bad, on_error="keep")
        assert evaluation.summary.failed
        with pytest.raises(EvaluationError):
            engine.evaluate(bad)

    def test_failure_summary_round_trips(self):
        summary = EvaluationSummary.from_failure(
            workload="li",
            mechanism="none",
            threshold_nj=50.0,
            conventional_vrp=False,
            kind="WorkerCrash",
            message="killed",
        )
        restored = EvaluationSummary.from_json_dict(summary.to_json_dict())
        assert restored.failed
        assert restored.failure == {"kind": "WorkerCrash", "message": "killed"}
        healthy = EvaluationSummary.from_json_dict(
            {k: v for k, v in summary.to_json_dict().items() if k != "failure"}
        )
        assert not healthy.failed

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("", "cpus"),
            ("1", 1),
            ("3", 3),
            (" 2 ", 2),
            ("0", 1),
            ("-4", 1),
            ("two", ValueError),
            ("2.5", ValueError),
            ("4 workers", ValueError),
        ],
    )
    def test_repro_jobs_accepts_integers_only(self, value, expected, tmp_path, monkeypatch):
        from repro.experiments.engine import _resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", value)
        if expected is ValueError:
            with pytest.raises(ValueError, match=f"REPRO_JOBS={value!r}"):
                ExperimentEngine(store=ResultStore(tmp_path / "store"))
            # An explicit worker count never consults the environment.
            assert _resolve_jobs(2) == 2
            return
        if expected == "cpus":
            expected = max(1, os.cpu_count() or 1)
        assert ExperimentEngine(store=ResultStore(tmp_path / "store")).jobs == expected

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("", None),
            ("30", 30.0),
            ("0.5", 0.5),
            ("0", None),
            ("-1", None),
            ("30s", ValueError),
            ("never", ValueError),
            ("1 min", ValueError),
        ],
    )
    def test_task_timeout_accepts_seconds_only(self, value, expected, tmp_path, monkeypatch):
        from repro.experiments.engine import _task_timeout_s

        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", value)
        if expected is not ValueError:
            assert _task_timeout_s() == expected
            return
        with pytest.raises(ValueError, match=f"REPRO_TASK_TIMEOUT_S={value!r}"):
            _task_timeout_s()
        # A pool fan-out raises too, instead of degrading to serial.
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=2)
        configs = [ExperimentConfig(workload="li"), ExperimentConfig(workload="ijpeg")]
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT_S"):
            engine.map(configs)

    def test_chaos_worker_kill_is_deterministic(self, tmp_path, monkeypatch):
        # The acceptance property: a seeded SIGKILL'd worker is retried
        # and the final summaries are bit-identical to an uninjected run.
        configs = [
            ExperimentConfig(workload="li"),
            ExperimentConfig(workload="ijpeg"),
        ]
        baseline_engine = ExperimentEngine(
            store=ResultStore(tmp_path / "baseline"), jobs=2
        )
        baseline = [
            e.summarize().to_json_dict() for e in baseline_engine.map(configs)
        ]

        state = tmp_path / "chaos-state"
        state.mkdir()
        monkeypatch.setenv("REPRO_CHAOS", "1234:worker-task=kill@1")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(state))
        reset_chaos()
        injected_engine = ExperimentEngine(
            store=ResultStore(tmp_path / "injected"), jobs=2
        )
        injected = [
            e.summarize().to_json_dict() for e in injected_engine.map(configs)
        ]
        assert injected == baseline
        # The SIGKILL really happened: the one-shot marker was claimed.
        assert list(state.iterdir()), "chaos kill never fired"


# ----------------------------------------------------------------------
# Sweep degradation
# ----------------------------------------------------------------------
class TestSweepResilience:
    def test_chaos_group_failure_yields_error_rows(self, tmp_path, monkeypatch):
        spec = SweepSpec.cartesian(
            workloads=["li", "ijpeg"], policies=["baseline", "software"]
        )
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        monkeypatch.setenv("REPRO_CHAOS", "5:sweep-group=raise:GroupDown@1")
        reset_chaos()
        result = SweepResult.collect(engine.sweep(spec))
        assert len(result) == len(spec)
        failures = result.failures
        assert failures and len(failures) < len(result.rows)
        assert all(row.source == "error" and row.cycles == 0 for row in failures)
        assert all("GroupDown" in row.error for row in failures)
        # Derived reports skip error rows instead of crashing on zeros.
        assert all(not row.failed for row in result.pareto_frontier())
        savings = result.ed2_savings()
        failed_workloads = {row.workload for row in failures}
        for cell in savings.values():
            assert not failed_workloads & set(cell)

    def test_sweep_on_error_raise(self, tmp_path, monkeypatch):
        spec = SweepSpec.cartesian(workloads=["li"], policies=["baseline"])
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        monkeypatch.setenv("REPRO_CHAOS", "6:sweep-group=raise@1")
        reset_chaos()
        with pytest.raises(EvaluationError):
            list(engine.sweep(spec, on_error="raise"))

    def test_error_rows_serialize(self, tmp_path, monkeypatch):
        spec = SweepSpec.cartesian(workloads=["li"], policies=["baseline"])
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        monkeypatch.setenv("REPRO_CHAOS", "7:sweep-group=raise@1")
        reset_chaos()
        result = SweepResult.collect(engine.sweep(spec))
        payload = result.to_json_dict()
        assert all("error" in row for row in payload["rows"])
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Simulator resource budgets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def li_program():
    from repro.workloads import workload_by_name

    workload = workload_by_name("li")
    program = workload.build()
    workload.apply_input(program, "ref")
    return program


class TestMachineBudgets:
    def test_wall_time_budget_raises(self, li_program):
        from repro.sim.machine import Machine

        with pytest.raises(ResourceExhausted, match="wall-time budget"):
            Machine(li_program, wall_time_s=1e-9).run()

    def test_trace_byte_budget_raises(self, li_program):
        from repro.sim.machine import Machine

        with pytest.raises(ResourceExhausted, match="trace budget"):
            Machine(li_program, max_trace_bytes=64).run(collect_trace=True)

    @pytest.mark.parametrize(
        "run_kwargs", [{"pipeline": "fused"}, {"value_observer": "every uid"}]
    )
    def test_wall_time_budget_covers_other_tiers(self, li_program, run_kwargs):
        from repro.sim.machine import Machine

        if "value_observer" in run_kwargs:
            # Value-profiling runs execute on the block loop, under its probes.
            watched = {inst.uid for inst in li_program.instructions()}
            run_kwargs = {"value_observer": ValueProfiler(watched)}
        with pytest.raises(ResourceExhausted):
            Machine(li_program, wall_time_s=1e-9).run(**run_kwargs)

    def test_wall_time_budget_covers_mid_unit_landings(self):
        """A return that keeps landing on itself inside a unit never
        reaches a unit entry again; the reference-stepped landing pad
        probes the budgets like the block loop does."""
        from repro.asm import assemble_program
        from repro.sim.machine import Machine

        program = assemble_program(
            """
.func helper 0
entry:
    ret
.endfunc
.func main 0
entry:
    jsr helper
    add ra, ra, 4
    ret
.endfunc
"""
        )
        machine = Machine(program, max_instructions=200_000, wall_time_s=1e-9)
        with pytest.raises(ResourceExhausted, match="wall-time budget"):
            machine.run()

    def test_generous_budgets_change_nothing(self, li_program):
        from repro.sim.machine import Machine

        base = Machine(li_program).run()
        budgeted = Machine(
            li_program, wall_time_s=300.0, max_trace_bytes=1 << 34
        ).run()
        assert budgeted.instructions == base.instructions
        assert budgeted.output == base.output

    def test_env_default_budgets(self, li_program, monkeypatch):
        from repro.sim.machine import Machine

        monkeypatch.setenv("REPRO_SIM_WALL_TIME_S", "1e-9")
        with pytest.raises(ResourceExhausted):
            Machine(li_program).run()

    def test_budget_failure_classifies_as_permanent(self):
        assert not ResourceExhausted("budget").transient


# ----------------------------------------------------------------------
# Store crash consistency
# ----------------------------------------------------------------------
class TestStoreCrashConsistency:
    def _warm(self, root):
        engine = ExperimentEngine(store=ResultStore(root), jobs=1)
        config = ExperimentConfig(workload="li")
        engine.evaluate(config)
        return engine, config, engine.store

    def test_stale_tmp_reaped_at_open(self, tmp_path):
        _, _, store = self._warm(tmp_path / "store")
        orphan = next(iter(store.generation_root.glob("*"))) / "orphan.json.tmp"
        orphan.write_bytes(b"half-written")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        fresh = orphan.parent / "fresh.json.tmp"
        fresh.write_bytes(b"live writer")
        ResultStore(tmp_path / "store")
        assert not orphan.exists(), "stale temp survived reopen"
        assert fresh.exists(), "young temp of a live writer was reaped"

    def test_quarantine_preserves_bytes_and_reason(self, tmp_path):
        engine, config, store = self._warm(tmp_path / "store")
        key = engine.key_for(config)
        path = store.path_for(key)
        corrupt = b"{ torn write"
        path.write_bytes(corrupt)
        assert store.load(key) is None
        assert not path.exists()
        quarantined = store.quarantined()
        assert len(quarantined) == 1
        qpath, manifest = quarantined[0]
        assert qpath.read_bytes() == corrupt
        assert manifest["original_path"] == str(path)
        assert "reason" in manifest and manifest["reason"]

    def test_fsck_quarantines_every_corruption_class(self, tmp_path, monkeypatch):
        engine, config, store = self._warm(tmp_path / "store")
        # Class 1: invalid JSON in a summary entry.
        entry = store.path_for(engine.key_for(config))
        entry.write_bytes(b"{ not json")
        # Class 2: decodable JSON, undecodable summary.
        sibling = entry.with_name("0" * 64 + ".json")
        sibling.write_text(json.dumps({"summary": {"bogus": 1}}), encoding="utf-8")
        # Class 3: checksum mismatch (valid payload, silently flipped bit).
        engine2 = ExperimentEngine(store=store, jobs=1)
        vrp = ExperimentConfig(workload="li", mechanism="vrp")
        engine2.evaluate(vrp)
        vrp_path = store.path_for(engine2.key_for(vrp))
        payload = json.loads(vrp_path.read_text(encoding="utf-8"))
        payload["summary"]["timing"]["cycles"] += 1
        vrp_path.write_text(json.dumps(payload), encoding="utf-8")
        # Class 4: truncated trace snapshot.
        trace_path = next(iter(store.trace_generation_root.glob("*/*/*.trace")))
        trace_path.write_bytes(trace_path.read_bytes()[:32])
        # Class 5: orphaned temp file.
        orphan = entry.parent / "orphan.json.tmp"
        orphan.write_bytes(b"dead writer")
        old = time.time() - 7200
        os.utime(orphan, (old, old))

        report = store.fsck()
        assert not report.clean
        reasons = " | ".join(reason for _, reason in report.quarantined)
        assert "invalid JSON" in reasons
        assert "undecodable summary" in reasons
        assert "checksum mismatch" in reasons
        assert "undecodable snapshot" in reasons
        assert report.reaped_tmp >= 1
        assert len(store.quarantined()) == len(report.quarantined)
        # Second pass is clean: everything condemned was moved out.
        assert store.fsck().clean

    def test_fsck_no_repair_only_reports(self, tmp_path):
        engine, config, store = self._warm(tmp_path / "store")
        entry = store.path_for(engine.key_for(config))
        entry.write_bytes(b"{ not json")
        report = store.fsck(repair=False)
        assert not report.clean and not report.repaired
        assert entry.exists(), "--no-repair still moved the file"
        assert not store.quarantined()

    def test_fsync_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "1")
        engine, config, store = self._warm(tmp_path / "store")
        assert store.load(engine.key_for(config)) is not None

    def test_concurrent_writers_race_cleanly(self, tmp_path):
        # Two processes save the same key simultaneously; both must
        # succeed, the survivor must be readable, and no temp debris may
        # remain.
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        store_root = tmp_path / "store"
        script = textwrap.dedent(
            """
            import sys
            from repro.experiments.store import ResultStore
            from repro.experiments.summary import EvaluationSummary
            from repro.experiments.engine import ExperimentConfig, ExperimentEngine

            engine = ExperimentEngine(store=ResultStore(sys.argv[1]), jobs=1)
            config = ExperimentConfig(workload="li")
            evaluation = engine.evaluate(config)
            key = engine.key_for(config)
            store = engine.store
            for _ in range(50):
                store._save(key, evaluation.summarize())
            print(key)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TRACE_STORE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store_root)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        keys = set()
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            keys.add(out.strip())
        assert len(keys) == 1
        (key,) = keys
        store = ResultStore(store_root)
        assert store.load(key) is not None
        debris = list(store_root.glob("**/*.tmp"))
        assert not debris, f"temp debris left behind: {debris}"
        assert store.fsck().clean


# ----------------------------------------------------------------------
# Chaos-driven store faults
# ----------------------------------------------------------------------
class TestChaosStoreFaults:
    def test_truncated_publish_is_caught_by_fsck(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "11:store-save=truncate@1")
        reset_chaos()
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        engine.evaluate(ExperimentConfig(workload="li"))
        monkeypatch.delenv("REPRO_CHAOS")
        reset_chaos()
        report = engine.store.fsck()
        assert not report.clean
        assert any(
            "invalid JSON" in reason or "checksum mismatch" in reason
            for _, reason in report.quarantined
        )
        # After quarantine the engine recomputes transparently.
        fresh = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        evaluation = fresh.evaluate(ExperimentConfig(workload="li"))
        assert evaluation.summary is not None

    def test_truncated_trace_publish_is_caught_by_fsck(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "12:store-save-trace=truncate@1")
        reset_chaos()
        engine = ExperimentEngine(store=ResultStore(tmp_path / "store"), jobs=1)
        engine.evaluate(ExperimentConfig(workload="li"))
        monkeypatch.delenv("REPRO_CHAOS")
        reset_chaos()
        report = engine.store.fsck()
        assert any("undecodable snapshot" in reason for _, reason in report.quarantined)
