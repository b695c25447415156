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
