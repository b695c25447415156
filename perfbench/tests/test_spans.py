"""The span recorder's self-time arithmetic and the tracer's transparency."""

from __future__ import annotations

import builtins
from pathlib import Path

import pytest

import scenarios
import spans
from repro.experiments import ExperimentConfig, runner
from repro.sim import Machine

EXPECTED = scenarios.load_expected(Path(spans.__file__).with_name("expected.json"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_a_nested_tree():
    # VRS -> nested VRP, then VRS -> training run -> block codegen -> compile().
    clock = FakeClock()
    recorder = spans.Recorder(clock)
    vrs = recorder.open("analysis.vrs")
    clock.advance(1.0)
    vrp = recorder.open("analysis.vrp")
    clock.advance(2.0)
    recorder.close(vrp)
    clock.advance(0.5)
    train = recorder.open("analysis.vrs_train")
    clock.advance(3.0)
    blocks = recorder.open("codegen.blocks")
    clock.advance(0.25)
    compiled = recorder.open("codegen.compile.block")
    clock.advance(4.0)
    recorder.close(compiled)
    recorder.close(blocks)
    clock.advance(1.0)
    recorder.close(train)
    clock.advance(0.5)
    recorder.close(vrs)

    assert recorder.self_seconds() == {
        "analysis.vrs": 2.0,
        "analysis.vrp": 2.0,
        "analysis.vrs_train": 4.0,
        "codegen.blocks": 0.25,
        "codegen.compile.block": 4.0,
    }
    assert recorder.top_level_seconds() == 12.25
    assert [span.parent for span in recorder.spans] == [None, 0, 0, 2, 3]

    metrics = spans.layer_metrics(recorder, wall_s=13.0)
    assert metrics["analysis.vrs_s"] == 2.0
    assert metrics["analysis.vrp_calls"] == 1
    assert metrics["analysis.vrs_train_s"] == 4.0
    assert metrics["codegen.emit_s"] == 0.25
    assert metrics["codegen.block_compile_s"] == 4.0
    assert metrics["codegen.compiles"] == 1
    assert metrics["other.s"] == 0.75


def test_probes_are_charged_to_no_layer_and_times_are_rescaled():
    # engine.map -> point -> probe, then a probe after the engine returns.
    clock = FakeClock()
    recorder = spans.Recorder(clock)
    engine = recorder.open("engine.map")
    clock.advance(1.0)
    run = recorder.open("sim.run")
    clock.advance(4.0)
    recorder.close(run)
    probe = recorder.open(spans.PROBE_SPAN)
    clock.advance(0.5)
    recorder.close(probe)
    recorder.close(engine)
    probe = recorder.open(spans.PROBE_SPAN)
    clock.advance(0.5)
    recorder.close(probe)
    recorder.counters["sim.instructions"] = 2_000_000

    metrics = spans.layer_metrics(recorder, wall_s=5.5, scale=0.5)
    assert metrics["engine.self_s"] == 0.5
    assert metrics["sim.run_s"] == 2.0
    assert metrics["sim.minstr_per_s"] == 1.0
    assert metrics["other.s"] == 0.25


def test_spans_must_close_innermost_first():
    recorder = spans.Recorder(FakeClock())
    outer = recorder.open("engine.map")
    recorder.open("store.load")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


@pytest.mark.parametrize("name", ["cold-paper", "warm-fused"])
def test_tracing_leaves_results_unchanged(name, tmp_path, monkeypatch):
    if name == "warm-fused":
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
    workload = scenarios.make_workload(name, 0, tmp_path, EXPECTED)
    workload.points = [ExperimentConfig("li", mechanism) for mechanism in scenarios.MECHANISMS]
    workload.expected = {key: EXPECTED["points"][key] for key in ("li/none", "li/vrp", "li/vrs")}
    untraced = workload.run_pass()
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        traced = workload.run_pass()

    assert untraced.failed == traced.failed == []
    assert untraced.results == traced.results
    path = spans.path_counts(recorder)
    assert path["builds"] == 3
    assert path["analysis_calls"] == 4  # run_vrp, run_vrs and VRS's two nested run_vrp
    assert recorder.calls()["engine.map"] == 1
    assert all(span.end >= span.start for span in recorder.spans)
    # Every wrapper is gone again.
    assert builtins.compile.__module__ == "builtins"
    assert "run" in vars(Machine) and vars(Machine)["run"].__module__ == "repro.sim.machine"
    assert runner.run_vrp.__module__ == "repro.core.vrp"
