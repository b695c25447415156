"""Sweep-engine per-point cost: batched multi-config scoring vs the
sequential per-config replay path.

Before the sweep engine, an analysis-only sweep over N uarch configs
replayed each stored trace through the timing pipeline N separate
times: per config, decode the snapshot and replay it at one lane
(single-config timing walk + fused accounting + distribution
aggregation).  The sweep engine decodes once and replays every config
as a lane of one group: one multi-config kernel pass
(``run_compiled_many`` walks lanes of one I-line size and predictor
together, sharing the record decode, fetch-line test and predictor
stream, simulating caches once per geometry and eliding functional-unit
probes that can never bind), one accounting walk branched per config
(``account_many``) and one aggregation — per-group work no longer
scales with the full pipeline times N.  Both sides run the engine's
one replay routine (``engine._replay``), at one lane per call and at
all 16 lanes in one call.

Both sides are timed over the same warm snapshots and the same dense
16-config axis (2 pipeline widths x 4 window sizes x 2 memory
latencies, a Figure-15-style grid) on two suite workloads, and the
batched side must stay >=3x cheaper per point on the better workload —
the CI-enforced floor behind the sweep engine's
thousands-of-points-per-minute claim.  The kernel-only lane-batch ratio
(run_compiled_many vs per-config run_compiled, no decode or
accounting) is recorded in ``extra_info``: lane batching alone is a
modest win; the floor comes from amortising the decode, accounting and
aggregation across the whole config axis.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

import pytest

from repro.experiments import POLICY_NAMES
from repro.experiments.engine import ExperimentConfig, _replay
from repro.experiments.runner import _compute_evaluation, artifact_from_evaluation
from repro.sim.snapshot import decode_artifact, encode_artifact
from repro.uarch import MachineConfig, OutOfOrderModel, run_compiled_many
from repro.workloads import workload_by_name

#: Suite workloads the per-point costs are measured on.
_WORKLOADS = ("go", "perl")

#: The batched sweep path must beat sequential per-config replay by
#: this factor per point on the better workload (CI-enforced floor).
_BATCH_VS_SEQUENTIAL_BAR = 3.0


def _dense_axis() -> list[MachineConfig]:
    """A 16-config design-space axis: widths x windows x memory."""
    base = MachineConfig()
    return [
        replace(
            base,
            fetch_width=width,
            issue_width=width,
            max_in_flight=window,
            memory_first_chunk_cycles=memory,
        )
        for width in (2, 4)
        for window in (32, 64, 96, 128)
        for memory in (24, 40)
    ]


@pytest.fixture(scope="module")
def snapshots():
    """Warm snapshot blob per workload, with both sides verified."""
    configs = _dense_axis()
    prepared = {}
    for name in _WORKLOADS:
        workload = workload_by_name(name)
        blob = encode_artifact(artifact_from_evaluation(_compute_evaluation(workload)))
        # Verify outside the timed region: the batched side must
        # reproduce the sequential replay summaries bit-exactly.
        assert _batched_pass(workload, blob, configs) == _sequential_pass(
            workload, blob, configs
        ), name
        prepared[name] = (workload, blob)
    return prepared, configs


def _batched_pass(workload, blob, configs):
    """The sweep engine's per-group work: decode once, every config a lane."""
    point = ExperimentConfig(workload=workload.name)
    return _replay(workload, point, decode_artifact(blob), configs)


def _sequential_pass(workload, blob, configs):
    """Per config: decode the snapshot and replay it at one lane."""
    point = ExperimentConfig(workload=workload.name)
    return [
        _replay(workload, point, decode_artifact(blob), [config])[0] for config in configs
    ]


def _timed(fn, *args) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _measure(prepared, configs, rounds: int = 3) -> dict[str, dict[str, float]]:
    """Interleaved best-of-``rounds`` seconds per (side, workload), so
    one background hiccup cannot skew a single side."""
    best = {
        side: {name: float("inf") for name in prepared}
        for side in ("sequential", "batched")
    }
    for _ in range(rounds):
        for name, (workload, blob) in prepared.items():
            best["sequential"][name] = min(
                best["sequential"][name], _timed(_sequential_pass, workload, blob, configs)
            )
            best["batched"][name] = min(
                best["batched"][name], _timed(_batched_pass, workload, blob, configs)
            )
    return best


def _measure_kernel(trace, configs, rounds: int = 3) -> dict[str, float]:
    """Interleaved best-of-``rounds`` seconds of the kernel alone: one
    batched walk over ``configs`` vs one single-config walk per config."""
    best = {"batch": float("inf"), "singles": float("inf")}
    for _ in range(rounds):
        best["singles"] = min(
            best["singles"],
            _timed(lambda: [OutOfOrderModel(config).run(trace) for config in configs]),
        )
        best["batch"] = min(best["batch"], _timed(run_compiled_many, trace, configs))
    return best


def _best_ratio(best) -> float:
    return max(
        best["sequential"][name] / best["batched"][name] for name in best["batched"]
    )


def test_batched_sweep_per_point_speedup(benchmark, snapshots):
    prepared, configs = snapshots
    best = benchmark.pedantic(_measure, args=(prepared, configs), rounds=1, iterations=1)
    ratio = _best_ratio(best)
    if ratio < _BATCH_VS_SEQUENTIAL_BAR:
        # One remeasure before failing: a loaded shared runner can
        # depress a single sample set; the bar guards a property of the
        # code, not of the scheduler.
        best = _measure(prepared, configs)
        ratio = max(ratio, _best_ratio(best))

    points = len(configs) * len(POLICY_NAMES)
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["points_per_workload"] = points
    for name in prepared:
        sequential_s = best["sequential"][name]
        batched_s = best["batched"][name]
        benchmark.extra_info[f"{name}_sequential_point_ms"] = round(
            sequential_s / points * 1e3, 3
        )
        benchmark.extra_info[f"{name}_batched_point_ms"] = round(
            batched_s / points * 1e3, 3
        )
        benchmark.extra_info[f"{name}_per_point_speedup"] = round(
            sequential_s / batched_s, 2
        )
        benchmark.extra_info[f"{name}_points_per_minute"] = round(
            60.0 * points / batched_s
        )
    benchmark.extra_info["per_point_speedup_best"] = round(ratio, 2)

    # Kernel-only lane-batch ratio (not part of the bar): batched
    # multi-config walk vs N single-config compiled walks, warm trace.
    workload, blob = next(iter(prepared.values()))
    kernel = _measure_kernel(decode_artifact(blob).trace, configs)
    benchmark.extra_info["kernel_batch_ratio"] = round(kernel["singles"] / kernel["batch"], 2)

    assert ratio >= _BATCH_VS_SEQUENTIAL_BAR, (
        f"batched sweep scoring only {ratio:.2f}x over sequential per-config "
        f"replay (bar: {_BATCH_VS_SEQUENTIAL_BAR}x at {len(configs)} configs)"
    )
