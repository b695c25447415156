"""Timing-kernel tiers: compiled vs reference.

The compiled kernel (``repro/uarch/tkernel.py``) replaced the reference
scoreboard's per-record method calls, dataclass attribute walks and
per-cycle usage dicts with generated per-config source over packed
static data, ring-buffer slot allocators and inlined cache/predictor
state.  This benchmark measures the end-to-end timing walk
(``OutOfOrderModel.run``) on suite workload traces for both tiers, with
every per-trace artifact (address column, packed static table, compiled
walk source) warm — the steady state repeated evaluations and
replayed-snapshot analyses see, mirroring how ``bench_sim.py`` measures
the simulator tiers with compilation outside the timed region.

The ≥2x compiled-over-reference bar is asserted (not just tracked) on
the faster of the measured workloads; the ≥3x aspiration from the
kernel's design review is recorded in ``extra_info`` as
``speedup_target`` for trend tracking, alongside per-workload ratios
and records/second.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict

import pytest

from repro.sim import Machine
from repro.uarch import OutOfOrderModel
from repro.workloads import workload_by_name

#: Suite workloads the tiers are timed on (sizeable loop + memory mix).
_WORKLOADS = ("go", "ijpeg")

#: The compiled kernel must beat the reference walk by this factor on
#: the faster workload (CI-enforced floor).
_COMPILED_VS_REFERENCE_BAR = 2.0

#: The design target recorded for trend tracking.
_SPEEDUP_TARGET = 3.0

#: Each kernel's entry point: the compiled kernel is
#: ``OutOfOrderModel.run``, the reference walk its oracle ``run_reference``.
_KERNELS = {"reference": OutOfOrderModel.run_reference, "compiled": OutOfOrderModel.run}


@pytest.fixture(scope="module")
def traces():
    """One trace per workload, with both kernel tiers verified and warm."""
    prepared = {}
    model = OutOfOrderModel()
    for name in _WORKLOADS:
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        trace = Machine(program).run(collect_trace=True).trace
        # Warm the caches (address column, packed table, compiled walk)
        # and verify the tiers agree outside the timed region.
        results = {kernel: run(model, trace) for kernel, run in _KERNELS.items()}
        assert asdict(results["compiled"]) == asdict(results["reference"]), name
        prepared[name] = trace
    return prepared


def _time_kernel(prepared, kernel: str) -> dict[str, float]:
    """One timed pass of ``kernel`` over every workload trace."""
    model = OutOfOrderModel()
    seconds = {}
    for name, trace in prepared.items():
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            _KERNELS[kernel](model, trace)
            seconds[name] = time.perf_counter() - start
        finally:
            gc.enable()
    return seconds


def _measure(prepared, rounds: int = 5) -> dict[str, dict[str, float]]:
    """Interleaved best-of-``rounds`` seconds per (kernel, workload), so
    one background hiccup cannot skew a single side."""
    best = {kernel: {name: float("inf") for name in prepared} for kernel in _KERNELS}
    for _ in range(rounds):
        for kernel, per_workload in best.items():
            for name, seconds in _time_kernel(prepared, kernel).items():
                per_workload[name] = min(per_workload[name], seconds)
    return best


def _best_ratio(best) -> float:
    return max(
        best["reference"][name] / best["compiled"][name] for name in best["compiled"]
    )


def test_compiled_timing_kernel_speedup(benchmark, traces):
    best = benchmark.pedantic(_measure, args=(traces,), rounds=1, iterations=1)
    ratio = _best_ratio(best)
    if ratio < _COMPILED_VS_REFERENCE_BAR:
        # One remeasure before failing: a loaded shared runner can
        # depress a single sample set; the bar guards a property of the
        # code, not of the scheduler.
        best = _measure(traces)
        ratio = max(ratio, _best_ratio(best))

    records = {name: len(trace) for name, trace in traces.items()}
    for name in traces:
        reference_s = best["reference"][name]
        compiled_s = best["compiled"][name]
        benchmark.extra_info[f"{name}_reference_ms"] = round(reference_s * 1e3, 2)
        benchmark.extra_info[f"{name}_compiled_ms"] = round(compiled_s * 1e3, 2)
        benchmark.extra_info[f"{name}_speedup"] = round(reference_s / compiled_s, 2)
        benchmark.extra_info[f"{name}_compiled_mrec_per_s"] = round(
            records[name] / compiled_s / 1e6, 2
        )
    benchmark.extra_info["speedup_best"] = round(ratio, 2)
    benchmark.extra_info["speedup_target"] = _SPEEDUP_TARGET

    assert ratio >= _COMPILED_VS_REFERENCE_BAR, (
        f"compiled timing kernel only {ratio:.2f}x over the reference walk "
        f"(bar: {_COMPILED_VS_REFERENCE_BAR}x, target: {_SPEEDUP_TARGET}x)"
    )
