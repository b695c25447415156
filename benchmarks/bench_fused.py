"""Streaming fused pipeline vs the materialized cold-evaluation path.

A *cold* experiment evaluation (store miss) classically pays
simulate-with-trace (the block units count the record shapes as they
go) → timing-kernel walk → accounting over the counted shapes →
summary + binary trace snapshot persistence.  The fused pipeline
(``repro/sim/fusedc.py``) collapses the first three into one streaming
pass — per-record timing inline in the block-compiled units, shape
aggregation via run-length width-signature memoization — and has no
trace to snapshot, so the persistence layer drops to one summary write.

This benchmark times both cold paths end-to-end (fresh program build,
fresh ``Machine``, full summary, store writes — exactly what
``ExperimentEngine.evaluate`` pays on a miss with each pipeline;
``runner._compute_evaluation`` returns the evaluation summarized, and
``artifact_from_evaluation`` packages its snapshot) on
suite workloads, interleaved best-of-rounds in one process so clock
drift cannot skew a side.  The ≥2x geometric-mean bar is asserted, not
tracked; per-workload ratios and the peak-heap-per-record footprint of
both pipelines are recorded in ``extra_info``.  The memory phase is the
point of the streaming design: the materialized peak grows with the
dynamic instruction count (the trace columns), the fused peak does not.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
import tracemalloc

import pytest

from repro.experiments.runner import _compute_evaluation, artifact_from_evaluation
from repro.experiments.store import ResultStore
from repro.workloads import workload_by_name

#: Suite workloads the pipelines are timed on (loop, image and list mix).
_WORKLOADS = ("ijpeg", "li", "compress")

#: The fused pipeline must beat the materialized cold path by this factor
#: in geometric mean over the workloads.
_GEOMEAN_BAR = 2.0

#: No single workload may fall below this ratio (sanity floor).
_PER_WORKLOAD_FLOOR = 1.6

#: The materialized pipeline's *marginal* heap cost (extra peak bytes per
#: extra dynamic record, between two sizes of the same loop) must exceed
#: the fused pipeline's by this factor.  Measured 8.9x (36.8 vs 4.2
#: bytes/record) with value-free traces, 14.2x (59.0 vs 4.2) while the
#: trace stored the values; the bar leaves headroom for allocator jitter.
_MARGINAL_HEAP_BAR = 2.5

#: Loop whose dynamic record count scales linearly with the trip count —
#: the knob for the two-size marginal-memory measurement.
_LOOP_TEMPLATE = """
.func main 0
entry:
    li r1, {trips}
    li r2, 0
loop:
    add r2, r2, 7
    xor r3, r2, 85
    and r4, r3, 255
    sub r1, r1, 1
    bne r1, loop
done:
    print r2
    halt
.endfunc
"""


def _store_key(label: str) -> str:
    """A store key for ``label`` (the store accepts only hex hashes)."""
    return hashlib.sha256(label.encode()).hexdigest()


def _cold_materialized(workload, store):
    """Everything a cold store miss pays on the classic pipeline."""
    evaluation = _compute_evaluation(workload, pipeline="materialized")
    summary = evaluation.summarize()
    key = _store_key(f"bench-m-{workload.name}")
    store.save(key, summary)
    store.save_trace(key, artifact_from_evaluation(evaluation))
    return evaluation


def _cold_fused(workload, store):
    """The same miss through the streaming pipeline: no trace, no snapshot."""
    evaluation = _compute_evaluation(workload, pipeline="fused")
    store.save(_store_key(f"bench-f-{workload.name}"), evaluation.summarize())
    return evaluation


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory):
    """Workloads + a scratch store, with all compiled tiers warm.

    The warm-up pass also asserts the two pipelines produce identical
    summaries — the speedup claim is only meaningful if the fast path is
    bit-exact.
    """
    store = ResultStore(tmp_path_factory.mktemp("fused-bench-store"))
    workloads = [workload_by_name(name) for name in _WORKLOADS]
    instructions = {}
    for workload in workloads:
        materialized = _cold_materialized(workload, store)
        fused = _cold_fused(workload, store)
        assert materialized.summarize().to_json_dict() == fused.summarize().to_json_dict(), (
            f"pipelines disagree on {workload.name}"
        )
        instructions[workload.name] = fused.run.instructions
    return workloads, store, instructions


def _measure(workloads, store, rounds: int = 5) -> dict[str, dict[str, float]]:
    """Interleaved best-of-``rounds`` seconds per workload and pipeline."""
    best: dict[str, dict[str, float]] = {
        workload.name: {"materialized": float("inf"), "fused": float("inf")}
        for workload in workloads
    }
    for _ in range(rounds):
        for workload in workloads:
            for label, cold in (("materialized", _cold_materialized), ("fused", _cold_fused)):
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    cold(workload, store)
                    elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
                if elapsed < best[workload.name][label]:
                    best[workload.name][label] = elapsed
    return best


def _geomean(ratios) -> float:
    values = list(ratios)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def test_fused_pipeline_speedup(benchmark, bench_setup):
    workloads, store, instructions = bench_setup

    best = benchmark.pedantic(_measure, args=(workloads, store), rounds=1, iterations=1)
    ratios = {
        name: times["materialized"] / times["fused"] for name, times in best.items()
    }
    if _geomean(ratios.values()) < _GEOMEAN_BAR or min(ratios.values()) < _PER_WORKLOAD_FLOOR:
        # One remeasure before failing: a loaded shared runner can depress
        # a single sample set; the bar guards a property, not a scheduler.
        remeasured = _measure(workloads, store)
        for name, times in remeasured.items():
            ratios[name] = max(ratios[name], times["materialized"] / times["fused"])
            for label in times:
                best[name][label] = min(best[name][label], times[label])

    for name, times in best.items():
        benchmark.extra_info[f"{name}_materialized_s"] = round(times["materialized"], 4)
        benchmark.extra_info[f"{name}_fused_s"] = round(times["fused"], 4)
        benchmark.extra_info[f"{name}_ratio"] = round(ratios[name], 2)
        benchmark.extra_info[f"{name}_fused_minstr_per_s"] = round(
            instructions[name] / times["fused"] / 1e6, 2
        )
    geomean = _geomean(ratios.values())
    benchmark.extra_info["speedup_geomean"] = round(geomean, 2)

    assert min(ratios.values()) >= _PER_WORKLOAD_FLOOR, (
        f"fused pipeline ratio fell below the {_PER_WORKLOAD_FLOOR}x floor: {ratios}"
    )
    assert geomean >= _GEOMEAN_BAR, (
        f"fused pipeline only {geomean:.2f}x (geomean) over the materialized "
        f"cold path (bar: {_GEOMEAN_BAR}x): {ratios}"
    )


def _peak_heap(run) -> int:
    """Peak traced heap (bytes) over one call of *run*."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fused_pipeline_memory_footprint(benchmark):
    """Marginal peak heap per dynamic record, materialized vs fused.

    Absolute peaks are dominated by size-independent overhead (program
    build, generated-source compilation, summary construction), so the
    trace is isolated differentially: the same loop at two trip counts,
    and the slope ``(peak_big - peak_small) / (records_big -
    records_small)`` is the per-record cost.  The materialized slope is
    the trace's meta column (8 bytes/record) plus the run's significance
    cache (one entry per distinct value, ~29 bytes/record here, where
    values never repeat); the fused slope is transient interpreter churn
    (~4-8 bytes/record), independent of any per-record retention.  The
    ratio is asserted — the trace creeping back into the fused path
    would collapse it toward 1.
    """
    from repro.asm import assemble_program
    from repro.sim.machine import Machine

    sizes = {"small": 10_000, "big": 60_000}
    peaks: dict[str, dict[str, int]] = {}
    records: dict[str, int] = {}

    def measure():
        for label, trips in sizes.items():
            program = assemble_program(_LOOP_TEMPLATE.format(trips=trips))
            machine = Machine(program)
            # Warm both pipelines outside the measured window (codegen,
            # compile, caches) and pin bit-exactness on this very program.
            warm_materialized = machine.run(collect_trace=True)
            warm_fused = machine.run(pipeline="fused")
            assert (
                dict(warm_materialized.trace.shape_counts())
                == warm_fused.fused.shapes.shape_counts()
            )
            records[label] = warm_fused.instructions
            peaks[label] = {
                "materialized": _peak_heap(lambda: machine.run(collect_trace=True)),
                "fused": _peak_heap(lambda: machine.run(pipeline="fused")),
            }

    benchmark.pedantic(measure, rounds=1, iterations=1)
    span = records["big"] - records["small"]
    marginal = {
        pipeline: (peaks["big"][pipeline] - peaks["small"][pipeline]) / span
        for pipeline in ("materialized", "fused")
    }
    ratio = marginal["materialized"] / marginal["fused"]

    benchmark.extra_info["records_small"] = records["small"]
    benchmark.extra_info["records_big"] = records["big"]
    for pipeline in ("materialized", "fused"):
        benchmark.extra_info[f"{pipeline}_marginal_bytes_per_record"] = round(
            marginal[pipeline], 2
        )
        benchmark.extra_info[f"{pipeline}_peak_bytes_per_record"] = round(
            peaks["big"][pipeline] / records["big"], 2
        )
    benchmark.extra_info["marginal_ratio"] = round(ratio, 2)

    assert ratio >= _MARGINAL_HEAP_BAR, (
        f"materialized marginal heap ({marginal['materialized']:.1f} B/record) is "
        f"only {ratio:.1f}x the fused marginal ({marginal['fused']:.1f} B/record); "
        f"bar: {_MARGINAL_HEAP_BAR}x — the trace is creeping back into the fused path"
    )
