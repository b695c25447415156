"""Simulator dispatch tiers: block-compiled vs reference.

The block compiler (``repro/sim/blockc.py``) replaced decode-every-step
interpretation with straight-line Python per basic block, batched trace
emission and compiled-program reuse across runs.  This benchmark measures
end-to-end simulation throughput (dynamic instructions per second, with
trace collection — the configuration every cold experiment fill pays) for
both tiers on suite workloads, using one ``Machine`` per workload so the
steady state being measured is exactly what repeated experiment runs see:
zero recompilation, per-run state bound into cached compiled code.  The
block tier records a value-free trace (metas, memory column, counted
shapes); the reference loop also records the operand values.

The block-over-reference floor is asserted (not just tracked), mirroring
how ``bench_trace.py`` enforces the columnar-engine win; per-tier
instructions/sec are recorded in ``extra_info`` for trend tracking.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.sim import Machine
from repro.workloads import workload_by_name

#: Suite workloads the tiers are timed on (sizeable loop + memory mix).
_WORKLOADS = ("go", "ijpeg")

#: The block tier must beat the reference loop by this factor.  Measured
#: 8.3x on these workloads with the traced units counting record shapes
#: and storing no values, 6.8-7.6x while they also stored the values,
#: 10.0x before they counted shapes (best of five, 2-vCPU VM, Python
#: 3.11); the floor leaves headroom for loaded shared CI runners.
_BLOCK_VS_REFERENCE_BAR = 5.0

#: Each tier's entry point: the block tier is ``Machine.run``, the
#: reference loop its oracle ``Machine.run_reference``.
_TIERS = {"reference": Machine.run_reference, "block": Machine.run}


@pytest.fixture(scope="module")
def machines():
    """One Machine per workload, with the block program compiled."""
    prepared = {}
    total_instructions = 0
    for name in _WORKLOADS:
        workload = workload_by_name(name)
        program = workload.build()
        workload.apply_input(program, "ref")
        machine = Machine(program)
        # Warm the cache (and verify the tiers agree) outside the timed
        # region: compilation happens once per Machine, not per run.
        runs = {tier: run(machine, collect_trace=True) for tier, run in _TIERS.items()}
        # The block trace keeps no values: compare its columns and the
        # shapes its units counted (lockstep compares records).
        block, reference = runs["block"].trace, runs["reference"].trace
        assert block.metas == reference.metas
        assert block.mem_addresses == reference.mem_addresses
        assert block.shape_counts() == reference.shape_counts()
        assert runs["block"].output == runs["reference"].output
        total_instructions += runs["block"].instructions
        prepared[name] = machine
    return prepared, total_instructions


def _time_tier(prepared, tier: str) -> float:
    """One timed pass of ``tier`` over every workload (trace collected)."""
    total = 0.0
    for machine in prepared.values():
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            _TIERS[tier](machine, collect_trace=True)
            total += time.perf_counter() - start
        finally:
            gc.enable()
    return total


def _measure(prepared, rounds: int = 5) -> dict[str, float]:
    """Interleaved best-of-``rounds`` seconds per tier, so one background
    hiccup cannot skew a single side."""
    best = {tier: float("inf") for tier in _TIERS}
    for _ in range(rounds):
        for tier in best:
            best[tier] = min(best[tier], _time_tier(prepared, tier))
    return best


def test_block_tier_simulation_speedup(benchmark, machines):
    prepared, total_instructions = machines

    best = benchmark.pedantic(_measure, args=(prepared,), rounds=1, iterations=1)
    ratio = best["reference"] / best["block"]
    if ratio < _BLOCK_VS_REFERENCE_BAR:
        # One remeasure before failing: a loaded shared runner can depress
        # a single sample set; the bar guards a property, not a scheduler.
        best = _measure(prepared)
        ratio = max(ratio, best["reference"] / best["block"])

    for tier, seconds in best.items():
        benchmark.extra_info[f"{tier}_best_s"] = round(seconds, 4)
        benchmark.extra_info[f"{tier}_minstr_per_s"] = round(
            total_instructions / seconds / 1e6, 2
        )
    benchmark.extra_info["instructions"] = total_instructions
    benchmark.extra_info["speedup_block_vs_reference"] = round(ratio, 2)

    assert ratio >= _BLOCK_VS_REFERENCE_BAR, (
        f"block tier only {ratio:.2f}x over the reference loop "
        f"(bar: {_BLOCK_VS_REFERENCE_BAR}x)"
    )
