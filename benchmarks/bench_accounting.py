"""Fused vs. sequential energy accounting over the whole suite.

Cold store fills materialize the energy breakdowns of every gating policy;
before the fused :class:`~repro.power.MultiPolicyEnergyAccountant`, that
cost six independent trace walks per workload.  This benchmark asserts
the fused run stays at least 4x over six *cold* sequential single-policy
runs, so the walk-sharing win stays visible in the perf trajectory
instead of silently eroding.

With the columnar trace engine the sharing lives one layer down: the
per-record aggregation is :meth:`~repro.sim.trace.Trace.shape_counts`,
computed once and cached on the trace, so even sequential single-policy
runs on the *same* trace object reuse it and pay only the per-shape
kernel.  The sequential side here therefore invalidates the trace's
aggregation caches before each pass — measuring what six independent
accounting walks genuinely cost — and the warm-sequential time is
recorded alongside for the trajectory.
"""

from __future__ import annotations

import time

import pytest

from repro.hardware import gating
from repro.power import EnergyAccountant, MultiPolicyEnergyAccountant
from repro.sim import Machine
from repro.uarch import OutOfOrderModel
from repro.workloads import load_suite


@pytest.fixture(scope="module")
def suite_traces():
    """Live traces and timing results for every suite workload."""
    traces = []
    for workload in load_suite():
        program = workload.build()
        workload.apply_input(program, "ref")
        run = Machine(program).run(collect_trace=True)
        timing = OutOfOrderModel().run(run.trace)
        traces.append((workload.name, run.trace, timing))
    return traces


def _account_fused(traces, policies):
    for _, trace, timing in traces:
        trace.invalidate_aggregation_caches()
        MultiPolicyEnergyAccountant(policies).account(trace, timing)


def _account_sequential(traces, policies, cold=True):
    for _, trace, timing in traces:
        for policy in policies.values():
            if cold:
                trace.invalidate_aggregation_caches()
            EnergyAccountant(policy).account(trace, timing)


def test_fused_accounting_speedup(benchmark, suite_traces):
    policies = gating.registry()

    fused_durations: list[float] = []

    def fused_round():
        start = time.perf_counter()
        _account_fused(suite_traces, policies)
        fused_durations.append(time.perf_counter() - start)

    benchmark.pedantic(fused_round, rounds=3, iterations=1)

    sequential_durations: list[float] = []
    for _ in range(3):
        start = time.perf_counter()
        _account_sequential(suite_traces, policies)
        sequential_durations.append(time.perf_counter() - start)
    warm_durations: list[float] = []
    for _ in range(3):
        start = time.perf_counter()
        _account_sequential(suite_traces, policies, cold=False)
        warm_durations.append(time.perf_counter() - start)

    sequential_best = min(sequential_durations)
    fused_best = min(fused_durations)
    speedup = sequential_best / fused_best
    benchmark.extra_info["sequential_cold_best_s"] = round(sequential_best, 4)
    benchmark.extra_info["sequential_warm_best_s"] = round(min(warm_durations), 4)
    benchmark.extra_info["fused_best_s"] = round(fused_best, 4)
    benchmark.extra_info["speedup_vs_cold_sequential"] = round(speedup, 2)
    # One columnar aggregation + one six-lane kernel pass must stay well
    # under six aggregation+kernel passes; losing the 4x bar means the
    # walk sharing (now the trace-level shape cache) regressed.
    assert speedup >= 4.0, f"fused accounting only {speedup:.2f}x over cold sequential"
