"""Supervision overhead on the happy path: fault-tolerant sweep vs direct.

The resilience runtime threads several seams through the hot evaluation
paths: a chaos probe and a classify-wrapping ``try`` around every sweep
group, checksummed store publishes, stale-temp reaping at store open,
and amortized budget probes in the simulator loops.  All of that must be
(near) free when nothing fails — fault tolerance is bought for the
unhappy path, not paid on every healthy sweep.

Both sides run the identical warm design-space sweep (every group served
by snapshot replay, zero simulator steps): the supervised side through
the public ``engine.sweep`` (chaos probe + failure classification +
error-row machinery armed), the direct side calling the engine's group
resolver (``engine._resolve_miss``) per group with none of the
supervision seams.  Every timed pass of either side starts from an
empty timing memo — the supervised side on a fresh engine over the warm
store, the direct side with a fresh ``TimingMemo`` — so both walk every
lane: an engine's memo would otherwise serve every pass after its first
without a walk.  The supervised side must stay
within ``_OVERHEAD_BAR`` of direct — the CI-enforced ceiling behind the
"supervision is free until it isn't" claim in ``docs/resilience.md``.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.experiments.engine import ExperimentConfig, ExperimentEngine, _resolve_miss
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepSpec
from repro.uarch import TimingMemo
from repro.workloads import workload_by_name

#: Suite workloads the warm sweep runs over.
_WORKLOADS = ("li", "ijpeg")

#: Supervised warm sweep may cost at most this multiple of the direct
#: unsupervised scoring loop (CI-enforced ceiling).
_OVERHEAD_BAR = 1.05


@pytest.fixture(scope="module")
def warm_sweep(tmp_path_factory):
    """A store warmed with snapshots plus the sweep spec to score."""
    root = tmp_path_factory.mktemp("resilience-store")
    engine = ExperimentEngine(store=ResultStore(root), jobs=1)
    spec = SweepSpec.cartesian(workloads=list(_WORKLOADS))
    # Warm the snapshot layer: one materialized evaluation per workload.
    for name in _WORKLOADS:
        engine.evaluate(ExperimentConfig(workload=name), pipeline="materialized")
    # Verify equivalence outside the timed region: both sides must
    # produce identical row cells from the same warm snapshots.
    supervised = {
        (row.workload, row.config, row.policy): (row.cycles, row.energy_nj)
        for row in _fresh_engine(engine).sweep(spec)
    }
    direct = {
        (workload, config, policy): cell
        for workload, config, policy, cell in _direct_cells(engine, spec)
    }
    assert supervised == direct
    return engine, spec


def _fresh_engine(engine):
    """A new engine, with an empty timing memo, over ``engine``'s warm store."""
    return ExperimentEngine(store=engine.store, jobs=1)


def _direct_cells(engine, spec):
    """The sweep's per-group resolution with no supervision seams at all,
    from an empty timing memo."""
    memo = TimingMemo()
    config_map = spec.config_map()
    groups: dict[tuple, list] = {}
    for point in spec.iter_points():
        signature = (
            point.workload,
            point.mechanism,
            point.threshold_nj,
            point.conventional_vrp,
        )
        groups.setdefault(signature, []).append(point)
    cells = []
    for (name, mechanism, threshold_nj, conventional_vrp), group in groups.items():
        workload = workload_by_name(name)
        config_names = list(dict.fromkeys(point.config for point in group))
        lanes = [config_map[config_name] for config_name in config_names]
        config = ExperimentConfig(
            workload=name,
            mechanism=mechanism,
            threshold_nj=threshold_nj,
            conventional_vrp=conventional_vrp,
            machine_config=lanes[0],
        )
        _, summaries, _ = _resolve_miss(
            engine.store,
            engine.key_for(config, workload),
            config,
            workload,
            "auto",
            lanes[1:],
            memo,
        )
        by_config = dict(zip(config_names, summaries))
        for point in group:
            summary = by_config[point.config]
            cells.append(
                (
                    point.workload,
                    point.config,
                    point.policy,
                    (summary.timing.cycles, summary.energies[point.policy].total),
                )
            )
    return cells


def _timed(fn, *args) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _supervised_pass(engine, spec):
    for _ in _fresh_engine(engine).sweep(spec):
        pass


def _direct_pass(engine, spec):
    _direct_cells(engine, spec)


def _measure(engine, spec, rounds: int = 5) -> dict[str, float]:
    """Interleaved best-of-``rounds`` seconds per side, so one background
    hiccup cannot skew a single side."""
    best = {"supervised": float("inf"), "direct": float("inf")}
    for _ in range(rounds):
        best["direct"] = min(best["direct"], _timed(_direct_pass, engine, spec))
        best["supervised"] = min(
            best["supervised"], _timed(_supervised_pass, engine, spec)
        )
    return best


def test_supervision_overhead_on_warm_sweep(benchmark, warm_sweep):
    engine, spec = warm_sweep
    best = benchmark.pedantic(_measure, args=(engine, spec), rounds=1, iterations=1)
    ratio = best["supervised"] / best["direct"]
    if ratio > _OVERHEAD_BAR:
        # One remeasure before failing: a loaded shared runner can skew a
        # single sample set; the bar guards a property of the code, not
        # of the scheduler.
        best = _measure(engine, spec)
        ratio = min(ratio, best["supervised"] / best["direct"])

    benchmark.extra_info["rows"] = len(spec)
    benchmark.extra_info["direct_ms"] = round(best["direct"] * 1e3, 2)
    benchmark.extra_info["supervised_ms"] = round(best["supervised"] * 1e3, 2)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)

    assert ratio <= _OVERHEAD_BAR, (
        f"supervised warm sweep costs {ratio:.3f}x the direct scoring loop "
        f"(ceiling: {_OVERHEAD_BAR}x over {len(spec)} rows)"
    )
