"""Execution-time and energy-delay² experiments (Figures 10, 11, 15),
the §6 headline numbers and the §4.1 analysis-overhead check."""

from __future__ import annotations

import time

from ..core import VRPConfig, run_vrp
from ..workloads import SUITE_NAMES, load_suite
from .energy import VRS_THRESHOLDS_NJ, _map_with_baseline, _software_variants

__all__ = [
    "figure10_execution_time_savings",
    "figure11_ed2_savings",
    "figure15_combined_ed2_savings",
    "headline_ed2_summary",
    "vrp_analysis_overhead",
]


def figure10_execution_time_savings(
    thresholds: tuple[float, ...] = VRS_THRESHOLDS_NJ,
) -> dict[str, dict[str, float]]:
    """Figure 10: per-benchmark execution-time reduction of VRS."""
    baseline, configured = _map_with_baseline(
        {
            f"vrs_{int(threshold)}nj": {"mechanism": "vrs", "threshold_nj": threshold}
            for threshold in thresholds
        }
    )
    results: dict[str, dict[str, float]] = {}
    for config_name, evaluations in configured.items():
        per_benchmark: dict[str, float] = {}
        for name in SUITE_NAMES:
            base_cycles = baseline[name].timing.cycles
            cycles = evaluations[name].timing.cycles
            per_benchmark[name] = 1.0 - cycles / base_cycles if base_cycles else 0.0
        per_benchmark["average"] = sum(per_benchmark.values()) / len(SUITE_NAMES)
        results[config_name] = per_benchmark
    return results


def _ed2_savings(baseline: dict, evaluations: dict, policy: str) -> dict[str, float]:
    """Per-benchmark ED² savings of ``evaluations`` under ``policy``, and their average."""
    per_benchmark: dict[str, float] = {}
    for name in SUITE_NAMES:
        base = baseline[name].outcome("baseline").energy
        other = evaluations[name].outcome(policy).energy
        per_benchmark[name] = other.ed2_savings_vs(base)
    per_benchmark["average"] = sum(per_benchmark.values()) / len(SUITE_NAMES)
    return per_benchmark


def figure11_ed2_savings(
    thresholds: tuple[float, ...] = VRS_THRESHOLDS_NJ,
) -> dict[str, dict[str, float]]:
    """Figure 11: per-benchmark energy-delay² savings of VRP and VRS."""
    baseline, configured = _map_with_baseline(_software_variants(thresholds))
    return {
        config_name: _ed2_savings(baseline, evaluations, "software")
        for config_name, evaluations in configured.items()
    }


#: The eight configurations of Figure 15.
FIGURE15_CONFIGURATIONS = (
    ("vrp", "vrp", "software"),
    ("vrs_50nj", "vrs", "software"),
    ("hw_size", "none", "hw-size"),
    ("hw_significance", "none", "hw-significance"),
    ("vrp+hw_size", "vrp", "sw+hw-size"),
    ("vrp+hw_significance", "vrp", "sw+hw-significance"),
    ("vrs_50nj+hw_size", "vrs", "sw+hw-size"),
    ("vrs_50nj+hw_significance", "vrs", "sw+hw-significance"),
)


def figure15_combined_ed2_savings() -> dict[str, dict[str, float]]:
    """Figure 15: ED² savings of software, hardware and combined schemes."""
    baseline, configured = _map_with_baseline(
        {
            config_name: {"mechanism": mechanism, "threshold_nj": 50.0}
            for config_name, mechanism, _ in FIGURE15_CONFIGURATIONS
        }
    )
    return {
        config_name: _ed2_savings(baseline, configured[config_name], policy)
        for config_name, _, policy in FIGURE15_CONFIGURATIONS
    }


def headline_ed2_summary() -> dict[str, float]:
    """The §6 headline numbers.

    The paper reports ~14% average ED² savings for the software scheme
    (VRS), ~15% for the hardware scheme and ~28% for the combination.
    """
    figure15 = figure15_combined_ed2_savings()
    return {
        "software_vrs": figure15["vrs_50nj"]["average"],
        "software_vrp": figure15["vrp"]["average"],
        "hardware_significance": figure15["hw_significance"]["average"],
        "combined": figure15["vrs_50nj+hw_significance"]["average"],
    }


def vrp_analysis_overhead() -> dict[str, float]:
    """§4.1: VRP analysis time relative to a (simulated) program run.

    The paper reports 0.02%-0.08% overhead on native runs; a pure-Python
    analysis against a pure-Python simulation is not comparable in absolute
    terms, so this experiment reports both the absolute analysis seconds and
    the ratio against the functional-simulation time of the ref input.
    """
    results: dict[str, float] = {}
    total_analysis = 0.0
    total_simulation = 0.0
    for workload in load_suite():
        program = workload.build()
        workload.apply_input(program, "ref")
        start = time.perf_counter()
        run_vrp(program, VRPConfig())
        analysis_seconds = time.perf_counter() - start

        from ..sim import Machine

        start = time.perf_counter()
        Machine(program).run()
        simulation_seconds = time.perf_counter() - start
        total_analysis += analysis_seconds
        total_simulation += simulation_seconds
        results[workload.name] = analysis_seconds / simulation_seconds if simulation_seconds else 0.0
    results["total_analysis_seconds"] = total_analysis
    results["total_simulation_seconds"] = total_simulation
    results["average_ratio"] = total_analysis / total_simulation if total_simulation else 0.0
    return results
