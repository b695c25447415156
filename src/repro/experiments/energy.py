"""Energy-savings experiments (Figures 3, 8, 9, 13 and 14, Table 1).

Savings are always reported relative to the baseline machine (no value
range mechanism, no hardware compression), matching the paper.
"""

from __future__ import annotations

from ..core import ALU_ENERGY_SAVINGS_NJ
from ..isa import Width
from ..power import STRUCTURES
from ..workloads import SUITE_NAMES
from .engine import default_engine

__all__ = [
    "VRS_THRESHOLDS_NJ",
    "STRUCTURE_ORDER",
    "table1_alu_energy_matrix",
    "figure03_vrp_energy_by_structure",
    "figure08_energy_savings_by_benchmark",
    "figure09_energy_by_structure",
    "figure13_hardware_energy_savings",
    "figure14_hardware_energy_by_structure",
]

#: The specialization-cost configurations swept by the paper (nanojoules).
VRS_THRESHOLDS_NJ = (110.0, 90.0, 70.0, 50.0, 30.0)

#: Structures in the order the paper's bar charts use.
STRUCTURE_ORDER = (
    "rename",
    "branch_predictor",
    "instruction_queue",
    "rob",
    "rename_buffers",
    "lsq",
    "register_file",
    "icache",
    "dcache_l1",
    "dcache_l2",
    "alu",
    "result_bus",
)


def table1_alu_energy_matrix() -> dict[Width, dict[Width, float]]:
    """Table 1: ALU energy savings (nJ) per source→destination width change."""
    return {dest: dict(row) for dest, row in ALU_ENERGY_SAVINGS_NJ.items()}


# ----------------------------------------------------------------------
# Software-scheme energy savings
# ----------------------------------------------------------------------
def _software_variants(thresholds: tuple[float, ...]) -> dict[str, dict]:
    """VRP and VRS at each threshold, by configuration name."""
    variants: dict[str, dict] = {"vrp": {"mechanism": "vrp"}}
    for threshold in thresholds:
        variants[f"vrs_{int(threshold)}nj"] = {"mechanism": "vrs", "threshold_nj": threshold}
    return variants


def _map_with_baseline(variants: dict[str, dict]) -> tuple[dict, dict[str, dict]]:
    """The suite's baseline and every named variant, mapped in one call,
    so each workload's points share their build, analysis and run."""
    baseline, *configured = default_engine().map_suites({"mechanism": "none"}, *variants.values())
    return baseline, dict(zip(variants, configured))


def _structure_savings(baseline: dict, configured: dict, policy: str) -> dict[str, float]:
    """Average per-structure savings of ``configured`` under ``policy`` vs the baseline."""
    sums = {name: 0.0 for name in list(STRUCTURES) + ["processor"]}
    for name in SUITE_NAMES:
        base = baseline[name].outcome("baseline").energy
        other = configured[name].outcome(policy).energy
        for structure, saving in other.savings_vs(base).items():
            sums[structure] += saving
    return {structure: total / len(SUITE_NAMES) for structure, total in sums.items()}


def figure03_vrp_energy_by_structure() -> dict[str, float]:
    """Figure 3: per-structure energy savings of VRP (software gating)."""
    baseline, configured = _map_with_baseline({"vrp": {"mechanism": "vrp"}})
    return _structure_savings(baseline, configured["vrp"], "software")


def figure09_energy_by_structure(
    thresholds: tuple[float, ...] = VRS_THRESHOLDS_NJ,
) -> dict[str, dict[str, float]]:
    """Figure 9: per-structure savings of VRP and of VRS at each threshold."""
    baseline, configured = _map_with_baseline(_software_variants(thresholds))
    return {
        config_name: _structure_savings(baseline, evaluations, "software")
        for config_name, evaluations in configured.items()
    }


def figure08_energy_savings_by_benchmark(
    thresholds: tuple[float, ...] = VRS_THRESHOLDS_NJ,
) -> dict[str, dict[str, float]]:
    """Figure 8: whole-processor energy savings per benchmark.

    Returns ``{configuration: {benchmark: fractional saving, ..., "average": x}}``.
    """
    baseline, configured = _map_with_baseline(_software_variants(thresholds))
    results: dict[str, dict[str, float]] = {}
    for config_name, evaluations in configured.items():
        per_benchmark: dict[str, float] = {}
        for name in SUITE_NAMES:
            base = baseline[name].outcome("baseline").energy
            other = evaluations[name].outcome("software").energy
            per_benchmark[name] = other.savings_vs(base)["processor"]
        per_benchmark["average"] = sum(per_benchmark.values()) / len(SUITE_NAMES)
        results[config_name] = per_benchmark
    return results


# ----------------------------------------------------------------------
# Hardware-scheme energy savings
# ----------------------------------------------------------------------
def figure13_hardware_energy_savings() -> dict[str, dict[str, float]]:
    """Figure 13: per-benchmark energy savings of the two hardware schemes."""
    baseline = default_engine().map_suite(mechanism="none")
    results: dict[str, dict[str, float]] = {}
    for config_name, policy in (("size_compression", "hw-size"), ("significance_compression", "hw-significance")):
        per_benchmark: dict[str, float] = {}
        for name in SUITE_NAMES:
            base = baseline[name].outcome("baseline").energy
            other = baseline[name].outcome(policy).energy
            per_benchmark[name] = other.savings_vs(base)["processor"]
        per_benchmark["average"] = sum(per_benchmark.values()) / len(SUITE_NAMES)
        results[config_name] = per_benchmark
    return results


def figure14_hardware_energy_by_structure() -> dict[str, dict[str, float]]:
    """Figure 14: per-structure energy savings of the two hardware schemes."""
    baseline = default_engine().map_suite(mechanism="none")
    results: dict[str, dict[str, float]] = {}
    for config_name, policy in (("size_compression", "hw-size"), ("significance_compression", "hw-significance")):
        sums = {name: 0.0 for name in list(STRUCTURES) + ["processor"]}
        for name in SUITE_NAMES:
            base = baseline[name].outcome("baseline").energy
            other = baseline[name].outcome(policy).energy
            for structure, saving in other.savings_vs(base).items():
                sums[structure] += saving
        results[config_name] = {
            structure: total / len(SUITE_NAMES) for structure, total in sums.items()
        }
    return results
