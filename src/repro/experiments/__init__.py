"""Experiment harness: the engine session API plus one function per paper artefact.

The blessed programmatic surface is the :class:`ExperimentEngine` session
API on :func:`default_engine`:

* ``engine.evaluate(point)`` — resolve one :class:`ExperimentConfig`
  through memo → store → snapshot replay → compute,
* ``engine.map(points)`` / ``engine.map_suite(...)`` /
  ``engine.map_suites(*variants)`` — many points, in parallel where
  possible,
* ``engine.sweep(spec)`` — a batched design-space matrix
  (:class:`SweepSpec` → streamed :class:`SweepRow` rows; see
  ``docs/sweeps.md``),
* ``engine.compute(point)`` — the uncached live pipeline (trace attached).

Evaluation is fault tolerant (see ``docs/resilience.md``): the pool
fan-out runs under :func:`supervised_map` with retries and staged
degradation, ``on_error="keep"`` turns per-point failures into
error-carrying summaries/rows instead of aborted sweeps,
:meth:`ResultStore.fsck` verifies and quarantines corrupt store files,
and the :mod:`~repro.experiments.chaos` harness injects deterministic
faults for testing (``REPRO_CHAOS``).

A hand-built :class:`~repro.ir.Program` (no registered workload) is
evaluated by composing the pieces directly: :class:`~repro.sim.Machine` →
:class:`~repro.uarch.OutOfOrderModel` → :class:`~repro.power.EnergyAccountant`
under a policy from :func:`repro.hardware.gating.get`.

| Paper artefact | Function |
|---|---|
| Table 1   | :func:`table1_alu_energy_matrix` |
| Table 3   | :func:`table3_operation_distribution` |
| Figure 2  | :func:`figure02_vrp_width_distribution` |
| Figure 3  | :func:`figure03_vrp_energy_by_structure` |
| Figure 4  | :func:`figure04_profiled_point_distribution` |
| Figure 5  | :func:`figure05_static_specialized_instructions` |
| Figure 6  | :func:`figure06_runtime_specialized_instructions` |
| Figure 7  | :func:`figure07_width_by_mechanism` |
| Figure 8  | :func:`figure08_energy_savings_by_benchmark` |
| Figure 9  | :func:`figure09_energy_by_structure` |
| Figure 10 | :func:`figure10_execution_time_savings` |
| Figure 11 | :func:`figure11_ed2_savings` |
| Figure 12 | :func:`figure12_data_size_distribution` |
| Figure 13 | :func:`figure13_hardware_energy_savings` |
| Figure 14 | :func:`figure14_hardware_energy_by_structure` |
| Figure 15 | :func:`figure15_combined_ed2_savings` |
| §6 headline | :func:`headline_ed2_summary` |
| §4.1 overhead | :func:`vrp_analysis_overhead` |
"""

from .distributions import (
    dynamic_width_fractions,
    figure02_vrp_width_distribution,
    figure07_width_by_mechanism,
    figure12_data_size_distribution,
    table3_operation_distribution,
)
from .energy import (
    STRUCTURE_ORDER,
    VRS_THRESHOLDS_NJ,
    figure03_vrp_energy_by_structure,
    figure08_energy_savings_by_benchmark,
    figure09_energy_by_structure,
    figure13_hardware_energy_savings,
    figure14_hardware_energy_by_structure,
    table1_alu_energy_matrix,
)
from .chaos import ChaosInjectedError, chaos_probe, parse_chaos_spec, reset_chaos
from .engine import ExperimentConfig, ExperimentEngine, default_engine, reset_default_engine
from .report import format_percent, format_table
from .resilience import (
    CorruptEntry,
    EvaluationError,
    ResourceExhausted,
    RetryPolicy,
    SimulationFault,
    TaskTimeout,
    WorkerCrash,
    classify_failure,
    supervised_map,
)
from .runner import POLICY_NAMES, SimulationOutcome, WorkloadEvaluation
from .store import FsckReport, ResultStore, StoreEntry, config_key, default_store_root
from .summary import EvaluationSummary
from .sweep import (
    SweepPoint,
    SweepResult,
    SweepRow,
    SweepSpec,
    default_sweep_configs,
)
from .specialization import (
    figure04_profiled_point_distribution,
    figure05_static_specialized_instructions,
    figure06_runtime_specialized_instructions,
)
from .timing import (
    FIGURE15_CONFIGURATIONS,
    figure10_execution_time_savings,
    figure11_ed2_savings,
    figure15_combined_ed2_savings,
    headline_ed2_summary,
    vrp_analysis_overhead,
)

__all__ = [
    "dynamic_width_fractions",
    "figure02_vrp_width_distribution",
    "figure07_width_by_mechanism",
    "figure12_data_size_distribution",
    "table3_operation_distribution",
    "STRUCTURE_ORDER",
    "VRS_THRESHOLDS_NJ",
    "figure03_vrp_energy_by_structure",
    "figure08_energy_savings_by_benchmark",
    "figure09_energy_by_structure",
    "figure13_hardware_energy_savings",
    "figure14_hardware_energy_by_structure",
    "table1_alu_energy_matrix",
    "format_percent",
    "format_table",
    "ExperimentConfig",
    "ExperimentEngine",
    "default_engine",
    "reset_default_engine",
    "SweepPoint",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "default_sweep_configs",
    "ResultStore",
    "StoreEntry",
    "FsckReport",
    "config_key",
    "default_store_root",
    "EvaluationSummary",
    "ChaosInjectedError",
    "chaos_probe",
    "parse_chaos_spec",
    "reset_chaos",
    "CorruptEntry",
    "EvaluationError",
    "ResourceExhausted",
    "RetryPolicy",
    "SimulationFault",
    "TaskTimeout",
    "WorkerCrash",
    "classify_failure",
    "supervised_map",
    "POLICY_NAMES",
    "SimulationOutcome",
    "WorkloadEvaluation",
    "figure04_profiled_point_distribution",
    "figure05_static_specialized_instructions",
    "figure06_runtime_specialized_instructions",
    "FIGURE15_CONFIGURATIONS",
    "figure10_execution_time_savings",
    "figure11_ed2_savings",
    "figure15_combined_ed2_savings",
    "headline_ed2_summary",
    "vrp_analysis_overhead",
]
