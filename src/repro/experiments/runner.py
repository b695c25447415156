"""Shared experiment plumbing: build → transform → simulate → account.

Every table/figure module composes the same few steps: compile a workload,
optionally apply VRP or VRS, run the functional simulator on the reference
input, feed the trace to the timing model and the energy accountant under a
chosen gating policy.  The live pipeline lives here
(:func:`_compute_evaluation`, surfaced as
:meth:`~repro.experiments.engine.ExperimentEngine.compute`); callers go
through the :class:`~repro.experiments.engine.ExperimentEngine` session
API (``evaluate``/``map``/``map_suite``/``sweep``), which memoizes
evaluations in-process, persists their summaries to the on-disk
:class:`~repro.experiments.store.ResultStore` and fans independent
configurations out across worker processes.  A hand-built
:class:`~repro.ir.Program` is evaluated by composing the pieces directly:
:class:`~repro.sim.Machine` → :class:`~repro.uarch.OutOfOrderModel` →
:class:`~repro.power.EnergyAccountant`.

A :class:`WorkloadEvaluation` therefore comes in two flavours: *live* (just
simulated in this process; carries the program, trace and run) and
*restored* (served from the store; carries only the persisted summary).
Every accessor the figure functions use works identically on both.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .. import settings
from ..core import VRPConfig, VRSConfig, VRSResult, apply_widths, run_vrp, run_vrs
from ..core.vrp import VRPResult
from ..hardware import gating
from ..ir import Program
from ..isa import Width
from ..power import EnergyBreakdown, MultiPolicyEnergyAccountant
from ..sim import Machine, RunResult, Trace
from ..uarch import MachineConfig, OutOfOrderModel, TimingMemo, TimingResult
from ..workloads import Workload
from .summary import (
    EvaluationSummary,
    aggregate_trace,
    runtime_specialization_fractions,
    vrp_stats,
    vrs_stats,
)

__all__ = [
    "POLICY_NAMES",
    "SharedWork",
    "SimulationOutcome",
    "WorkloadEvaluation",
    "artifact_from_evaluation",
]

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..sim.snapshot import SimulationArtifact


@dataclass
class SimulationOutcome:
    """One (program, gating policy) simulation."""

    policy: str
    run: Optional[RunResult]
    timing: TimingResult
    energy: EnergyBreakdown

    @property
    def cycles(self) -> int:
        return self.timing.cycles

    @property
    def ed2(self) -> float:
        return self.energy.energy_delay_squared()


@dataclass
class WorkloadEvaluation:
    """All simulated configurations of one workload.

    The functional run and the timing model run once per (mechanism,
    threshold); energy accounting under different gating policies reuses
    the same trace and timing result.  A *restored* evaluation (served from
    the persistent result store) has ``program``/``trace``/``run`` set to
    ``None`` and answers every query from its :class:`EvaluationSummary`.
    """

    workload: Workload
    program: Optional[Program]
    #: Live evaluations carry either a full :class:`Trace` (materialized
    #: pipeline) or a :class:`~repro.sim.fusedc.ShapeAggregate` (fused
    #: pipeline) — every accessor below (energy accounting, the four
    #: dynamic distributions) consumes both identically.  Restored
    #: evaluations carry ``None``.
    trace: Optional[Trace]
    run: Optional[RunResult]
    timing: TimingResult
    vrp_result: Optional[VRPResult] = None
    vrs_result: Optional[VRSResult] = None
    outcomes: dict[str, SimulationOutcome] = field(default_factory=dict)
    mechanism: str = "none"
    threshold_nj: float = 50.0
    conventional_vrp: bool = False
    summary: Optional[EvaluationSummary] = None
    #: True when this process ran the simulation (False: served from disk).
    freshly_computed: bool = False
    #: True when this evaluation was rebuilt by replaying a stored binary
    #: trace snapshot (timing + accounting ran, the simulator did not).
    replayed_from_store: bool = False
    #: Which live pipeline produced this evaluation: ``"materialized"``
    #: (simulate → trace → timing walk) or ``"fused"`` (one streaming
    #: pass, no trace; see ``docs/fused.md``).  Restored evaluations keep
    #: the default — no pipeline ran in this process.
    pipeline: str = "materialized"
    _aggregates: Optional[tuple] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_summary(cls, workload: Workload, summary: EvaluationSummary) -> "WorkloadEvaluation":
        """Rebuild an evaluation from a persisted summary (no simulation)."""
        return cls(
            workload=workload,
            program=None,
            trace=None,
            run=None,
            timing=summary.timing,
            mechanism=summary.mechanism,
            threshold_nj=summary.threshold_nj,
            conventional_vrp=summary.conventional_vrp,
            summary=summary,
        )

    @property
    def is_restored(self) -> bool:
        """True when this evaluation was served from the result store."""
        return self.trace is None

    @property
    def total_dynamic_instructions(self) -> int:
        """Dynamic instruction count of the functional run."""
        if self.run is not None:
            return self.run.instructions
        return self.summary.instructions

    # ------------------------------------------------------------------
    # Energy outcomes
    # ------------------------------------------------------------------
    def outcome(self, policy_name: str = "baseline") -> SimulationOutcome:
        """Energy/timing outcome under the named gating policy (cached).

        On the live path, the first request accounts *all* stored policies
        (:data:`POLICY_NAMES`) in one fused trace walk and caches every
        sibling outcome for free — so a cold :meth:`summarize` performs
        exactly one trace walk for energy accounting.
        """
        if policy_name not in self.outcomes:
            if self.trace is not None:
                # gating.get raises the improved KeyError for unknown
                # names; every known policy is in POLICY_NAMES, so one
                # fused walk fills every cache entry at once.
                gating.get(policy_name)
                accountant = MultiPolicyEnergyAccountant(gating.registry())
                for name, energy in accountant.account(self.trace, self.timing).items():
                    self.outcomes.setdefault(
                        name,
                        SimulationOutcome(
                            policy=name, run=self.run, timing=self.timing, energy=energy
                        ),
                    )
            else:
                energy = self.summary.energies.get(policy_name)
                if energy is None:
                    raise KeyError(
                        f"policy {policy_name!r} is not part of the stored summary for "
                        f"workload {self.workload.name!r}; available: "
                        f"{', '.join(sorted(self.summary.energies))}"
                    )
                self.outcomes[policy_name] = SimulationOutcome(
                    policy=policy_name, run=self.run, timing=self.timing, energy=energy
                )
        return self.outcomes[policy_name]

    # ------------------------------------------------------------------
    # Dynamic distributions (live: from the trace; restored: from summary)
    # ------------------------------------------------------------------
    def _trace_aggregates(self) -> tuple:
        """All four trace distributions, computed in one walk and cached."""
        if self._aggregates is None:
            self._aggregates = aggregate_trace(self.trace)
        return self._aggregates

    def dynamic_width_distribution(self) -> dict[Width, int]:
        """Dynamic instruction counts per encoded (software) width."""
        if self.trace is not None:
            return dict(self._trace_aggregates()[0])
        return dict(self.summary.width_distribution)

    def counted_width_counts(self) -> dict[Width, int]:
        """Width counts over the integer-computation instruction kinds."""
        if self.trace is not None:
            return dict(self._trace_aggregates()[1])
        return dict(self.summary.counted_widths)

    def result_size_histogram(self) -> dict[int, int]:
        """Histogram of result-value significant-byte sizes (Figure 12)."""
        if self.trace is not None:
            return dict(self._trace_aggregates()[2])
        return dict(self.summary.result_sizes)

    def operation_type_width_counts(self) -> dict[str, dict[Width, int]]:
        """Per-operation-type dynamic width counts (Table 3)."""
        if self.trace is not None:
            per_type = self._trace_aggregates()[3]
        else:
            per_type = self.summary.operation_types
        return {op_type: dict(widths) for op_type, widths in per_type.items()}

    # ------------------------------------------------------------------
    # Specialization statistics (Figures 4, 5, 6)
    # ------------------------------------------------------------------
    def vrp_statistics(self) -> Optional[dict]:
        """VRP summary statistics, or None when VRP did not run."""
        if self.vrp_result is not None:
            return vrp_stats(self.vrp_result)
        return self.summary.vrp if self.summary is not None else None

    def vrs_statistics(self) -> Optional[dict]:
        """VRS point/static statistics, or None when VRS did not run."""
        if self.vrs_result is not None:
            return vrs_stats(self.vrs_result)
        return self.summary.vrs if self.summary is not None else None

    def runtime_specialization(self) -> Optional[dict]:
        """Executed-instruction specialization fractions (Figure 6)."""
        if self.vrs_result is not None and self.program is not None and self.run is not None:
            return runtime_specialization_fractions(self.program, self.run, self.vrs_result)
        return self.summary.runtime_specialization if self.summary is not None else None

    # ------------------------------------------------------------------
    # Summarization
    # ------------------------------------------------------------------
    def summarize(self) -> EvaluationSummary:
        """Aggregate this evaluation into its persistable summary (cached).

        Energy breakdowns for *every* gating policy are materialized so a
        restored evaluation can answer any ``outcome()`` request without
        the trace.  All of them come from a single fused trace walk
        (:class:`~repro.power.MultiPolicyEnergyAccountant` via
        :meth:`outcome`), not one walk per policy.
        """
        if self.summary is not None:
            return self.summary
        energies = {name: self.outcome(name).energy for name in POLICY_NAMES}
        width_distribution, counted_widths, result_sizes, operation_types = (
            self._trace_aggregates()
        )
        self.summary = EvaluationSummary(
            workload=self.workload.name,
            mechanism=self.mechanism,
            threshold_nj=self.threshold_nj,
            conventional_vrp=self.conventional_vrp,
            instructions=self.run.instructions,
            output=list(self.run.output),
            timing=self.timing,
            energies=energies,
            width_distribution=width_distribution,
            counted_widths=counted_widths,
            result_sizes=result_sizes,
            operation_types=operation_types,
            vrp=vrp_stats(self.vrp_result) if self.vrp_result is not None else None,
            vrs=vrs_stats(self.vrs_result) if self.vrs_result is not None else None,
            runtime_specialization=(
                runtime_specialization_fractions(self.program, self.run, self.vrs_result)
                if self.vrs_result is not None
                else None
            ),
        )
        return self.summary


#: Gating policies materialized in every stored summary — the canonical
#: configuration names of the public registry (``gating.registry()``), in
#: paper order.
POLICY_NAMES = tuple(gating.registry())


# ----------------------------------------------------------------------
# One full build → transform → simulate pipeline (live path)
# ----------------------------------------------------------------------
#: Per-process sequence for simulation probe filenames (see below).
_PROBE_SEQ = itertools.count()


def _touch_sim_probe(workload: Workload, mechanism: str) -> None:
    """Drop one marker file per live compute into ``REPRO_SIM_PROBE_DIR``.

    Cross-process observable instrumentation: tests (and the CI service
    smoke) count the files to assert "N identical submissions cost
    exactly one live compute" without trusting any in-process counter.
    The marker is dropped per compute, not per simulation: a compute
    that reuses its workload group's previous traced run
    (:class:`SharedWork`) drops one too.
    ``O_EXCL`` plus a pid/sequence name makes every marker unique even
    when many workers probe concurrently.  No-op unless the variable is
    set; always best-effort.
    """
    probe_dir = settings.get("REPRO_SIM_PROBE_DIR")
    if probe_dir is None:
        return
    name = (
        f"{workload.name}-{mechanism}-{os.getpid()}-"
        f"{next(_PROBE_SEQ)}-{time.time_ns()}.probe"
    )
    try:
        os.makedirs(probe_dir, exist_ok=True)
        fd = os.open(os.path.join(probe_dir, name), os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        os.close(fd)
    except OSError:
        pass


def _compute_evaluation(
    workload: Workload,
    mechanism: str = "none",
    threshold_nj: float = 50.0,
    conventional_vrp: bool = False,
    machine_config: Optional[MachineConfig] = None,
    pipeline: str = "materialized",
    memo: Optional[TimingMemo] = None,
    shared: Optional["SharedWork"] = None,
) -> WorkloadEvaluation:
    """Build, transform and simulate one workload configuration (uncached).

    This is the live pipeline behind :meth:`ExperimentEngine.compute`
    and every cold compute of the engine's cache-miss resolver, which
    passes its engine's timing ``memo``: a materialized trace is then
    timed through it, and walked only when no timing-identical trace
    was timed under ``machine_config`` before.

    ``shared`` is the work of ``workload``'s group (:class:`SharedWork`),
    which :meth:`ExperimentEngine.map`'s serial loop passes for every
    point of a workload; any other caller computes a group of one.  The
    program is a copy of the group's one build, VRP's analysis comes
    from the group (the ``vrp`` point applies it, ``run_vrs`` takes it
    as its first analysis), and a materialized run equal to the group's
    previous traced run reuses it instead of simulating.

    ``pipeline`` selects how the simulation outputs are produced:
    ``"materialized"`` simulates with a full columnar trace and walks it
    for timing; ``"fused"`` simulates, times and aggregates accounting
    shapes in one streaming pass without ever materializing the trace
    (``Machine.run(pipeline="fused")``; see ``docs/fused.md``).  Both are
    bit-identical in every figure the evaluation can answer; only a fused
    evaluation cannot feed the binary trace-snapshot store.

    Note the per-mechanism ordering: the ``Machine`` is built only
    *after* the VRP/VRS transformation mutated the program, because
    machines snapshot the program into their compiled artifacts.
    """
    if pipeline not in ("materialized", "fused"):
        raise ValueError(
            f"unknown pipeline {pipeline!r}; expected 'materialized' or 'fused'"
        )
    if mechanism not in ("none", "vrp", "vrs"):
        raise ValueError(f"unknown mechanism {mechanism!r}; expected 'none', 'vrp' or 'vrs'")
    if shared is None:
        shared = SharedWork(workload)
    _touch_sim_probe(workload, mechanism)
    program = shared.program()
    vrp_result = None
    vrs_result = None
    if mechanism == "vrp":
        config = VRPConfig().conventional() if conventional_vrp else VRPConfig()
        workload.apply_input(program, "ref")
        vrp_result = shared.vrp(config)
        apply_widths(program, vrp_result)
    elif mechanism == "vrs":
        workload.apply_input(program, "train")
        config = VRSConfig(threshold_nj=threshold_nj)
        vrs_result = run_vrs(program, config, vrp_before=shared.vrp(config.vrp))
        vrp_result = vrs_result.vrp_after
    workload.apply_input(program, "ref")
    machine = Machine(program)
    if pipeline == "fused":
        run = machine.run(pipeline="fused", machine_config=machine_config)
        trace = run.fused.shapes
        timing = run.fused.timing
    else:
        run = shared.traced_run(machine)
        trace = run.trace
        if memo is None:
            timing = OutOfOrderModel(machine_config).run(trace)
        else:
            (timing,) = memo.time(trace, [machine_config])
    return WorkloadEvaluation(
        workload=workload,
        program=program,
        trace=trace,
        run=run,
        timing=timing,
        vrp_result=vrp_result,
        vrs_result=vrs_result,
        mechanism=mechanism,
        threshold_nj=threshold_nj,
        conventional_vrp=conventional_vrp,
        pipeline=pipeline,
    )


class SharedWork:
    """The work one workload's points share within one :meth:`ExperimentEngine.map`.

    The engine makes one per workload group of its serial loop and drops
    it when the group ends, so it holds at most one workload's build,
    analyses and extra trace; every other compute (:meth:`evaluate`,
    :meth:`compute`, pool workers, sweeps) is a group of one point,
    which :func:`_compute_evaluation` makes itself.  It holds:

    * one pristine :meth:`Workload.build`, which :meth:`program` copies
      for every point after the first, so the group's programs share
      uids (kept pickled: a pickle round trip is a deep copy at a tenth
      of ``copy.deepcopy``'s cost);
    * one VRP analysis per :class:`VRPConfig` (:meth:`vrp`), which reads
      code only, so points that install different inputs share it;
    * the previous traced run and its :meth:`Machine.traced_run_key`
      (:meth:`traced_run`), so a program equal to the previous one — a
      ``vrs`` build in which VRS specialized nothing equals its ``vrp``
      build — reuses that run instead of simulating.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._build: Optional[bytes] = None
        self._analyses: dict[VRPConfig, VRPResult] = {}
        self._run: Optional[tuple[tuple, RunResult]] = None

    def program(self) -> Program:
        """A fresh copy of the group's build (the first call gets the
        build itself)."""
        # Imported here: a process that never computes (a sweep replaying
        # its snapshots) does not load the module (about 180 KiB resident).
        import pickle

        if self._build is None:
            program = self.workload.build()
            self._build = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
            return program
        return pickle.loads(self._build)

    def vrp(self, config: VRPConfig) -> VRPResult:
        """``run_vrp`` of the group's build under ``config``, run once.

        It analyses a copy of its own and narrows that copy with its
        widths, so the instructions the analysis holds carry them, as
        ``run_vrs`` requires of a first analysis it is given.
        """
        result = self._analyses.get(config)
        if result is None:
            program = self.program()
            result = run_vrp(program, config)
            apply_widths(program, result)
            self._analyses[config] = result
        return result

    def traced_run(self, machine: Machine) -> RunResult:
        """``machine.run(collect_trace=True)``, or the previous traced run
        when its key equals ``machine``'s (:meth:`Machine.adopt_traced_run`)."""
        key = machine.traced_run_key()
        if self._run is not None and self._run[0] == key:
            return machine.adopt_traced_run(self._run[1])
        self._run = None  # free the previous trace before this run builds one
        run = machine.run(collect_trace=True)
        self._run = (key, run)
        return run


# ----------------------------------------------------------------------
# Trace snapshots (replayed by repro.experiments.engine._replay)
# ----------------------------------------------------------------------
def artifact_from_evaluation(evaluation: WorkloadEvaluation) -> "SimulationArtifact":
    """Package a live evaluation's simulation outputs for the trace store."""
    from ..sim.snapshot import SimulationArtifact

    summary = evaluation.summarize()
    return SimulationArtifact(
        trace=evaluation.trace,
        instructions=summary.instructions,
        output=list(summary.output),
        vrp=summary.vrp,
        vrs=summary.vrs,
        runtime_specialization=summary.runtime_specialization,
    )
