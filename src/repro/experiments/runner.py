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

A :class:`WorkloadEvaluation` answers every query from its
:class:`~repro.experiments.summary.EvaluationSummary`, built here for a
computed point as the engine builds it for a replayed snapshot
(:func:`~repro.experiments.summary.summarize_lanes`).  A *live* one also
carries the program, trace and run; a *restored* one only its summaries.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .. import settings
from ..core import VRPConfig, VRSConfig, VRSResult, VRSTraining, apply_widths, run_vrp, run_vrs
from ..core.vrp import VRPResult
from ..hardware import gating
from ..ir import Program
from ..isa import Width
from ..power import EnergyBreakdown
from ..sim import Machine, RunResult, Trace
from ..sim.snapshot import SimulationArtifact
from ..uarch import MachineConfig, TimingMemo, TimingResult, run_compiled_many
from ..workloads import Workload
from .summary import (
    EvaluationSummary,
    runtime_specialization_fractions,
    summarize_lanes,
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
    """One evaluated point: its summaries, and what a live compute keeps.

    ``summaries`` holds one :class:`EvaluationSummary` per machine config
    of the point's group, its own (:attr:`summary`) first, and every
    accessor below answers from :attr:`summary`.  Only a *live*
    evaluation (computed in this process) carries ``program``,
    ``trace``, ``run`` and the analysis results; a *restored* one has
    ``None`` there.
    """

    workload: Workload
    summaries: list[EvaluationSummary]
    program: Optional[Program] = None
    #: A full :class:`Trace`, or a fused run's
    #: :class:`~repro.sim.fusedc.ShapeAggregate`.
    trace: Optional[Trace] = None
    run: Optional[RunResult] = None
    vrp_result: Optional[VRPResult] = None
    vrs_result: Optional[VRSResult] = None
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_summary(cls, workload: Workload, summary: EvaluationSummary) -> "WorkloadEvaluation":
        """Rebuild an evaluation from a persisted summary (no simulation)."""
        return cls(workload=workload, summaries=[summary])

    @property
    def summary(self) -> EvaluationSummary:
        """The point's own summary (the first lane's)."""
        return self.summaries[0]

    @property
    def is_restored(self) -> bool:
        """True when this evaluation was served from the result store."""
        return self.trace is None

    @property
    def mechanism(self) -> str:
        return self.summary.mechanism

    @property
    def threshold_nj(self) -> float:
        return self.summary.threshold_nj

    @property
    def conventional_vrp(self) -> bool:
        return self.summary.conventional_vrp

    @property
    def timing(self) -> TimingResult:
        """Timing result of the point's machine config."""
        return self.summary.timing

    @property
    def total_dynamic_instructions(self) -> int:
        """Dynamic instruction count of the functional run."""
        return self.summary.instructions

    # ------------------------------------------------------------------
    # Energy outcomes
    # ------------------------------------------------------------------
    def outcome(self, policy_name: str = "baseline") -> SimulationOutcome:
        """Energy/timing outcome under the named gating policy.

        The summary holds the breakdown of every policy of
        :data:`POLICY_NAMES`; any other name raises :class:`KeyError`.
        """
        energy = self.summary.energies.get(policy_name)
        if energy is None:
            raise KeyError(
                f"policy {policy_name!r} is not part of the stored summary for "
                f"workload {self.workload.name!r}; valid policies: "
                f"{', '.join(sorted(self.summary.energies))}"
            )
        return SimulationOutcome(
            policy=policy_name, run=self.run, timing=self.timing, energy=energy
        )

    # ------------------------------------------------------------------
    # Dynamic distributions
    # ------------------------------------------------------------------
    def dynamic_width_distribution(self) -> dict[Width, int]:
        """Dynamic instruction counts per encoded (software) width."""
        return dict(self.summary.width_distribution)

    def counted_width_counts(self) -> dict[Width, int]:
        """Width counts over the integer-computation instruction kinds."""
        return dict(self.summary.counted_widths)

    def result_size_histogram(self) -> dict[int, int]:
        """Histogram of result-value significant-byte sizes (Figure 12)."""
        return dict(self.summary.result_sizes)

    def operation_type_width_counts(self) -> dict[str, dict[Width, int]]:
        """Per-operation-type dynamic width counts (Table 3)."""
        return {
            op_type: dict(widths) for op_type, widths in self.summary.operation_types.items()
        }

    # ------------------------------------------------------------------
    # Specialization statistics (Figures 4, 5, 6)
    # ------------------------------------------------------------------
    def vrp_statistics(self) -> Optional[dict]:
        """VRP summary statistics, or None when VRP did not run."""
        return self.summary.vrp

    def vrs_statistics(self) -> Optional[dict]:
        """VRS point/static statistics, or None when VRS did not run."""
        return self.summary.vrs

    def runtime_specialization(self) -> Optional[dict]:
        """Executed-instruction specialization fractions (Figure 6)."""
        return self.summary.runtime_specialization

    # ------------------------------------------------------------------
    # Summarization
    # ------------------------------------------------------------------
    def summarize(self) -> EvaluationSummary:
        """This evaluation's persistable summary (:attr:`summary`)."""
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
    that adopts a traced run its workload group holds
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
    other_lanes: Sequence[MachineConfig] = (),
) -> WorkloadEvaluation:
    """Build, transform, simulate and summarize one workload configuration (uncached).

    This is the live pipeline behind :meth:`ExperimentEngine.compute`
    and every cold compute of the engine's cache-miss resolver.  It
    summarizes ``machine_config`` and each of a sweep group's
    ``other_lanes`` (:func:`~repro.experiments.summary.summarize_lanes`,
    after dropping the ``Machine``), timing a materialized trace under
    all of them in one call: through the resolver's timing ``memo``, or
    :func:`~repro.uarch.run_compiled_many` without one.

    ``shared`` is the work of ``workload``'s group (:class:`SharedWork`),
    which :meth:`ExperimentEngine.map`'s serial loop passes for every
    point of a workload; any other caller computes a group of one.  The
    program is a copy of the group's one build, VRP's analysis comes
    from the group (the ``vrp`` point applies it, ``run_vrs`` takes it
    as its first analysis), so does VRS's training
    (:meth:`SharedWork.vrs`), and a materialized run that provably
    equals a traced run the group holds adopts it instead of simulating
    (:meth:`SharedWork.traced_run`).

    ``pipeline`` selects how the simulation outputs are produced:
    ``"materialized"`` simulates with a full columnar trace and walks it
    for timing; ``"fused"`` simulates, times and aggregates accounting
    shapes in one streaming pass without ever materializing the trace
    (``Machine.run(pipeline="fused")``; see ``docs/fused.md``), one
    fused run per lane.  Both are bit-identical in every figure the
    evaluation can answer; only a fused evaluation cannot feed the
    binary trace-snapshot store.

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
        vrs_result = shared.vrs(program, VRSConfig(threshold_nj=threshold_nj))
        vrp_result = vrs_result.vrp_after
    workload.apply_input(program, "ref")
    machine = Machine(program)
    if pipeline == "fused":
        run = machine.run(pipeline="fused", machine_config=machine_config)
        trace = run.fused.shapes
        timings = [run.fused.timing] + [
            machine.run(pipeline="fused", machine_config=lane).fused.timing
            for lane in other_lanes
        ]
    else:
        run = shared.traced_run(machine, mechanism)
        trace = run.trace
        timings = _time(trace, [machine_config, *other_lanes], memo)
    del machine  # unreachable (its compiled programs too) before summarizing
    artifact = SimulationArtifact(
        trace=trace,
        instructions=run.instructions,
        output=list(run.output),
        vrp=vrp_stats(vrp_result) if vrp_result is not None else None,
        vrs=vrs_stats(vrs_result) if vrs_result is not None else None,
        runtime_specialization=(
            runtime_specialization_fractions(program, run, vrs_result)
            if vrs_result is not None
            else None
        ),
    )
    return WorkloadEvaluation(
        workload=workload,
        summaries=summarize_lanes(
            workload, mechanism, threshold_nj, conventional_vrp, artifact, timings
        ),
        program=program,
        trace=trace,
        run=run,
        vrp_result=vrp_result,
        vrs_result=vrs_result,
        pipeline=pipeline,
    )


def _time(
    trace: Trace, lanes: Sequence[Optional[MachineConfig]], memo: Optional[TimingMemo]
) -> list[TimingResult]:
    """``trace`` timed under ``lanes``: through ``memo``, or walked without one."""
    return run_compiled_many(trace, lanes) if memo is None else memo.time(trace, lanes)


class SharedWork:
    """The work one workload's points share within one :meth:`ExperimentEngine.map`.

    The engine makes one per workload group of its serial loop and drops
    it when the group ends, so it holds at most one workload's build,
    analyses and held runs; every other compute (:meth:`evaluate`,
    :meth:`compute`, pool workers, sweeps) is a group of one point,
    which :func:`_compute_evaluation` makes itself and which therefore
    never adopts.  It holds:

    * one pristine :meth:`Workload.build`, which :meth:`program` copies
      for every point after the first, so the group's programs share
      uids (kept pickled: a pickle round trip is a deep copy at a tenth
      of ``copy.deepcopy``'s cost);
    * one VRP analysis per :class:`VRPConfig` (:meth:`vrp`), which reads
      code only, so points that install different inputs share it;
    * the first ``vrs`` point's training (:meth:`vrs`), which later
      ``vrs`` points whose configurations train alike (any threshold)
      reuse instead of running the train input again;
    * the previous traced run and its :meth:`Machine.traced_run_key`
      (:meth:`traced_run`), so a program equal to the previous one — a
      ``vrs`` build in which VRS specialized nothing equals its ``vrp``
      build — reuses that run instead of simulating;
    * the ``none`` point's traced run, which a ``vrp`` point adopts when
      that run shows every narrowed result fits its new width.

    A point that simulates frees both runs first, so the group holds no
    trace besides the one being built (an adopted trace shares the
    held run's columns).
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._build: Optional[bytes] = None
        self._analyses: dict[VRPConfig, VRPResult] = {}
        self._training: Optional[VRSTraining] = None
        self._base: Optional[tuple[tuple, RunResult]] = None
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

    def vrs(self, program: Program, config: VRSConfig) -> VRSResult:
        """``run_vrs`` of ``program`` (a copy of the group's build with
        the ``train`` input) under ``config``, starting from the group's
        analysis and, when it :meth:`~VRSTraining.serves` ``config``,
        the group's training, which the group's first ``vrs`` point
        leaves."""
        training = self._training
        result = run_vrs(
            program,
            config,
            vrp_before=self.vrp(config.vrp),
            training=training if training is not None and training.serves(config) else None,
        )
        if training is None:
            self._training = result.training
        return result

    def traced_run(self, machine: Machine, mechanism: str) -> RunResult:
        """``machine.run(collect_trace=True)``, or a held run it equals.

        ``mechanism`` says how ``machine``'s program derives from the
        group's build with the ``ref`` input: ``none`` runs it as built,
        ``vrp`` narrows it by ``apply_widths`` alone, ``vrs`` transforms
        it further.  ``machine`` adopts (:meth:`Machine.adopt_traced_run`)
        the previous traced run when their keys are equal, and a ``vrp``
        machine the ``none`` run when their keys differ in the source
        alone and that run shows every narrowed result fits
        (:meth:`Machine.narrowing_holds`).  Otherwise the held runs are
        freed and ``machine`` simulates.
        """
        key = machine.traced_run_key()
        if self._run is not None and self._run[0] == key:
            run = machine.adopt_traced_run(self._run[1])
        elif (
            mechanism == "vrp"
            and self._base is not None
            and self._base[0][1:] == key[1:]
            and machine.narrowing_holds(self._base[1])
        ):
            run = machine.adopt_traced_run(self._base[1])
        else:
            self._base = self._run = None  # free the held traces before this run builds one
            run = machine.run(collect_trace=True)
        self._run = (key, run)
        if mechanism == "none":
            self._base = self._run
        return run


# ----------------------------------------------------------------------
# Trace snapshots (replayed by repro.experiments.engine._replay)
# ----------------------------------------------------------------------
def artifact_from_evaluation(evaluation: WorkloadEvaluation) -> SimulationArtifact:
    """Package a live evaluation's simulation outputs for the trace store."""
    summary = evaluation.summary
    return SimulationArtifact(
        trace=evaluation.trace,
        instructions=summary.instructions,
        output=list(summary.output),
        vrp=summary.vrp,
        vrs=summary.vrs,
        runtime_specialization=summary.runtime_specialization,
    )
