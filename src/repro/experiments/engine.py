"""Parallel experiment engine over the persistent result store.

The engine resolves every requested configuration through four layers:

1. an in-process memo (same object returned for repeated requests, so a
   pytest/benchmark session never simulates a configuration twice),
2. the content-addressed on-disk :class:`ResultStore` (a fresh process
   serves previously simulated configurations without touching the
   simulator at all),
3. the binary trace-snapshot layer of the same store: when only analysis
   code or the machine configuration changed, the summary key misses but
   the simulator-side snapshot key still hits, and the evaluation is
   *replayed* — timing model + fused accounting over the stored columnar
   trace, zero simulator steps,
4. a ``multiprocessing`` fan-out that computes the remaining
   configurations in worker processes — with a graceful single-process
   fallback when only one CPU is available, ``REPRO_JOBS=1`` is set, or
   pool creation fails (restricted sandboxes).

Layers 2 and 3 and the live compute are one resolver,
:func:`_resolve_miss`, whose unit is a trace-signature *group*: one
``(workload, mechanism, threshold, conventional VRP)`` trace scored
under one or more machine configs ("lanes").  A paper point is a group
of one lane — every memo miss of :meth:`ExperimentEngine.evaluate`, of
the serial loop of :meth:`ExperimentEngine.map` and of a pool worker —
and :meth:`ExperimentEngine.sweep` resolves one group per trace
signature of its matrix.  The resolver runs under the store's
cross-process single-flight lock on the first lane's key and publishes
what it computed before releasing it.  A live compute runs the
materialized pipeline unless the caller names the fused one
(:func:`_resolve_pipeline`), and the resolver times every materialized
trace through the engine's timing memo, which walks a timing-identical
trace (a workload's ``none`` and ``vrp`` builds) once per machine
config.  A compute and a replay summarize every lane of their group
through one builder (:func:`~repro.experiments.summary.summarize_lanes`):
one timing call and one accounting pass per group.
:meth:`ExperimentEngine.map`'s serial loop resolves its misses
workload by workload, and a workload's points share one build, one VRP
analysis per configuration, one VRS training and the traced runs a
later point provably equals (:class:`~repro.experiments.runner.SharedWork`).  Workers return plain
JSON-serializable summaries and the parent hands out *restored*
:class:`WorkloadEvaluation` objects, so parallel and serial evaluation
are observationally equivalent for every figure and table of the paper.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from typing import TYPE_CHECKING

from .. import settings
from ..sim.fusedc import _checked_pipeline
from ..uarch import MachineConfig, TimingMemo
from ..workloads import Workload, load_suite, workload_by_name
from .chaos import chaos_probe
from .resilience import (
    EvaluationError,
    RetryPolicy,
    classify_failure,
    supervised_map,
)
from .runner import (
    SharedWork,
    WorkloadEvaluation,
    _compute_evaluation,
    _time,
    artifact_from_evaluation,
)
from .store import ResultStore, config_key, trace_key
from .summary import EvaluationSummary, summarize_lanes

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from typing import Any, Iterator, Mapping

    from ..sim.snapshot import SimulationArtifact
    from .sweep import SweepRow, SweepSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentEngine",
    "default_engine",
    "reset_default_engine",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """One independent (workload, mechanism, threshold, policy-set) point."""

    workload: str
    mechanism: str = "none"
    threshold_nj: float = 50.0
    conventional_vrp: bool = False
    machine_config: Optional[MachineConfig] = None


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-process count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is None:
        jobs = settings.get("REPRO_JOBS")
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _resolve_pipeline(pipeline: str) -> str:
    """Resolve a pipeline request to ``"fused"`` or ``"materialized"``.

    ``"auto"`` is the materialized pipeline, for every point and sweep
    group: one block-tier simulation whose code the process compiled
    once, then a timing walk through the engine's timing memo, which a
    fused run cannot share.  An explicit name is kept as it is; the fused
    pipeline stays as a cross-check path.  Anything outside
    :data:`repro.sim.fusedc.PIPELINES` raises.
    """
    pipeline = _checked_pipeline(pipeline)
    return "materialized" if pipeline == "auto" else pipeline


def _failure_evaluation(
    config: ExperimentConfig, workload: Workload, error: EvaluationError
) -> WorkloadEvaluation:
    """An error-carrying evaluation for ``on_error="keep"`` degradation.

    Never memoized and never persisted: the zero-filled summary exists so
    a partially failed sweep can report *which* points failed and why
    instead of aborting wholesale.
    """
    summary = EvaluationSummary.from_failure(
        workload=config.workload,
        mechanism=config.mechanism,
        threshold_nj=config.threshold_nj,
        conventional_vrp=config.conventional_vrp,
        kind=error.kind,
        message=str(error),
    )
    return WorkloadEvaluation.from_summary(workload, summary)


# ----------------------------------------------------------------------
# Cache-miss resolution, shared by the engine, the pool workers and sweeps
# ----------------------------------------------------------------------
def _snapshot_key(config: ExperimentConfig, workload: Workload) -> str:
    return trace_key(
        workload, config.mechanism, config.threshold_nj, config.conventional_vrp
    )


def _replay(
    workload: Workload,
    config: ExperimentConfig,
    artifact: "SimulationArtifact",
    lanes: Sequence[Optional[MachineConfig]],
    memo: Optional[TimingMemo] = None,
) -> list[EvaluationSummary]:
    """One summary per machine config of ``lanes``, rebuilt from a trace snapshot.

    One multi-lane timing walk (through ``memo`` when given), then the
    summary builder a compute calls too
    (:func:`~repro.experiments.summary.summarize_lanes`) — but **zero**
    simulator steps.  Every lane's summary is bit-identical to a fresh
    one under its config.
    """
    timings = _time(artifact.trace, list(lanes), memo)
    return summarize_lanes(
        workload, config.mechanism, config.threshold_nj, config.conventional_vrp, artifact, timings
    )


def _replay_snapshot(
    store: ResultStore,
    config: ExperimentConfig,
    workload: Workload,
    lanes: Sequence[Optional[MachineConfig]],
    memo: Optional[TimingMemo],
) -> Optional[list[EvaluationSummary]]:
    """:func:`_replay` over the group's stored trace snapshot, or None.

    None on a miss, and None when the snapshot decodes but its contents
    don't replay — e.g. a truncated-then-padded file whose trace is
    internally inconsistent.  A broken cache entry must never fail an
    evaluation or a sweep: it is quarantined, and the caller simulates.
    """
    if not store.trace_enabled:
        return None
    key = _snapshot_key(config, workload)
    artifact = store.load_trace(key)
    if artifact is None:
        return None
    try:
        return _replay(workload, config, artifact, lanes, memo)
    except Exception as exc:
        _log.warning(
            "evicting unreplayable trace snapshot %s (%s: %s)",
            store.trace_path_for(key),
            type(exc).__name__,
            exc,
        )
        store.quarantine(
            store.trace_path_for(key), f"unreplayable: {type(exc).__name__}: {exc}"
        )
        return None


def _resolve_miss(
    store: ResultStore,
    key: str,
    config: ExperimentConfig,
    workload: Workload,
    pipeline: str,
    other_lanes: Sequence[MachineConfig] = (),
    memo: Optional[TimingMemo] = None,
    precheck: bool = True,
    shared: Optional[SharedWork] = None,
) -> tuple[WorkloadEvaluation, list[EvaluationSummary], str]:
    """Resolve one trace-signature group under the store's single-flight lock.

    The group is ``config``'s trace scored under ``config.machine_config``
    (the first lane, whose store key is ``key``) and under each config of
    ``other_lanes``; a paper point is a group of one lane.  Returns the
    first lane's evaluation, one summary per lane and their provenance:
    ``"shared"`` (a point whose entry was already published, possibly by
    a concurrent flight this call waited on), ``"replayed"`` (every lane
    rebuilt from the trace snapshot by :func:`_replay`, zero simulator
    steps) or ``"computed"`` (simulated here, with ``pipeline`` resolved
    by :func:`_resolve_pipeline`, and every lane timed over the one
    trace).  Only a computed evaluation is live.  Both a compute and a
    replay summarize through
    :func:`~repro.experiments.summary.summarize_lanes`.
    Every materialized walk goes through the engine's timing ``memo``
    (pool workers have none, and walk), and a compute shares the work of
    its workload group through ``shared`` (:class:`SharedWork`; only
    :meth:`ExperimentEngine.map`'s serial loop passes one, and without
    it the compute is a group of one).

    The lock is the first lane's: a compute publishes that lane's
    summary — and a materialized compute the trace snapshot — and a
    replayed point its summary, *inside* it, so waiters are released
    only once the result is readable and two processes (or threads)
    racing on the same group cost one simulation.  A point enters
    :meth:`~ResultStore.single_flight`, which serves a published entry;
    ``precheck=False`` tells it the caller's own unlocked read of the
    entry has just missed (:meth:`ExperimentEngine.map` reads every
    point first), so it reads the entry only under the lock.
    A group with more lanes never reads an entry: it replays its
    snapshot, and claims the lock (:meth:`~ResultStore.claim`) only to
    compute, replaying again once it holds it.  Its replay publishes
    nothing.  With the store disabled the lock is skipped and every save
    is a no-op.
    """
    lanes = (config.machine_config, *other_lanes)

    def replay() -> Optional[list[EvaluationSummary]]:
        return _replay_snapshot(store, config, workload, lanes, memo)

    if other_lanes:
        summaries = replay()
        if summaries is None:
            with store.claim(key, replay) as summaries:
                if summaries is None:
                    return _compute(
                        store, key, config, workload, pipeline, other_lanes, memo, shared
                    )
        return WorkloadEvaluation(workload, summaries), summaries, "replayed"
    with store.single_flight(key, precheck=precheck) as flight:
        if flight.summary is not None:
            summary = flight.summary
            return WorkloadEvaluation.from_summary(workload, summary), [summary], "shared"
        summaries = replay()
        if summaries is not None:
            store.save(key, summaries[0])
            return WorkloadEvaluation(workload, summaries), summaries, "replayed"
        return _compute(store, key, config, workload, pipeline, other_lanes, memo, shared)


def _compute(
    store: ResultStore,
    key: str,
    config: ExperimentConfig,
    workload: Workload,
    pipeline: str,
    other_lanes: Sequence[MachineConfig],
    memo: Optional[TimingMemo],
    shared: Optional[SharedWork],
) -> tuple[WorkloadEvaluation, list[EvaluationSummary], str]:
    """The live branch of :func:`_resolve_miss`, run by the lock's owner."""
    evaluation = _compute_evaluation(
        workload,
        mechanism=config.mechanism,
        threshold_nj=config.threshold_nj,
        conventional_vrp=config.conventional_vrp,
        machine_config=config.machine_config,
        pipeline=_resolve_pipeline(pipeline),
        memo=memo,
        shared=shared,
        other_lanes=other_lanes,
    )
    # A fused evaluation has no trace to snapshot — its ``trace`` slot
    # holds the streaming shape aggregate (see docs/fused.md) — and with
    # the snapshot layer off there is nothing to build one for.  The
    # snapshot is published before the entry, so a reader of the entry
    # finds the snapshot too.
    if evaluation.pipeline != "fused" and store.trace_enabled:
        store.save_trace(_snapshot_key(config, workload), artifact_from_evaluation(evaluation))
    store.save(key, evaluation.summary)
    return evaluation, evaluation.summaries, "computed"


#: A workload group's points in pipeline order: a VRS pipeline starts
#: with the analysis a ``vrp`` point applies.
_PIPELINE_ORDER = {"none": 0, "vrp": 1, "vrs": 2}


def _workload_groups(
    order: Sequence[tuple[str, tuple[ExperimentConfig, Workload]]],
) -> list[list[tuple[str, tuple[ExperimentConfig, Workload]]]]:
    """``order``'s misses grouped by workload, in first-seen order; each
    group in pipeline order (:data:`_PIPELINE_ORDER`), ties in input order."""
    groups: dict[str, list] = {}
    for item in order:
        groups.setdefault(item[1][1].content_hash(), []).append(item)
    last = len(_PIPELINE_ORDER)
    return [
        sorted(group, key=lambda item: _PIPELINE_ORDER.get(item[1][0].mechanism, last))
        for group in groups.values()
    ]


def _compute_summary_for(
    store: ResultStore, key: str, config: ExperimentConfig, pipeline: str
) -> tuple[dict, str]:
    """Worker entry point: resolve one configuration, return its summary.

    Returns ``(JSON-ready summary dict, provenance)`` — plain data, so the
    result crosses the process boundary cheaply; provenance is that of
    :func:`_resolve_miss`, which publishes the summary (and snapshot) to
    the parent's ``store`` itself, inside the single-flight lock.  The
    parent's :meth:`ExperimentEngine.map` read the entry and missed
    before it queued the point, so the flight reads it only under the
    lock.
    The summary holds the energy breakdowns of *all* gating policies
    from one multi-policy accounting pass
    (:func:`~repro.experiments.summary.summarize_lanes`), so the
    restored-outcome completeness costs one pass per point, not one per
    policy.
    """
    chaos_probe("worker-task")
    workload = workload_by_name(config.workload)
    _, (summary,), provenance = _resolve_miss(
        store, key, config, workload, pipeline, precheck=False
    )
    return summary.to_json_dict(), provenance


class ExperimentEngine:
    """Memoizing, store-backed, process-parallel experiment evaluator."""

    def __init__(
        self, store: Optional[ResultStore] = None, jobs: Optional[int] = None
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = _resolve_jobs(jobs)
        self._memo: dict[str, WorkloadEvaluation] = {}
        #: Timing results of the traces this engine walked, by walk key:
        #: the resolver walks a timing-identical trace once per config.
        self._timing_memo = TimingMemo()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(self, config: ExperimentConfig, workload: Optional[Workload] = None) -> str:
        """Content-hash store key of ``config``."""
        if workload is None:
            workload = workload_by_name(config.workload)
        return config_key(
            workload,
            config.mechanism,
            config.threshold_nj,
            config.conventional_vrp,
            config.machine_config,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        config: ExperimentConfig,
        workload: Optional[Workload] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
    ) -> WorkloadEvaluation:
        """Resolve one configuration: memo → store → replay → compute.

        ``workload`` lets callers evaluate a hand-modified workload object;
        its content hash (not just its name) keys the result, so a modified
        workload never aliases the registry entry.

        ``on_error`` selects the partial-failure semantics: ``"raise"``
        (the default) propagates the classified
        :class:`~repro.experiments.resilience.EvaluationError`;
        ``"keep"`` returns an error-carrying evaluation instead (its
        ``summary.failure`` holds the kind and message; nothing is
        memoized or persisted for the failed point).

        ``pipeline`` selects the live path for a cold compute (see
        :func:`_resolve_pipeline`): ``"auto"`` is the materialized
        pipeline, whether or not a trace snapshot will be persisted;
        ``"fused"`` streams without building a trace.  The choice cannot
        affect results — the pipelines are bit-exact — and is
        deliberately not part of the store key.

        The returned evaluation is *live* (trace/program attached) only when
        this call actually simulated; memo, store and snapshot-replay hits
        are restored, summary-only objects.  Callers that require a live
        trace should use :meth:`compute`.
        """
        if on_error not in ("raise", "keep"):
            raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")
        if workload is None:
            workload = workload_by_name(config.workload)
        key = self.key_for(config, workload)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        try:
            evaluation, _, provenance = _resolve_miss(
                self.store, key, config, workload, pipeline, memo=self._timing_memo
            )
        except Exception as exc:
            failure = classify_failure(exc)
            if on_error == "raise":
                raise failure from exc
            _log.warning(
                "evaluate(%s/%s): keeping failure %s",
                config.workload,
                config.mechanism,
                failure.describe(),
            )
            return _failure_evaluation(config, workload, failure)
        evaluation.freshly_computed = provenance == "computed"
        evaluation.replayed_from_store = provenance == "replayed"
        self._memo[key] = evaluation
        return evaluation

    def compute(
        self,
        config: ExperimentConfig,
        workload: Optional[Workload] = None,
        pipeline: str = "materialized",
    ) -> WorkloadEvaluation:
        """Run the live pipeline for one point, bypassing every cache layer.

        Always builds, transforms and simulates, and always returns a
        *live* evaluation — the one entry point for callers that genuinely
        need the trace, so the pipeline defaults to ``"materialized"``
        (``"auto"`` means materialized too, as everywhere).  An explicit
        ``pipeline="fused"`` returns a live evaluation whose ``trace``
        slot holds the streaming shape aggregate instead of a trace;
        anything outside :data:`repro.sim.fusedc.PIPELINES` raises.
        Nothing is memoized or persisted; use :meth:`evaluate` for
        cached, store-backed resolution.
        """
        pipeline = _resolve_pipeline(pipeline)
        if workload is None:
            workload = workload_by_name(config.workload)
        return _compute_evaluation(
            workload,
            mechanism=config.mechanism,
            threshold_nj=config.threshold_nj,
            conventional_vrp=config.conventional_vrp,
            machine_config=config.machine_config,
            pipeline=pipeline,
        )

    def map(
        self,
        configs: Sequence[ExperimentConfig],
        jobs: Optional[int] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
        on_result: Optional[Callable[[int, WorkloadEvaluation], None]] = None,
    ) -> list[WorkloadEvaluation]:
        """Evaluate many independent configurations, in parallel when possible.

        Memo/store hits are resolved inline; the remaining configurations
        are computed by a process pool (or serially as a fallback) and their
        summaries persisted, so a crashed or interrupted sweep loses at most
        the configurations still in flight.  ``pipeline`` is resolved once
        (see :func:`_resolve_pipeline`) and applied to every cold
        compute, in the pool and in the serial fallback alike.

        Cold configurations always come back *restored* (summary-backed,
        ``trace is None``) — regardless of whether the pool or the serial
        fallback computed them — so the result shape never depends on the
        machine's CPU count.  Use :meth:`compute` when a live trace is
        genuinely required (:meth:`evaluate` returns a live object only
        when it computes; store hits are restored there too).

        The serial loop resolves the misses workload by workload, in the
        order workloads first appear in ``configs``, and a workload's
        points in pipeline order (``none``, ``vrp``, ``vrs``; ties in
        input order).  Each workload group shares one
        :class:`~repro.experiments.runner.SharedWork`: one build that
        every point copies, one VRP analysis per configuration (the
        ``vrp`` point applies it and VRS starts from it), the first
        ``vrs`` point's training (later ``vrs`` points at other
        thresholds reuse it) and two traced
        runs: the previous one, which a program equal to the one it ran
        reuses, and the ``none`` point's, which a ``vrp`` point adopts
        when that run shows every narrowed value fits.  The group's shared
        work is dropped when the group ends, so the loop holds one
        workload's build, analyses and held runs at most.  Pool workers
        compute every point as a group of one.

        The fan-out runs under :func:`~repro.experiments.resilience.supervised_map`:
        transient worker failures are retried with backoff, hung workers
        are reaped when ``REPRO_TASK_TIMEOUT_S`` is set, and pool
        collapses degrade in stages down to in-process serial evaluation
        — each stage logged.  ``on_error`` picks the partial-failure
        semantics for *permanent* per-task failures: ``"raise"`` (the
        default) propagates the first classified
        :class:`~repro.experiments.resilience.EvaluationError`; ``"keep"``
        returns error-carrying evaluations (``summary.failure`` set,
        nothing persisted) in the failed slots so the healthy points
        survive.

        ``on_result`` streams per-point progress: it is called once per
        *input index* — ``on_result(index, evaluation)`` — as each point
        resolves, in arrival order (memo/store hits first, in input
        order, then pool completions, or serial ones in the grouped
        order above; a deduplicated key fires once per index that
        requested it).  It runs in the calling thread, so a slow callback
        slows delivery, not the workers.  The evaluation service uses
        this for its NDJSON progress streams.
        """
        if on_error not in ("raise", "keep"):
            raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")
        results: list[Optional[WorkloadEvaluation]] = [None] * len(configs)

        def deliver(index: int, evaluation: WorkloadEvaluation) -> None:
            results[index] = evaluation
            if on_result is not None:
                on_result(index, evaluation)

        # Deduplicate misses by key: the same configuration requested twice
        # in one call must be simulated once.
        missing: dict[str, tuple[ExperimentConfig, Workload]] = {}
        missing_indices: dict[str, list[int]] = {}
        for index, config in enumerate(configs):
            workload = workload_by_name(config.workload)
            key = self.key_for(config, workload)
            cached = self._memo.get(key)
            if cached is not None:
                deliver(index, cached)
                continue
            if key in missing:
                missing_indices[key].append(index)
                continue
            # The point's one unlocked read: a miss is resolved with
            # ``precheck=False``, which reads the entry again only under
            # the lock.
            summary = self.store.load(key)
            if summary is not None:
                evaluation = WorkloadEvaluation.from_summary(workload, summary)
                self._memo[key] = evaluation
                deliver(index, evaluation)
                continue
            # Trace-snapshot replays are deliberately *not* resolved inline
            # here: they run the timing model and the fused accountant over
            # a full trace, so an analysis-only sweep benefits from the
            # worker pool exactly like a cold compute.  Both the workers
            # and the serial fallback consult the snapshot layer.
            missing[key] = (config, workload)
            missing_indices[key] = [index]

        if not missing:
            return results  # type: ignore[return-value]
        resolved_pipeline = _resolve_pipeline(pipeline)
        order = list(missing.items())
        delivered: set[str] = set()

        def ready(key: str, summary: EvaluationSummary, provenance: str) -> None:
            """Memoize + stream one resolved miss (pool or serial)."""
            evaluation = WorkloadEvaluation.from_summary(missing[key][1], summary)
            evaluation.freshly_computed = provenance == "computed"
            evaluation.replayed_from_store = provenance == "replayed"
            self._memo[key] = evaluation
            delivered.add(key)
            for index in missing_indices[key]:
                deliver(index, evaluation)

        worker_count = min(_resolve_jobs(jobs) if jobs is not None else self.jobs, len(order))
        errors = (
            self._map_parallel(order, worker_count, resolved_pipeline, ready)
            if worker_count > 1
            else None
        )
        if errors is None:
            errors = {}
            for group in _workload_groups(order):
                # One workload's shared work lives as long as its group.
                shared = SharedWork(group[0][1][1])
                for key, (config, workload) in group:
                    if key in delivered:
                        # Streamed by a pool attempt that later collapsed.
                        continue
                    try:
                        evaluation, (summary,), provenance = _resolve_miss(
                            self.store,
                            key,
                            config,
                            workload,
                            resolved_pipeline,
                            memo=self._timing_memo,
                            precheck=False,
                            shared=shared,
                        )
                    except Exception as exc:
                        errors[key] = classify_failure(exc)
                        continue
                    # Free a live evaluation (and its trace) before the next
                    # point builds and simulates.
                    del evaluation
                    ready(key, summary, provenance)
        for key, (config, workload) in order:
            error = errors.get(key)
            if error is None:
                continue
            if on_error == "raise":
                raise error
            _log.warning(
                "map(%s/%s): keeping failure %s",
                config.workload,
                config.mechanism,
                error.describe(),
            )
            # Failed points are never memoized: a later request must get a
            # fresh chance at a healthy evaluation.
            evaluation = _failure_evaluation(config, workload, error)
            for index in missing_indices[key]:
                deliver(index, evaluation)
        return results  # type: ignore[return-value]

    def map_suite(
        self,
        mechanism: str = "none",
        threshold_nj: float = 50.0,
        conventional_vrp: bool = False,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
    ) -> dict[str, WorkloadEvaluation]:
        """Evaluate every workload of the SpecInt95-analogue suite.

        Convenience over :meth:`map`: one configuration per suite
        workload, results keyed by workload name.  A figure that
        combines several configurations maps them in one call
        (:meth:`map_suites`).
        """
        (evaluations,) = self.map_suites(
            {
                "mechanism": mechanism,
                "threshold_nj": threshold_nj,
                "conventional_vrp": conventional_vrp,
                "machine_config": machine_config,
            },
            jobs=jobs,
            pipeline=pipeline,
            on_error=on_error,
        )
        return evaluations

    def map_suites(
        self,
        *variants: Mapping[str, Any],
        jobs: Optional[int] = None,
        pipeline: str = "auto",
        on_error: str = "raise",
    ) -> list[dict[str, WorkloadEvaluation]]:
        """:meth:`map_suite` of several configurations in one :meth:`map`.

        Each variant holds :class:`ExperimentConfig` fields other than
        the workload (``{"mechanism": "vrs", "threshold_nj": 30.0}``);
        the result holds one ``{workload name: evaluation}`` mapping per
        variant, in order.  Mapped together, a workload's points share
        their build, VRP analysis and traced run (see :meth:`map`), which
        separate :meth:`map_suite` calls cannot.  This is what the
        figure/table modules call.
        """
        suite = load_suite()
        configs = [
            ExperimentConfig(workload=workload.name, **variant)
            for variant in variants
            for workload in suite
        ]
        evaluations = self.map(configs, jobs=jobs, pipeline=pipeline, on_error=on_error)
        return [
            {workload.name: evaluation for workload, evaluation in zip(suite, evaluations[start:])}
            for start in range(0, len(configs), len(suite))
        ]

    def sweep(
        self,
        spec: "SweepSpec",
        workloads: Optional["Mapping[str, Workload]"] = None,
        pipeline: str = "auto",
        on_error: str = "keep",
    ) -> "Iterator[SweepRow]":
        """Stream one :class:`~repro.experiments.sweep.SweepRow` per spec point.

        The batched design-space path (see ``docs/sweeps.md``): each
        distinct trace signature is one group, resolved lazily in spec
        order by the resolver :meth:`evaluate` uses, with the group's
        machine configs as its lanes — one simulation or snapshot replay,
        one multi-config timing-kernel walk per machine-config shape
        group and one accounting walk per trace, instead of a full
        :meth:`evaluate` round-trip per point.  Rows are bit-identical
        to what per-point evaluation reports for the same cells.  From a
        warm store (snapshots present) a sweep performs **zero**
        simulator calls.
        """
        from .sweep import run_sweep

        return run_sweep(
            self, spec, workloads=workloads, pipeline=pipeline, on_error=on_error
        )

    def _map_parallel(
        self,
        order: Sequence[tuple[str, tuple[ExperimentConfig, Workload]]],
        worker_count: int,
        pipeline: str,
        ready: Callable[[str, EvaluationSummary, str], None],
    ) -> Optional[dict[str, EvaluationError]]:
        """Fan the missing configurations out under supervision.

        Every worker resolves its point through :func:`_resolve_miss`
        against this engine's store, publishing the summary (and
        snapshot) *inside its single-flight lock* before returning, so an
        interrupted sweep loses at most the configurations still in
        flight — and concurrent processes racing on the same keys wait
        instead of duplicating the simulation.  Transient worker failures
        are retried with deterministic backoff; a hung worker is reaped
        when ``REPRO_TASK_TIMEOUT_S`` is set; pool collapses escalate
        through the degradation stages (replace-worker → fresh-pool →
        serial), each logged — see
        :func:`repro.experiments.resilience.supervised_map`.

        ``ready(key, summary, provenance)`` fires in the calling thread as
        each result arrives (the supervisor's ``on_result`` hook), letting
        :meth:`map` stream completions.  Returns the permanent per-task
        failures by key (so ``map`` can apply its ``on_error``
        semantics), or None only when the pool infrastructure cannot be
        created at all (restricted sandboxes); the caller's serial
        fallback then finishes the points that have not arrived.
        """
        tasks = [(self.store, key, config, pipeline) for key, (config, _) in order]

        def collect(position: int, value: tuple[dict, str]) -> None:
            summary_dict, provenance = value
            ready(order[position][0], EvaluationSummary.from_json_dict(summary_dict), provenance)

        task_timeout_s = settings.get("REPRO_TASK_TIMEOUT_S")
        try:
            outcomes = supervised_map(
                _compute_summary_for,
                tasks,
                worker_count,
                task_timeout_s=task_timeout_s,
                retry=RetryPolicy(),
                on_result=collect,
                logger=_log,
            )
        except (OSError, ValueError, RuntimeError, ImportError) as exc:
            # The silent `return None` this replaces hid real environment
            # problems; name the failure and the degradation stage so a
            # slow sandboxed run is explainable from its logs.
            _log.warning(
                "experiment engine: process-pool fan-out unavailable (%s: %s); "
                "degradation stage 'serial': evaluating %d configuration(s) in-process",
                type(exc).__name__,
                exc,
                len(order),
            )
            return None
        return {
            key: outcome.error
            for (key, _), outcome in zip(order, outcomes)
            if not outcome.ok
        }


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine: the session the blessed API acts on.

    The CLI and the figure/table modules share this engine (and
    therefore its memo and store).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Forget the default engine (re-reads environment configuration)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None
