"""Batched design-space sweeps: many (config, policy, workload) points.

The paper's headline results are matrices — gating policies × machine
configurations × workloads (Figures 11 and 15, the ED² tables).  This
module evaluates such a matrix as *one* batched computation instead of
one engine round-trip per point:

* one simulation (or, from a warm store, one snapshot replay with zero
  simulator steps) per distinct ``(workload, mechanism, threshold)``
  trace signature,
* one multi-config timing-kernel walk per shape group of machine
  configurations (:func:`repro.uarch.tkernel.run_compiled_many` — every
  lane bit-exact against the reference scoreboard walk),
* one fused energy-accounting trace walk per trace, branched per
  machine configuration from shared totals
  (:meth:`repro.power.MultiPolicyEnergyAccountant.account_many`).

:class:`SweepSpec` describes the matrix (cartesian axes or an explicit
point list), :meth:`repro.experiments.engine.ExperimentEngine.sweep`
streams one :class:`SweepRow` per point, and :class:`SweepResult`
collects rows and derives the paper-style reports (per-workload Pareto
frontiers over (cycles, energy), ED² savings matrices vs the baseline
policy).  Every row is bit-identical to what the one-point-at-a-time
path (``engine.evaluate`` with the same machine config) reports for the
same point; the batching only removes redundant work, never changes the
arithmetic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from ..hardware import gating
from ..power import MultiPolicyEnergyAccountant
from ..uarch import CacheConfig, MachineConfig, OutOfOrderModel, TimingResult
from ..uarch.ooo import _default_kernel
from ..uarch.tkernel import run_compiled_many
from ..workloads import SUITE_NAMES, Workload, workload_by_name

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..sim.snapshot import SimulationArtifact
    from .engine import ExperimentEngine

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "default_sweep_configs",
]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# The default machine-configuration axis
# ----------------------------------------------------------------------
def default_sweep_configs() -> tuple[tuple[str, MachineConfig], ...]:
    """Eight named machine configurations spanning the design space.

    ``table2`` is the paper's baseline machine; the others vary the axes
    the paper discusses (issue width, instruction window, cache size,
    memory latency, frontend depth).  Seven of the eight share the
    baseline cache/predictor geometry, so the multi-config timing kernel
    scores them in one batched trace walk; ``l1-16k`` changes the cache
    shape and is timed as its own (singleton) shape group, a one-lane
    walk — so a multi-lane and a one-lane walk both run by default.
    """
    base = MachineConfig()
    return (
        ("table2", base),
        (
            "narrow-2",
            replace(base, fetch_width=2, decode_width=2, issue_width=2, retire_width=2),
        ),
        (
            "wide-8",
            replace(
                base,
                fetch_width=8,
                decode_width=8,
                issue_width=8,
                retire_width=8,
                int_alus=6,
                int_muls=2,
                lsq_ports=4,
            ),
        ),
        ("window-32", replace(base, max_in_flight=32)),
        ("window-128", replace(base, max_in_flight=128)),
        (
            "l1-16k",
            replace(
                base,
                icache=CacheConfig(16 * 1024, 2, 32, 1, 6),
                dcache=CacheConfig(16 * 1024, 2, 32, 1, 6),
            ),
        ),
        (
            "slow-memory",
            replace(base, memory_first_chunk_cycles=40, memory_interchunk_cycles=8),
        ),
        (
            "shallow-front",
            replace(base, frontend_depth=1, mispredict_redirect_penalty=1),
        ),
    )


# ----------------------------------------------------------------------
# Spec: the matrix of points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One (workload, machine config, gating policy) cell of a sweep.

    ``config`` names an entry of the owning spec's machine-configuration
    axis; the mechanism/threshold fields select the *trace* the point is
    scored on (points sharing them share one simulation or replay).
    """

    workload: str
    config: str
    policy: str
    mechanism: str = "none"
    threshold_nj: float = 50.0
    conventional_vrp: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """A design-space sweep matrix.

    Either a cartesian product of the ``workloads`` × ``configs`` ×
    ``policies`` axes (with the scalar mechanism fields applied to every
    point), or — when ``points`` is set — an explicit point list whose
    ``config`` names are resolved against the ``configs`` axis.  Use the
    :meth:`cartesian` / :meth:`explicit` builders rather than the raw
    constructor; they normalize mappings and apply the defaults (all
    suite workloads, :func:`default_sweep_configs`, every policy in
    ``gating.registry()``).
    """

    workloads: tuple[str, ...]
    configs: tuple[tuple[str, MachineConfig], ...]
    policies: tuple[str, ...]
    mechanism: str = "none"
    threshold_nj: float = 50.0
    conventional_vrp: bool = False
    points: Optional[tuple[SweepPoint, ...]] = None

    # -- construction --------------------------------------------------
    @staticmethod
    def _normalize_configs(
        configs: Optional[
            Mapping[str, MachineConfig] | Sequence[tuple[str, MachineConfig]]
        ],
    ) -> tuple[tuple[str, MachineConfig], ...]:
        if configs is None:
            return default_sweep_configs()
        if isinstance(configs, Mapping):
            items = tuple(configs.items())
        else:
            items = tuple((name, config) for name, config in configs)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate machine-config names in sweep axis: {names}")
        return items

    @classmethod
    def cartesian(
        cls,
        workloads: Optional[Sequence[str]] = None,
        configs: Optional[
            Mapping[str, MachineConfig] | Sequence[tuple[str, MachineConfig]]
        ] = None,
        policies: Optional[Sequence[str]] = None,
        mechanism: str = "none",
        threshold_nj: float = 50.0,
        conventional_vrp: bool = False,
    ) -> "SweepSpec":
        """The full cross product of the three axes (the common case)."""
        return cls(
            workloads=tuple(workloads) if workloads is not None else SUITE_NAMES,
            configs=cls._normalize_configs(configs),
            policies=(
                tuple(policies) if policies is not None else tuple(gating.registry())
            ),
            mechanism=mechanism,
            threshold_nj=threshold_nj,
            conventional_vrp=conventional_vrp,
        )

    @classmethod
    def explicit(
        cls,
        points: Iterable[SweepPoint],
        configs: Optional[
            Mapping[str, MachineConfig] | Sequence[tuple[str, MachineConfig]]
        ] = None,
    ) -> "SweepSpec":
        """An explicit point list (e.g. a Pareto refinement, a figure row)."""
        point_tuple = tuple(points)
        return cls(
            workloads=(),
            configs=cls._normalize_configs(configs),
            policies=(),
            points=point_tuple,
        )

    # -- resolution ----------------------------------------------------
    def config_map(self) -> dict[str, MachineConfig]:
        """Machine configurations of the sweep axis, by name."""
        return dict(self.configs)

    def iter_points(self) -> Iterator[SweepPoint]:
        """Every point of the matrix, in deterministic workload-major order.

        Workload-major ordering means a streaming consumer sees all rows
        of one trace signature together — each workload is resolved
        (replayed or simulated) exactly once, then fully scored.
        """
        if self.points is not None:
            yield from self.points
            return
        for workload in self.workloads:
            for config_name, _ in self.configs:
                for policy in self.policies:
                    yield SweepPoint(
                        workload=workload,
                        config=config_name,
                        policy=policy,
                        mechanism=self.mechanism,
                        threshold_nj=self.threshold_nj,
                        conventional_vrp=self.conventional_vrp,
                    )

    def __len__(self) -> int:
        if self.points is not None:
            return len(self.points)
        return len(self.workloads) * len(self.configs) * len(self.policies)


# ----------------------------------------------------------------------
# Rows and collected results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRow:
    """One scored sweep point.

    ``source`` records trace provenance: ``"replayed"`` (rebuilt from a
    stored binary snapshot, zero simulator steps), ``"computed"`` (this
    sweep ran the materialized simulator and warmed the store),
    ``"fused"`` (this sweep ran the streaming fused pipeline — no trace
    was ever built, so nothing could be snapshotted) or ``"error"`` (the
    point's trace-signature group failed; the numeric fields are
    zero-filled and ``error`` names the classified failure).  The three
    healthy sources score bit-identically.
    """

    workload: str
    config: str
    policy: str
    mechanism: str
    threshold_nj: float
    conventional_vrp: bool
    cycles: int
    instructions: int
    energy_nj: float
    ed2: float
    source: str
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_json_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "policy": self.policy,
            "mechanism": self.mechanism,
            "threshold_nj": self.threshold_nj,
            "conventional_vrp": self.conventional_vrp,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "energy_nj": self.energy_nj,
            "ed2": self.ed2,
            "source": self.source,
            "error": self.error,
        }


@dataclass
class SweepResult:
    """Collected sweep rows plus the paper-style derived reports."""

    rows: list[SweepRow]
    seconds: Optional[float] = None

    @classmethod
    def collect(
        cls, rows: Iterable[SweepRow], seconds: Optional[float] = None
    ) -> "SweepResult":
        return cls(rows=list(rows), seconds=seconds)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[SweepRow]:
        return iter(self.rows)

    # -- lookup --------------------------------------------------------
    def row(self, workload: str, config: str, policy: str) -> SweepRow:
        """The (unique) row at one matrix cell."""
        for candidate in self.rows:
            if (
                candidate.workload == workload
                and candidate.config == config
                and candidate.policy == policy
            ):
                return candidate
        raise KeyError(f"no sweep row for ({workload!r}, {config!r}, {policy!r})")

    @property
    def workloads(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.workload)
        return tuple(seen)

    @property
    def failures(self) -> list[SweepRow]:
        """Error-carrying rows (``on_error="keep"`` degradation)."""
        return [row for row in self.rows if row.failed]

    @property
    def simulations(self) -> int:
        """Distinct trace signatures this sweep had to simulate cold.

        Counts both materialized (``"computed"``) and streaming
        (``"fused"``) cold runs; only snapshot replays are free.
        """
        signatures = {
            (row.workload, row.mechanism, row.threshold_nj, row.conventional_vrp)
            for row in self.rows
            if row.source in ("computed", "fused")
        }
        return len(signatures)

    # -- reports -------------------------------------------------------
    def ed2_savings(
        self, baseline_policy: str = "baseline", baseline_config: Optional[str] = None
    ) -> dict[tuple[str, str], dict[str, float]]:
        """ED² savings per (config, policy), per workload — the Figure 11/15 view.

        Each cell is ``1 - ED²(point) / ED²(baseline)`` where the
        baseline is the ``baseline_policy`` row of the *same* workload —
        under the same machine config by default, or under a fixed
        ``baseline_config`` to additionally charge/credit the machine
        change itself.  (Energy×delay² is the paper's figure of merit:
        §6, Figures 11 and 15.)
        """
        baselines: dict[tuple[str, str], float] = {}
        for row in self.rows:
            if row.policy == baseline_policy and not row.failed:
                baselines[(row.workload, row.config)] = row.ed2
        savings: dict[tuple[str, str], dict[str, float]] = {}
        for row in self.rows:
            if row.failed:  # error rows carry no arithmetic
                continue
            reference_config = baseline_config if baseline_config is not None else row.config
            base = baselines.get((row.workload, reference_config))
            if base is None:
                raise KeyError(
                    f"sweep has no {baseline_policy!r} row for workload "
                    f"{row.workload!r} under config {reference_config!r}; "
                    "include the baseline policy in the sweep to report savings"
                )
            cell = savings.setdefault((row.config, row.policy), {})
            cell[row.workload] = 1.0 - (row.ed2 / base if base > 0.0 else 0.0)
        return savings

    def pareto_frontier(self, workload: Optional[str] = None) -> list[SweepRow]:
        """Rows not dominated in (cycles, energy) — lower is better in both.

        With ``workload`` given, the frontier over that workload's rows;
        otherwise frontiers are computed per workload and concatenated
        (points of different workloads are never comparable).  Dominance
        is weak-with-a-strict-side: a row falls iff some other row of the
        same workload is no worse on both axes and strictly better on
        one.  Output preserves row order.
        """
        if workload is None:
            frontier: list[SweepRow] = []
            for name in self.workloads:
                frontier.extend(self.pareto_frontier(name))
            return frontier
        rows = [row for row in self.rows if row.workload == workload and not row.failed]
        frontier = []
        for row in rows:
            dominated = any(
                other.cycles <= row.cycles
                and other.energy_nj <= row.energy_nj
                and (other.cycles < row.cycles or other.energy_nj < row.energy_nj)
                for other in rows
            )
            if not dominated:
                frontier.append(row)
        return frontier

    def to_json_dict(self) -> dict:
        return {
            "rows": [row.to_json_dict() for row in self.rows],
            "seconds": self.seconds,
            "simulations": self.simulations,
        }


# ----------------------------------------------------------------------
# Execution (driven by ExperimentEngine.sweep)
# ----------------------------------------------------------------------
def _sweep_timings(
    trace, configs: Sequence[MachineConfig]
) -> list[TimingResult]:
    """Batched timing of one trace under many configs.

    Routes through the multi-config compiled kernel unless the process
    pinned ``REPRO_TIMING_KERNEL=reference``, in which case every config
    runs the reference scoreboard walk — the tiers are bit-identical, so
    the choice never changes a row.  An unknown ``REPRO_TIMING_KERNEL``
    value raises ``ValueError``.
    """
    if _default_kernel() == "reference":
        return [OutOfOrderModel(config).run_reference(trace) for config in configs]
    return run_compiled_many(trace, list(configs))


def _load_snapshot_artifact(
    engine: "ExperimentEngine",
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
) -> Optional["SimulationArtifact"]:
    """The stored binary snapshot for one trace signature, if warm."""
    from .engine import ExperimentConfig, _snapshot_key

    store = engine.store
    if not store.trace_enabled:
        return None
    config = ExperimentConfig(
        workload=workload.name,
        mechanism=mechanism,
        threshold_nj=threshold_nj,
        conventional_vrp=conventional_vrp,
    )
    return store.load_trace(_snapshot_key(config, workload))


def _compute_artifact(
    engine: "ExperimentEngine",
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
) -> "SimulationArtifact":
    """Cold materialized simulation for one trace signature.

    Persists both the summary and the binary snapshot (exactly like
    ``engine.evaluate`` would), so the next sweep over the same signature
    is a zero-simulation replay.
    """
    from .engine import ExperimentConfig, _snapshot_key
    from .runner import _compute_evaluation, artifact_from_evaluation

    config = ExperimentConfig(
        workload=workload.name,
        mechanism=mechanism,
        threshold_nj=threshold_nj,
        conventional_vrp=conventional_vrp,
    )
    store = engine.store
    evaluation = _compute_evaluation(
        workload,
        mechanism=mechanism,
        threshold_nj=threshold_nj,
        conventional_vrp=conventional_vrp,
    )
    artifact = artifact_from_evaluation(evaluation)
    store.save(engine.key_for(config, workload), evaluation.summarize())
    store.save_trace(_snapshot_key(config, workload), artifact)
    return artifact


def _score_group(
    engine: "ExperimentEngine",
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
    configs: Sequence[MachineConfig],
    policies: Mapping[str, object],
    pipeline: str,
):
    """Resolve and score one trace-signature group.

    Returns ``(source, timings, instructions, energies)`` — the shared
    per-group work that :func:`run_sweep` fans out into rows.  Isolated
    in a helper so a fault anywhere in the resolution (simulate, replay,
    time, account) is attributable to exactly one group.  ``policies``
    is pre-resolved by the caller: an unknown policy name is a spec
    error and must raise rather than degrade into error rows.
    """
    accountant = MultiPolicyEnergyAccountant(dict(policies))

    artifact = _load_snapshot_artifact(
        engine, workload, mechanism, threshold_nj, conventional_vrp
    )
    if artifact is None and (
        pipeline == "fused" or (pipeline == "auto" and len(configs) == 1)
    ):
        source = "fused"
        trace, timings, instructions = _fused_group(
            workload, mechanism, threshold_nj, conventional_vrp, configs
        )
    else:
        if artifact is not None:
            source = "replayed"
        else:
            source = "computed"
            artifact = _compute_artifact(
                engine, workload, mechanism, threshold_nj, conventional_vrp
            )
        trace = artifact.trace
        instructions = artifact.instructions
        timings = _sweep_timings(trace, configs)

    energies = accountant.account_many(trace, timings)
    return source, timings, instructions, energies


def run_sweep(
    engine: "ExperimentEngine",
    spec: SweepSpec,
    workloads: Optional[Mapping[str, Workload]] = None,
    pipeline: str = "auto",
    on_error: str = "keep",
) -> Iterator[SweepRow]:
    """Stream one :class:`SweepRow` per point of ``spec``.

    Points are grouped by trace signature ``(workload, mechanism,
    threshold, conventional_vrp)``; each group costs one trace
    resolution, one batched multi-config timing pass over the group's
    distinct machine configs, and one fused accounting walk branched per
    config — regardless of how many (config, policy) cells it scores.
    ``workloads`` optionally maps names to hand-built workload objects
    (tests, custom programs); unnamed workloads resolve through the suite
    registry.

    ``pipeline`` selects the *cold* path per group; a warm snapshot
    always replays first regardless (a replay is cheaper than any
    simulation, and bit-identical).  ``"fused"`` streams every cold
    group: one fused simulation per distinct machine config, shape
    aggregation taken from the first (shapes are config-independent),
    and nothing is persisted because no trace ever exists.
    ``"materialized"`` forces the classic simulate-then-snapshot path.
    ``"auto"`` (after consulting ``REPRO_PIPELINE``) streams cold
    *single-config* groups — where fused is a strict win — and
    materializes multi-config groups, where one simulation plus a
    batched timing walk beats one fused simulation per config.

    ``on_error`` selects the partial-failure semantics per trace-signature
    group: ``"keep"`` (the default) yields one error-carrying row
    (``source="error"``, zero-filled numbers) per affected point and
    continues to the next group, so one broken workload cannot abort a
    whole design-space sweep; ``"raise"`` propagates the classified
    failure.  Spec errors (an unknown machine-config name) always raise —
    they are caller bugs, not runtime faults.
    """
    from ..sim.fusedc import _checked_pipeline, default_pipeline
    from .chaos import chaos_probe
    from .resilience import classify_failure

    pipeline = default_pipeline() if pipeline == "auto" else _checked_pipeline(pipeline)
    if on_error not in ("raise", "keep"):
        raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")

    points = list(spec.iter_points())
    config_map = spec.config_map()
    groups: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        signature = (
            point.workload,
            point.mechanism,
            point.threshold_nj,
            point.conventional_vrp,
        )
        groups.setdefault(signature, []).append(index)

    for (name, mechanism, threshold_nj, conventional_vrp), indices in groups.items():
        if workloads is not None and name in workloads:
            workload = workloads[name]
        else:
            workload = workload_by_name(name)

        config_names: list[str] = []
        policy_names: list[str] = []
        for index in indices:
            point = points[index]
            if point.config not in config_names:
                config_names.append(point.config)
            if point.policy not in policy_names:
                policy_names.append(point.policy)
        try:
            configs = [config_map[config_name] for config_name in config_names]
        except KeyError as error:
            raise KeyError(
                f"sweep point references machine config {error.args[0]!r} "
                f"which is not on the spec's config axis "
                f"({', '.join(config_map) or 'empty'})"
            ) from None

        policies = {policy_name: gating.get(policy_name) for policy_name in policy_names}
        try:
            chaos_probe("sweep-group")
            source, timings, instructions, energies = _score_group(
                engine,
                workload,
                mechanism,
                threshold_nj,
                conventional_vrp,
                configs,
                policies,
                pipeline,
            )
        except Exception as exc:
            failure = classify_failure(exc)
            if on_error == "raise":
                raise failure from exc
            _log.warning(
                "sweep group (%s/%s/%g/%s) failed, yielding %d error row(s): %s",
                name,
                mechanism,
                threshold_nj,
                conventional_vrp,
                len(indices),
                failure.describe(),
            )
            for index in indices:
                point = points[index]
                yield SweepRow(
                    workload=point.workload,
                    config=point.config,
                    policy=point.policy,
                    mechanism=point.mechanism,
                    threshold_nj=point.threshold_nj,
                    conventional_vrp=point.conventional_vrp,
                    cycles=0,
                    instructions=0,
                    energy_nj=0.0,
                    ed2=0.0,
                    source="error",
                    error=failure.describe(),
                )
            continue

        position = {config_name: i for i, config_name in enumerate(config_names)}

        for index in indices:
            point = points[index]
            at = position[point.config]
            breakdown = energies[at][point.policy]
            yield SweepRow(
                workload=point.workload,
                config=point.config,
                policy=point.policy,
                mechanism=point.mechanism,
                threshold_nj=point.threshold_nj,
                conventional_vrp=point.conventional_vrp,
                cycles=timings[at].cycles,
                instructions=instructions,
                energy_nj=breakdown.total,
                ed2=breakdown.energy_delay_squared(),
                source=source,
            )


def _fused_group(
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
    configs: Sequence[MachineConfig],
):
    """Score one cold trace-signature group through the fused pipeline.

    One fused simulation per machine config — no trace is ever
    materialized, so memory stays flat in the instruction count.  The
    shape aggregate is config-independent (widths come from the
    architectural execution, not the timing model), so the first run's
    aggregate stands in for the trace in the shared accounting walk.
    Nothing is persisted: there is no trace to snapshot, and a fused
    summary under a *sweep* key would alias the default machine config.
    """
    from ..sim.machine import Machine
    from .runner import _compute_evaluation

    evaluation = _compute_evaluation(
        workload,
        mechanism=mechanism,
        threshold_nj=threshold_nj,
        conventional_vrp=conventional_vrp,
        machine_config=configs[0],
        pipeline="fused",
    )
    timings = [evaluation.timing]
    if len(configs) > 1:
        machine = Machine(evaluation.program)
        for config in configs[1:]:
            outcome = machine.run(pipeline="fused", machine_config=config)
            timings.append(outcome.fused.timing)
    return evaluation.trace, timings, evaluation.run.instructions
