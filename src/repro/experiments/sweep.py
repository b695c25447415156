"""Batched design-space sweeps: many (config, policy, workload) points.

The paper's headline results are matrices — gating policies × machine
configurations × workloads (Figures 11 and 15, the ED² tables).  This
module evaluates such a matrix as *one* batched computation instead of
one engine round-trip per point.  Points sharing a ``(workload,
mechanism, threshold, conventional VRP)`` trace signature form one
group, and the engine resolves a group the way it resolves a paper
point — a point is a group of one machine config — under the same
cross-process single-flight lock:

* one simulation (or, from a warm store, one snapshot replay with zero
  simulator steps) per group,
* one multi-config timing-kernel walk per shape group of machine
  configurations, every lane bit-exact against the reference
  scoreboard walk,
* one fused energy-accounting trace walk per trace, branched per
  machine configuration from shared totals
  (see ``docs/sweeps.md``, "The trace-reuse model").

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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..hardware import gating
from ..sim.fusedc import _checked_pipeline
from ..uarch import CacheConfig, MachineConfig
from ..workloads import SUITE_NAMES, Workload, workload_by_name
from .chaos import chaos_probe
from .engine import ExperimentConfig, ExperimentEngine, _resolve_miss
from .resilience import classify_failure
from .summary import EvaluationSummary

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

    ``source`` records how the point's trace-signature group resolved:
    ``"shared"`` (a one-config group whose store entry was already
    published, by an earlier run or a concurrent flight this sweep
    waited on), ``"replayed"`` (rebuilt from a stored binary snapshot,
    zero simulator steps), ``"computed"`` (this sweep ran the
    materialized simulator and warmed the store), ``"fused"`` (this
    sweep ran the streaming fused pipeline — no trace was ever built, so
    nothing could be snapshotted) or ``"error"`` (the group failed; the
    numeric fields are zero-filled and ``error`` names the classified
    failure).  The four healthy sources score bit-identically.
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
def run_sweep(
    engine: ExperimentEngine,
    spec: SweepSpec,
    workloads: Optional[Mapping[str, Workload]] = None,
    pipeline: str = "auto",
    on_error: str = "keep",
) -> Iterator[SweepRow]:
    """Stream one :class:`SweepRow` per point of ``spec``.

    Points are grouped by trace signature ``(workload, mechanism,
    threshold, conventional_vrp)``, and each group is resolved, lazily
    and in spec order, by the engine's resolver
    (:func:`repro.experiments.engine._resolve_miss`) with the group's
    distinct machine configs as its lanes: one trace resolution, one
    batched multi-config timing pass and one accounting walk branched
    per config — regardless of how many (config, policy) cells it
    scores.  A group of one config resolves exactly as ``engine.evaluate``
    of that point does.  ``workloads`` optionally maps names to
    hand-built workload objects (tests, custom programs); unnamed
    workloads resolve through the suite registry.

    ``pipeline`` selects the *cold* path per group, by the rule points
    use (:func:`repro.experiments.engine._resolve_pipeline`); a warm
    entry or snapshot always serves first regardless (cheaper than any
    simulation, and bit-identical).  ``"auto"`` materializes when the
    snapshot layer is on or the group has more than one config, and
    streams through the fused pipeline otherwise; ``"fused"`` streams
    every cold group, one fused run per config, and its rows carry
    ``source="fused"``.

    ``on_error`` selects the partial-failure semantics per trace-signature
    group: ``"keep"`` (the default) yields one error-carrying row
    (``source="error"``, zero-filled numbers) per affected point and
    continues to the next group, so one broken workload cannot abort a
    whole design-space sweep; ``"raise"`` propagates the classified
    failure.  Spec errors (an unknown machine-config or policy name)
    always raise — they are caller bugs, not runtime faults.
    """
    pipeline = _checked_pipeline(pipeline)
    if on_error not in ("raise", "keep"):
        raise ValueError(f"unknown on_error mode {on_error!r}; expected 'raise' or 'keep'")

    config_map = spec.config_map()
    groups: dict[tuple, list[SweepPoint]] = {}
    for point in spec.iter_points():
        signature = (
            point.workload,
            point.mechanism,
            point.threshold_nj,
            point.conventional_vrp,
        )
        groups.setdefault(signature, []).append(point)

    for (name, mechanism, threshold_nj, conventional_vrp), group in groups.items():
        if workloads is not None and name in workloads:
            workload = workloads[name]
        else:
            workload = workload_by_name(name)
        config_names = list(dict.fromkeys(point.config for point in group))
        try:
            lanes = [config_map[config_name] for config_name in config_names]
        except KeyError as error:
            raise KeyError(
                f"sweep point references machine config {error.args[0]!r} "
                f"which is not on the spec's config axis "
                f"({', '.join(config_map) or 'empty'})"
            ) from None
        for policy in dict.fromkeys(point.policy for point in group):
            gating.get(policy)  # an unknown policy is a spec error: raise
        config = ExperimentConfig(
            workload=name,
            mechanism=mechanism,
            threshold_nj=threshold_nj,
            conventional_vrp=conventional_vrp,
            machine_config=lanes[0],
        )
        try:
            chaos_probe("sweep-group")
            evaluation, summaries, provenance = _resolve_miss(
                engine.store,
                engine.key_for(config, workload),
                config,
                workload,
                pipeline,
                lanes[1:],
                memo=engine._timing_memo,
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
                len(group),
                failure.describe(),
            )
            for point in group:
                yield _row(point, None, "error", failure.describe())
            continue
        source = "fused" if evaluation.pipeline == "fused" else provenance
        # Free a live evaluation (and its trace) before the next group
        # builds and simulates.
        del evaluation
        by_config = dict(zip(config_names, summaries))
        for point in group:
            yield _row(point, by_config[point.config], source)


def _row(
    point: SweepPoint,
    summary: Optional[EvaluationSummary],
    source: str,
    error: Optional[str] = None,
) -> SweepRow:
    """``point``'s row, scored from its lane's summary (zero-filled without one)."""
    cycles = instructions = 0
    energy_nj = ed2 = 0.0
    if summary is not None:
        breakdown = summary.energies[point.policy]
        cycles, instructions = summary.timing.cycles, summary.instructions
        energy_nj, ed2 = breakdown.total, breakdown.energy_delay_squared()
    return SweepRow(
        workload=point.workload,
        config=point.config,
        policy=point.policy,
        mechanism=point.mechanism,
        threshold_nj=point.threshold_nj,
        conventional_vrp=point.conventional_vrp,
        cycles=cycles,
        instructions=instructions,
        energy_nj=energy_nj,
        ed2=ed2,
        source=source,
        error=error,
    )
