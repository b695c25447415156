"""Value Range Specialization driver (§3).

The driver ties together the pieces of the profile-guided technique:

1. run VRP and re-encode the program (specialization savings are measured
   relative to what VRP alone achieves),
2. run the program on its *train* input to collect basic-block execution
   counts,
3. identify candidates with the preliminary benefit filter,
4. profile the candidates' values (Calder-style tables) on the train input,
5. evaluate the energy cost/benefit of specializing each candidate for its
   observed dominant value or value range, keep the profitable ones,
6. transform the program (guard + cloned region + constant propagation),
7. re-run VRP so the narrowed ranges propagate inside the clones.

The caller is responsible for putting the *train* input data into the
program before calling :func:`run_vrs` and the *reference* input afterwards
— exactly the train/ref split of the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir import Program, validate_program
from ..sim import Machine, ValueProfiler
from .candidates import Candidate, identify_candidates
from .energy_model import EnergyModel, SavingsEstimator
from .propagation import VRPConfig
from .specialize import SpecializationRecord, specialize_candidate
from .value_range import ValueRange
from .vrp import VRPResult, _uid_widths, apply_widths, run_vrp

__all__ = ["VRSConfig", "CandidateOutcome", "VRSResult", "run_vrs"]


@dataclass(frozen=True)
class VRSConfig:
    """Configuration of the VRS pipeline.

    ``threshold_nj`` is the specialization-cost knob swept in Figures 8-11
    (30, 50, 70, 90 and 110 nJ): a candidate is specialized only when its
    estimated net benefit exceeds the threshold.
    """

    threshold_nj: float = 50.0
    vrp: VRPConfig = VRPConfig()
    profiler_capacity: int = 16
    dominant_value_fraction: float = 0.5
    #: Extra weight applied to the cost of *range* (min != max) guards.  A
    #: range test is four instructions on the candidate's hot path and, unlike
    #: a single-value test, never enables constant propagation, so it must
    #: clear a higher bar before it is considered profitable.
    range_specialization_cost_factor: float = 3.0
    min_execution_count: int = 4
    max_specializations_per_function: int = 16
    train_max_instructions: int = 20_000_000
    apply_constant_propagation: bool = True


@dataclass
class CandidateOutcome:
    """Fate of one profiled candidate (the categories of Figure 4)."""

    function: str
    uid: int
    status: str  # "specialized" | "no_benefit" | "dependent" | "not_executed"
    net_benefit_nj: float = 0.0
    value_range: Optional[ValueRange] = None


@dataclass
class VRSResult:
    """Outcome of the whole VRS pipeline."""

    program: Program
    config: VRSConfig
    vrp_before: VRPResult
    vrp_after: VRPResult
    candidates: list[Candidate] = field(default_factory=list)
    outcomes: list[CandidateOutcome] = field(default_factory=list)
    records: list[SpecializationRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Figure 4 statistics
    # ------------------------------------------------------------------
    @property
    def points_profiled(self) -> int:
        return len(self.candidates)

    def _count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def points_specialized(self) -> int:
        return self._count("specialized")

    @property
    def points_no_benefit(self) -> int:
        return self._count("no_benefit") + self._count("not_executed")

    @property
    def points_dependent(self) -> int:
        return self._count("dependent")

    # ------------------------------------------------------------------
    # Figure 5 statistics
    # ------------------------------------------------------------------
    @property
    def static_specialized_instructions(self) -> int:
        """Instructions added as specialized copies (after folding)."""
        total = 0
        for record in self.records:
            total += record.cloned_instructions
            total -= record.fold_stats.instructions_removed
        return max(total, 0)

    @property
    def static_eliminated_instructions(self) -> int:
        """Instructions removed from specialized regions by folding."""
        return sum(record.fold_stats.instructions_removed for record in self.records)

    @property
    def guard_uids(self) -> set[int]:
        uids: set[int] = set()
        for record in self.records:
            uids |= record.guard_uids
        return uids

    @property
    def cloned_uids(self) -> set[int]:
        uids: set[int] = set()
        for record in self.records:
            uids |= record.cloned_uids
        return uids


def run_vrs(
    program: Program,
    config: Optional[VRSConfig] = None,
    vrp_before: Optional[VRPResult] = None,
) -> VRSResult:
    """Run the complete VRS pipeline on ``program`` (modified in place).

    ``vrp_before`` is step 1's analysis when the caller already has it:
    :func:`run_vrp` under ``config.vrp`` of ``program`` itself or of a
    copy with equal uids and widths (VRP reads code only, so the input
    installed in either does not matter).  The candidate estimates read
    instructions through the analysis, so a copy must carry the
    analysis's widths (:func:`apply_widths`), as ``program`` does once
    they are applied.  An analysis that fails these checks — another
    build's, another configuration's — raises ``ValueError``.  The
    experiment engine passes the analysis its ``vrp`` point applied.
    """
    config = config or VRSConfig()
    model = EnergyModel()

    if vrp_before is None:
        vrp_before = run_vrp(program, config.vrp)
    else:
        _check_before(program, vrp_before, config.vrp)
    apply_widths(program, vrp_before)

    machine = Machine(program, max_instructions=config.train_max_instructions)
    train = machine.run()
    instruction_counts = train.instruction_counts(program)

    candidates = identify_candidates(
        program,
        vrp_before,
        instruction_counts,
        model=model,
        min_execution_count=config.min_execution_count,
    )

    profiler = ValueProfiler(
        {candidate.uid for candidate in candidates}, capacity=config.profiler_capacity
    )
    if candidates:
        machine.run(value_observer=profiler)

    outcomes, plans = _evaluate_candidates(
        program, config, model, vrp_before, instruction_counts, candidates, profiler
    )

    records = _apply_specializations(program, config, plans, outcomes)

    vrp_after = run_vrp(program, config.vrp)
    apply_widths(program, vrp_after)
    validate_program(program)

    return VRSResult(
        program=program,
        config=config,
        vrp_before=vrp_before,
        vrp_after=vrp_after,
        candidates=candidates,
        outcomes=outcomes,
        records=records,
    )


def _check_before(program: Program, vrp_before: VRPResult, config: VRPConfig) -> None:
    """Raise ``ValueError`` unless ``vrp_before`` may stand for step 1's
    analysis of ``program`` (see :func:`run_vrs`)."""
    if vrp_before.config != config:
        raise ValueError(
            f"vrp_before was analysed under {vrp_before.config!r}, not {config!r}"
        )
    if _uid_widths(program) != vrp_before.original_widths:
        raise ValueError(
            "vrp_before analysed another program: its uids or widths differ from this one's"
        )
    narrowed = {
        uid: vrp_before.widths.get(uid, width)
        for uid, width in vrp_before.original_widths.items()
    }
    if vrp_before.program is not program and _uid_widths(vrp_before.program) != narrowed:
        raise ValueError(
            "vrp_before's program does not carry its widths; apply_widths() it first"
        )


# ----------------------------------------------------------------------
# Candidate evaluation
# ----------------------------------------------------------------------
@dataclass
class _Plan:
    candidate: Candidate
    value_range: ValueRange
    net_benefit_nj: float


def _evaluate_candidates(
    program: Program,
    config: VRSConfig,
    model: EnergyModel,
    vrp_result: VRPResult,
    instruction_counts: dict[int, int],
    candidates: list[Candidate],
    profiler: ValueProfiler,
) -> tuple[list[CandidateOutcome], list[_Plan]]:
    outcomes: list[CandidateOutcome] = []
    plans: list[_Plan] = []
    estimators: dict[str, SavingsEstimator] = {}

    for candidate in candidates:
        table = profiler.table(candidate.uid)
        if table is None or table.total == 0:
            outcomes.append(
                CandidateOutcome(candidate.function, candidate.uid, "not_executed")
            )
            continue
        estimator = estimators.get(candidate.function)
        if estimator is None:
            estimator = SavingsEstimator(
                vrp_result.analyses[candidate.function],
                instruction_counts,
                vrp_result.widths,
                model=model,
            )
            estimators[candidate.function] = estimator

        best: Optional[tuple[ValueRange, float]] = None
        for value_range, frequency in _specialization_options(table, config):
            savings, _ = estimator.savings_nj(candidate.instruction, value_range)
            cost = estimator.cost_nj(candidate.instruction, value_range)
            if not value_range.is_constant:
                cost *= config.range_specialization_cost_factor
            net = savings * frequency - cost
            if best is None or net > best[1]:
                best = (value_range, net)

        if best is None or best[1] <= config.threshold_nj:
            outcomes.append(
                CandidateOutcome(
                    candidate.function,
                    candidate.uid,
                    "no_benefit",
                    net_benefit_nj=best[1] if best else 0.0,
                    value_range=best[0] if best else None,
                )
            )
            continue
        plans.append(_Plan(candidate, best[0], best[1]))

    plans.sort(key=lambda plan: plan.net_benefit_nj, reverse=True)
    return outcomes, plans


def _specialization_options(table, config: VRSConfig) -> list[tuple[ValueRange, float]]:
    """Candidate (range, frequency) pairs from a value-profile table."""
    options: list[tuple[ValueRange, float]] = []
    dominant = table.dominant_value()
    if dominant is not None and dominant[1] >= config.dominant_value_fraction:
        value, frequency = dominant
        options.append((ValueRange.constant(value), frequency))
    observed = table.observed_range()
    if observed is not None and observed[0] != observed[1]:
        low, high = observed
        options.append((ValueRange(low, high), table.range_frequency(low, high)))
    elif observed is not None and not options:
        options.append((ValueRange.constant(observed[0]), table.range_frequency(*observed)))
    return options


# ----------------------------------------------------------------------
# Applying the transformations
# ----------------------------------------------------------------------
def _apply_specializations(
    program: Program,
    config: VRSConfig,
    plans: list[_Plan],
    outcomes: list[CandidateOutcome],
) -> list[SpecializationRecord]:
    records: list[SpecializationRecord] = []
    covered_uids: set[int] = set()
    per_function: dict[str, int] = {}

    for plan in plans:
        candidate = plan.candidate
        if candidate.uid in covered_uids:
            outcomes.append(
                CandidateOutcome(candidate.function, candidate.uid, "dependent")
            )
            continue
        if per_function.get(candidate.function, 0) >= config.max_specializations_per_function:
            outcomes.append(
                CandidateOutcome(candidate.function, candidate.uid, "no_benefit")
            )
            continue
        function = program.functions[candidate.function]
        record = specialize_candidate(
            function,
            candidate.uid,
            plan.value_range,
            apply_constant_propagation=config.apply_constant_propagation,
        )
        if record is None:
            outcomes.append(
                CandidateOutcome(candidate.function, candidate.uid, "no_benefit")
            )
            continue
        records.append(record)
        per_function[candidate.function] = per_function.get(candidate.function, 0) + 1
        outcomes.append(
            CandidateOutcome(
                candidate.function,
                candidate.uid,
                "specialized",
                net_benefit_nj=plan.net_benefit_nj,
                value_range=plan.value_range,
            )
        )
        for label in record.original_region_labels:
            if label in function.blocks:
                for inst in function.blocks[label].instructions:
                    covered_uids.add(inst.uid)
    return records
