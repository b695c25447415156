"""Value Range Specialization driver (§3).

The driver ties together the pieces of the profile-guided technique:

1. run VRP and re-encode the program (specialization savings are measured
   relative to what VRP alone achieves),
2. run the program once on its *train* input: the run collects the
   basic-block execution counts and records, in execution order, the
   values of every instruction the static filter admits
   (:func:`~repro.core.candidates.eligible_instructions`),
3. identify candidates with the preliminary benefit filter, which adds the
   execution-count and benefit tests to that static filter,
4. build each candidate's value profile (Calder-style table) by replaying
   its recorded values in order,
5. evaluate the energy cost/benefit of specializing each candidate for its
   observed dominant value or value range, keep the profitable ones,
6. transform the program (guard + cloned region + constant propagation),
7. re-run VRP so the narrowed ranges propagate inside the clones.

Steps 2 and 4 are the paper's count run and profiling run folded into
one.  The tables equal those a profiling run over the candidates alone
would fill: a table reads only its own instruction's values, and a value
observer sees every result of each watched instruction in program order,
so watching a superset changes neither the run nor any one instruction's
sequence.  The run's counts are the count run's, since observing changes
nothing the program computes.

Steps 2-4 read only the :data:`TRAINING_FIELDS` of the configuration.
:func:`run_vrs` returns what they found as a :class:`VRSTraining` and
accepts one back, so configurations that differ in anything else (the
threshold, say) train once.

The caller is responsible for putting the *train* input data into the
program before calling :func:`run_vrs` and the *reference* input afterwards
— exactly the train/ref split of the paper's methodology.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from ..ir import Program, validate_program
from ..isa import Width
from ..sim import Machine, ValueTable
from .candidates import Candidate, eligible_instructions, identify_candidates
from .energy_model import EnergyModel, SavingsEstimator
from .propagation import VRPConfig
from .specialize import SpecializationRecord, specialize_candidate
from .value_range import ValueRange
from .vrp import VRPResult, _uid_widths, apply_widths, run_vrp

__all__ = [
    "TRAINING_FIELDS",
    "VRSConfig",
    "VRSTraining",
    "CandidateOutcome",
    "VRSResult",
    "run_vrs",
]


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


#: The :class:`VRSConfig` fields the train run and candidate selection
#: read: a :class:`VRSTraining` serves every configuration that agrees on
#: them.
TRAINING_FIELDS = ("vrp", "train_max_instructions", "min_execution_count", "profiler_capacity")


def _training_fields(config: VRSConfig) -> tuple:
    return tuple(getattr(config, name) for name in TRAINING_FIELDS)


@dataclass(frozen=True)
class VRSTraining:
    """What one program's train run showed (steps 2-4).

    ``instruction_counts`` are the run's executions per uid,
    ``candidates`` the instructions the benefit filter kept (holding the
    trained program's instructions) and ``tables`` the value table of
    every candidate that ran.  ``fields``, ``widths`` and ``inputs``
    record the :data:`TRAINING_FIELDS` values, the encoded width per uid
    and the data objects' initial values the run saw, so that
    :func:`run_vrs` refuses a training of another configuration, build or
    input.
    """

    fields: tuple
    widths: dict[int, Width]
    inputs: dict[str, tuple[int, ...]]
    instruction_counts: dict[int, int]
    candidates: tuple[Candidate, ...]
    tables: dict[int, ValueTable]

    def serves(self, config: VRSConfig) -> bool:
        """True when ``config`` trains exactly as this training's did."""
        return self.fields == _training_fields(config)


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
    #: Steps 2-4, which :func:`run_vrs` accepts back for this program's
    #: copies under configurations it :meth:`~VRSTraining.serves`.
    training: Optional[VRSTraining] = None

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
    training: Optional[VRSTraining] = None,
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

    ``training`` stands for steps 2-4 when the caller has them: the
    :attr:`VRSResult.training` of an earlier call on a copy of this
    program, with equal uids and the same input, under a configuration
    with equal :data:`TRAINING_FIELDS`.  One that fails these checks
    raises ``ValueError``.
    """
    config = config or VRSConfig()
    model = EnergyModel()

    if vrp_before is None:
        vrp_before = run_vrp(program, config.vrp)
    else:
        _check_before(program, vrp_before, config.vrp)
    apply_widths(program, vrp_before)

    if training is None:
        training = _train(program, config, vrp_before, model)
        candidates = list(training.candidates)
    else:
        _check_training(program, training, config)
        # The candidates' instructions must be this program's, which VRS
        # goes on to change, not the trained copy's.
        instructions = {inst.uid: inst for inst in program.instructions()}
        candidates = [
            replace(candidate, instruction=instructions[candidate.uid])
            for candidate in training.candidates
        ]

    outcomes, plans = _evaluate_candidates(
        program, config, model, vrp_before, training, candidates
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
        training=training,
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
# Training: steps 2-4 in one run
# ----------------------------------------------------------------------
#: Array typecodes a recording widens through: 1, 2, 4 and 8 bytes a value.
_TYPECODES = "bhiq"


class _ValueRecorder:
    """Value observer that keeps each watched uid's results in execution
    order, in the narrowest array that holds them."""

    def __init__(self, watched_uids: set[int]) -> None:
        self.watched_uids = watched_uids
        self.values: dict[int, array] = defaultdict(partial(array, _TYPECODES[0]))
        values = self.values

        def observe(uid: int, value: int) -> None:
            try:
                values[uid].append(value)
            except OverflowError:
                values[uid] = _widened(values[uid], value)

        self.observe = observe


def _widened(recorded: array, value: int):
    """``recorded`` followed by ``value``, in the narrowest wider typecode
    that holds it; a list past 8 bytes (a ``mov``'s raw immediate may lie
    outside the signed 64-bit range)."""
    for typecode in _TYPECODES[_TYPECODES.index(recorded.typecode) + 1 :]:
        widened = array(typecode, recorded)
        try:
            widened.append(value)
        except OverflowError:
            continue
        return widened
    return [*recorded, value]


def _train(
    program: Program, config: VRSConfig, vrp_before: VRPResult, model: EnergyModel
) -> VRSTraining:
    """Steps 2-4: one train run of ``program`` (narrowed by ``vrp_before``)."""
    recorder = _ValueRecorder(
        {inst.uid for _, inst in eligible_instructions(program, vrp_before)}
    )
    machine = Machine(program, max_instructions=config.train_max_instructions)
    counts = machine.run(value_observer=recorder).instruction_counts(program)
    candidates = identify_candidates(
        program,
        vrp_before,
        counts,
        model=model,
        min_execution_count=config.min_execution_count,
    )
    tables: dict[int, ValueTable] = {}
    for candidate in candidates:
        recorded = recorder.values.get(candidate.uid)
        if recorded:
            table = tables[candidate.uid] = ValueTable(capacity=config.profiler_capacity)
            table.observe_all(recorded)
    return VRSTraining(
        fields=_training_fields(config),
        widths=_uid_widths(program),
        inputs=_inputs(program),
        instruction_counts=counts,
        candidates=tuple(candidates),
        tables=tables,
    )


def _inputs(program: Program) -> dict[str, tuple[int, ...]]:
    return {name: obj.initial_values for name, obj in program.data_objects.items()}


def _check_training(program: Program, training: VRSTraining, config: VRSConfig) -> None:
    """Raise ``ValueError`` unless ``training`` may stand for steps 2-4 on
    ``program``, narrowed by step 1 (see :func:`run_vrs`)."""
    if not training.serves(config):
        raise ValueError(
            f"the training ran under {dict(zip(TRAINING_FIELDS, training.fields))!r}, "
            f"not {dict(zip(TRAINING_FIELDS, _training_fields(config)))!r}"
        )
    if _uid_widths(program) != training.widths:
        raise ValueError(
            "the training ran another program: its uids or widths differ from this one's"
        )
    if _inputs(program) != training.inputs:
        raise ValueError("the training ran on another input than the one installed")


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
    training: VRSTraining,
    candidates: list[Candidate],
) -> tuple[list[CandidateOutcome], list[_Plan]]:
    instruction_counts = training.instruction_counts
    outcomes: list[CandidateOutcome] = []
    plans: list[_Plan] = []
    estimators: dict[str, SavingsEstimator] = {}

    for candidate in candidates:
        table = training.tables.get(candidate.uid)
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
