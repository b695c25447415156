"""Serializable summaries of one workload evaluation.

The persistent result store (:mod:`repro.experiments.store`) keeps the
*outcomes* of a simulation — timing, per-policy energy breakdowns, dynamic
width/size/operation distributions and the VRP/VRS statistics the figure
functions consume — but never the raw trace, which is three orders of
magnitude larger and cheap to regenerate when genuinely needed.  This module
defines that summary record plus the trace-aggregation helpers shared by the
live path (fresh simulation) and the figure modules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from ..isa import OpKind, Width
from ..isa.opcodes import OPERATION_TYPE
from ..power import EnergyBreakdown
from ..uarch import TimingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..core.vrp import VRPResult
    from ..core.vrs import VRSResult
    from ..ir import Program
    from ..sim import RunResult, Trace

__all__ = [
    "COUNTED_KINDS",
    "EvaluationSummary",
    "SUMMARY_FORMAT_VERSION",
    "aggregate_trace",
    "counted_width_counts",
    "operation_type_width_counts",
    "restore_vrp_stat_keys",
    "result_size_histogram",
    "runtime_specialization_fractions",
    "vrp_stats",
    "vrs_stats",
]

#: Bump when the summary schema changes; stored entries with another format
#: version are treated as misses.
SUMMARY_FORMAT_VERSION = 1

#: Instruction kinds counted in the width distributions: the paper's
#: technique applies to integer computation, not to control flow.
COUNTED_KINDS = frozenset(
    {
        OpKind.ALU,
        OpKind.MUL,
        OpKind.LOGICAL,
        OpKind.SHIFT,
        OpKind.COMPARE,
        OpKind.CMOV,
        OpKind.MASK,
        OpKind.EXTEND,
        OpKind.MOVE,
        OpKind.LOAD,
        OpKind.STORE,
    }
)


# ----------------------------------------------------------------------
# Trace aggregation helpers
# ----------------------------------------------------------------------
def aggregate_trace(
    trace: "Trace",
) -> tuple[dict[Width, int], dict[Width, int], dict[int, int], dict[str, dict[Width, int]]]:
    """All four dynamic distributions, computed columnarly.

    Returns ``(width_distribution, counted_width_counts,
    result_size_histogram, operation_type_width_counts)`` — semantically
    identical to the old fused record walk, but derived entirely from the
    trace's two cached aggregations: the three width distributions are
    static facts scaled by the per-uid dynamic counts
    (:meth:`~repro.sim.trace.Trace.uid_counts`), and the result-size
    histogram is the result-sig marginal of the accounting shapes
    (:meth:`~repro.sim.trace.Trace.shape_counts` — already cached whenever
    the energy accountant has run).  No per-record walk happens here.
    """
    width_distribution: dict[Width, int] = {w: 0 for w in Width.all_widths()}
    counted: dict[Width, int] = {w: 0 for w in Width.all_widths()}
    sizes = {size: 0 for size in range(1, 9)}
    per_type: dict[str, dict[Width, int]] = {}
    static = trace.static

    # Result sizes first: a shape's result sig *is* significant_bytes of
    # the record's result, so the histogram is an exact integer marginal.
    # (Computing shapes first also lets uid_counts derive from them.)
    for (_, _, rsig), count in trace.shape_counts().items():
        if rsig >= 0:
            sizes[rsig] += count

    for uid, count in trace.uid_counts().items():
        entry = static[uid]
        kind = entry.kind
        width = entry.memory_width if entry.memory_width is not None else entry.width
        width_distribution[width] += count
        if kind in COUNTED_KINDS:
            counted[width] += count
            if kind not in (OpKind.LOAD, OpKind.STORE, OpKind.MOVE):
                op_type = OPERATION_TYPE[entry.opcode]
                widths = per_type.setdefault(op_type, {w: 0 for w in Width.all_widths()})
                widths[entry.width] += count
    return width_distribution, counted, sizes, per_type


def counted_width_counts(trace: "Trace") -> dict[Width, int]:
    """Dynamic width counts restricted to :data:`COUNTED_KINDS`.

    Derived from :func:`aggregate_trace` so the counting semantics cannot
    drift between the live accessors and the persisted summaries.
    """
    return aggregate_trace(trace)[1]


def result_size_histogram(trace: "Trace") -> dict[int, int]:
    """Histogram of result-value sizes in significant bytes (Figure 12)."""
    return aggregate_trace(trace)[2]


def operation_type_width_counts(trace: "Trace") -> dict[str, dict[Width, int]]:
    """Dynamic per-operation-type width counts (Table 3).

    Loads, stores and moves are excluded: the table lists computation
    classes only.
    """
    return aggregate_trace(trace)[3]


def runtime_specialization_fractions(
    program: "Program", run: "RunResult", vrs_result: "VRSResult"
) -> dict[str, float]:
    """Fraction of executed instructions that are specialized code / guards
    (Figure 6)."""
    guard_uids = vrs_result.guard_uids
    counts = run.instruction_counts(program)
    total = sum(counts.values()) or 1
    specialized = 0
    guards = 0
    for inst in program.instructions():
        count = counts.get(inst.uid, 0)
        if count == 0:
            continue
        if inst.uid in guard_uids or inst.is_guard:
            guards += count
        elif inst.origin is not None:
            specialized += count
    return {
        "specialized_instructions": specialized / total,
        "specialization_comparisons": guards / total,
    }


def restore_vrp_stat_keys(vrp: Optional[dict]) -> Optional[dict]:
    """Rebuild the int bit-count keys of persisted VRP statistics.

    JSON stringifies the ``static_width_distribution`` keys; every path
    that rehydrates stored VRP stats (summary round trips, trace-snapshot
    replays) must restore them identically so live, restored and replayed
    ``vrp_statistics()`` are observationally the same.
    """
    if vrp is None or "static_width_distribution" not in vrp:
        return vrp
    return dict(
        vrp,
        static_width_distribution={
            int(bits): count for bits, count in vrp["static_width_distribution"].items()
        },
    )


def vrp_stats(vrp_result: "VRPResult") -> dict[str, object]:
    """The VRP statistics worth keeping once the result object is gone.

    Only what the analysis computed, so two computes of one point
    summarize equal: the host time it took
    (``VRPResult.analysis_seconds``) differs on every run.
    """
    return {
        "narrowed_instructions": vrp_result.narrowed_instructions(),
        "static_width_distribution": {
            int(width): count for width, count in vrp_result.static_width_distribution().items()
        },
        "global_rounds": vrp_result.global_rounds,
    }


def vrs_stats(vrs_result: "VRSResult") -> dict[str, object]:
    """The VRS statistics consumed by Figures 4 and 5."""
    return {
        "points_profiled": vrs_result.points_profiled,
        "points_specialized": vrs_result.points_specialized,
        "points_dependent": vrs_result.points_dependent,
        "points_no_benefit": vrs_result.points_no_benefit,
        "static_specialized_instructions": vrs_result.static_specialized_instructions,
        "static_eliminated_instructions": vrs_result.static_eliminated_instructions,
    }


# ----------------------------------------------------------------------
# The summary record
# ----------------------------------------------------------------------
@dataclass
class EvaluationSummary:
    """Everything the figure/table experiments need from one configuration.

    All fields survive a JSON round trip; :class:`Width` keys are encoded as
    their bit counts.
    """

    workload: str
    mechanism: str
    threshold_nj: float
    conventional_vrp: bool
    instructions: int
    output: list[int]
    timing: TimingResult
    energies: dict[str, EnergyBreakdown]
    width_distribution: dict[Width, int]
    counted_widths: dict[Width, int]
    result_sizes: dict[int, int]
    operation_types: dict[str, dict[Width, int]]
    vrp: Optional[dict] = None
    vrs: Optional[dict] = None
    runtime_specialization: Optional[dict] = None
    format_version: int = SUMMARY_FORMAT_VERSION
    extra: dict = field(default_factory=dict)
    #: Partial-failure record (``{"kind": ..., "message": ...}``) for an
    #: evaluation that could not complete — see ``docs/resilience.md``.
    #: ``None`` on every successful evaluation; added via ``data.get`` so
    #: existing stored entries keep their format version.
    failure: Optional[dict] = None

    @property
    def failed(self) -> bool:
        """True when this summary records a failed evaluation."""
        return self.failure is not None

    @classmethod
    def from_failure(
        cls,
        workload: str,
        mechanism: str,
        threshold_nj: float,
        conventional_vrp: bool,
        kind: str,
        message: str,
    ) -> "EvaluationSummary":
        """An error-carrying summary for a point that could not be evaluated.

        Timing/energy/distribution fields are zero-filled placeholders; the
        truth lives in ``failure`` (``kind`` names the
        :class:`~repro.experiments.resilience.EvaluationError` class).
        Failed summaries are never persisted to the result store — they
        exist so ``map(on_error="keep")`` and sweeps can degrade
        gracefully instead of aborting.
        """
        zero_timing = TimingResult(
            cycles=0,
            instructions=0,
            branch_lookups=0,
            branch_mispredictions=0,
            icache_accesses=0,
            icache_misses=0,
            dcache_accesses=0,
            dcache_misses=0,
            l2_accesses=0,
            l2_misses=0,
            loads=0,
            stores=0,
        )
        return cls(
            workload=workload,
            mechanism=mechanism,
            threshold_nj=threshold_nj,
            conventional_vrp=conventional_vrp,
            instructions=0,
            output=[],
            timing=zero_timing,
            energies={},
            width_distribution={w: 0 for w in Width.all_widths()},
            counted_widths={w: 0 for w in Width.all_widths()},
            result_sizes={size: 0 for size in range(1, 9)},
            operation_types={},
            failure={"kind": kind, "message": message},
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "workload": self.workload,
            "mechanism": self.mechanism,
            "threshold_nj": self.threshold_nj,
            "conventional_vrp": self.conventional_vrp,
            "instructions": self.instructions,
            "output": list(self.output),
            "timing": asdict(self.timing),
            "energies": {name: asdict(breakdown) for name, breakdown in self.energies.items()},
            "width_distribution": {int(w): c for w, c in self.width_distribution.items()},
            "counted_widths": {int(w): c for w, c in self.counted_widths.items()},
            "result_sizes": {int(size): c for size, c in self.result_sizes.items()},
            "operation_types": {
                op_type: {int(w): c for w, c in widths.items()}
                for op_type, widths in self.operation_types.items()
            },
            "vrp": self.vrp,
            "vrs": self.vrs,
            "runtime_specialization": self.runtime_specialization,
            "extra": self.extra,
            "failure": self.failure,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvaluationSummary":
        if data["format_version"] != SUMMARY_FORMAT_VERSION:
            raise ValueError(
                f"summary format {data['format_version']!r} != {SUMMARY_FORMAT_VERSION}"
            )
        vrp = restore_vrp_stat_keys(data.get("vrp"))
        return cls(
            workload=data["workload"],
            mechanism=data["mechanism"],
            threshold_nj=data["threshold_nj"],
            conventional_vrp=data["conventional_vrp"],
            instructions=data["instructions"],
            output=list(data["output"]),
            timing=TimingResult(**data["timing"]),
            energies={
                name: EnergyBreakdown(**breakdown) for name, breakdown in data["energies"].items()
            },
            width_distribution=_width_keys(data["width_distribution"]),
            counted_widths=_width_keys(data["counted_widths"]),
            result_sizes={int(size): count for size, count in data["result_sizes"].items()},
            operation_types={
                op_type: _width_keys(widths) for op_type, widths in data["operation_types"].items()
            },
            vrp=vrp,
            vrs=data.get("vrs"),
            runtime_specialization=data.get("runtime_specialization"),
            format_version=data["format_version"],
            extra=data.get("extra", {}),
            failure=data.get("failure"),
        )


def _width_keys(mapping: dict) -> dict[Width, int]:
    """Rebuild ``Width`` keys from their JSON encoding (bit counts)."""
    return {Width(int(bits)): count for bits, count in mapping.items()}
