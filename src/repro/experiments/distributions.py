"""Width- and size-distribution experiments (Figure 2, Figure 7, Figure 12, Table 3).

All distributions are dynamic (weighted by execution counts) and averaged
over the eight workloads, exactly as the paper reports them for SpecInt95.
"""

from __future__ import annotations

from ..isa import Width
from .report import format_percent, format_table
from .engine import default_engine

__all__ = [
    "dynamic_width_fractions",
    "figure02_vrp_width_distribution",
    "figure07_width_by_mechanism",
    "figure12_data_size_distribution",
    "table3_operation_distribution",
]

_WIDTH_ORDER = (Width.BYTE, Width.HALF, Width.WORD, Width.QUAD)


def dynamic_width_fractions(
    mechanism: str, conventional_vrp: bool = False, threshold_nj: float = 50.0
) -> dict[Width, float]:
    """Average dynamic width distribution over the suite for one mechanism."""
    return _width_fractions(
        default_engine().map_suite(
            mechanism=mechanism, conventional_vrp=conventional_vrp, threshold_nj=threshold_nj
        )
    )


def _width_fractions(evaluations: dict) -> dict[Width, float]:
    """Average dynamic width distribution of one suite's ``evaluations``."""
    per_benchmark: list[dict[Width, float]] = []
    for evaluation in evaluations.values():
        counts = evaluation.counted_width_counts()
        total = sum(counts.values())
        if total:
            per_benchmark.append({width: counts[width] / total for width in _WIDTH_ORDER})
    return {
        width: sum(d[width] for d in per_benchmark) / len(per_benchmark)
        for width in _WIDTH_ORDER
    }


def figure02_vrp_width_distribution() -> dict[str, dict[Width, float]]:
    """Figure 2: conventional VRP vs the proposed (useful-range) VRP."""
    conventional, proposed = default_engine().map_suites(
        {"mechanism": "vrp", "conventional_vrp": True}, {"mechanism": "vrp"}
    )
    return {
        "conventional_vrp": _width_fractions(conventional),
        "proposed_vrp": _width_fractions(proposed),
    }


def figure07_width_by_mechanism(threshold_nj: float = 50.0) -> dict[str, dict[Width, float]]:
    """Figure 7: width distribution with no mechanism, VRP and VRS."""
    none, vrp, vrs = default_engine().map_suites(
        {"mechanism": "none"},
        {"mechanism": "vrp"},
        {"mechanism": "vrs", "threshold_nj": threshold_nj},
    )
    return {
        "none": _width_fractions(none),
        "vrp": _width_fractions(vrp),
        "vrs": _width_fractions(vrs),
    }


def figure12_data_size_distribution() -> dict[int, float]:
    """Figure 12: distribution of result-value sizes (in bytes) on the baseline."""
    evaluations = default_engine().map_suite(mechanism="none")
    histogram = {size: 0 for size in range(1, 9)}
    for evaluation in evaluations.values():
        for size, count in evaluation.result_size_histogram().items():
            histogram[size] += count
    total = sum(histogram.values())
    if total == 0:
        return {size: 0.0 for size in histogram}
    return {size: count / total for size, count in histogram.items()}


def table3_operation_distribution() -> list[dict[str, object]]:
    """Table 3: dynamic operation-type mix and per-type width distribution (VRP)."""
    evaluations = default_engine().map_suite(mechanism="vrp")
    type_width_counts: dict[str, dict[Width, int]] = {}
    for evaluation in evaluations.values():
        for op_type, per_width in evaluation.operation_type_width_counts().items():
            widths = type_width_counts.setdefault(op_type, {w: 0 for w in _WIDTH_ORDER})
            for width, count in per_width.items():
                widths[width] += count
    type_counts = {op_type: sum(widths.values()) for op_type, widths in type_width_counts.items()}
    total = sum(type_counts.values())

    rows: list[dict[str, object]] = []
    for op_type, count in sorted(type_counts.items(), key=lambda item: item[1], reverse=True):
        widths = type_width_counts[op_type]
        type_total = sum(widths.values()) or 1
        rows.append(
            {
                "type": op_type,
                "percent_of_instructions": count / total if total else 0.0,
                "64b": widths[Width.QUAD] / type_total,
                "32b": widths[Width.WORD] / type_total,
                "16b": widths[Width.HALF] / type_total,
                "8b": widths[Width.BYTE] / type_total,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Textual reports
# ----------------------------------------------------------------------
def print_figure02() -> str:
    data = figure02_vrp_width_distribution()
    rows = []
    for width in _WIDTH_ORDER:
        rows.append(
            [
                f"{width.bits} bits",
                format_percent(data["conventional_vrp"][width]),
                format_percent(data["proposed_vrp"][width]),
            ]
        )
    return format_table(
        ["Instruction width", "Conventional VRP", "Proposed VRP"],
        rows,
        title="Figure 2: dynamic instruction distribution by value-range width",
    )
