"""Compare software, hardware and cooperative operand gating (§4.6/4.7).

Reproduces, for a single workload, the comparison behind Figure 15: the
energy-delay² savings of VRP/VRS (software), significance/size compression
(hardware) and their combinations.

Run with::

    python examples/hardware_vs_software.py [workload]
"""

import sys

from repro.experiments import ExperimentConfig, default_engine, format_percent, format_table
from repro.workloads import SUITE_NAMES


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "vortex"
    if name not in SUITE_NAMES:
        raise SystemExit(f"unknown workload {name!r}; pick one of {', '.join(SUITE_NAMES)}")
    engine = default_engine()

    baseline = engine.evaluate(ExperimentConfig(workload=name)).outcome("baseline")

    configurations = [
        ("VRP (software)", "vrp", "software"),
        ("VRS 50nJ (software)", "vrs", "software"),
        ("size compression (hardware)", "none", "hw-size"),
        ("significance compression (hardware)", "none", "hw-significance"),
        ("VRP + significance compression", "vrp", "sw+hw-significance"),
        ("VRS 50nJ + significance compression", "vrs", "sw+hw-significance"),
    ]

    rows = []
    for label, mechanism, policy in configurations:
        config = ExperimentConfig(workload=name, mechanism=mechanism)
        outcome = engine.evaluate(config).outcome(policy)
        rows.append(
            [
                label,
                outcome.timing.cycles,
                format_percent(1 - outcome.energy.total / baseline.energy.total),
                format_percent(1 - outcome.ed2 / baseline.ed2),
            ]
        )

    print(
        format_table(
            ["configuration", "cycles", "energy saving", "ED^2 saving"],
            rows,
            title=f"Operand gating on the {name!r} workload "
            f"(baseline: {baseline.timing.cycles} cycles)",
        )
    )


if __name__ == "__main__":
    main()
