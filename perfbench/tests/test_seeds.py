"""The seed only reorders the work: two seeds give identical results.

Each workload runs on a subset of the suite (li, compress and m88ksim,
which include both workloads whose VRS candidate counts vary with the
process's history) to keep the test short.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import scenarios
from repro.experiments import SweepSpec

EXPECTED = scenarios.load_expected(Path(scenarios.__file__).with_name("expected.json"))
SUBSET = ("li", "compress", "m88ksim")


def _subset(workload):
    if isinstance(workload, scenarios.SweepReplay):
        spec = workload.spec
        workload.spec = SweepSpec.explicit(
            [point for point in spec.iter_points() if point.workload in SUBSET],
            configs=spec.configs,
        )
    else:
        workload.points = [point for point in workload.points if point.workload in SUBSET]
    workload.expected = {
        key: value for key, value in workload.expected.items() if key.split("/")[0] in SUBSET
    }
    return workload


def _order(workload) -> list[str]:
    if isinstance(workload, scenarios.SweepReplay):
        return list(dict.fromkeys(point.workload for point in workload.spec.iter_points()))
    return [scenarios.point_id(point) for point in workload.points]


@pytest.mark.parametrize("name", ["cold-paper", "warm-fused", "sweep-replay"])
def test_two_seeds_give_identical_results(name, tmp_path, monkeypatch):
    if name == "warm-fused":
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
    outcomes, orders = [], []
    for seed in (1, 2):
        workload = _subset(scenarios.make_workload(name, seed, tmp_path, EXPECTED))
        orders.append(_order(workload))
        checked = workload.setup() + [workload.run_pass()]
        assert [outcome.failed for outcome in checked] == [[]] * len(checked)
        outcomes.append(checked[-1])

    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])
    assert outcomes[0].results == outcomes[1].results
    assert outcomes[0].attempted == len(outcomes[0].results) > 0
