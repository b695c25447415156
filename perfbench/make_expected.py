"""Regenerate ``expected.json``, the results every benchmark run is checked against.

Run from the repository root:

    python3 perfbench/make_expected.py

The file is written only when every evaluation path agrees:

* the 24 paper points evaluated materialized (snapshot layer on), fused
  (snapshot layer off, three times in different orders, so each point is
  analysed after different amounts of earlier work in the process) and
  replayed from the materialized run's snapshots give identical digests;
* the default sweep gives identical rows cold, replayed from its
  snapshots, and through the fused pipeline;
* the sweep's ``table2`` rows match the paper points' ``none`` summaries.

Regenerate only when a change is meant to alter simulated results, and
say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments import ExperimentEngine, ResultStore  # noqa: E402
from repro.experiments.sweep import SweepResult  # noqa: E402

import scenarios  # noqa: E402


def _points(root: Path, seed: int = 0, expect_replayed: bool = False) -> dict:
    points = scenarios.paper_points(seed)
    evaluations = ExperimentEngine(ResultStore(root), jobs=1).map(points)
    digests = {}
    for config, evaluation in zip(points, evaluations):
        summary = evaluation.summarize()
        if summary.failed or evaluation.replayed_from_store != expect_replayed:
            raise SystemExit(f"{scenarios.point_id(config)}: unexpected evaluation path")
        digests[scenarios.point_id(config)] = scenarios.summary_digest(summary)
    return digests


def _rows(root: Path, pipeline: str, source: str) -> tuple[dict, list]:
    engine = ExperimentEngine(ResultStore(root), jobs=1)
    rows = list(engine.sweep(scenarios.sweep_spec(0), pipeline=pipeline))
    if any(row.source != source for row in rows):
        raise SystemExit(f"sweep rows did not all come from {source!r}")
    return {scenarios.row_id(row): scenarios.row_values(row) for row in rows}, rows


def _agree(label: str, *variants: dict) -> None:
    first = variants[0]
    for other in variants[1:]:
        differing = sorted(
            key for key in set(first) | set(other) if first.get(key) != other.get(key)
        )
        if differing:
            raise SystemExit(f"{label}: evaluation paths disagree on {', '.join(differing)}")


def main() -> int:
    os.environ["REPRO_JOBS"] = "1"
    (HERE.parent / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="expected-", dir=HERE.parent / ".perfbench" / "tmp"))
    try:
        materialized = _points(scratch / "materialized")
        replay_root = scratch / "replayed"
        shutil.copytree(scratch / "materialized" / "traces", replay_root / "traces")
        replayed = _points(replay_root, expect_replayed=True)
        os.environ["REPRO_TRACE_STORE"] = "off"
        fused = [_points(scratch / f"fused-{seed}", seed) for seed in range(3)]
        fused_rows, _ = _rows(scratch / "fused-sweep", "fused", "fused")
        del os.environ["REPRO_TRACE_STORE"]
        _agree("paper points", materialized, replayed, *fused)

        cold_rows, rows = _rows(scratch / "sweep", "auto", "computed")
        replayed_rows, _ = _rows(scratch / "sweep", "auto", "replayed")
        _agree("sweep rows", cold_rows, replayed_rows, fused_rows)

        engine = ExperimentEngine(ResultStore(scratch / "materialized"), jobs=1)
        result = SweepResult.collect(rows)
        for config in scenarios.paper_points(0):
            if config.mechanism != "none":
                continue
            summary = engine.evaluate(config).summarize()
            for policy, energy in summary.energies.items():
                row = result.row(config.workload, "table2", policy)
                if scenarios.row_values(row) != [
                    summary.timing.cycles,
                    summary.instructions,
                    energy.total,
                    energy.energy_delay_squared(),
                ]:
                    raise SystemExit(f"{config.workload}/table2/{policy}: sweep row != evaluation")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = {
        "points": dict(sorted(materialized.items())),
        "rows": dict(sorted(cold_rows.items())),
    }
    target = HERE / "expected.json"
    target.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}: {len(expected['points'])} points, {len(expected['rows'])} sweep rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
