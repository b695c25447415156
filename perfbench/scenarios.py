"""The benchmark's three workloads, driven through the public engine API.

Each workload runs in a session process (see ``session.py``): a set-up
step, then measured passes.  A pass calls ``on_unit()`` after each unit
of work (a point, or a sweep's trace-signature group), where the session
cuts its timeline; its results are checked against ``expected.json``
after the engine returns.

* ``cold-paper``: 24 points (the 8 suite workloads x ``none``/``vrp``/
  ``vrs`` at 50 nJ) in a fresh process against an empty store with the
  snapshot layer on, so ``auto`` picks the materialized pipeline.
* ``warm-fused``: the same 24 points, once as a warm-up during set-up,
  then once per pass with a fresh engine and a fresh empty store, with
  ``REPRO_TRACE_STORE=off`` so ``auto`` picks the fused pipeline.
* ``sweep-replay``: the default 384-row sweep, cold during set-up (one
  simulation and one snapshot per workload), then replayed from those
  snapshots once per pass.

The seed only permutes the order in which points (for the sweep: the
trace-signature groups) are handed to the engine.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments import (
    EvaluationSummary,
    ExperimentConfig,
    ExperimentEngine,
    ResultStore,
    SweepRow,
    SweepSpec,
)
from repro.workloads import SUITE_NAMES

MECHANISMS = ("none", "vrp", "vrs")


def paper_points(seed: int) -> list[ExperimentConfig]:
    """The 24 paper points in the order seed ``seed`` hands them out."""
    points = [
        ExperimentConfig(workload=name, mechanism=mechanism)
        for name in SUITE_NAMES
        for mechanism in MECHANISMS
    ]
    random.Random(seed).shuffle(points)
    return points


def sweep_spec(seed: int) -> SweepSpec:
    """The default sweep with its trace-signature groups in seed order.

    Within a group the points keep the cartesian order, so the batched
    timing kernel sees the same machine-config lanes whatever the seed.
    """
    cartesian = SweepSpec.cartesian()
    by_workload: dict[str, list] = {}
    for point in cartesian.iter_points():
        by_workload.setdefault(point.workload, []).append(point)
    order = list(by_workload)
    random.Random(seed).shuffle(order)
    return SweepSpec.explicit(
        [point for name in order for point in by_workload[name]], configs=cartesian.configs
    )


def point_id(config: ExperimentConfig) -> str:
    return f"{config.workload}/{config.mechanism}"


def row_id(row: SweepRow) -> str:
    return f"{row.workload}/{row.config}/{row.policy}"


def summary_digest(summary: EvaluationSummary) -> str:
    """SHA-256 over the canonical summary JSON, minus the host-dependent parts.

    ``vrp.analysis_seconds`` is the host time VRP took, so it differs on
    every run; ``format_version`` and ``extra`` say nothing about the
    simulated result.  The JSON round trip first turns every key into a
    string, so live and restored summaries serialize identically.

    VRS's count of profiled points is not deterministic: which candidates
    it profiles depends on the iteration order of def-use sets, so on the
    hash seed and on how many instructions the process built before.  The
    extra candidates are always rejected as having no benefit, so
    ``points_profiled`` and ``points_no_benefit`` move together (li and
    m88ksim) and only their difference is stable; the digest keeps that.
    """
    data = json.loads(json.dumps(summary.to_json_dict()))
    del data["format_version"], data["extra"]
    if data["vrp"] is not None:
        data["vrp"].pop("analysis_seconds", None)
    if data["vrs"] is not None:
        vrs = data["vrs"]
        vrs["points_with_benefit"] = vrs.pop("points_profiled") - vrs.pop("points_no_benefit")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def row_values(row: SweepRow) -> list:
    return [row.cycles, row.instructions, row.energy_nj, row.ed2]


@dataclass
class Outcome:
    """What one pass (or one set-up step) evaluated.

    ``results`` maps each point (or row) id to its digest (or values);
    ``failed`` lists the ids that failed, came back as errors, are
    missing, or differ from the expected results.
    """

    results: dict
    attempted: int
    failed: list = field(default_factory=list)


def compare(results: dict, errors: set, expected: dict) -> Outcome:
    ids = set(results) | set(expected)
    failed = sorted(
        key
        for key in ids
        if key in errors or key not in expected or results.get(key) != expected[key]
    )
    return Outcome(results, len(ids), failed)


def _nothing() -> None:
    pass


def load_expected(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class PaperPoints:
    """``cold-paper`` and ``warm-fused``: the 24 paper points via ``engine.map``."""

    def __init__(self, name: str, seed: int, scratch: Path, expected: dict) -> None:
        self.name = name
        self.points = paper_points(seed)
        self.scratch = scratch
        self.expected = expected["points"]

    def setup(self, on_unit: Callable[[], None] = _nothing) -> list[Outcome]:
        # The warm-up pass fills every process-wide cache (compiled code,
        # signature memos) that a long-lived process keeps.
        return [self.run_pass(on_unit)] if self.name == "warm-fused" else []

    def run_pass(self, on_unit: Callable[[], None] = _nothing) -> Outcome:
        """Evaluate every point; ``on_unit()`` runs after each point and when the engine returns."""
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            engine = ExperimentEngine(ResultStore(root), jobs=1)
            evaluations = engine.map(
                self.points, on_error="keep", on_result=lambda index, evaluation: on_unit()
            )
            on_unit()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        results, errors = {}, set()
        for config, evaluation in zip(self.points, evaluations):
            summary = evaluation.summarize()
            results[point_id(config)] = summary_digest(summary)
            if summary.failed:
                errors.add(point_id(config))
        return compare(results, errors, self.expected)


class SweepReplay:
    """``sweep-replay``: the default sweep, replayed from stored snapshots."""

    name = "sweep-replay"

    def __init__(self, seed: int, scratch: Path, expected: dict) -> None:
        self.spec = sweep_spec(seed)
        self.store_root = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        self.expected = expected["rows"]

    def setup(self, on_unit: Callable[[], None] = _nothing) -> list[Outcome]:
        # The cold sweep simulates each workload once and persists its
        # snapshot; every measured pass replays those snapshots.
        return [self.run_pass(on_unit)]

    def run_pass(self, on_unit: Callable[[], None] = _nothing) -> Outcome:
        """Run the sweep; ``on_unit()`` runs after each trace-signature group and at the end."""
        rows = []
        left = Counter(point.workload for point in self.spec.iter_points())
        engine = ExperimentEngine(ResultStore(self.store_root), jobs=1)
        for row in engine.sweep(self.spec):
            rows.append(row)
            left[row.workload] -= 1
            # Groups are scored lazily: the next row needs the next group.
            if not left[row.workload]:
                on_unit()
        on_unit()
        results = {row_id(row): row_values(row) for row in rows}
        errors = {row_id(row) for row in rows if row.failed}
        return compare(results, errors, self.expected)


def make_workload(name: str, seed: int, scratch: Path, expected: dict):
    if name == "sweep-replay":
        return SweepReplay(seed, scratch, expected)
    if name in ("cold-paper", "warm-fused"):
        return PaperPoints(name, seed, scratch, expected)
    raise ValueError(f"unknown workload {name!r}")
