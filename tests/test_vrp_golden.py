"""Golden lock on the VRP/VRS analysis of every suite workload.

``tests/golden/vrp_analysis.json`` pins, per suite workload, one SHA-256
for each of four analyses: the proposed ``vrp``, the ``conventional`` VRP
of Figure 2, and the two VRP runs inside VRS (``vrs_before`` on the
train build, ``vrs_after`` on the specialized program).  A digest covers
the assigned widths, return ranges, def/use ranges, useful bits, loop
pins and global-round count.  Next to the digests the file lists the
specializations VRS applied: function, candidate position, status and
range.

Everything is keyed by position (function name, index in
``function.instructions()`` at analysis time), never by uid, so the
digests do not move when something else draws from the uid counter.
The profiling counts (``points_profiled``, ``points_no_benefit``) are
left out.  The digests must not depend on ``PYTHONHASHSEED``; CI runs
this file under two fixed seeds.

Regenerate only on purpose, and say why in CHANGES.md::

    PYTHONPATH=src python -m pytest -q tests/test_vrp_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import VRPConfig, VRPResult, VRSConfig, run_vrp, run_vrs
from repro.core.propagation import FunctionAnalysis
from repro.ir import Definition
from repro.workloads import SUITE_NAMES, workload_by_name

GOLDEN = Path(__file__).parent / "golden" / "vrp_analysis.json"


def _range(value) -> list[int]:
    return [value.lo, value.hi]


def _positions(analysis: FunctionAnalysis) -> dict[int, int]:
    """uid -> index in ``function.instructions()`` when the graph was built."""
    return {uid: index for index, uid in enumerate(analysis.graph.instructions)}


def _definition_key(definition: Definition, positions: dict[int, int]) -> list:
    position = -1 if definition.uid is None else positions[definition.uid]
    return [definition.kind, definition.reg.index, position, definition.callee or ""]


def _function_payload(result: VRPResult, name: str) -> dict:
    analysis = result.analyses[name]
    positions = _positions(analysis)
    pins = analysis.pins
    return {
        "widths": [int(result.widths[uid]) for uid in positions],
        "return": _range(result.return_ranges[name]),
        "defs": sorted(
            [_definition_key(d, positions), _range(r)] for d, r in analysis.def_range.items()
        ),
        "uses": sorted(
            [[positions[uid], reg.index], _range(r)]
            for (uid, reg), r in analysis.use_range.items()
        ),
        "useful": sorted(
            [_definition_key(d, positions), bits] for d, bits in analysis.useful_bits.items()
        ),
        "pins": {
            "defs": sorted([positions[uid], _range(r)] for uid, r in pins.def_ranges.items()),
            "uses": sorted(
                [[positions[uid], reg.index], _range(r)]
                for (uid, reg), r in pins.use_ranges.items()
            ),
            "bounded": pins.bounded_loops,
            "examined": pins.examined_loops,
        },
    }


def vrp_digest(result: VRPResult) -> str:
    """Position-keyed SHA-256 over everything ``result`` decided."""
    payload = {
        "rounds": result.global_rounds,
        "functions": {name: _function_payload(result, name) for name in sorted(result.analyses)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def analysis_record(name: str) -> dict:
    """The golden entry of one suite workload, computed by the current code."""
    workload = workload_by_name(name)
    record: dict = {}
    for label, config in (("vrp", VRPConfig()), ("conventional", VRPConfig().conventional())):
        program = workload.build()
        workload.apply_input(program, "ref")
        record[label] = vrp_digest(run_vrp(program, config))

    program = workload.build()
    workload.apply_input(program, "train")
    vrs = run_vrs(program, VRSConfig())
    record["vrs_before"] = vrp_digest(vrs.vrp_before)
    record["vrs_after"] = vrp_digest(vrs.vrp_after)
    before = {
        function: _positions(analysis) for function, analysis in vrs.vrp_before.analyses.items()
    }
    record["vrs_specialized"] = sorted(
        [
            outcome.function,
            before[outcome.function][outcome.uid],
            outcome.status,
            _range(outcome.value_range),
        ]
        for outcome in vrs.outcomes
        if outcome.status == "specialized"
    )
    return record


@pytest.fixture(scope="module")
def observed(request) -> dict:
    records = {name: analysis_record(name) for name in SUITE_NAMES}
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return records


@pytest.mark.suite
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_analysis_matches_golden(observed, name):
    golden = json.loads(GOLDEN.read_text())
    assert observed[name] == golden[name], (
        f"{name}: the VRP/VRS analysis no longer matches {GOLDEN.name}; if the "
        "change is intended, regenerate with --update-golden and explain it in CHANGES.md"
    )
