"""Benchmark of the operand-gating reproduction, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 40 --trace 0

Workloads (see WORKLOADS.md for why each was chosen):

* ``cold-paper``   -- 24 paper points in a fresh process, empty store,
                      materialized pipeline with snapshots;
* ``warm-fused``   -- the same 24 points in a warmed-up process, fresh
                      store per pass, fused pipeline;
* ``sweep-replay`` -- the default 384-row design-space sweep replayed
                      from stored trace snapshots.

A run lasts about ``--seconds``.  It launches session processes
(``session.py``) one after another with ``REPRO_JOBS=1``; each sets the
workload up in a fresh process and times passes.  A cold pass needs a
fresh process, so ``cold-paper`` sessions time one pass each and repeat
while another fits (at least two); the warm workloads run two sessions
that each time passes for half the run.  Every result is checked
against ``expected.json``.

Times are corrected for the host's speed (see ``timeline.py``): each
interval between two units of work is rescaled by a reference loop
timed around it, to a host on which that loop takes 10 ms.  The raw
medians are printed before the result.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` (medians over sessions or passes) with ``--trace 0``,
its per-layer metrics (medians over traced passes) with ``--trace 1``.
Traced runs also time untraced passes, for the tracing overhead, and
print the path counts of every traced pass.

Exits with 2, printing no result, when the repository's ``src/`` is
missing or a ``REPRO_*`` variable the workload does not set itself is
present in the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import timeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"

WORKLOADS = ("cold-paper", "warm-fused", "sweep-replay")

#: ``REPRO_*`` variables each workload sets for its sessions.  Any other
#: ``REPRO_*`` variable could change the measured path, so it is refused.
WORKLOAD_ENV = {
    "cold-paper": {"REPRO_JOBS": "1"},
    "warm-fused": {"REPRO_JOBS": "1", "REPRO_TRACE_STORE": "off"},
    "sweep-replay": {"REPRO_JOBS": "1"},
}
STORE_ENV = "REPRO_RESULT_STORE"

#: Path counts of one traced pass at the commit that defined the
#: benchmark.  A traced run prints any difference; it is not a failure.
EXPECTED_PATHS = {
    "cold-paper": {"block_compiles": 32, "snapshot_writes": 24, "fused_compiles": 0},
    "warm-fused": {
        "timing_compiles": 0,
        "block_compiles": 8,
        "fused_compiles": 2,
        "fused_lookups": 24,
        "fused_hits": 22,
    },
    "sweep-replay": {
        "builds": 0,
        "machine_runs": 0,
        "analysis_calls": 0,
        "block_compiles": 0,
        "fused_compiles": 0,
        "timing_compiles": 0,
    },
}

#: Measured passes per session of the warm workloads, at most.  The
#: fused program cache holds 32 programs: the warm-up fills 24 and each
#: ``warm-fused`` pass adds 2 (see WORKLOADS.md), so the first 4 passes
#: take the same path and the fifth starts evicting.
WARM_PASSES = 4

#: The whole run must end within 180 s; sessions are killed past this.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    """Python version, CPU count and code identity, recorded with each result."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _session(args, env: dict, scratch: Path, deadline: float, **options) -> dict:
    """Launch one session process and wait for its JSON result."""
    command = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scratch",
        str(scratch),
    ]
    for name, value in options.items():
        command += [f"--{name.replace('_', '-')}", str(value)]
    launched = time.monotonic()
    command += ["--launched", repr(launched)]
    try:
        finished = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"session did not finish before the run's deadline: {exc}") from None
    sys.stderr.write(finished.stderr)
    if finished.returncode != 0:
        raise BenchmarkError(f"session exited with {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def _run_sessions(args, env: dict, scratch: Path, stem: str) -> list[dict]:
    """Launch the run's sessions back to back.

    ``cold-paper`` times one pass per fresh process and repeats while
    another session of average length fits (at least two); traced runs
    alternate traced and untraced sessions.  The warm workloads pay a
    long set-up per process, so they run two sessions, each timing
    passes until its half of the run is spent; traced runs alternate
    untraced and traced passes within each session.
    """
    started = time.monotonic()
    deadline = started + DEADLINE_S
    length = min(args.seconds, DEADLINE_S)
    spans_dir = OUTPUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    sessions: list[dict] = []

    def launch(**options) -> None:
        spans_out = spans_dir / f"{stem}-s{len(sessions)}.json"
        sessions.append(_session(args, env, scratch, deadline, spans_out=spans_out, **options))

    if args.workload == "cold-paper":
        while len(sessions) < 2 or (time.monotonic() - started) * (1 + 1 / len(sessions)) <= length:
            launch(traced="all" if args.trace and len(sessions) % 2 else "none")
    else:
        for left in (2, 1):
            launch(
                traced="alternate" if args.trace else "none",
                budget=(started + length - time.monotonic()) / left,
                max_passes=WARM_PASSES,
            )
    return sessions


def _report_paths(workload: str, sessions: list[dict]) -> None:
    expected = EXPECTED_PATHS[workload]
    for number, session in enumerate(sessions):
        for record in session["passes"]:
            if not record["traced"]:
                continue
            path = record["path"]
            differs = [
                f"{key} {path[key]} (expected {value})"
                for key, value in expected.items()
                if path[key] != value
            ]
            verdict = "differs: " + ", ".join(differs) if differs else "as expected"
            counts = " ".join(f"{key}={value}" for key, value in path.items())
            print(f"path {workload} session {number}: {counts} -- {verdict}")


def _overhead(sessions: list[dict]) -> float:
    """Traced over untraced corrected pass time, minus 1; within a session when it has both."""

    def corrected(session: dict, traced: bool) -> list[float]:
        return [
            timeline.corrected(session["segments"], record["phase"])
            for record in session["passes"]
            if record["traced"] == traced
        ]

    ratios = [
        statistics.median(corrected(session, True)) / statistics.median(corrected(session, False))
        for session in sessions
        if corrected(session, True) and corrected(session, False)
    ]
    if not ratios:
        traced = [value for session in sessions for value in corrected(session, True)]
        untraced = [value for session in sessions for value in corrected(session, False)]
        ratios = [statistics.median(traced) / statistics.median(untraced)]
    return statistics.median(ratios) - 1.0


def _times(sessions: list[dict]) -> dict:
    """Set-up and untraced pass times of every session, raw and corrected for host speed."""

    def phases(seconds: Callable[[list, str], float]) -> dict:
        return {
            "setup_s": [seconds(session["segments"], "setup") for session in sessions],
            "wall_s": [
                seconds(session["segments"], record["phase"])
                for session in sessions
                for record in session["passes"]
                if not record["traced"]
            ],
        }

    segments = [segment for session in sessions for segment in session["segments"]]
    return {
        "median_probe_s": statistics.median(timeline.probes(segments)),
        "raw": phases(lambda own, phase: sum(seg[1] for seg in own if seg[0] == phase)),
        "corrected": phases(timeline.corrected),
    }


def _metrics(args, sessions: list[dict], times: dict, spec: dict) -> dict:
    if args.trace == 0:
        attempted = sum(session["attempted"] for session in sessions)
        values = {
            "setup_s": statistics.median(times["corrected"]["setup_s"]),
            "wall_s": statistics.median(times["corrected"]["wall_s"]),
            "peak_rss_mb": statistics.median(session["peak_rss_mib"] for session in sessions),
            "ok_frac": 1.0 - sum(session["failures"] for session in sessions) / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        passes = [record for session in sessions for record in session["passes"]]
        traced = [record for record in passes if record["traced"]]
        values = {
            name: statistics.median(record["layers"][name] for record in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = _overhead(sessions)
        wanted = spec["per_layer"]
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    # A terminated run must still kill and reap the session it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    allowed = set(WORKLOAD_ENV[args.workload]) | {STORE_ENV}
    stray = sorted(name for name in os.environ if name.startswith("REPRO_") and name not in allowed)
    if stray:
        print(
            f"run.py: refusing to run with {', '.join(stray)} set; "
            "these change the measured path",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    (OUTPUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT / "tmp"))
    env = dict(os.environ)
    env.update(WORKLOAD_ENV[args.workload])
    env[STORE_ENV] = str(scratch / "default-store")
    env["TMPDIR"] = str(scratch)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        sessions = _run_sessions(args, env, scratch, stem)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        _report_paths(args.workload, sessions)
    times = _times(sessions)
    failed = sum(session["failures"] for session in sessions)
    result = {
        "correct": failed == 0,
        "attempted": sum(session["attempted"] for session in sessions),
        "failed": failed,
        "metrics": _metrics(args, sessions, times, spec),
    }
    environment = _environment()
    (OUTPUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "arguments": vars(args),
        "environment": environment,
        "times": times,
        "sessions": sessions,
        **result,
    }
    (OUTPUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    failing = sorted({key for session in sessions for key in session["failed"]})
    if failing:
        print(f"failed points: {', '.join(failing)}")
    for kind in ("raw", "corrected"):
        medians = {name: round(statistics.median(values), 4) for name, values in times[kind].items()}
        counts = {name: len(values) for name, values in times[kind].items()}
        print(f"{kind} medians {json.dumps(medians)} over {json.dumps(counts)}")
    print(
        f"median probe {times['median_probe_s'] * 1e3:.3f} ms "
        f"(corrected times assume {timeline.REFERENCE_S * 1e3:g} ms)"
    )
    print("environment " + json.dumps(environment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
