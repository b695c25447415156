"""One benchmark session: a fresh process that sets up a workload and times passes.

``run.py`` launches sessions; each prints one JSON object on stdout:
the timeline of its set-up and passes (see ``timeline.py``), its peak
resident set after the first measured pass, and one record per measured
pass.

The set-up runs from the launch time ``run.py`` passes in, so it
includes interpreter start and imports, until the first measured pass
starts.  Passes repeat while another of average length fits in
``--budget`` seconds from launch, up to ``--max-passes``.  With
``--traced alternate`` every second pass runs under the span tracer, so
one process yields an untraced and a traced pass.  Traced passes are
probed like untraced ones; each probe is a span of its own, which the
layer metrics leave out.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds from launch for passes")
    parser.add_argument("--max-passes", type=int, default=1)
    parser.add_argument("--traced", choices=("none", "all", "alternate"), default="none")
    parser.add_argument("--scratch", required=True, help="directory for result stores")
    parser.add_argument("--spans-out", help="file to write the traced passes' spans to")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    import timeline

    clock = timeline.Timeline(args.launched)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"session: imported repro from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A cut before the heavy imports, so that they are corrected by a
    # probe on either side.
    clock.mark("setup")
    import scenarios
    import spans

    expected = scenarios.load_expected(Path(__file__).with_name("expected.json"))
    workload = scenarios.make_workload(args.workload, args.seed, Path(args.scratch), expected)
    clock.mark("setup")
    checked = workload.setup(lambda: clock.mark("setup"))

    passes: list[dict] = []
    traces: list[list] = []
    peak_rss_mib = None
    while len(passes) < args.max_passes and (
        len(passes) < (2 if args.traced == "alternate" else 1)
        or time.monotonic() - args.launched + statistics.mean(p["wall_s"] for p in passes)
        <= args.budget
    ):
        traced = args.traced == "all" or (args.traced == "alternate" and len(passes) % 2 == 1)
        phase = f"pass{len(passes)}"
        clock.mark("setup" if not passes else None)
        gc.collect()
        clock.mark(None)
        if traced:
            recorder = spans.Recorder()

            def cut() -> None:
                index = recorder.open(spans.PROBE_SPAN)
                try:
                    clock.mark(phase)
                finally:
                    recorder.close(index)

            with spans.Tracer(recorder):
                outcome = workload.run_pass(cut)
        else:
            outcome = workload.run_pass(lambda: clock.mark(phase))
        if peak_rss_mib is None:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = clock.seconds(phase)
        record = {"phase": phase, "traced": traced, "wall_s": wall_s}
        if traced:
            scale = timeline.corrected(clock.segments, phase) / wall_s
            record["layers"] = spans.layer_metrics(recorder, wall_s, scale)
            record["path"] = spans.path_counts(recorder)
            traces.append([span.to_json() for span in recorder.spans])
        passes.append(record)
        checked.append(outcome)

    if args.spans_out and traces:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": traces}, handle)
    result = {
        "segments": clock.segments,
        "peak_rss_mib": peak_rss_mib,
        "passes": passes,
        "attempted": sum(outcome.attempted for outcome in checked),
        "failed": sorted({key for outcome in checked for key in outcome.failed}),
        "failures": sum(len(outcome.failed) for outcome in checked),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
