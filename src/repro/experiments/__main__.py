"""Command-line interface to the experiment engine and result store.

Usage::

    python -m repro.experiments run [--workload NAME ...] [--mechanism M]
                                    [--threshold NJ] [--conventional-vrp]
                                    [--policy P] [--jobs N]
                                    [--pipeline auto|fused|materialized] [--json]
    python -m repro.experiments sweep [--workload NAME ...] [--config NAME ...]
                                      [--policy P ...] [--mechanism M]
                                      [--threshold NJ] [--conventional-vrp]
                                      [--pipeline auto|fused|materialized] [--json]
    python -m repro.experiments profile [--workload NAME] [--mechanism M]
                                        [--top N]
    python -m repro.experiments diverge [--workload NAME | --program FILE]
                                        [--tiers A B] [--mode sim|timing|energy]
                                        [--kernels A B] [--inject SPEC|auto]
                                        [--max-instructions N] [--shrink]
                                        [--out DIR] [--replay DIR] [--json]
    python -m repro.experiments ls
    python -m repro.experiments clear [--yes]

``run`` evaluates the requested configurations (all eight suite workloads
by default) through the engine — memo, then persistent store, then a
parallel compute fan-out — and prints one row per workload, whose
``source`` says where it came from: ``computed`` (simulated in this
run), ``replayed`` (rebuilt from a stored trace snapshot) or ``store``
(a stored summary).  ``--policy all`` prints one energy column per
registered gating policy (``gating.registry()``); every summary carries
all of them because cold evaluations account the whole policy set in a
single fused trace walk.
``--pipeline`` selects the cold-compute path (``docs/fused.md``):
``fused`` streams simulate→time→account per record without materializing
a trace, ``materialized`` builds the classic trace, and ``auto`` (the
default) streams whenever no trace snapshot would be persisted anyway.
The report's footer names the pipeline that cold rows ran through; the
choice is bit-exact either way.

``sweep`` evaluates a design-space *matrix* — machine configs × gating
policies × workloads — through the batched sweep path
(``ExperimentEngine.sweep``; see ``docs/sweeps.md``): each workload is
one group that the engine resolves as it resolves a ``run`` point, with
every machine config as a lane — one snapshot replay or simulation, one
multi-config timing-kernel walk per cache/predictor shape group, one
fused accounting walk per trace.  From a warm store the whole matrix
completes with zero simulator calls.  The default matrix (8 configs × 6
policies × 8 workloads = 384 points) reproduces the paper's ED²
comparisons (Figures 11/15) across machines.

``diverge`` is the correctness side of the tooling: it co-executes two
simulator tiers in lockstep (or bisects two analysis kernels) over one
program and reports the *first* diverging step instead of an end-of-run
summary mismatch — optionally seeding a single-instruction fault,
shrinking the failing program, and writing a self-contained reproducer
under ``.repro-failures/`` (see ``docs/coexec.md``).

``profile`` runs one workload's full build → transform → simulate →
account pipeline under ``cProfile`` (bypassing every cache layer) and
prints the top-N functions by cumulative time — the standard
before/after evidence for performance work.  ``ls`` and ``clear``
inspect and empty the content-addressed result store.

Every subcommand first validates the ``REPRO_*`` environment
(:func:`repro.settings.check`): a malformed value or an undeclared name
exits 2 with the variable named on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from .. import settings
from ..coexec.kernels import TIMING_COMPARATORS
from ..hardware import gating
from ..sim.fusedc import PIPELINES
from ..workloads import SUITE_NAMES
from .engine import ExperimentConfig, _resolve_pipeline, default_engine
from .report import format_percent, format_table
from .runner import POLICY_NAMES, WorkloadEvaluation
from .store import ResultStore
from .sweep import SweepResult, SweepSpec, default_sweep_configs


# ----------------------------------------------------------------------
# Shared argument plumbing (run / profile / sweep)
# ----------------------------------------------------------------------
def _add_config_arguments(parser: argparse.ArgumentParser, repeatable_workload: bool) -> None:
    """The experiment-configuration arguments every evaluating command shares."""
    if repeatable_workload:
        parser.add_argument(
            "--workload",
            action="append",
            metavar="NAME",
            help="workload to evaluate (repeatable; default: the whole suite)",
        )
    else:
        parser.add_argument(
            "--workload",
            default="ijpeg",
            metavar="NAME",
            help="workload to profile (default: ijpeg)",
        )
    parser.add_argument(
        "--mechanism",
        choices=("none", "vrp", "vrs"),
        default="none",
        help="width mechanism to apply (default: none)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=50.0,
        metavar="NJ",
        help="VRS specialization-cost threshold in nanojoules (default: 50)",
    )
    parser.add_argument(
        "--conventional-vrp",
        action="store_true",
        help="use conventional (non-useful-range) VRP",
    )


def _check_workloads(workloads: list[str]) -> int:
    """Print an error and return 2 on unknown workload names, else 0."""
    unknown = sorted(set(workloads) - set(SUITE_NAMES))
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"the suite is: {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    return 0


def _experiment_configs(args: argparse.Namespace, workloads: list[str]) -> list[ExperimentConfig]:
    """One ExperimentConfig per workload from the shared arguments."""
    return [
        ExperimentConfig(
            workload=name,
            mechanism=args.mechanism,
            threshold_nj=args.threshold,
            conventional_vrp=args.conventional_vrp,
        )
        for name in workloads
    ]


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _source(evaluation: WorkloadEvaluation) -> str:
    """Where ``run`` got a row: computed, replayed from a snapshot, or the store."""
    if evaluation.freshly_computed:
        return "computed"
    return "replayed" if evaluation.replayed_from_store else "store"


def _cmd_run(args: argparse.Namespace) -> int:
    engine = default_engine()
    workloads = args.workload or list(SUITE_NAMES)
    status = _check_workloads(workloads)
    if status:
        return status
    configs = _experiment_configs(args, workloads)
    # Resolve up front so the report can say which pipeline cold rows ran
    # through (warm rows come from the store and never touch either).
    pipeline = _resolve_pipeline(args.pipeline, engine.store)
    start = time.perf_counter()
    evaluations = engine.map(configs, jobs=args.jobs, pipeline=pipeline)
    elapsed = time.perf_counter() - start

    if args.json:
        policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
        payload = {
            "mechanism": args.mechanism,
            "threshold_nj": args.threshold,
            "conventional_vrp": args.conventional_vrp,
            "pipeline": pipeline,
            "seconds": elapsed,
            "rows": [
                {
                    "workload": evaluation.workload.name,
                    "instructions": evaluation.total_dynamic_instructions,
                    "cycles": evaluation.outcome("baseline").cycles,
                    "source": _source(evaluation),
                    "energy_nj": {
                        name: evaluation.outcome(name).energy.total for name in policies
                    },
                    "ed2": {name: evaluation.outcome(name).ed2 for name in policies},
                }
                for evaluation in evaluations
            ],
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0

    title = f"mechanism={args.mechanism} policy={args.policy}"
    if args.mechanism == "vrs":
        title += f" threshold={args.threshold:g}nJ"
    rows = []
    if args.policy == "all":
        # Every summary materializes all gating policies from one fused
        # trace walk, so the whole matrix is available without re-walking.
        headers = ["workload", "instructions", "cycles"]
        headers += [f"E({name})" for name in POLICY_NAMES] + ["source"]
        for evaluation in evaluations:
            rows.append(
                [
                    evaluation.workload.name,
                    evaluation.total_dynamic_instructions,
                    evaluation.outcome("baseline").cycles,
                ]
                + [evaluation.outcome(name).energy.total for name in POLICY_NAMES]
                + [_source(evaluation)]
            )
    else:
        headers = ["workload", "instructions", "cycles", "energy (nJ)", "ED^2", "source"]
        for evaluation in evaluations:
            outcome = evaluation.outcome(args.policy)
            rows.append(
                [
                    evaluation.workload.name,
                    evaluation.total_dynamic_instructions,
                    outcome.cycles,
                    outcome.energy.total,
                    outcome.ed2,
                    _source(evaluation),
                ]
            )
    print(format_table(headers, rows, title=title))
    cold = sum(1 for evaluation in evaluations if evaluation.freshly_computed)
    print(
        f"{len(evaluations)} configuration(s) in {elapsed:.2f}s "
        f"({cold} cold via the {pipeline} pipeline)"
    )
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = default_engine()
    workloads = args.workload or list(SUITE_NAMES)
    status = _check_workloads(workloads)
    if status:
        return status

    available = dict(default_sweep_configs())
    config_names = args.config or list(available)
    unknown = sorted(set(config_names) - set(available))
    if unknown:
        print(
            f"unknown machine config(s): {', '.join(unknown)}; "
            f"available: {', '.join(available)}",
            file=sys.stderr,
        )
        return 2
    configs = tuple((name, available[name]) for name in config_names)

    # The policy axis enumerates the public registry; "all" (the default)
    # means every registered policy.
    if not args.policy or "all" in args.policy:
        policies = tuple(gating.registry())
    else:
        policies = tuple(dict.fromkeys(args.policy))

    spec = SweepSpec.cartesian(
        workloads=workloads,
        configs=configs,
        policies=policies,
        mechanism=args.mechanism,
        threshold_nj=args.threshold,
        conventional_vrp=args.conventional_vrp,
    )
    start = time.perf_counter()
    result = SweepResult.collect(engine.sweep(spec, pipeline=args.pipeline))
    elapsed = time.perf_counter() - start
    result.seconds = elapsed

    # ED² savings need the baseline policy's rows as the reference.
    savings = result.ed2_savings() if "baseline" in policies else None

    if args.json:
        payload = result.to_json_dict()
        if savings is not None:
            payload["ed2_savings"] = [
                {"config": config, "policy": policy, "savings": cells}
                for (config, policy), cells in savings.items()
            ]
        payload["pareto"] = [row.to_json_dict() for row in result.pareto_frontier()]
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0

    title = f"sweep: {len(config_names)} configs x {len(policies)} policies x {len(workloads)} workloads ({len(result)} points)"
    if savings is not None:
        headers = ["config", "policy"] + list(workloads) + ["mean"]
        rows = []
        for (config, policy), cells in savings.items():
            if policy == "baseline":
                continue  # savings vs itself: identically zero
            values = [cells[name] for name in workloads]
            rows.append(
                [config, policy]
                + [format_percent(value) for value in values]
                + [format_percent(sum(values) / len(values))]
            )
        print(format_table(headers, rows, title=title + " - ED^2 savings vs baseline policy"))
        print()
    else:
        print(title + " (no baseline policy on the axis; ED^2 savings omitted)")
        print()

    pareto_rows = []
    for name in workloads:
        for row in result.pareto_frontier(name):
            pareto_rows.append(
                [name, row.config, row.policy, row.cycles, row.energy_nj]
            )
    print(
        format_table(
            ["workload", "config", "policy", "cycles", "energy (nJ)"],
            pareto_rows,
            title="Pareto frontier (cycles vs energy, per workload)",
        )
    )
    rate = len(result) / elapsed * 60.0 if elapsed > 0 else float("inf")
    # Per-row provenance: how each trace signature was resolved ("fused"
    # rows streamed through the fused pipeline, no trace ever existed).
    sources: dict[str, int] = {}
    for row in result:
        sources[row.source] = sources.get(row.source, 0) + 1
    provenance = ", ".join(f"{name}={count}" for name, count in sorted(sources.items()))
    print(
        f"{len(result)} points in {elapsed:.2f}s ({rate:,.0f} points/minute), "
        f"{result.simulations} cold simulation(s); row sources: {provenance}"
    )
    return 0


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------
def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one workload's cold evaluation pipeline (no cache layers)."""
    import cProfile
    import io
    import pstats

    from ..workloads import workload_by_name

    status = _check_workloads([args.workload])
    if status:
        return status
    workload = workload_by_name(args.workload)
    engine = default_engine()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    evaluation = engine.compute(
        ExperimentConfig(
            workload=args.workload,
            mechanism=args.mechanism,
            threshold_nj=args.threshold,
            conventional_vrp=args.conventional_vrp,
        ),
        workload=workload,
    )
    evaluation.summarize()
    profiler.disable()
    elapsed = time.perf_counter() - start

    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(args.top)
    print(
        f"profile: workload={args.workload} mechanism={args.mechanism} "
        f"({elapsed:.2f}s, "
        f"{evaluation.total_dynamic_instructions} dynamic instructions)"
    )
    print(stream.getvalue().rstrip())
    return 0


# ----------------------------------------------------------------------
# diverge
# ----------------------------------------------------------------------
def _diverge_program(args: argparse.Namespace) -> tuple[str, object] | int:
    """Resolve the program under test to ``(source text, Program)``."""
    from pathlib import Path

    from ..asm import assemble_program
    from ..ir.printer import format_program
    from ..workloads import workload_by_name

    if args.program is not None:
        source = Path(args.program).read_text(encoding="utf-8")
        return source, assemble_program(source)
    name = args.workload or "li"
    status = _check_workloads([name])
    if status:
        return status
    workload = workload_by_name(name)
    program = workload.build()
    workload.apply_input(program, "ref")
    # Round-trip through the printer so the program under test and the
    # reproducer's program.asm are the same text.
    source = format_program(program)
    return source, assemble_program(source)


def _diverge_report(divergence, args: argparse.Namespace, extra: dict | None = None) -> int:
    if args.json:
        payload = {"divergence": None if divergence is None else divergence.to_json_dict()}
        if extra:
            payload.update(extra)
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif divergence is None:
        print("no divergence: both sides agree")
    else:
        print(divergence.describe())
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
    return 0 if divergence is None else 1


def _cmd_diverge(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..asm import assemble_program
    from ..coexec import (
        Fault,
        Lockstep,
        compare_accounting,
        compare_timing,
        eligible_faults,
        replay_reproducer,
        resolve_fault_uid,
        shrink_source,
        write_reproducer,
    )
    from ..sim.machine import Machine

    if args.replay is not None:
        replayed, recorded = replay_reproducer(Path(args.replay))
        faithful = replayed is not None and replayed.signature() == recorded.signature()
        if args.json:
            payload = {
                "faithful": faithful,
                "recorded": recorded.to_json_dict(),
                "replayed": None if replayed is None else replayed.to_json_dict(),
            }
            json.dump(payload, sys.stdout, indent=2)
            print()
        elif faithful:
            print(f"reproducer replays faithfully:\n{recorded.describe()}")
        elif replayed is None:
            print("reproducer no longer diverges (recorded divergence below)")
            print(recorded.describe())
        else:
            print("reproducer diverges DIFFERENTLY than recorded:")
            print(f"recorded:\n{recorded.describe()}\nreplayed:\n{replayed.describe()}")
        return 0 if faithful else 1

    resolved = _diverge_program(args)
    if isinstance(resolved, int):
        return resolved
    source, program = resolved

    if args.mode in ("timing", "energy"):
        trace = Machine(program, max_instructions=args.max_instructions).run(
            collect_trace=True
        ).trace
        if args.mode == "timing":
            divergence = compare_timing(trace, kernels=tuple(args.kernels))
        else:
            divergence = compare_accounting(trace)
        return _diverge_report(divergence, args)

    fault = None
    if args.inject is not None:
        if args.inject == "auto":
            machine = Machine(program, max_instructions=args.max_instructions)
            executed = set(machine.run(collect_trace=True).trace.uid_counts())
            candidates = eligible_faults(program, executed_uids=executed)
            if not candidates:
                print("no executed mutable instruction to inject into", file=sys.stderr)
                return 2
            fault = candidates[0]
        else:
            fault = Fault.parse(args.inject)
            if resolve_fault_uid(fault, program) is None:
                print(f"fault site {args.inject!r} not found or not mutable", file=sys.stderr)
                return 2

    tiers = tuple(args.tiers)
    divergence = Lockstep(
        program, tiers=tiers, max_instructions=args.max_instructions, fault=fault
    ).run()
    extra: dict = {}
    if fault is not None:
        extra["fault"] = fault.spec()

    if divergence is not None and args.shrink:
        # Deleting lines can turn a terminating program into a spinner, so
        # candidate runs get a budget scaled to where the original run
        # diverged: a candidate that would only diverge far beyond that is
        # rejected (both tiers hit the limit identically = agreement)
        # instead of burning the full --max-instructions budget.
        shrink_limit = min(args.max_instructions, max(10_000, 4 * divergence.step + 1_000))

        def check(candidate: str):
            try:
                candidate_program = assemble_program(candidate)
            except Exception:
                return None
            if fault is not None and resolve_fault_uid(fault, candidate_program) is None:
                return None
            try:
                return Lockstep(
                    candidate_program,
                    tiers=tiers,
                    max_instructions=shrink_limit,
                    fault=fault,
                ).run()
            except Exception:
                return None

        source, divergence, checks = shrink_source(source, check)
        # The reproducer records the limit the shrunk divergence was
        # found under, so a replay re-runs the identical comparison.
        directory = write_reproducer(
            source,
            divergence,
            tiers=tiers,
            max_instructions=shrink_limit,
            fault=fault,
            directory=Path(args.out) if args.out is not None else None,
        )
        extra["shrunk_lines"] = len(source.splitlines())
        extra["checks"] = checks
        extra["reproducer"] = str(directory)
    return _diverge_report(divergence, args, extra)


def _cmd_ls(_args: argparse.Namespace) -> int:
    store = ResultStore()
    if not store.enabled:
        print("result store is disabled (REPRO_RESULT_STORE=off)")
        return 0
    entries = store.entries()
    print(f"store root: {store.root}")
    if not entries:
        print("(empty)")
        return 0
    rows = []
    now = time.time()
    for entry in entries:
        config = entry.mechanism
        if entry.mechanism == "vrs":
            config += f"@{entry.threshold_nj:g}nJ"
        if entry.conventional_vrp:
            config += " (conventional)"
        rows.append(
            [
                entry.key[:12],
                entry.workload,
                config,
                f"{entry.size_bytes / 1024:.1f} KiB",
                f"{(now - entry.created) / 60:.1f} min ago",
            ]
        )
    print(format_table(["key", "workload", "mechanism", "size", "created"], rows))
    print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    store = ResultStore()
    if not store.enabled:
        print("result store is disabled (REPRO_RESULT_STORE=off)")
        return 0
    report = store.fsck(repair=not args.no_repair)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return 0 if report.clean else 1
    print(f"store root: {store.root}")
    print(
        f"entries: {report.ok_entries}/{report.scanned_entries} ok, "
        f"traces: {report.ok_traces}/{report.scanned_traces} ok, "
        f"stale temp files reaped: {report.reaped_tmp}"
    )
    if report.clean:
        print("store is clean")
        return 0
    verb = "quarantined" if report.repaired else "found (run without --no-repair to quarantine)"
    print(f"{len(report.quarantined)} corrupt file(s) {verb}:")
    for path, reason in report.quarantined:
        print(f"  {path}: {reason}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..service import EvaluationService

    service = EvaluationService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        jobs=args.jobs,
    )
    try:
        return asyncio.run(service.serve())
    except KeyboardInterrupt:
        return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    store = ResultStore()
    if not store.enabled:
        print("result store is disabled (REPRO_RESULT_STORE=off)")
        return 0
    count = len(store.entries())
    if count and not args.yes:
        try:
            reply = input(f"delete {count} stored result(s) under {store.root}? [y/N] ")
        except EOFError:  # non-interactive stdin: treat as "no"
            reply = ""
        if reply.strip().lower() not in ("y", "yes"):
            print("aborted")
            return 1
    removed = store.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # All diagnostics (store reap/eviction warnings, engine fallbacks,
    # service logs) go to stderr so that `--json` stdout stays a single
    # machine-parseable document.
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Evaluate paper configurations through the parallel experiment engine.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate workload configurations")
    _add_config_arguments(run_parser, repeatable_workload=True)
    run_parser.add_argument(
        "--policy",
        choices=POLICY_NAMES + ("all",),
        default="baseline",
        help=(
            "gating policy for the reported energy column, or 'all' for one "
            "energy column per registered policy (default: baseline)"
        ),
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for cold configurations (default: REPRO_JOBS or CPU count)",
    )
    run_parser.add_argument(
        "--pipeline",
        choices=PIPELINES,
        default="auto",
        help=(
            "cold-compute path: 'fused' streams simulate->time->account without "
            "materializing a trace, 'materialized' builds the classic trace, "
            "'auto' streams whenever no trace snapshot would be persisted "
            "(default: auto; both are bit-exact)"
        ),
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="evaluate a batched design-space matrix (configs x policies x workloads)"
    )
    _add_config_arguments(sweep_parser, repeatable_workload=True)
    sweep_parser.add_argument(
        "--config",
        action="append",
        choices=tuple(name for name, _ in default_sweep_configs()),
        metavar="NAME",
        help="machine config for the sweep axis (repeatable; default: all eight)",
    )
    sweep_parser.add_argument(
        "--policy",
        action="append",
        choices=POLICY_NAMES + ("all",),
        metavar="NAME",
        help="gating policy for the sweep axis (repeatable; default: all registered)",
    )
    sweep_parser.add_argument(
        "--pipeline",
        choices=PIPELINES,
        default="auto",
        help=(
            "cold-group path: 'fused' streams every cold trace signature, "
            "'materialized' simulates and snapshots, 'auto' materializes when "
            "the snapshot layer is on or the group has more than one config "
            "and streams otherwise, the rule 'run' follows (default: auto; a "
            "warm entry or snapshot always serves first)"
        ),
    )
    sweep_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    profile_parser = subparsers.add_parser(
        "profile", help="cProfile one workload's cold evaluation pipeline"
    )
    _add_config_arguments(profile_parser, repeatable_workload=False)
    profile_parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="number of functions to print, sorted by cumulative time (default: 25)",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    diverge_parser = subparsers.add_parser(
        "diverge",
        help="co-execute two simulator tiers (or analysis kernels) and report the first divergence",
    )
    target = diverge_parser.add_mutually_exclusive_group()
    target.add_argument(
        "--workload",
        metavar="NAME",
        help="suite workload to co-execute (default: li)",
    )
    target.add_argument(
        "--program",
        metavar="FILE",
        help="assembler source file to co-execute instead of a workload",
    )
    diverge_parser.add_argument(
        "--tiers",
        nargs=2,
        choices=("reference", "block"),
        default=("reference", "block"),
        metavar=("A", "B"),
        help="simulator tier pair to compare (default: reference block)",
    )
    diverge_parser.add_argument(
        "--mode",
        choices=("sim", "timing", "energy"),
        default="sim",
        help=(
            "what to compare: simulator tiers in lockstep, timing kernels over "
            "one trace, or per-policy vs fused energy accounting (default: sim)"
        ),
    )
    diverge_parser.add_argument(
        "--kernels",
        nargs=2,
        choices=TIMING_COMPARATORS,
        default=("reference", "compiled"),
        metavar=("A", "B"),
        help="timing-kernel pair for --mode timing (default: reference compiled)",
    )
    diverge_parser.add_argument(
        "--inject",
        metavar="FUNC:BLOCK:INDEX",
        help=(
            "seed a flip-low-bit fault at one instruction of the second (block) "
            "tier, or 'auto' for the first executed mutable site"
        ),
    )
    diverge_parser.add_argument(
        "--max-instructions",
        type=int,
        default=20_000_000,
        metavar="N",
        help="dynamic instruction limit per run (default: 20,000,000)",
    )
    diverge_parser.add_argument(
        "--shrink",
        action="store_true",
        help="on divergence, minimize the program and write a reproducer",
    )
    diverge_parser.add_argument(
        "--out",
        metavar="DIR",
        help="reproducer output directory (default: .repro-failures/lockstep-<digest>)",
    )
    diverge_parser.add_argument(
        "--replay",
        metavar="DIR",
        help="replay a previously written reproducer instead of running anew",
    )
    diverge_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    diverge_parser.set_defaults(func=_cmd_diverge)

    ls_parser = subparsers.add_parser("ls", help="list persisted results")
    ls_parser.set_defaults(func=_cmd_ls)

    fsck_parser = subparsers.add_parser(
        "fsck",
        help="verify every store entry and trace snapshot, quarantining corrupt files",
    )
    fsck_parser.add_argument(
        "--no-repair",
        action="store_true",
        help="report corruption without quarantining anything",
    )
    fsck_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    fsck_parser.set_defaults(func=_cmd_fsck)

    clear_parser = subparsers.add_parser("clear", help="empty the result store")
    clear_parser.add_argument("--yes", action="store_true", help="skip the confirmation prompt")
    clear_parser.set_defaults(func=_cmd_clear)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the evaluation service (HTTP job API over the engine)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port; 0 picks an ephemeral port, printed on the ready line (default: 8321)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent jobs the service executes (default: 2)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="engine worker processes per job (default: REPRO_JOBS or CPU count)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        settings.check()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
