"""First-divergence bisection for the analysis kernels.

The simulator tiers are one replication hazard; the analysis kernels are
the other.  The timing model has two implementations that promise
bit-identical :class:`~repro.uarch.TimingResult` streams — the readable
reference walk (:meth:`OutOfOrderModel.run_reference`) and the one
generated lane walk of :mod:`repro.uarch.tkernel`, compared here at one
lane (:func:`run_compiled`) and at two (:func:`run_compiled_many`), each
against the reference — and the energy accountant has the per-policy
and fused multi-policy walks.  When two of them disagree over
a full trace, the summary diff says nothing about *where* the streams
split, so :func:`compare_timing` / :func:`compare_accounting` bisect over
trace prefixes: both kernels are pure functions of the trace prefix, so
"agrees on ``trace[:k]``" is monotone in ``k`` and a standard invariant
bisection finds the exact first record whose inclusion makes the results
differ.

Prefix traces are rebuilt with ``Trace(records=trace.records[:k],
static=trace.static)`` — the explicit-column ingestion path — so the
kernels under test see an ordinary trace, not a special replay mode.

:func:`compare_fused` extends the same idea to the streaming fused
pipeline (``repro.sim.fusedc``), which never materializes a trace: a
probe run snapshots the fused timing state after every record, each
snapshot projects onto the prefix :class:`TimingResult` the compiled
kernel would report for the materialized prefix, and the standard
bisection pins the first record where the projections split.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..hardware import gating
from ..power import EnergyAccountant, MultiPolicyEnergyAccountant
from ..sim.trace import Trace
from ..uarch import MachineConfig, OutOfOrderModel, TimingResult, run_compiled, run_compiled_many
from .lockstep import Divergence, _jsonify

__all__ = [
    "TIMING_COMPARATORS",
    "run_timing",
    "compare_timing",
    "compare_accounting",
    "compare_fused",
]

#: The timing kernels the comparator can pit against each other:
#: ``reference`` is the oracle walk, ``compiled`` the generated lane walk
#: at one lane and ``compiled-lane`` the same generator's walk at two
#: lanes — the config under test plus a companion config, so the shared
#: front end really feeds more than one scoreboard.
TIMING_COMPARATORS = ("reference", "compiled", "compiled-lane")


def _companion(config: MachineConfig) -> MachineConfig:
    """A second config in the same lane-shape group as *config*.

    Differs only in a cycle-valued parameter, which keeps both configs in
    one ``_lane_shape`` group of :func:`run_compiled_many` — so they run
    as two lanes of one walk rather than as two one-lane walks.
    """
    return dataclasses.replace(
        config, mispredict_redirect_penalty=config.mispredict_redirect_penalty + 1
    )


def run_timing(kernel: str, trace: Trace, config: MachineConfig) -> TimingResult:
    """Run one timing-kernel implementation over *trace*."""
    if kernel == "reference":
        return OutOfOrderModel(config).run_reference(trace)
    if kernel == "compiled":
        return run_compiled(trace, config)
    if kernel == "compiled-lane":
        return run_compiled_many(trace, [config, _companion(config)])[0]
    raise ValueError(f"unknown timing kernel {kernel!r}; expected one of {TIMING_COMPARATORS}")


def _prefix(trace: Trace, length: int) -> Trace:
    return Trace(records=trace.records[:length], static=trace.static)


def _timing_fields(expected: TimingResult, actual: TimingResult) -> dict:
    return {
        field.name: [getattr(expected, field.name), getattr(actual, field.name)]
        for field in dataclasses.fields(TimingResult)
        if getattr(expected, field.name) != getattr(actual, field.name)
    }


def _bisect(trace: Trace, differs) -> int:
    """Smallest prefix length at which ``differs`` holds.

    ``differs(k)`` must be monotone: False at some ``lo`` (0 — both
    kernels agree on the empty trace), True at ``hi = len(trace)``
    (checked by the caller).  Returns the minimal diverging ``hi``; the
    record whose inclusion splits the streams is ``trace[hi - 1]``.
    """
    lo, hi = 0, len(trace)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if differs(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _localize(
    trace: Trace,
    kind: str,
    names: tuple[str, str],
    differs,
    fields_at,
) -> Divergence:
    hi = _bisect(trace, differs)
    record = trace[hi - 1]
    static = trace.static.get(record.uid) if trace.static is not None else None
    return Divergence(
        kind=kind,
        step=hi - 1,
        tiers=names,
        uid=record.uid,
        block=(static.function, static.block) if static is not None else None,
        fields=fields_at(hi),
    )


def compare_timing(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    kernels: tuple[str, str] = ("reference", "compiled"),
) -> Optional[Divergence]:
    """First record where two timing kernels' results split, or None.

    Runs both kernels over the full trace first; only on disagreement
    does the O(n log n) prefix bisection run.
    """
    for kernel in kernels:
        if kernel not in TIMING_COMPARATORS:
            raise ValueError(
                f"unknown timing kernel {kernel!r}; expected one of {TIMING_COMPARATORS}"
            )
    if config is None:
        config = MachineConfig()
    full_a = run_timing(kernels[0], trace, config)
    full_b = run_timing(kernels[1], trace, config)
    if full_a == full_b:
        return None

    def differs(length: int) -> bool:
        prefix = _prefix(trace, length)
        return run_timing(kernels[0], prefix, config) != run_timing(kernels[1], prefix, config)

    def fields_at(length: int) -> dict:
        prefix = _prefix(trace, length)
        return _timing_fields(
            run_timing(kernels[0], prefix, config), run_timing(kernels[1], prefix, config)
        )

    return _localize(trace, "timing", tuple(kernels), differs, fields_at)


def _account_split(trace: Trace, timing: TimingResult, policies: dict):
    """(per-policy, fused) energy results for one trace+timing."""
    separate = {
        name: EnergyAccountant(policy).account(trace, timing)
        for name, policy in policies.items()
    }
    fused = MultiPolicyEnergyAccountant(policies).account(trace, timing)
    return separate, fused


def _energy_fields(separate: dict, fused: dict) -> dict:
    fields: dict = {}
    for name in separate:
        for field_name, (va, vb) in separate[name].diff(fused[name]).items():
            fields[f"{name}.{field_name}"] = [_jsonify(va), _jsonify(vb)]
    return fields


def compare_accounting(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    policies: Optional[Sequence[str]] = None,
) -> Optional[Divergence]:
    """First record where per-policy and fused accounting split, or None.

    Each policy accounted alone (the reference composition the paper's
    tables assume) is compared against one fused multi-policy walk over
    all of them.  On disagreement, the first diverging record is found by
    the same prefix bisection as :func:`compare_timing`, recomputing the
    prefix's timing with the reference model so the accountants always
    see a (trace, timing) pair that belongs together.
    """
    if config is None:
        config = MachineConfig()
    names = list(policies) if policies is not None else sorted(gating.registry())
    named = {name: gating.get(name) for name in names}

    def split_at(length: Optional[int]):
        prefix = trace if length is None else _prefix(trace, length)
        timing = OutOfOrderModel(config).run_reference(prefix)
        return _account_split(prefix, timing, named)

    separate, fused = split_at(None)
    if separate == fused:
        return None

    def differs(length: int) -> bool:
        prefix_separate, prefix_fused = split_at(length)
        return prefix_separate != prefix_fused

    def fields_at(length: int) -> dict:
        prefix_separate, prefix_fused = split_at(length)
        return _energy_fields(prefix_separate, prefix_fused)

    return _localize(trace, "energy", ("per-policy", "fused"), differs, fields_at)


def _record_shape_key(record) -> tuple:
    """The accounting-shape key of one trace record.

    Mirrors the per-record grouping of :meth:`Trace.shape_counts` —
    ``(uid, bytes of per-source significant-byte counts, result
    significant-byte count or -1)`` — so an aggregate-count mismatch can
    be walked back to the first dynamic record carrying an affected key.
    """
    from ..isa.widths import significant_bytes

    result = -1 if record.result is None else significant_bytes(record.result)
    return (
        record.uid,
        bytes(significant_bytes(value) for value in record.srcs),
        result,
    )


def compare_fused(
    program,
    config: Optional[MachineConfig] = None,
    max_instructions: int = 20_000_000,
) -> Optional[Divergence]:
    """First record where the fused pipeline splits from the materialized
    oracle, or None.

    Runs the program twice: once materialized (trace + compiled timing
    kernel — the oracle) and once through the fused streaming tier with
    the per-record probe enabled, which snapshots the timing-kernel state
    after every record.  On a timing mismatch the probe stream lets a
    prefix bisection find the exact record where the fused state first
    projects onto a different prefix :class:`TimingResult` than the
    compiled kernel computes over the materialized prefix — without ever
    re-running the fused simulation.  On a shape-aggregate mismatch the
    differing shape keys are walked back to the first dynamic record
    carrying one.  The differential suite routes its failures through
    this function so a red assertion names a record, not two summaries.
    """
    from ..sim.fusedc import timing_from_probe
    from ..sim.machine import Machine

    if config is None:
        config = MachineConfig()
    machine = Machine(program, max_instructions=max_instructions)
    reference = machine.run(collect_trace=True)
    trace = reference.trace
    oracle_timing = run_compiled(trace, config)

    probes: list[tuple] = []
    fused_run = machine._run_fused(config, None, "block", probe_sink=probes)
    fused = fused_run.fused

    names = ("materialized", "fused")

    # Architectural divergence would mean the fused codegen broke the
    # block tier's own semantics; surface it before any analysis diff.
    if fused_run.instructions != reference.instructions or fused_run.output != reference.output:
        fields: dict = {}
        if fused_run.instructions != reference.instructions:
            fields["instructions"] = [reference.instructions, fused_run.instructions]
        if fused_run.output != reference.output:
            fields["output"] = [_jsonify(tuple(reference.output)), _jsonify(tuple(fused_run.output))]
        return Divergence(kind="fused-arch", step=0, tiers=names, fields=fields)

    if fused.timing != oracle_timing and len(probes) == len(trace):

        def differs(length: int) -> bool:
            return timing_from_probe(probes[length - 1], length) != run_compiled(
                _prefix(trace, length), config
            )

        def fields_at(length: int) -> dict:
            return _timing_fields(
                run_compiled(_prefix(trace, length), config),
                timing_from_probe(probes[length - 1], length),
            )

        return _localize(trace, "fused-timing", names, differs, fields_at)
    if fused.timing != oracle_timing:
        # The probe stream is incomplete (shorter/longer than the trace),
        # so prefix projection is meaningless; report the summary diff.
        return Divergence(
            kind="fused-timing",
            step=len(trace) - 1,
            tiers=names,
            fields=_timing_fields(oracle_timing, fused.timing),
        )

    oracle_shapes = dict(trace.shape_counts())
    fused_shapes = fused.shapes.shape_counts()
    if fused_shapes != oracle_shapes:
        differing = {
            key
            for key in set(oracle_shapes) | set(fused_shapes)
            if oracle_shapes.get(key) != fused_shapes.get(key)
        }
        for step, record in enumerate(trace.records):
            key = _record_shape_key(record)
            if key in differing:
                static = trace.static.get(record.uid)
                return Divergence(
                    kind="fused-shapes",
                    step=step,
                    tiers=names,
                    uid=record.uid,
                    block=(static.function, static.block) if static is not None else None,
                    fields={
                        str(key): [oracle_shapes.get(key), fused_shapes.get(key)]
                        for key in sorted(differing)
                    },
                )
        # Counts differ but no materialized record carries an affected
        # key (fused invented a shape): no step is attributable.
        return Divergence(
            kind="fused-shapes",
            step=len(trace) - 1,
            tiers=names,
            fields={
                str(key): [oracle_shapes.get(key), fused_shapes.get(key)]
                for key in sorted(differing)
            },
        )
    return None
