"""Wattch-like per-structure activity/energy model with operand gating.

Energy is accounted per processor structure as::

    energy = Σ_accesses  E_access × (static_fraction + data_fraction × bytes/8)
             (+ tag overhead for hardware-tagged schemes)

where ``bytes`` is the number of datapath bytes the access actually
activates, as decided by a :class:`~repro.hardware.gating.GatingPolicy`.
Structures that do not carry data values (rename map, branch predictor,
instruction cache, ...) have ``data_fraction = 0`` and are insensitive to
operand gating, matching the paper's Figure 3/9 (their savings come only
from executing fewer instructions under VRS).

The absolute per-access energies are relative Wattch-like weights: the
reproduction targets relative savings, not nanojoules.

Accounting is built around one fused core, the
:class:`MultiPolicyEnergyAccountant`: it walks the trace **once** and
accumulates per-structure totals for an arbitrary set of gating policies
simultaneously — the Wattch trick of accounting many machine
configurations off a single simulation.  The per-record structural
decisions (which structures are touched, access counts, functional-unit
weight) are shared across policies, and every policy that declares a
:attr:`~repro.hardware.gating.GatingPolicy.width_source` has its per-value
widths derived from two shared quantities (the instruction's encoded width
and each value's significant-byte count), so the per-policy work is a
small arithmetic kernel.  The single-policy :class:`EnergyAccountant` is a
thin wrapper over the same core, so there is exactly one accounting
implementation and a fused run is bit-identical to the corresponding
sequence of single-policy runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..hardware.gating import GatingPolicy, NoGating, encoded_bytes
from ..sim import Trace
from ..uarch import TimingResult

__all__ = [
    "StructureParams",
    "STRUCTURES",
    "EnergyBreakdown",
    "EnergyAccountant",
    "MultiPolicyEnergyAccountant",
]


@dataclass(frozen=True)
class StructureParams:
    """Energy parameters of one processor structure."""

    name: str
    energy_per_access: float
    data_fraction: float
    stores_values: bool = False  # pays the tag-bit overhead of hardware schemes


#: The structures reported in Figures 3, 9, 13 and 14.
STRUCTURES: dict[str, StructureParams] = {
    "rename": StructureParams("rename", 0.6, 0.0),
    "branch_predictor": StructureParams("branch_predictor", 0.8, 0.0),
    "instruction_queue": StructureParams("instruction_queue", 1.6, 0.75, stores_values=True),
    "rob": StructureParams("rob", 0.8, 0.20),
    "rename_buffers": StructureParams("rename_buffers", 1.0, 0.80, stores_values=True),
    "lsq": StructureParams("lsq", 1.0, 0.30, stores_values=True),
    "register_file": StructureParams("register_file", 1.4, 0.80, stores_values=True),
    "icache": StructureParams("icache", 3.0, 0.0),
    "dcache_l1": StructureParams("dcache_l1", 2.8, 0.35, stores_values=True),
    "dcache_l2": StructureParams("dcache_l2", 6.0, 0.20, stores_values=True),
    "alu": StructureParams("alu", 1.8, 0.85),
    "result_bus": StructureParams("result_bus", 1.2, 0.90),
    "clock": StructureParams("clock", 3.0, 0.0),
}

_MUL_ENERGY_FACTOR = 3.0

#: Structure-level accesses known only to the timing model, accounted once
#: after the trace walk: (structure, attribute of TimingResult).
_TIMING_SITES = (
    ("icache", "icache_accesses"),
    ("dcache_l2", "l2_accesses"),
    ("branch_predictor", "icache_accesses"),
    ("clock", "cycles"),
)

#: Hardware size-class (1/2/5/8 bytes) indexed by significant-byte count.
_SIZE_FROM_SIG = (0, 1, 2, 5, 5, 5, 8, 8, 8)

#: ``GatingPolicy.width_source`` values the fused kernel can precompute.
_MODE_FULL, _MODE_ENCODED, _MODE_SIG, _MODE_SIZE, _MODE_MIN_SIG, _MODE_MIN_SIZE = range(6)
_MODES = {
    "full": _MODE_FULL,
    "encoded": _MODE_ENCODED,
    "significant": _MODE_SIG,
    "size_class": _MODE_SIZE,
    "min:significant": _MODE_MIN_SIG,
    "min:size_class": _MODE_MIN_SIZE,
}


@dataclass
class EnergyBreakdown:
    """Per-structure energy of one simulated run."""

    by_structure: dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    instructions: int = 0
    policy: str = "baseline"

    @property
    def total(self) -> float:
        return sum(self.by_structure.values())

    def energy_delay_squared(self) -> float:
        """The energy-delay² metric used throughout the paper's evaluation."""
        return self.total * float(self.cycles) ** 2

    def structure(self, name: str) -> float:
        return self.by_structure.get(name, 0.0)

    def savings_vs(self, baseline: "EnergyBreakdown") -> dict[str, float]:
        """Fractional per-structure energy savings relative to ``baseline``.

        Covers the union of both breakdowns' structures: a structure present
        only in ``self`` is reported too (with the same convention as any
        structure whose baseline energy is not positive: a saving of 0.0),
        rather than being silently dropped.
        """
        savings: dict[str, float] = {}
        names = list(baseline.by_structure)
        names += [name for name in self.by_structure if name not in baseline.by_structure]
        for name in names:
            base = baseline.by_structure.get(name, 0.0)
            if base <= 0.0:
                savings[name] = 0.0
            else:
                savings[name] = 1.0 - self.by_structure.get(name, 0.0) / base
        savings["processor"] = 1.0 - (self.total / baseline.total if baseline.total else 0.0)
        return savings

    def ed2_savings_vs(self, baseline: "EnergyBreakdown") -> float:
        base = baseline.energy_delay_squared()
        if base <= 0.0:
            return 0.0
        return 1.0 - self.energy_delay_squared() / base

    def diff(self, other: "EnergyBreakdown") -> dict[str, tuple]:
        """Exact field-level differences against ``other``.

        Returns ``{field: (self value, other value)}`` over the scalar
        fields and each differing structure (``by_structure.<name>``);
        empty when the breakdowns are identical.  This is the
        bit-exactness diff the divergence tooling reports — floats are
        compared with ``!=``, not a tolerance, because the per-policy and
        fused accounting paths promise identical float accumulation.
        """
        differences: dict[str, tuple] = {}
        for name in ("cycles", "instructions", "policy"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                differences[name] = (mine, theirs)
        for name in sorted(set(self.by_structure) | set(other.by_structure)):
            mine = self.by_structure.get(name)
            theirs = other.by_structure.get(name)
            if mine != theirs:
                differences[f"by_structure.{name}"] = (mine, theirs)
        return differences


class _PolicyLane:
    """Per-policy accumulation state of one fused accounting walk."""

    __slots__ = (
        "policy",
        "mode",
        "tag_bits",
        "tag_frac",
        "iq_tag",
        "rf_tag",
        "rnb_tag",
        "lsq_tag",
        "l1_tag",
        "totals",
    )

    def __init__(self, policy: GatingPolicy, nstructures: int) -> None:
        self.policy = policy
        source = policy.width_source
        self.mode = _MODES.get(source) if source is not None else None
        self.tag_bits = policy.tag_bits
        self.tag_frac = policy.tag_overhead_fraction
        # Per-value tag overheads are constant per (structure, access count)
        # site; precompute them with the exact expression the per-access
        # accounting uses: E × accesses × data_fraction × tag_fraction.
        if self.tag_bits:
            tf = self.tag_frac
            iq = STRUCTURES["instruction_queue"]
            rf = STRUCTURES["register_file"]
            rnb = STRUCTURES["rename_buffers"]
            lsq = STRUCTURES["lsq"]
            l1 = STRUCTURES["dcache_l1"]
            self.iq_tag = iq.energy_per_access * 2 * iq.data_fraction * tf
            self.rf_tag = rf.energy_per_access * 1 * rf.data_fraction * tf
            self.rnb_tag = rnb.energy_per_access * 1 * rnb.data_fraction * tf
            self.lsq_tag = lsq.energy_per_access * 2 * lsq.data_fraction * tf
            self.l1_tag = l1.energy_per_access * 1 * l1.data_fraction * tf
        else:
            self.iq_tag = self.rf_tag = self.rnb_tag = self.lsq_tag = self.l1_tag = 0.0
        self.totals = [0.0] * nstructures


class MultiPolicyEnergyAccountant:
    """Accounts energy for many gating policies in one trace walk.

    ``policies`` is a sequence of :class:`GatingPolicy` instances (results
    keyed by ``policy.name``) or a mapping of arbitrary result keys to
    policies.  :meth:`account` returns one :class:`EnergyBreakdown` per
    policy, each bit-identical to a single-policy
    ``EnergyAccountant(policy).account(...)`` run over the same trace —
    both paths share this class, and the record aggregation key is
    canonical (independent of which policies participate), so the floats
    accumulate identically no matter how policies are batched.

    When every policy declares a recognized
    :attr:`~GatingPolicy.width_source`, records are aggregated by their
    accounting shape — ``(static uid, per-source significant bytes, result
    significant bytes)`` — and each distinct shape is accounted once, in
    canonical (sorted-key) order, scaled by its dynamic count.  The shape
    counts come from the trace's cached columnar combo aggregation, and
    the canonical order makes the float accumulation independent of record
    order and trace storage.  Policies with an opaque width source
    (``width_source is None``) force the direct per-record path for the
    whole walk, which calls ``value_bytes`` per dynamic value and may
    therefore differ from the aggregated path in last-ulp rounding; that
    path needs a value-bearing trace and raises ``TypeError`` on a
    value-free one (see :mod:`repro.sim.trace`).
    """

    def __init__(self, policies: Mapping[str, GatingPolicy] | Sequence[GatingPolicy]) -> None:
        if isinstance(policies, Mapping):
            self._named: dict[str, GatingPolicy] = dict(policies)
        else:
            self._named = {}
            for policy in policies:
                if policy.name in self._named:
                    raise ValueError(f"duplicate policy name {policy.name!r}")
                self._named[policy.name] = policy

    @property
    def policies(self) -> dict[str, GatingPolicy]:
        return dict(self._named)

    # ------------------------------------------------------------------
    def account(self, trace: Trace, timing: TimingResult) -> dict[str, EnergyBreakdown]:
        return self._account(trace, [timing])[0]

    def account_many(
        self, trace: Trace, timings: Sequence[TimingResult]
    ) -> list[dict[str, EnergyBreakdown]]:
        """Account one trace against many timing results in one walk.

        The expensive part of :meth:`account` — the per-record (or
        per-shape) trace walk — depends only on the trace, not on the
        timing result; only the final :meth:`_account_timing` additions
        (cache/predictor/clock activity counters) and the breakdown's
        ``cycles`` vary with the timing.  ``account_many`` therefore runs
        the trace walk once, then branches per timing result from a copy
        of the shared lane totals.  Every returned breakdown is
        bit-identical to a separate ``account(trace, timing)`` call: both
        run :meth:`_account`, so the shared base totals see the same float
        additions in the same order, and the per-timing additions start
        from that same base.

        This is what makes a design-space sweep's energy side O(1) trace
        walks per (workload, policy-set) instead of one walk per machine
        configuration (see ``docs/sweeps.md``).
        """
        return self._account(trace, timings)

    def _account(
        self, trace: Trace, timings: Sequence[TimingResult]
    ) -> list[dict[str, EnergyBreakdown]]:
        """One trace walk, then one breakdown per policy for each timing."""
        structure_names = list(STRUCTURES)
        lanes = [_PolicyLane(policy, len(structure_names)) for policy in self._named.values()]
        if lanes:
            if all(lane.mode is not None for lane in lanes):
                self._account_aggregated(trace, lanes)
            else:
                self._account_direct(trace, lanes)
        base_totals = [list(lane.totals) for lane in lanes]
        instructions = len(trace)
        results: list[dict[str, EnergyBreakdown]] = []
        for timing in timings:
            for lane, base in zip(lanes, base_totals):
                lane.totals = list(base)
            if lanes:
                self._account_timing(timing, lanes)
            per_policy: dict[str, EnergyBreakdown] = {}
            for key, lane in zip(self._named, lanes):
                breakdown = EnergyBreakdown(
                    policy=lane.policy.name, cycles=timing.cycles, instructions=instructions
                )
                breakdown.by_structure = dict(zip(structure_names, lane.totals))
                per_policy[key] = breakdown
            results.append(per_policy)
        return results

    # ------------------------------------------------------------------
    # Fast path: canonical record-shape aggregation + per-shape kernel
    # ------------------------------------------------------------------
    @staticmethod
    def _shape_counts(trace: Trace) -> list[tuple[tuple[int, bytes, int], int]]:
        """Dynamic count per record *shape*, in canonical (sorted) order.

        The shape key is always ``(uid, source significant bytes, result
        significant bytes)`` — even for lanes that only need the encoded
        width — so the groupings are identical for every possible policy
        subset.  Shapes are accounted in sorted-key order, which makes the
        accumulation independent of record order and of the storage the
        trace happens to use (the cached columnar aggregation of
        :meth:`~repro.sim.trace.Trace.shape_counts` or its exact
        per-record fallback for overflow traces).
        """
        return sorted(trace.shape_counts().items())

    def _account_aggregated(self, trace: Trace, lanes: list[_PolicyLane]) -> None:
        """One aggregation builds shape counts; one pass accounts them."""
        static = trace.static
        counts = self._shape_counts(trace)

        # Per-structure constants of the arithmetic kernel, in the exact
        # shapes the per-access formula uses: EA = E × accesses,
        # OMDF = 1 - data_fraction, DF = data_fraction, and the
        # byte-independent energies of data_fraction-0 structures.
        index = {name: i for i, name in enumerate(STRUCTURES)}
        i_rename = index["rename"]
        i_rob = index["rob"]
        i_iq = index["instruction_queue"]
        i_rf = index["register_file"]
        i_rnb = index["rename_buffers"]
        i_bus = index["result_bus"]
        i_alu = index["alu"]
        i_lsq = index["lsq"]
        i_l1 = index["dcache_l1"]
        i_bp = index["branch_predictor"]

        def ea(name: str, accesses: float) -> float:
            return STRUCTURES[name].energy_per_access * accesses

        def omdf(name: str) -> float:
            return 1.0 - STRUCTURES[name].data_fraction

        def df(name: str) -> float:
            return STRUCTURES[name].data_fraction

        def none_energy(name: str, accesses: float) -> float:
            return ea(name, accesses) * (omdf(name) + df(name) * 1.0)

        rename_e = none_energy("rename", 1)
        rob_ea, rob_omdf, rob_df = ea("rob", 2), omdf("rob"), df("rob")
        rob_none = none_energy("rob", 2)
        iq_ea, iq_omdf, iq_df = ea("instruction_queue", 2), omdf("instruction_queue"), df(
            "instruction_queue"
        )
        iq_none = none_energy("instruction_queue", 2)
        rf_ea, rf_omdf, rf_df = ea("register_file", 1), omdf("register_file"), df("register_file")
        rnb_ea, rnb_omdf, rnb_df = (
            ea("rename_buffers", 1),
            omdf("rename_buffers"),
            df("rename_buffers"),
        )
        bus_ea, bus_omdf, bus_df = ea("result_bus", 1), omdf("result_bus"), df("result_bus")
        alu_ea_one, alu_ea_mul = ea("alu", 1.0), ea("alu", _MUL_ENERGY_FACTOR)
        alu_omdf, alu_df = omdf("alu"), df("alu")
        lsq_ea, lsq_omdf, lsq_df = ea("lsq", 2), omdf("lsq"), df("lsq")
        l1_ea, l1_omdf, l1_df = ea("dcache_l1", 1), omdf("dcache_l1"), df("dcache_l1")
        bp_e = none_energy("branch_predictor", 1)

        size_from_sig = _SIZE_FROM_SIG
        # The cached per-uid dynamic counts double as the set of uids that
        # actually occur: prefetch the static facts and encoded widths the
        # kernel needs once per *uid* instead of caching per shape.
        per_uid: dict[int, tuple] = {}
        for uid in trace.uid_counts():
            entry = static[uid]
            per_uid[uid] = (
                encoded_bytes(entry),
                entry.is_load,
                entry.is_load or entry.is_store,
                entry.is_branch,
                entry.functional_unit == "imul",
            )
        for (uid, sigs, rsig), count in counts:
            enc, uid_is_load, is_memory, uid_is_branch, is_imul = per_uid[uid]
            n_src = len(sigs)
            has_result = rsig >= 0
            alu_ea = alu_ea_mul if is_imul else alu_ea_one
            for lane in lanes:
                mode = lane.mode
                if mode == _MODE_ENCODED:
                    src_bytes = (enc,) * n_src
                    result_bytes = enc if has_result else 0
                elif mode == _MODE_SIG:
                    src_bytes = sigs
                    result_bytes = rsig if has_result else 0
                elif mode == _MODE_SIZE:
                    src_bytes = tuple(size_from_sig[s] for s in sigs)
                    result_bytes = size_from_sig[rsig] if has_result else 0
                elif mode == _MODE_MIN_SIG:
                    src_bytes = tuple(s if s < enc else enc for s in sigs)
                    result_bytes = (rsig if rsig < enc else enc) if has_result else 0
                elif mode == _MODE_MIN_SIZE:
                    src_bytes = tuple(
                        size_from_sig[s] if size_from_sig[s] < enc else enc for s in sigs
                    )
                    if has_result:
                        size = size_from_sig[rsig]
                        result_bytes = size if size < enc else enc
                    else:
                        result_bytes = 0
                else:  # _MODE_FULL
                    src_bytes = (8,) * n_src
                    result_bytes = 8 if has_result else 0

                totals = lane.totals
                # Front end / window structures: one access per instruction.
                totals[i_rename] += count * rename_e
                if has_result:
                    totals[i_rob] += count * (
                        rob_ea * (rob_omdf + rob_df * (result_bytes / 8.0))
                    )
                else:
                    totals[i_rob] += count * rob_none
                if n_src:
                    average = sum(src_bytes) / n_src
                    energy = iq_ea * (iq_omdf + iq_df * (average / 8.0))
                else:
                    energy = iq_none
                totals[i_iq] += count * (energy + lane.iq_tag)

                # Register file: one read per source, one write per result.
                for nbytes in src_bytes:
                    totals[i_rf] += count * (
                        rf_ea * (rf_omdf + rf_df * (nbytes / 8.0)) + lane.rf_tag
                    )
                if has_result:
                    activity = result_bytes / 8.0
                    totals[i_rf] += count * (rf_ea * (rf_omdf + rf_df * activity) + lane.rf_tag)
                    totals[i_rnb] += count * (
                        rnb_ea * (rnb_omdf + rnb_df * activity) + lane.rnb_tag
                    )
                    totals[i_bus] += count * (bus_ea * (bus_omdf + bus_df * activity))

                # Execution.
                if n_src:
                    fu_bytes = max(src_bytes)
                    if has_result and result_bytes > fu_bytes:
                        fu_bytes = result_bytes
                elif has_result:
                    fu_bytes = result_bytes
                else:
                    fu_bytes = 8
                totals[i_alu] += count * (alu_ea * (alu_omdf + alu_df * (fu_bytes / 8.0)))

                # Memory system.
                if is_memory:
                    if uid_is_load:
                        data_bytes = result_bytes
                    else:
                        data_bytes = src_bytes[0] if n_src else 8
                    activity = data_bytes / 8.0
                    totals[i_lsq] += count * (
                        lsq_ea * (lsq_omdf + lsq_df * activity) + lane.lsq_tag
                    )
                    totals[i_l1] += count * (l1_ea * (l1_omdf + l1_df * activity) + lane.l1_tag)
                if uid_is_branch:
                    totals[i_bp] += count * bp_e

    # ------------------------------------------------------------------
    # Generic path: per-record walk calling value_bytes per dynamic value
    # ------------------------------------------------------------------
    def _account_direct(self, trace: Trace, lanes: list[_PolicyLane]) -> None:
        """Reference walk for policies with an opaque ``width_source``.

        Iterates the lazy record view: opaque policies take a per-record,
        per-value ``value_bytes`` callback, so there is nothing to
        aggregate — exactness (including the per-record accumulation
        order) matters more than speed on this path.  A value-free trace
        (``Machine.run``'s, a decoded snapshot's) has no values to call
        it with, so the walk refuses it instead of miscounting.
        """
        if not trace.carries_values:
            opaque = ", ".join(repr(lane.policy.name) for lane in lanes if lane.mode is None)
            raise TypeError(
                f"gating policies with an opaque width_source ({opaque}) need "
                "per-record values, but the trace is value-free; account a trace "
                "from Machine.run_reference(collect_trace=True)"
            )
        static = trace.static
        index = {name: i for i, name in enumerate(STRUCTURES)}
        for record in trace:
            entry = static[record.uid]
            for lane in lanes:
                policy = lane.policy
                totals = lane.totals
                source_bytes = [policy.value_bytes(entry, value) for value in record.srcs]
                result_bytes = (
                    policy.value_bytes(entry, record.result) if record.result is not None else 0
                )

                _site_add(totals, index, lane, "rename", 1, None)
                _site_add(
                    totals,
                    index,
                    lane,
                    "rob",
                    2,
                    result_bytes if record.result is not None else None,
                )
                if source_bytes:
                    average = sum(source_bytes) / len(source_bytes)
                    _site_add(totals, index, lane, "instruction_queue", 2, average)
                else:
                    _site_add(totals, index, lane, "instruction_queue", 2, None)

                for nbytes in source_bytes:
                    _site_add(totals, index, lane, "register_file", 1, nbytes)
                if record.result is not None:
                    _site_add(totals, index, lane, "register_file", 1, result_bytes)
                    _site_add(totals, index, lane, "rename_buffers", 1, result_bytes)
                    _site_add(totals, index, lane, "result_bus", 1, result_bytes)

                operand_candidates = source_bytes + (
                    [result_bytes] if record.result is not None else []
                )
                fu_bytes = max(operand_candidates) if operand_candidates else 8
                fu_weight = _MUL_ENERGY_FACTOR if entry.functional_unit == "imul" else 1.0
                _site_add(totals, index, lane, "alu", fu_weight, fu_bytes)

                if entry.is_load or entry.is_store:
                    data_bytes = (
                        result_bytes
                        if entry.is_load
                        else (source_bytes[0] if source_bytes else 8)
                    )
                    _site_add(totals, index, lane, "lsq", 2, data_bytes)
                    _site_add(totals, index, lane, "dcache_l1", 1, data_bytes)
                if entry.is_branch:
                    _site_add(totals, index, lane, "branch_predictor", 1, None)

    # ------------------------------------------------------------------
    @staticmethod
    def _account_timing(timing: TimingResult, lanes: list[_PolicyLane]) -> None:
        """Structure-level activity known only to the timing model."""
        index = {name: i for i, name in enumerate(STRUCTURES)}
        for name, attribute in _TIMING_SITES:
            accesses = getattr(timing, attribute)
            for lane in lanes:
                _site_add(lane.totals, index, lane, name, accesses, None)


def _site_add(
    totals: list[float],
    index: dict[str, int],
    lane: _PolicyLane,
    name: str,
    accesses: float,
    active_bytes: float | None,
) -> None:
    """Accumulate the energy of ``accesses`` accesses to ``name``.

    ``active_bytes`` is the number of data bytes the access switches
    (``None`` means the access carries no value information and the full
    width is assumed).  Structures that store values also pay the per-value
    tag overhead of hardware compression schemes.
    """
    params = STRUCTURES[name]
    if active_bytes is None:
        activity = 1.0
    else:
        activity = active_bytes / 8.0
    energy = params.energy_per_access * accesses * (
        (1.0 - params.data_fraction) + params.data_fraction * activity
    )
    if params.stores_values and lane.tag_bits:
        energy += params.energy_per_access * accesses * params.data_fraction * lane.tag_frac
    totals[index[name]] += energy


class EnergyAccountant:
    """Walks a trace and produces an :class:`EnergyBreakdown`.

    Single-policy convenience wrapper over the fused
    :class:`MultiPolicyEnergyAccountant` core — the two are bit-identical
    by construction.
    """

    def __init__(self, policy: GatingPolicy | None = None) -> None:
        self.policy = policy or NoGating()

    def account(self, trace: Trace, timing: TimingResult) -> EnergyBreakdown:
        fused = MultiPolicyEnergyAccountant({self.policy.name: self.policy})
        return fused.account(trace, timing)[self.policy.name]
