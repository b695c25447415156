"""Trace-driven out-of-order timing model.

The model walks the dynamic trace produced by the functional simulator and
assigns each instruction fetch, dispatch, issue, completion and commit
cycles subject to the Table 2 machine resources:

* fetch/decode/issue/retire width of 4,
* a 64-entry instruction window,
* 3 integer ALUs + 1 integer multiplier (FP units exist but integer
  workloads never use them),
* L1 instruction/data caches backed by a unified L2,
* a combined gshare/bimodal branch predictor whose mispredictions redirect
  fetch after the branch resolves.

It is an analytical scoreboard rather than a cycle-stepped simulator —
orders of magnitude faster in Python while preserving the first-order
behaviour (dependence chains, window fill, structural hazards, memory
latency, branch redirects) that the paper's execution-time results rest on.

The model comes in **two kernel tiers** (see ``docs/timing.md``):

* ``reference`` — the columnar walk in :meth:`OutOfOrderModel.run_reference`:
  one pass over the trace's packed meta column zipped with its address
  column.  The per-record flag byte replaces the ``None`` checks of the
  old record walk, static facts come from the dense uid-indexed entry
  list, and effective addresses are consumed from the sparse memory
  column with a running cursor.  The arithmetic is identical to the
  record walk, so cycle counts are bit-exact (the differential harness
  in ``tests/test_trace_columnar.py`` asserts exactly that).
* ``compiled`` (the default) — the generated lane walk in
  :mod:`repro.uarch.tkernel` at one lane: the same scoreboard
  arithmetic over a packed per-uid static table, ring-buffer slot
  allocators and inlined cache/predictor state.  Bit-exact against the
  reference tier on every :class:`TimingResult` field
  (``tests/test_uarch_timing.py``), ~2-2.5x faster
  (``benchmarks/bench_timing.py`` enforces ≥2x in CI).

Select a tier per model (``OutOfOrderModel(kernel=...)``), per run
(``run(kernel=...)``) or process-wide with ``REPRO_TIMING_KERNEL``
(``compiled`` — the default — or ``reference``/``slow``/``off``; any
other value raises ``ValueError``), mirroring the functional
simulator's ``REPRO_SIM_DISPATCH`` tiers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Trace
from ..sim.trace import FLAG_MEM, FLAG_TAKEN, FLAG_TAKEN_TRUE
from .branch_predictor import CombinedPredictor
from .caches import Cache, CacheHierarchy
from .config import MachineConfig

__all__ = ["TIMING_KERNELS", "TimingResult", "OutOfOrderModel"]

_UINT64 = (1 << 64) - 1

#: The two timing-kernel tiers; both produce bit-identical results.
TIMING_KERNELS = ("reference", "compiled")

#: ``REPRO_TIMING_KERNEL`` spellings of the reference tier (the
#: simulator's ``REPRO_SIM_DISPATCH`` reference spellings plus ``ref``).
_REFERENCE_ALIASES = ("reference", "ref", "slow", "0", "off", "false", "disabled", "none")


def _default_kernel() -> str:
    """Kernel tier selected by ``REPRO_TIMING_KERNEL`` (default: compiled).

    Unset (or empty) and ``compiled`` select the compiled kernel, the
    :data:`_REFERENCE_ALIASES` the reference walk; any other value is a
    misconfiguration and raises instead of silently running a default.
    """
    value = os.environ.get("REPRO_TIMING_KERNEL", "").lower()
    if value in ("", "compiled"):
        return "compiled"
    if value in _REFERENCE_ALIASES:
        return "reference"
    raise ValueError(
        f"REPRO_TIMING_KERNEL={value!r} is not a timing kernel; expected "
        f"{' or '.join(TIMING_KERNELS)} (reference aliases: {', '.join(_REFERENCE_ALIASES[1:])})"
    )


class _Slots:
    """Bounded number of events per cycle (issue ports, FUs, retire slots).

    ``allocate`` probes upward from ``earliest`` for a cycle with spare
    width.  The per-cycle usage dict would otherwise grow one entry per
    distinct cycle for the whole trace — unbounded on long traces — so
    the walk periodically calls :meth:`release_below` with a monotone
    lower bound on all future probes, letting exhausted cycles be
    forgotten without changing any allocation (the regression probe in
    ``tests/test_uarch_timing.py`` asserts both properties).
    """

    __slots__ = ("width", "_used")

    #: Entry count above which ``release_below`` actually scans; keeps
    #: the scan amortized against the walk's periodic call cadence.
    PRUNE_THRESHOLD = 4096

    def __init__(self, width: int) -> None:
        self.width = width
        self._used: dict[int, int] = {}

    def allocate(self, earliest: int) -> int:
        cycle = earliest
        used = self._used
        while used.get(cycle, 0) >= self.width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def release_below(self, floor: int) -> None:
        """Forget cycles below ``floor`` (a bound no future probe goes under)."""
        used = self._used
        if len(used) > self.PRUNE_THRESHOLD:
            for cycle in [cycle for cycle in used if cycle < floor]:
                del used[cycle]


@dataclass
class TimingResult:
    """Cycle counts and microarchitectural event statistics."""

    cycles: int
    instructions: int
    branch_lookups: int
    branch_mispredictions: int
    icache_accesses: int
    icache_misses: int
    dcache_accesses: int
    dcache_misses: int
    l2_accesses: int
    l2_misses: int
    loads: int
    stores: int
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OutOfOrderModel:
    """Runs the timing model over one trace.

    ``kernel`` pins the kernel tier for this model (``"reference"`` or
    ``"compiled"``); when ``None`` each :meth:`run` resolves the tier
    from ``REPRO_TIMING_KERNEL`` (compiled by default).  The tiers are
    bit-identical, so the choice never affects results — only speed.
    """

    def __init__(
        self, config: MachineConfig | None = None, kernel: Optional[str] = None
    ) -> None:
        self.config = config or MachineConfig()
        if kernel is not None and kernel not in TIMING_KERNELS:
            raise ValueError(
                f"unknown timing kernel {kernel!r}; expected one of {', '.join(TIMING_KERNELS)}"
            )
        self.kernel = kernel

    def run(self, trace: Trace, kernel: Optional[str] = None) -> TimingResult:
        """Time ``trace`` under the resolved kernel tier."""
        tier = kernel if kernel is not None else self.kernel
        if tier is None:
            tier = _default_kernel()
        elif tier not in TIMING_KERNELS:
            raise ValueError(
                f"unknown timing kernel {tier!r}; expected one of {', '.join(TIMING_KERNELS)}"
            )
        if tier == "compiled":
            from .tkernel import run_compiled

            return run_compiled(trace, self.config)
        return self.run_reference(trace)

    def run_reference(self, trace: Trace) -> TimingResult:
        """The reference scoreboard walk — the compiled kernel's oracle."""
        config = self.config
        static = trace.static
        entries = static.entries
        uid_base = static.uid_base
        # The hot loop indexes the dense entry list directly; validate the
        # trace's uid set once up front so a record without a static entry
        # raises KeyError (as the old dict lookup did) instead of silently
        # wrap-indexing to an unrelated entry or hitting a None hole.
        for uid in trace.uid_counts():
            if static.get(uid) is None:
                raise KeyError(uid)
        mem_column = trace.mem_addresses
        mem_cursor = 0

        l2 = Cache(config.l2cache, name="l2")
        memory_latency = config.memory_first_chunk_cycles + 3 * config.memory_interchunk_cycles
        icache = CacheHierarchy(config.icache, l2, memory_latency)
        dcache = CacheHierarchy(config.dcache, l2, memory_latency)
        predictor = CombinedPredictor(config.predictor)

        issue_slots = _Slots(config.issue_width)
        retire_slots = _Slots(config.retire_width)
        alu_slots = _Slots(config.int_alus)
        mul_slots = _Slots(config.int_muls)
        lsq_slots = _Slots(config.lsq_ports)

        reg_ready: dict[int, int] = {}
        window_commits: list[int] = [0] * config.max_in_flight
        window_index = 0

        fetch_cycle = 0
        fetched_in_cycle = 0
        current_fetch_line = -1
        redirect_cycle = 0
        last_commit = 0
        loads = stores = 0

        line_bytes = config.icache.line_bytes
        frontend = config.frontend_depth

        # Issue-family probes never go below fetch_cycle (monotone) and
        # retire probes never below last_commit, so exhausted cycles can
        # be released periodically — bounding the per-cycle dicts on
        # long traces without touching any allocation.
        prune_countdown = prune_interval = _Slots.PRUNE_THRESHOLD

        for meta, address in zip(trace.metas, trace.addresses()):
            prune_countdown -= 1
            if not prune_countdown:
                prune_countdown = prune_interval
                for slots in (issue_slots, alu_slots, mul_slots, lsq_slots):
                    slots.release_below(fetch_cycle)
                retire_slots.release_below(last_commit)
            flags = meta & 0xFF
            entry = entries[(meta >> 8) - uid_base]
            if flags & FLAG_MEM:
                mem_address = mem_column[mem_cursor] & _UINT64
                mem_cursor += 1
            else:
                mem_address = None

            # ----------------------------------------------------- fetch
            earliest_fetch = max(fetch_cycle, redirect_cycle)
            if earliest_fetch > fetch_cycle:
                fetch_cycle = earliest_fetch
                fetched_in_cycle = 0
            line = address // line_bytes
            if line != current_fetch_line:
                current_fetch_line = line
                latency = icache.access(address)
                if latency > config.icache.hit_cycles:
                    fetch_cycle += latency - config.icache.hit_cycles
                    fetched_in_cycle = 0
            if fetched_in_cycle >= config.fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetch = fetch_cycle
            fetched_in_cycle += 1

            # -------------------------------------------------- dispatch
            dispatch = fetch + frontend
            window_slot_free = window_commits[window_index]
            if window_slot_free > dispatch:
                dispatch = window_slot_free

            # ----------------------------------------------------- issue
            ready = dispatch
            for reg_index in entry.src_regs:
                producer_complete = reg_ready.get(reg_index, 0)
                if producer_complete > ready:
                    ready = producer_complete
            issue = issue_slots.allocate(ready)
            if entry.functional_unit == "imul":
                issue = mul_slots.allocate(issue)
            elif entry.functional_unit == "mem":
                issue = lsq_slots.allocate(issue)
            else:
                issue = alu_slots.allocate(issue)

            # -------------------------------------------------- execute
            latency = entry.latency
            if entry.is_load or entry.is_store:
                if entry.is_load:
                    loads += 1
                else:
                    stores += 1
                if mem_address is not None:
                    latency = dcache.access(mem_address)
                    if entry.is_store:
                        latency = 1  # stores retire from the store queue
            complete = issue + latency

            # --------------------------------------------------- commit
            commit = retire_slots.allocate(max(complete, last_commit))
            last_commit = commit
            window_commits[window_index] = commit
            window_index = (window_index + 1) % config.max_in_flight

            # Producer availability for consumers.
            if entry.dest_reg is not None and entry.dest_reg != 31:
                reg_ready[entry.dest_reg] = complete

            # -------------------------------------------------- branches
            if entry.is_branch and flags & FLAG_TAKEN:
                if entry.is_conditional:
                    correct = predictor.update(address, bool(flags & FLAG_TAKEN_TRUE))
                    if not correct:
                        redirect_cycle = complete + config.mispredict_redirect_penalty
                        current_fetch_line = -1
            elif (entry.is_call or entry.is_return) and flags & FLAG_TAKEN_TRUE:
                # Calls/returns redirect the front end for one cycle.
                redirect_cycle = max(redirect_cycle, fetch + 1)
                current_fetch_line = -1

        cycles = max(last_commit, fetch_cycle) + 1
        return TimingResult(
            cycles=cycles,
            instructions=len(trace),
            branch_lookups=predictor.lookups,
            branch_mispredictions=predictor.mispredictions,
            icache_accesses=icache.l1.accesses,
            icache_misses=icache.l1.misses,
            dcache_accesses=dcache.l1.accesses,
            dcache_misses=dcache.l1.misses,
            l2_accesses=l2.accesses,
            l2_misses=l2.misses,
            loads=loads,
            stores=stores,
        )
