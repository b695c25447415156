"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run measures each layer of the evaluation pipeline from the
outside: :class:`Tracer` rebinds the public entry points of every layer
(and the builtin ``compile()`` the code generators call) to wrappers
that record one span per call, then restores the originals.  Nothing in
``src/`` knows it is being traced, so the untraced run executes exactly
the code a user runs.

A span is ``(name, start, end, parent, point)``; spans live in memory
until the run ends.  A layer's *self* time is its spans' durations minus
the durations of their direct child spans, so nested work (VRS calling
VRP, a simulation compiling its blocks) is charged to the innermost
layer only.
"""

from __future__ import annotations

import builtins
import sys
import time
from collections import Counter
from typing import Callable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "point")

    def __init__(self, name: str, start: float, parent: Optional[int], point: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.point = point

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.point]


class Recorder:
    """In-memory spans and counters of one traced pass.

    ``point`` is the ordinal of the point (or sweep group) the engine is
    resolving; every span records the value current when it opened.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.point = 0
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent, self.point))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[index].name == name for index in self._open)

    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus direct children's."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.seconds
            if span.parent is not None:
                totals[self.spans[span.parent].name] -= span.seconds
        return totals

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def top_level_seconds(self) -> float:
        return sum(span.seconds for span in self.spans if span.parent is None)


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------
#: ``compile()`` filename argument -> the generator that emitted the source.
COMPILE_SPANS = {
    "<repro.sim.blockc>": "codegen.compile.block",
    "<repro.sim.fusedc>": "codegen.compile.fused",
    "<timing-kernel>": "codegen.compile.timing",
    "<timing-kernel-multi>": "codegen.compile.timing",
}


class _TimedContext:
    """Times entering and leaving a context manager as one span name."""

    def __init__(self, recorder: Recorder, name: str, manager) -> None:
        self._recorder = recorder
        self._name = name
        self._manager = manager

    def __enter__(self):
        index = self._recorder.open(self._name)
        try:
            return self._manager.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc_info):
        index = self._recorder.open(self._name)
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            self._recorder.close(index)


class Tracer:
    """Rebinds each layer's entry points to span-recording wrappers.

    Use as a context manager around one pass; the originals are restored
    on exit.  Functions are rebound in every loaded ``repro`` module that
    imported them by name; methods are replaced on their class.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _function(self, original, make: Callable) -> None:
        wrapper = make(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _method(self, cls: type, attr: str, make: Callable) -> None:
        self._set(cls, attr, make(vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str, after: Optional[Callable] = None) -> Callable:
        """Wrapper factory: one ``name`` span per call, then ``after(args, result)``."""
        recorder = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                index = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def install(self) -> None:
        from repro.core import vrp, vrs
        from repro.experiments import engine, store, summary
        from repro.power import model
        from repro.sim import blockc, fusedc, machine, snapshot
        from repro.uarch import ooo, tkernel
        from repro.workloads import suite

        recorder = self.recorder
        counters = recorder.counters

        def count(name: str, amount: Callable) -> Callable:
            def after(args, kwargs, result) -> None:
                counters[name] += amount(args, kwargs, result)

            return after

        self._method(suite.Workload, "build", self._span("frontend.build"))
        self._function(vrp.run_vrp, self._span("analysis.vrp"))
        self._function(vrs.run_vrs, self._span("analysis.vrs"))

        def machine_run(original):
            def run(*args, **kwargs):
                # The training and value-profiling runs of VRS are part of
                # the analysis, not of the measured simulation.
                name = "analysis.vrs_train" if recorder.inside("analysis.vrs") else "sim.run"
                index = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index)
                if name == "sim.run":
                    counters["sim.instructions"] += result.instructions
                return result

            return run

        self._method(machine.Machine, "run", machine_run)
        self._function(blockc.compile_blocks, self._span("codegen.blocks"))
        self._function(fusedc.fused_program_for, self._span("codegen.fused_lookup"))
        self._function(fusedc.compile_fused, self._span("codegen.fused_emit"))

        original_compile = builtins.compile

        def traced_compile(source, filename, *args, **kwargs):
            name = COMPILE_SPANS.get(filename)
            if name is None:
                return original_compile(source, filename, *args, **kwargs)
            counters["codegen.lines"] += source.count("\n")
            index = recorder.open(name)
            try:
                return original_compile(source, filename, *args, **kwargs)
            finally:
                recorder.close(index)

        self._set(builtins, "compile", traced_compile)

        def trace_of(args, kwargs):
            return args[1] if len(args) > 1 else kwargs["trace"]

        self._method(
            ooo.OutOfOrderModel,
            "run",
            self._span(
                "timing.walk",
                count("timing.records", lambda a, k, r: len(trace_of(a, k))),
            ),
        )
        self._function(
            tkernel.run_compiled_many,
            self._span(
                "timing.walk",
                count("timing.records", lambda a, k, r: len(a[0]) * len(r)),
            ),
        )
        for attr in ("account", "account_many"):
            self._method(
                model.MultiPolicyEnergyAccountant, attr, self._span("accounting.walk")
            )
        self._function(summary.aggregate_trace, self._span("accounting.aggregate"))

        self._method(
            store.ResultStore,
            "load",
            self._span(
                "store.load", count("store.hits", lambda a, k, r: int(r is not None))
            ),
        )
        self._method(store.ResultStore, "save", self._span("store.save"))
        self._method(store.ResultStore, "save_trace", self._span("store.snapshot_write"))
        self._method(store.ResultStore, "load_trace", self._span("store.snapshot_read"))
        self._function(
            snapshot.encode_artifact,
            self._span(
                "store.encode", count("store.snapshot_bytes", lambda a, k, r: len(r))
            ),
        )
        self._function(
            snapshot.decode_artifact,
            self._span(
                "store.decode", count("store.snapshot_bytes", lambda a, k, r: len(a[0]))
            ),
        )

        def single_flight(original):
            def flight(*args, **kwargs):
                return _TimedContext(recorder, "store.lock", original(*args, **kwargs))

            return flight

        self._method(store.ResultStore, "single_flight", single_flight)

        def engine_map(original):
            def map_(self_, configs, *args, **kwargs):
                downstream = kwargs.get("on_result")

                def advance(index, evaluation):
                    recorder.point += 1
                    if downstream is not None:
                        downstream(index, evaluation)

                kwargs["on_result"] = advance
                counters["engine.points"] += len(configs)
                index = recorder.open("engine.map")
                try:
                    return original(self_, configs, *args, **kwargs)
                finally:
                    recorder.close(index)

            return map_

        def engine_sweep(original):
            def sweep(self_, spec, *args, **kwargs):
                # Rows stream out group by group; the point ordinal moves
                # to the next trace-signature group once a group's last
                # row has been handed out.
                sizes = list(
                    Counter(
                        (p.workload, p.mechanism, p.threshold_nj, p.conventional_vrp)
                        for p in spec.iter_points()
                    ).values()
                )
                group = 0
                left = sizes[0] if sizes else 0
                index = recorder.open("engine.sweep")
                try:
                    for row in original(self_, spec, *args, **kwargs):
                        counters["engine.points"] += 1
                        left -= 1
                        if left == 0 and group + 1 < len(sizes):
                            group += 1
                            left = sizes[group]
                            recorder.point += 1
                        yield row
                finally:
                    recorder.close(index)

            return sweep

        self._method(engine.ExperimentEngine, "map", engine_map)
        self._method(engine.ExperimentEngine, "sweep", engine_sweep)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, reported as 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


#: Span the benchmark opens around its own reference probes; its time is
#: charged to no layer and left out of the pass time.
PROBE_SPAN = "harness.probe"


def layer_metrics(recorder: Recorder, wall_s: float, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall_s``, probes left out.

    Every time is multiplied by ``scale``: the pass's host-speed
    correction (see ``timeline.py``).
    """
    own = recorder.self_seconds()
    calls = recorder.calls()
    counters = recorder.counters
    compiles = ("codegen.compile.block", "codegen.compile.fused", "codegen.compile.timing")
    lookups = calls["codegen.fused_lookup"]
    seconds = {
        "frontend.build_s": own["frontend.build"],
        "analysis.vrp_s": own["analysis.vrp"],
        "analysis.vrs_s": own["analysis.vrs"],
        "analysis.vrs_train_s": own["analysis.vrs_train"],
        "codegen.emit_s": own["codegen.blocks"]
        + own["codegen.fused_lookup"]
        + own["codegen.fused_emit"],
        "codegen.block_compile_s": own["codegen.compile.block"],
        "codegen.fused_compile_s": own["codegen.compile.fused"],
        "codegen.timing_compile_s": own["codegen.compile.timing"],
        "sim.run_s": own["sim.run"],
        "timing.walk_s": own["timing.walk"],
        "accounting.s": own["accounting.walk"] + own["accounting.aggregate"],
        "store.entry_s": own["store.load"] + own["store.save"],
        "store.encode_s": own["store.encode"],
        "store.decode_s": own["store.decode"],
        "store.snapshot_io_s": own["store.snapshot_write"] + own["store.snapshot_read"],
        "store.lock_wait_s": own["store.lock"],
        "engine.self_s": own["engine.map"] + own["engine.sweep"],
        "other.s": wall_s - (recorder.top_level_seconds() - own[PROBE_SPAN]),
    }
    seconds = {name: value * scale for name, value in seconds.items()}
    minstr = counters["sim.instructions"] / 1e6
    mrecords = counters["timing.records"] / 1e6
    loads = calls["store.load"]
    return {
        **seconds,
        "frontend.builds": calls["frontend.build"],
        "analysis.vrp_calls": calls["analysis.vrp"],
        "analysis.vrs_calls": calls["analysis.vrs"],
        "codegen.compiles": sum(calls[name] for name in compiles),
        "codegen.klines": counters["codegen.lines"] / 1e3,
        "codegen.fused_hit_ratio": _ratio(lookups - calls["codegen.fused_emit"], lookups),
        "sim.minstr": minstr,
        "sim.minstr_per_s": _ratio(minstr, seconds["sim.run_s"]),
        "timing.mrecords": mrecords,
        "timing.mrecords_per_s": _ratio(mrecords, seconds["timing.walk_s"]),
        "accounting.walks": calls["accounting.walk"],
        "store.entry_ops": loads + calls["store.save"],
        "store.hit_ratio": _ratio(counters["store.hits"], loads),
        "store.snapshot_mb": counters["store.snapshot_bytes"] / 2**20,
        "engine.points": counters["engine.points"],
    }


def path_counts(recorder: Recorder) -> dict[str, int]:
    """The call counts that define which path a pass took."""
    calls = recorder.calls()
    return {
        "builds": calls["frontend.build"],
        "analysis_calls": calls["analysis.vrp"] + calls["analysis.vrs"],
        "machine_runs": calls["sim.run"] + calls["analysis.vrs_train"],
        "block_compiles": calls["codegen.compile.block"],
        "fused_compiles": calls["codegen.compile.fused"],
        "timing_compiles": calls["codegen.compile.timing"],
        "fused_lookups": calls["codegen.fused_lookup"],
        "fused_hits": calls["codegen.fused_lookup"] - calls["codegen.fused_emit"],
        "snapshot_writes": calls["store.snapshot_write"],
        "snapshot_reads": calls["store.snapshot_read"],
    }
