"""Block-compiler contracts beyond trace equivalence.

Three properties the differential harness cannot see:

1. **Compiled-program reuse** — a second ``run()`` on the same ``Machine``
   performs *zero* block compilation, for every trace flavour and
   watched-uid set (the acceptance probe for the recompile-every-run fix).
2. **Deterministic generation** — the generated source is a pure function
   of the program, so it can serve as a debugging artifact and the
   simulator code fingerprint covers it through ``sim/blockc.py``.
3. **Snapshot hygiene** — mutating the block compiler's source rotates
   the simulator-side fingerprint, so stored binary trace snapshots are
   re-simulated rather than replayed after a semantics change.
4. **Process-wide code cache** — a rebuilt program (fresh uids, same
   structure) generates the same source and compiles nothing, in every
   flavour; the cache stays within its bound, under threads too.
"""

from __future__ import annotations

import builtins
import hashlib
import os
import sys
import threading
from pathlib import Path

from repro.asm import assemble_program
from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore
from repro.sim import Machine, ValueProfiler
from repro.sim import blockc
from repro.sim.blockc import compile_blocks
from repro.workloads import workload_by_name
from test_sim_machine import _trace_columns

_LOOP_ASM = """
.data buf 8 64
.func helper 1
entry:
    add v0, a0, a0
    ret
.endfunc
.func main 0
entry:
    li r1, 0
    li r2, =buf
loop:
    add r1, r1, 1
    stq r1, 0(r2)
    ldq r3, 0(r2)
    mov a0, r3
    jsr helper
    cmplt r4, r1, 5
    bne r4, loop
done:
    print v0
    halt
.endfunc
"""


class TestCompiledProgramReuse:
    def test_second_run_performs_zero_compilation(self, monkeypatch):
        """The acceptance probe: repeated runs only *bind* per-run state.
        First runs compile one block program per trace flavour and one per
        distinct watched set; repeat runs with the same flavour and watched
        set compile nothing."""
        import repro.sim.machine as machine_module

        program = assemble_program(_LOOP_ASM)
        machine = Machine(program)
        main = list(program.functions["main"].instructions())
        watched_sets = ({main[2].uid}, {main[2].uid, main[5].uid})

        calls = {"blocks": 0}
        real_compile = machine_module.compile_blocks

        def counting_compile(*args, **kwargs):
            calls["blocks"] += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(machine_module, "compile_blocks", counting_compile)

        def run_all():
            summaries = []
            for trace in (True, False):
                for watched in (None, *watched_sets):
                    profiler = ValueProfiler(watched) if watched else None
                    run = machine.run(collect_trace=trace, value_observer=profiler)
                    summaries.append(
                        (
                            run.output,
                            run.instructions,
                            run.block_counts,
                            _trace_columns(run.trace) if trace else None,
                            profiler and {u: t.entries for u, t in profiler.tables.items()},
                        )
                    )
            # The reference loop compiles nothing.
            machine.run_reference(value_observer=ValueProfiler(watched_sets[0]))
            return summaries

        first = run_all()
        assert calls["blocks"] == 2 + 2 * len(watched_sets)

        calls["blocks"] = 0
        assert run_all() == first
        assert calls["blocks"] == 0, "second run must not compile"

    def test_repeated_runs_share_one_block_program(self):
        machine = Machine(assemble_program(_LOOP_ASM))
        machine.run(collect_trace=True)
        program_object = machine._block_programs[True, frozenset()]
        machine.run(collect_trace=True)
        assert machine._block_programs[True, frozenset()] is program_object


def _counting_asm(count: int) -> str:
    """A small loop whose trip count is baked into its source text."""
    return f"""
.func main 0
entry:
    li r1, {count + 3}
    li r2, 0
loop:
    add r2, r2, r1
    and r3, r2, 255
    sub r1, r1, 1
    bne r1, loop
done:
    print r3
    halt
.endfunc
"""


def _relative_run(machine: Machine, run) -> tuple:
    """A traced run's results with uids made relative to the build's
    base: equal for two builds of one program."""
    base = machine.static_info.uid_base
    metas, mems, shapes = _trace_columns(run.trace)
    return (
        run.output,
        run.instructions,
        [meta - (base << 8) for meta in metas],
        mems,
        {(uid - base, srcs, result): count for (uid, srcs, result), count in shapes.items()},
    )


def _li_machine() -> Machine:
    workload = workload_by_name("li")
    program = workload.build()
    workload.apply_input(program, "ref")
    return Machine(program)


def _count_block_compiles(monkeypatch) -> list[str]:
    """Record every ``compile()`` of generated block source from now on."""
    calls: list[str] = []
    real_compile = builtins.compile

    def counting_compile(source, filename, *args, **kwargs):
        if filename == "<repro.sim.blockc>":
            calls.append(source)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    return calls


class _StreamObserver:
    """A value observer that keeps the raw ``(uid, value)`` stream."""

    def __init__(self, uids) -> None:
        self.watched_uids = set(uids)
        self.stream: list[tuple[int, int]] = []

    def observe(self, uid: int, value: int) -> None:
        self.stream.append((uid, value))


class TestCodeCache:
    def test_rebuilt_program_compiles_nothing(self, monkeypatch):
        first, second = _li_machine(), _li_machine()
        assert first.static_info.uid_base != second.static_info.uid_base
        first_run = first.run(collect_trace=True)
        calls = _count_block_compiles(monkeypatch)
        second_run = second.run(collect_trace=True)
        assert calls == []
        assert _relative_run(second, second_run) == _relative_run(first, first_run)

    def test_rebuilt_observer_flavour_compiles_nothing(self, monkeypatch):
        """The value-profiling flavour names watched uids relative to the
        build's base: a rebuild watching the same positions shares the
        code, and each observer still sees its own build's uids."""
        first, second = _li_machine(), _li_machine()

        def observer(machine):
            positions = [inst for _, _, inst in machine._flat if inst.dest is not None]
            return _StreamObserver(inst.uid for inst in positions[::7])

        first_observer, second_observer = observer(first), observer(second)
        first.run(value_observer=first_observer)
        calls = _count_block_compiles(monkeypatch)
        second.run(value_observer=second_observer)
        assert calls == []
        assert first_observer.stream
        for seen in (first_observer, second_observer):
            assert {uid for uid, _ in seen.stream} <= seen.watched_uids
        first_base = first.static_info.uid_base
        second_base = second.static_info.uid_base
        assert [(uid - second_base, value) for uid, value in second_observer.stream] == [
            (uid - first_base, value) for uid, value in first_observer.stream
        ]

    def test_cache_is_bounded_and_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(blockc, "_CODE_CACHE", {})
        monkeypatch.setattr(blockc, "_CODE_CACHE_LIMIT", 3)
        calls = _count_block_compiles(monkeypatch)

        def compile_variant(count):
            machine = Machine(assemble_program(_counting_asm(count)))
            return compile_blocks(machine, collect_trace=True).source

        sources = [compile_variant(count) for count in range(5)]
        assert len(calls) == 5
        digests = [hashlib.sha256(source.encode()).hexdigest() for source in sources]
        assert list(blockc._CODE_CACHE) == digests[2:]
        compile_variant(4)  # still cached
        assert len(calls) == 5
        compile_variant(0)  # evicted: compiled again, and the oldest goes
        assert len(calls) == 6
        assert list(blockc._CODE_CACHE) == digests[3:] + digests[:1]

    def test_concurrent_rebuilds_stay_exact_and_bounded(self, monkeypatch):
        """More threads than cores compile and run rebuilds of more
        distinct programs than the cache holds, with a tiny switch
        interval so lookups, inserts and evictions interleave.  Every run
        must equal the single-threaded run of its program, and the bound
        must hold.  The programs are built up front: uids come from one
        process-wide counter, so concurrent builds would interleave them."""
        limit, variants = 4, 7
        monkeypatch.setattr(blockc, "_CODE_CACHE", {})
        monkeypatch.setattr(blockc, "_CODE_CACHE_LIMIT", limit)

        def run_program(program):
            machine = Machine(program)
            return _relative_run(machine, machine.run(collect_trace=True))

        expected = [
            run_program(assemble_program(_counting_asm(count))) for count in range(variants)
        ]
        counts = [
            [(seed + step) % variants for step in range(3 * variants)]
            for seed in range(2 * (os.cpu_count() or 1) + 2)
        ]
        plans = [
            [(count, assemble_program(_counting_asm(count))) for count in plan]
            for plan in counts
        ]
        errors: list = []
        sizes: list[int] = []

        def worker(plan):
            try:
                for count, program in plan:
                    if run_program(program) != expected[count]:
                        errors.append(f"variant {count} diverged")
                    sizes.append(len(blockc._CODE_CACHE))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(sizes) == len(threads) * 3 * variants
        assert max(sizes) <= limit and len(blockc._CODE_CACHE) <= limit

    def test_second_engine_pass_compiles_nothing(self, tmp_path, monkeypatch):
        """Two passes over li's paper points, each with a fresh engine and
        an empty store, as a warm process runs them: every program of the
        second pass — VRS's training and profiling runs included — comes
        from the code cache."""
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        points = [ExperimentConfig("li", mechanism) for mechanism in ("none", "vrp", "vrs")]

        def run_pass(root):
            evaluations = ExperimentEngine(ResultStore(root), jobs=1).map(points)
            digests = []
            for evaluation in evaluations:
                assert evaluation.freshly_computed
                digests.append(evaluation.summarize().to_json_dict())
            return digests

        first = run_pass(tmp_path / "first")
        calls = _count_block_compiles(monkeypatch)
        assert run_pass(tmp_path / "second") == first
        assert calls == []


class TestGeneratedSource:
    def test_generation_is_deterministic(self):
        program = assemble_program(_LOOP_ASM)
        first = compile_blocks(Machine(program), collect_trace=True)
        second = compile_blocks(Machine(program), collect_trace=True)
        assert first.source == second.source
        assert first.lengths == second.lengths
        assert first.entry_points == second.entry_points

    def test_units_cover_blocks_and_call_return_sites(self):
        program = assemble_program(_LOOP_ASM)
        machine = Machine(program)
        compiled = compile_blocks(machine, collect_trace=False)
        # Every basic-block start is an entry point...
        for start in machine._block_start.values():
            if start < len(machine._flat):
                assert start in compiled.entry_points
        # ...and so is the instruction after every call.
        for pc, (_, _, inst) in enumerate(machine._flat):
            if inst.is_call and pc + 1 < len(machine._flat):
                assert pc + 1 in compiled.entry_points
        # Unit lengths tile the whole program.
        assert sum(compiled.lengths) == len(machine._flat)


class TestSnapshotFingerprint:
    def test_fingerprint_covers_block_compiler_source(self):
        from repro.experiments.store import _sim_source_paths

        paths = {path.name for path in _sim_source_paths()}
        assert "blockc.py" in paths
        assert "machine.py" in paths
        assert "trace.py" in paths

    def _mutated_blockc(self, monkeypatch):
        """Patch Path.read_bytes so only sim/blockc.py appears edited."""
        target = Path(blockc.__file__).resolve()
        real_read = Path.read_bytes

        def fake_read(path):
            data = real_read(path)
            if Path(path).resolve() == target:
                data += b"\n# semantics changed\n"
            return data

        monkeypatch.setattr(Path, "read_bytes", fake_read)

    def _clear_fingerprint_caches(self):
        from repro.experiments import store as store_module

        store_module._sim_fingerprint.cache_clear()
        store_module._code_fingerprint.cache_clear()
        store_module._trace_material.cache_clear()
        store_module._config_material.cache_clear()

    def test_mutating_block_compiler_rotates_sim_fingerprint(self, monkeypatch):
        from repro.experiments import store as store_module

        try:
            self._clear_fingerprint_caches()
            base = store_module._sim_fingerprint()
            self._mutated_blockc(monkeypatch)
            self._clear_fingerprint_caches()
            assert store_module._sim_fingerprint() != base
        finally:
            monkeypatch.undo()
            self._clear_fingerprint_caches()

    def test_mutated_compiler_never_replays_stale_snapshots(
        self, tmp_path, monkeypatch
    ):
        """End to end: after a block-compiler edit, the engine re-simulates
        instead of replaying the previous generation's trace snapshot."""
        from repro.experiments.engine import ExperimentConfig, ExperimentEngine
        from repro.experiments.store import ResultStore

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)

        calls = {"count": 0}
        original_run = Machine.run

        def counting_run(self, *args, **kwargs):
            calls["count"] += 1
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting_run)

        config = ExperimentConfig(workload="ijpeg")
        try:
            self._clear_fingerprint_caches()
            ExperimentEngine(store=ResultStore(tmp_path), jobs=1).evaluate(config)
            assert calls["count"] > 0

            self._mutated_blockc(monkeypatch)
            self._clear_fingerprint_caches()
            calls["count"] = 0
            warm = ExperimentEngine(store=ResultStore(tmp_path), jobs=1).evaluate(config)
            assert calls["count"] > 0, "stale snapshot must not be replayed"
            assert not warm.replayed_from_store
        finally:
            monkeypatch.undo()
            self._clear_fingerprint_caches()
