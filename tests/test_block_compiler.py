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
"""

from __future__ import annotations

from pathlib import Path

from repro.asm import assemble_program
from repro.sim import Machine, ValueProfiler
from repro.sim import blockc
from repro.sim.blockc import compile_blocks
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
