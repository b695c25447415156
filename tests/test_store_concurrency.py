"""Concurrency regression tests for the result store.

Covers the three store races fixed alongside the evaluation service:

* **duplicate work** — two live processes evaluating the same cold
  configuration must run exactly one simulation: the loser of the
  single-flight lock waits and reads the winner's published entry;
* **reaper vs. live writer** — ``reap_stale_tmp`` must never delete a
  ``*.tmp`` file an in-progress ``_publish`` is about to rename, even
  when ``REPRO_STORE_TMP_TTL`` is configured recklessly low;
* **multi-process stress** — several processes hammering one store root
  (with chaos delays injected at the publish point) must converge to one
  entry per configuration, no duplicate simulations, and a clean fsck.

Plus unit coverage for the ``single_flight`` protocol itself (loser
reads winner, stale-lock breaking, deadline takeover) and the trace LRU
eviction byte cap.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.experiments import ExperimentConfig, ExperimentEngine, ResultStore
from repro.experiments.store import Flight
from repro.workloads import Workload

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY_SOURCE = """
int job_size;
int data[16];

int main() {
    int i;
    long acc;
    acc = 0;
    for (i = 0; i < job_size; i = i + 1) {
        acc = acc + data[i & 15];
    }
    print(acc);
    return 0;
}
"""


def make_tiny(name: str = "tiny", source: str = TINY_SOURCE) -> Workload:
    return Workload(
        name=name,
        description="16-element accumulation loop",
        source=source,
        train_data={"job_size": (8,), "data": tuple(range(16))},
        ref_data={"job_size": (40,), "data": tuple(range(100, 116))},
    )


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    return ResultStore(tmp_path / "store")


# The subprocess worker: build the tiny workload, wait for the shared
# go-file (so every contender hits the cold store simultaneously), then
# evaluate the configs named on argv and print one JSON line per config.
_WORKER = textwrap.dedent(
    """
    import json, os, sys, time
    sys.path.insert(0, sys.argv[1])
    from repro.experiments import ExperimentConfig, ExperimentEngine
    from repro.workloads import Workload

    TINY_SOURCE = '''%s'''

    workload = Workload(
        name="tiny",
        description="16-element accumulation loop",
        source=TINY_SOURCE,
        train_data={"job_size": (8,), "data": tuple(range(16))},
        ref_data={"job_size": (40,), "data": tuple(range(100, 116))},
    )
    go_file = sys.argv[2]
    specs = [json.loads(raw) for raw in sys.argv[3:]]
    print("ready", flush=True)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(go_file):
        if time.monotonic() > deadline:
            raise SystemExit("go file never appeared")
        time.sleep(0.005)
    engine = ExperimentEngine(jobs=1)
    for spec in specs:
        config = ExperimentConfig(
            workload="tiny",
            mechanism=spec["mechanism"],
            threshold_nj=spec["threshold_nj"],
            conventional_vrp=spec.get("conventional_vrp", False),
        )
        evaluation = engine.evaluate(config, workload=workload)
        print(
            json.dumps(
                {
                    "key": engine.key_for(config, workload=workload),
                    "energy": evaluation.outcome("baseline").energy.total,
                    "cycles": evaluation.outcome("baseline").cycles,
                    "fresh": evaluation.freshly_computed,
                }
            ),
            flush=True,
        )
    """
) % TINY_SOURCE


# The sweep worker: wait for the go-file like ``_WORKER``, then run one
# small two-group sweep (li and ijpeg x two machine configs) and print
# one JSON line per row.
_SWEEP_WORKER = textwrap.dedent(
    """
    import json, os, sys, time
    sys.path.insert(0, sys.argv[1])
    from repro.experiments import ExperimentEngine, SweepSpec, default_sweep_configs

    configs = [pair for pair in default_sweep_configs() if pair[0] in ("table2", "wide-8")]
    spec = SweepSpec.cartesian(
        workloads=("li", "ijpeg"), configs=configs, policies=("baseline",)
    )
    go_file = sys.argv[2]
    print("ready", flush=True)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(go_file):
        if time.monotonic() > deadline:
            raise SystemExit("go file never appeared")
        time.sleep(0.005)
    for row in ExperimentEngine(jobs=1).sweep(spec):
        print(json.dumps(row.to_json_dict()), flush=True)
    """
)


def _launch_workers(
    tmp_path, store_root, specs_per_proc, count, extra_env=None, worker=_WORKER
):
    """Start ``count`` synchronized workers; return their completed results."""
    go_file = str(tmp_path / "go")
    probe_dir = str(tmp_path / "probes")
    env = dict(
        os.environ,
        REPRO_RESULT_STORE=str(store_root),
        REPRO_SIM_PROBE_DIR=probe_dir,
        REPRO_JOBS="1",
    )
    env.pop("REPRO_TRACE_STORE", None)
    env.pop("REPRO_CHAOS", None)
    env.update(extra_env or {})
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", worker, SRC_DIR, go_file]
            + [json.dumps(spec) for spec in specs],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for specs in specs_per_proc[:count]
    ]
    for proc in procs:
        assert proc.stdout.readline().strip() == "ready"
    with open(go_file, "w"):
        pass
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"worker failed:\n{err}"
        outputs.append([json.loads(line) for line in out.strip().splitlines()])
    probes = sorted(os.listdir(probe_dir)) if os.path.isdir(probe_dir) else []
    return outputs, probes


class TestTwoProcessSingleFlight:
    """Satellite 1: the duplicate-work race across live processes."""

    def test_identical_cold_submissions_run_one_simulation(self, tmp_path):
        store_root = tmp_path / "store"
        spec = {"mechanism": "vrp", "threshold_nj": 50.0}
        # Chaos holds the winner inside its publish for 300 ms so the
        # loser demonstrably arrives while the flight is still open and
        # must wait on the lock rather than recompute.
        outputs, probes = _launch_workers(
            tmp_path,
            store_root,
            [[spec], [spec]],
            count=2,
            extra_env={
                "REPRO_CHAOS": "7:store-save=sleep:0.3@1",
                "REPRO_CHAOS_STATE": str(tmp_path / "chaos-state"),
            },
        )
        assert len(probes) == 1, (
            f"expected exactly one live simulation, saw {probes}; outputs={outputs}"
        )
        (first,), (second,) = outputs
        assert first["key"] == second["key"]
        assert first["energy"] == second["energy"]
        assert first["cycles"] == second["cycles"]
        # Exactly one of them computed; the other was served the entry.
        assert sorted([first["fresh"], second["fresh"]]) == [False, True]

        store = ResultStore(store_root)
        assert [entry.key for entry in store.entries()] == [first["key"]]
        assert list(store_root.rglob("*.tmp")) == []
        assert list(store.lock_root.rglob("*.lock")) == []
        assert store.fsck().clean

    def test_loser_reads_winners_entry_in_process(self, store, tmp_path):
        # Compute the summary against a scratch store up front: the flight
        # under test must stay open (publish-free) while the loser arrives.
        workload = make_tiny()
        config = ExperimentConfig(workload="tiny", mechanism="none")
        scratch = ExperimentEngine(store=ResultStore(tmp_path / "scratch"))
        summary = scratch.evaluate(config, workload=workload).summarize()
        key = ExperimentEngine(store=store).key_for(config, workload=workload)

        entered = threading.Event()
        release = threading.Event()
        flights: list[Flight] = []

        def winner():
            with store.single_flight(key) as flight:
                assert flight.owner
                entered.set()
                release.wait(timeout=30)
                store.save(key, summary)

        thread = threading.Thread(target=winner)
        thread.start()
        assert entered.wait(timeout=10)

        def loser():
            with store.single_flight(key) as flight:
                flights.append(flight)

        loser_thread = threading.Thread(target=loser)
        loser_thread.start()
        time.sleep(0.1)  # the loser is now polling the lock
        release.set()
        thread.join(timeout=30)
        loser_thread.join(timeout=30)
        assert len(flights) == 1
        flight = flights[0]
        assert not flight.owner
        assert flight.summary is not None
        assert flight.shared


class TestTwoProcessSweep:
    """A sweep group resolves under the same single-flight as a point."""

    def test_identical_cold_sweeps_simulate_each_group_once(self, tmp_path):
        store_root = tmp_path / "store"
        outputs, probes = _launch_workers(
            tmp_path, store_root, [[], []], count=2, worker=_SWEEP_WORKER
        )
        assert sorted(name.split("-")[0] for name in probes) == ["ijpeg", "li"], (
            f"expected one live simulation per group, saw {probes}; outputs={outputs}"
        )
        first, second = outputs
        assert len(first) == len(second) == 4
        assert [{**row, "source": None} for row in first] == [
            {**row, "source": None} for row in second
        ]
        for workload in ("li", "ijpeg"):
            sources = []
            for rows in outputs:
                (source,) = {row["source"] for row in rows if row["workload"] == workload}
                sources.append(source)
            # One process simulated the group; the other waited on its
            # flight and replayed the published snapshot.
            assert sorted(sources) == ["computed", "replayed"], (workload, outputs)

        store = ResultStore(store_root)
        assert list(store_root.rglob("*.tmp")) == []
        assert list(store.lock_root.rglob("*.lock")) == []
        assert store.fsck().clean


class TestSingleFlightLocks:
    def test_stale_lock_from_dead_process_is_broken(self, store):
        key = "f" * 64
        lock_path = store.lock_path_for(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            json.dumps({"pid": 2**22 + 12345, "host": "nowhere", "key": key})
        )
        old = time.time() - 3600.0
        os.utime(lock_path, (old, old))
        with store.single_flight(key) as flight:
            assert flight.owner
        assert not lock_path.exists()

    def test_deadline_computes_without_usurping_live_lock(self, store):
        key = "e" * 64
        lock_path = store.lock_path_for(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        # A cross-host lock with a fresh mtime: not provably dead, so the
        # caller's own deadline makes it compute anyway — but *without*
        # breaking the (possibly live) owner's lock.
        lock_path.write_text(
            json.dumps({"pid": os.getpid(), "host": "somewhere-else", "key": key})
        )
        start = time.monotonic()
        with store.single_flight(key, poll_s=0.01, timeout_s=0.2) as flight:
            assert flight.owner
        assert time.monotonic() - start < 10.0
        assert lock_path.exists()  # the held lock was never unlinked

    def test_live_same_host_lock_is_never_stale_by_age(self, store, monkeypatch):
        """A live owner computing past the TTL must keep its lock.

        Regression: ``_lock_is_stale`` used to fall through to the TTL
        check even after a successful same-host pid probe, so a long
        computation had its lock broken under it, and its own release
        then unlinked the usurper's lock — cascading takeovers.
        """
        monkeypatch.setenv("REPRO_STORE_LOCK_TTL", "1")
        from repro.experiments.store import _hostname

        key = "d" * 64
        lock_path = store.lock_path_for(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            json.dumps({"pid": os.getpid(), "host": _hostname(), "key": key})
        )
        old = time.time() - 3600.0  # far older than any TTL
        os.utime(lock_path, (old, old))
        assert not store._lock_is_stale(lock_path)

    def test_dead_same_host_lock_is_stale_immediately(self, store):
        key = "c" * 64
        from repro.experiments.store import _hostname

        lock_path = store.lock_path_for(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            json.dumps({"pid": 2**22 + 12345, "host": _hostname(), "key": key})
        )
        assert store._lock_is_stale(lock_path)  # fresh mtime, provably dead pid

    def test_disabled_store_is_always_owner(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", "off")
        store = ResultStore()
        with store.single_flight("a" * 64) as flight:
            assert flight.owner
            assert flight.summary is None


class TestReaperVsLiveWriter:
    """Satellite 2: TTL clamp keeps the reaper off live ``*.tmp`` files."""

    def test_ttl_floor_protects_fresh_tmp(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TMP_TTL", "0")
        target_dir = store.generation_root / "ab" / "cd"
        target_dir.mkdir(parents=True, exist_ok=True)
        live_tmp = target_dir / "entry.json.worker.tmp"
        live_tmp.write_text("{half-written")
        # Both the env-configured TTL and an explicit max_age_s=0 are
        # clamped to the floor: a seconds-old tmp file survives.
        assert store.reap_stale_tmp() == 0
        assert store.reap_stale_tmp(max_age_s=0.0) == 0
        assert store.fsck().reaped_tmp == 0
        assert live_tmp.exists()

    def test_truly_stale_tmp_is_still_reaped(self, store):
        target_dir = store.generation_root / "ab" / "cd"
        target_dir.mkdir(parents=True, exist_ok=True)
        stale_tmp = target_dir / "entry.json.dead.tmp"
        stale_tmp.write_text("{half-written")
        old = time.time() - 3600.0
        os.utime(stale_tmp, (old, old))
        assert store.reap_stale_tmp(max_age_s=0.0) == 1
        assert not stale_tmp.exists()

    def test_slow_publish_survives_concurrent_reap(self, store, monkeypatch):
        """A paused mid-``_publish`` writer must still be able to rename."""
        monkeypatch.setenv("REPRO_STORE_TMP_TTL", "0")
        final = store.generation_root / "ab" / "cd" / "entry.json"
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(final.name + ".slow.tmp")
        tmp.write_text('{"ok": true}')
        # The writer is "paused" between tmp-write and rename; a
        # concurrent reaper (worst-case TTL) sweeps the store.
        reaper = threading.Thread(target=store.reap_stale_tmp, args=(0.0,))
        reaper.start()
        reaper.join(timeout=30)
        os.replace(tmp, final)  # must not raise FileNotFoundError
        assert json.loads(final.read_text()) == {"ok": True}


class TestMultiProcessStress:
    """Satellite 4: K processes hammering one root under chaos."""

    def test_stress_converges_to_one_entry_per_config(self, tmp_path):
        store_root = tmp_path / "store"
        specs = [
            {"mechanism": "none", "threshold_nj": 50.0},
            {"mechanism": "vrp", "threshold_nj": 50.0},
            {"mechanism": "vrp", "threshold_nj": 100.0},
        ]
        # Every process evaluates every config, in a different order, so
        # each key is contended by all four processes.
        orders = [
            specs,
            specs[::-1],
            [specs[1], specs[0], specs[2]],
            [specs[2], specs[0], specs[1]],
        ]
        outputs, probes = _launch_workers(
            tmp_path,
            store_root,
            orders,
            count=4,
            extra_env={
                "REPRO_CHAOS": "11:store-save=sleep:0.2@1",
                "REPRO_CHAOS_STATE": str(tmp_path / "chaos-state"),
            },
        )
        # No lost entries, no duplicate simulations.
        assert len(probes) == len(specs), (
            f"duplicate simulations: {probes}; outputs={outputs}"
        )
        by_key: dict[str, set] = {}
        for worker_output in outputs:
            assert len(worker_output) == len(specs)
            for row in worker_output:
                by_key.setdefault(row["key"], set()).add(
                    (row["energy"], row["cycles"])
                )
        assert len(by_key) == len(specs)
        for key, observations in by_key.items():
            assert len(observations) == 1, f"divergent results for {key}"

        store = ResultStore(store_root)
        assert sorted(entry.key for entry in store.entries()) == sorted(by_key)
        assert list(store_root.rglob("*.tmp")) == []
        assert list(store.lock_root.rglob("*.lock")) == []
        report = store.fsck()
        assert report.clean
        assert report.scanned_entries == len(specs)


class TestTraceEviction:
    """LRU eviction keeps the trace store under REPRO_TRACE_STORE_MAX_BYTES."""

    @staticmethod
    def _trace_bytes(store) -> int:
        traces_root = store.root / "traces"
        if not traces_root.is_dir():
            return 0
        return sum(p.stat().st_size for p in traces_root.rglob("*.trace"))

    def _populate(self, store) -> ExperimentEngine:
        engine = ExperimentEngine(store=store)
        # Distinct sources => distinct trace keys => several snapshots.
        for index in range(3):
            source = TINY_SOURCE.replace("i & 15", f"i & {3 + index}")
            workload = make_tiny(name=f"tiny{index}", source=source)
            config = ExperimentConfig(workload=workload.name, mechanism="none")
            engine.evaluate(config, workload=workload, pipeline="materialized")
        return engine

    def test_eviction_enforces_byte_cap(self, store):
        self._populate(store)
        before = self._trace_bytes(store)
        assert before > 0
        sizes = sorted(
            p.stat().st_size for p in (store.root / "traces").rglob("*.trace")
        )
        budget = sizes[-1]  # room for roughly the largest snapshot only
        evicted = store.evict_traces(budget_bytes=budget)
        assert evicted >= 1
        assert self._trace_bytes(store) <= budget
        # Emptied shard directories are compacted away.
        for dirpath, dirnames, filenames in os.walk(store.root / "traces"):
            assert dirnames or filenames, f"empty shard dir left behind: {dirpath}"

    def test_save_trace_auto_evicts_under_env_cap(self, store, monkeypatch):
        engine = self._populate(store)
        sizes = [p.stat().st_size for p in (store.root / "traces").rglob("*.trace")]
        cap = max(sizes) * 2
        monkeypatch.setenv("REPRO_TRACE_STORE_MAX_BYTES", str(cap))
        # New snapshots keep arriving; the store stays under the cap.
        for index in range(3, 6):
            source = TINY_SOURCE.replace("i & 15", f"i & {3 + index}")
            workload = make_tiny(name=f"tiny{index}", source=source)
            config = ExperimentConfig(workload=workload.name, mechanism="none")
            engine.evaluate(config, workload=workload, pipeline="materialized")
            assert self._trace_bytes(store) <= cap

    def test_recently_used_traces_survive(self, store):
        engine = self._populate(store)
        traces = sorted((store.root / "traces").rglob("*.trace"))
        assert len(traces) >= 2
        # Make the first snapshot look cold and the rest hot.
        old = time.time() - 3600.0
        os.utime(traces[0], (old, old))
        total = self._trace_bytes(store)
        victim_size = traces[0].stat().st_size
        store.evict_traces(budget_bytes=total - victim_size)
        assert not traces[0].exists()
        for survivor in traces[1:]:
            assert survivor.exists()
