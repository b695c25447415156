"""Tests for the evaluation service: HTTP API, dedup, drain, CLI purity.

The expensive tests share one module-scoped live server (a real
subprocess of ``python -m repro.experiments serve``) with its own store
root and a simulation probe directory — every live simulator run drops
one marker file, so "N identical submissions cost one simulation" is
asserted by counting files, not by trusting flags.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import Job, JobQueue, ServiceClient, ServiceClientError, new_job_id
from repro.service.server import EvaluationService, ServiceError

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _make_job(priority: int = 0, dedup: str = "d") -> Job:
    return Job(id=new_job_id(), kind="run", request={}, dedup_key=dedup, priority=priority)


class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        async def run_all():
            queue = JobQueue()
            low1 = _make_job(priority=0)
            high = _make_job(priority=5)
            low2 = _make_job(priority=0)
            for job in (low1, high, low2):
                await queue.put(job)
            drained = [await queue.get() for _ in range(3)]
            return (low1, high, low2), drained

        (low1, high, low2), drained = asyncio.run(run_all())
        assert [job.id for job in drained] == [high.id, low1.id, low2.id]

    def test_close_drains_then_returns_none(self):
        async def scenario():
            queue = JobQueue()
            await queue.put(_make_job())
            await queue.close()
            first = await queue.get()
            second = await queue.get()
            with pytest.raises(RuntimeError):
                await queue.put(_make_job())
            return first, second

        first, second = asyncio.run(scenario())
        assert first is not None
        assert second is None

    def test_drain_now_empties_synchronously(self):
        async def scenario():
            queue = JobQueue()
            jobs = [_make_job(priority=i) for i in range(3)]
            for job in jobs:
                await queue.put(job)
            dropped = queue.drain_now()
            await queue.close()
            return jobs, dropped, await queue.get()

        jobs, dropped, leftover = asyncio.run(scenario())
        assert {job.id for job in dropped} == {job.id for job in jobs}
        assert leftover is None


class TestSubmitValidation:
    """Request validation and the draining gate, without a socket."""

    def _submit(self, service: EvaluationService, payload: dict):
        return asyncio.run(service._submit(payload))

    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        return EvaluationService(workers=1)

    def test_unknown_workload_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            self._submit(service, {"kind": "run", "workloads": ["nope"]})
        assert excinfo.value.status == 400

    def test_unknown_policy_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            self._submit(service, {"workloads": ["li"], "policies": ["nope"]})
        assert excinfo.value.status == 400

    def test_unknown_kind_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            self._submit(service, {"kind": "shrug"})
        assert excinfo.value.status == 400

    def test_unknown_sweep_config_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            self._submit(service, {"kind": "sweep", "workloads": ["li"], "configs": ["nope"]})
        assert excinfo.value.status == 400

    def test_unknown_pipeline_is_400(self, service):
        for kind in ("run", "sweep"):
            with pytest.raises(ServiceError) as excinfo:
                self._submit(service, {"kind": kind, "workloads": ["li"], "pipeline": "fuse"})
            assert excinfo.value.status == 400
            assert "unknown pipeline 'fuse'" in str(excinfo.value)

    def test_draining_is_503(self, service):
        service.draining = True
        with pytest.raises(ServiceError) as excinfo:
            self._submit(service, {"workloads": ["li"]})
        assert excinfo.value.status == 503

    def test_identical_requests_share_a_dedup_key(self, service):
        job_a = service._build_run_job({"workloads": ["li"], "mechanism": "vrp"})
        job_b = service._build_run_job({"workloads": ["li"], "mechanism": "vrp"})
        job_c = service._build_run_job(
            {"workloads": ["li"], "mechanism": "vrp", "threshold_nj": 75.0}
        )
        assert job_a.dedup_key == job_b.dedup_key
        assert job_a.dedup_key != job_c.dedup_key


# ----------------------------------------------------------------------
# Live server fixture
# ----------------------------------------------------------------------
def _boot_server(store_root, probe_dir, workers=2):
    env = dict(
        os.environ,
        PYTHONPATH=SRC_DIR,
        REPRO_RESULT_STORE=str(store_root),
        REPRO_TRACE_STORE="off",
        REPRO_SIM_PROBE_DIR=str(probe_dir),
        REPRO_JOBS="1",
    )
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["event"] == "ready"
    return proc, ready


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    base = tmp_path_factory.mktemp("service")
    probe_dir = base / "probes"
    proc, ready = _boot_server(base / "store", probe_dir)
    client = ServiceClient("127.0.0.1", ready["port"], timeout=120)
    yield {"proc": proc, "client": client, "probes": probe_dir, "ready": ready}
    proc.send_signal(signal.SIGTERM)
    out, _err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["event"] == "drained"


def _probe_count(probe_dir) -> int:
    return len(os.listdir(probe_dir)) if os.path.isdir(probe_dir) else 0


class TestServiceHTTP:
    def test_healthz_and_stats(self, live_server):
        client = live_server["client"]
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["store"]["enabled"] is True

    def test_run_job_end_to_end(self, live_server):
        client = live_server["client"]
        before = _probe_count(live_server["probes"])
        submitted = client.submit(
            {
                "kind": "run",
                "workloads": ["li"],
                "mechanism": "vrp",
                "policies": ["baseline", "hw-size"],
            }
        )
        assert submitted["deduplicated"] is False
        record = client.wait(submitted["job"], timeout_s=240)
        assert record["state"] == "done"
        assert len(record["rows"]) == 1
        row = record["rows"][0]
        assert row["workload"] == "li"
        assert set(row["energy_nj"]) == {"baseline", "hw-size"}
        assert row["cycles"] > 0
        # Exactly one live simulation, and its summary is now addressable.
        assert _probe_count(live_server["probes"]) - before == 1
        result = client.result(row["key"])
        assert result["key"] == row["key"]
        assert result["summary"]["failure"] is None

    def test_hundred_identical_submissions_one_simulation(self, live_server):
        client = live_server["client"]
        before = _probe_count(live_server["probes"])
        payload = {
            "kind": "run",
            "workloads": ["li"],
            "mechanism": "vrs",  # cold: nothing else in this module runs vrs
            "policies": ["baseline"],
        }
        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(pool.map(lambda _: client.submit(payload), range(100)))
        job_ids = {response["job"] for response in responses}
        records = [client.wait(job_id, timeout_s=240) for job_id in job_ids]
        for record in records:
            assert record["state"] == "done"
        # All 100 submissions observe identical rows...
        rendered = {json.dumps(record["rows"], sort_keys=True) for record in records}
        assert len(rendered) == 1
        # ...and the whole stampede cost exactly one simulator run.
        assert _probe_count(live_server["probes"]) - before == 1
        # Job-level single-flight did real work: the stampede collapsed
        # onto far fewer jobs than submissions.
        assert len(job_ids) < 100
        assert any(response.get("deduplicated") for response in responses)

    def test_event_stream_is_ndjson_and_terminates(self, live_server):
        client = live_server["client"]
        submitted = client.submit(
            {"kind": "run", "workloads": ["li"], "policies": ["baseline"]}
        )
        events = list(client.events(submitted["job"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] in ("done", "failed")
        assert all(event["job"] == submitted["job"] for event in events)

    def test_sweep_job(self, live_server):
        client = live_server["client"]
        submitted = client.submit(
            {
                "kind": "sweep",
                "workloads": ["li"],
                "configs": ["table2"],
                "policies": ["baseline"],
            }
        )
        record = client.wait(submitted["job"], timeout_s=240)
        assert record["state"] == "done"
        assert len(record["rows"]) == 1
        row = record["rows"][0]
        assert (row["workload"], row["config"], row["policy"]) == (
            "li",
            "table2",
            "baseline",
        )
        assert row["error"] is None

    def test_unknown_job_is_404(self, live_server):
        with pytest.raises(ServiceClientError) as excinfo:
            live_server["client"].job("no-such-job")
        assert excinfo.value.status == 404

    def test_unknown_result_key_is_404(self, live_server):
        with pytest.raises(ServiceClientError) as excinfo:
            live_server["client"].result("0" * 64)
        assert excinfo.value.status == 404

    def test_malformed_result_key_is_400(self, live_server):
        """Result keys are validated before any filesystem lookup.

        Regression: ``GET /v1/results/../../...`` used to be joined into
        a store path, and a traversal target that failed JSON decoding
        was *quarantined* — moved out of its directory — by an
        unauthenticated request.
        """
        client = live_server["client"]
        for bad in (
            "../../../../etc/hostname",
            "..%2f..%2fetc%2fhostname",
            "0" * 8,  # too short to be a content hash
            "Z" * 64,  # not hex
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", f"/v1/results/{bad}")
            assert excinfo.value.status == 400, bad

    def test_unknown_path_is_404(self, live_server):
        with pytest.raises(ServiceClientError) as excinfo:
            live_server["client"]._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_get_on_jobs_collection_is_405(self, live_server):
        with pytest.raises(ServiceClientError) as excinfo:
            live_server["client"]._request("GET", "/v1/jobs")
        assert excinfo.value.status == 405

    def test_invalid_json_body_is_400(self, live_server):
        ready = live_server["ready"]
        conn = http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_validation_error_is_400_over_http(self, live_server):
        with pytest.raises(ServiceClientError) as excinfo:
            live_server["client"].submit({"workloads": ["not-a-benchmark"]})
        assert excinfo.value.status == 400
        assert "not-a-benchmark" in excinfo.value.payload["error"]


class TestJobRetention:
    """Terminal jobs are evicted from the in-memory map (TTL + cap), so a
    long-running service does not retain every row it ever served."""

    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        return EvaluationService(workers=1)

    @staticmethod
    def _terminal_job(finished_ago_s: float) -> Job:
        job = _make_job()
        job.state = "done"
        job.finished = time.time() - finished_ago_s
        return job

    def test_ttl_evicts_old_terminal_jobs_only(self, service):
        service.job_ttl_s = 10.0
        old = self._terminal_job(60.0)
        fresh = self._terminal_job(1.0)
        running = _make_job()
        running.state = "running"
        for job in (old, fresh, running):
            service.jobs[job.id] = job
        assert service._prune_jobs() == 1
        assert old.id not in service.jobs
        assert fresh.id in service.jobs
        assert running.id in service.jobs

    def test_cap_evicts_oldest_finished_first(self, service):
        service.job_ttl_s = 3600.0
        service.job_cap = 2
        oldest = self._terminal_job(30.0)
        middle = self._terminal_job(20.0)
        newest = self._terminal_job(10.0)
        for job in (oldest, middle, newest):
            service.jobs[job.id] = job
        assert service._prune_jobs() == 1
        assert oldest.id not in service.jobs
        assert middle.id in service.jobs
        assert newest.id in service.jobs

    def test_submit_prunes(self, service):
        service.job_ttl_s = 0.0
        done = self._terminal_job(1.0)
        service.jobs[done.id] = done
        asyncio.run(service._submit({"workloads": ["li"], "priority": 0}))
        assert done.id not in service.jobs

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_SERVICE_JOB_TTL_S", "123")
        monkeypatch.setenv("REPRO_SERVICE_JOB_CAP", "7")
        service = EvaluationService(workers=1)
        assert service.job_ttl_s == 123.0
        assert service.job_cap == 7


class TestDrain:
    def test_sigterm_drains_queued_job_and_exits_zero(self, tmp_path):
        proc, ready = _boot_server(tmp_path / "store", tmp_path / "probes", workers=1)
        client = ServiceClient("127.0.0.1", ready["port"], timeout=60)
        submitted = client.submit(
            {"kind": "run", "workloads": ["li"], "policies": ["baseline"]}
        )
        assert submitted["deduplicated"] is False
        # SIGTERM lands while the job is queued or running: the drain must
        # finish it, publish the result, and exit 0.
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        drained = json.loads(out.strip().splitlines()[-1])
        assert drained["event"] == "drained"
        assert drained["completed"] == 1
        assert drained["failed"] == 0
        assert _probe_count(tmp_path / "probes") == 1

    def test_new_submissions_refused_while_draining(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        service = EvaluationService(workers=1)
        service.draining = True
        with pytest.raises(ServiceError) as excinfo:
            asyncio.run(service._submit({"workloads": ["li"]}))
        assert excinfo.value.status == 503


# ----------------------------------------------------------------------
# Satellite 3: CLI stdout stays machine-parseable under warnings
# ----------------------------------------------------------------------
class TestCliStdoutPurity:
    """`--json` stdout must parse even when the store emits warnings."""

    @staticmethod
    def _plant_stale_tmp(store_root) -> None:
        """An orphan ``*.tmp`` old enough that opening the store reaps it
        (and logs a warning in the process)."""
        victim_dir = store_root / "deadbeef0000" / "ab" / "cd"
        victim_dir.mkdir(parents=True, exist_ok=True)
        victim = victim_dir / "orphan.json.tmp"
        victim.write_text("{")
        old = time.time() - 7200.0
        os.utime(victim, (old, old))

    def _run_cli(self, args, store_root, extra_env=None):
        env = dict(
            os.environ,
            PYTHONPATH=SRC_DIR,
            REPRO_RESULT_STORE=str(store_root),
            REPRO_TRACE_STORE="off",
            REPRO_JOBS="1",
        )
        env.pop("REPRO_CHAOS", None)
        env.update(extra_env or {})
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )

    def test_run_json_stdout_parses_with_warnings(self, tmp_path):
        store_root = tmp_path / "store"
        self._plant_stale_tmp(store_root)
        result = self._run_cli(
            ["run", "--workload", "li", "--policy", "baseline", "--json"], store_root
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)  # must be one clean document
        assert payload["rows"][0]["workload"] == "li"
        assert "reaped" in result.stderr  # the warning went to stderr

    def test_sweep_json_stdout_parses_with_warnings(self, tmp_path):
        store_root = tmp_path / "store"
        self._plant_stale_tmp(store_root)
        result = self._run_cli(
            [
                "sweep",
                "--workload",
                "li",
                "--config",
                "table2",
                "--policy",
                "baseline",
                "--json",
            ],
            store_root,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["rows"][0]["config"] == "table2"
        assert "reaped" in result.stderr

    def test_fsck_json_stdout_parses_with_warnings(self, tmp_path):
        store_root = tmp_path / "store"
        self._plant_stale_tmp(store_root)
        # A corrupt entry as well, so fsck logs quarantine warnings.
        entry_dir = store_root / "deadbeef0000" / "12" / "34"
        entry_dir.mkdir(parents=True, exist_ok=True)
        (entry_dir / ("1" * 64 + ".json")).write_text("{corrupt")
        result = self._run_cli(["fsck", "--json"], store_root)
        payload = json.loads(result.stdout)
        assert payload["clean"] in (True, False)
        assert result.stdout.lstrip().startswith("{")
        for line in result.stderr.splitlines():
            assert not line.startswith("{")  # diagnostics only
