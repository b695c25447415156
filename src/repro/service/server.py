"""The evaluation service: an asyncio HTTP/JSON front door over the engine.

``python -m repro.experiments serve`` boots one :class:`EvaluationService`
— a long-running process that accepts evaluation jobs over a small
HTTP/1.1 API and resolves them through the shared
:class:`~repro.experiments.engine.ExperimentEngine` (memo → store →
snapshot replay → compute), with three layers of dedup so identical
traffic collapses to one simulation:

1. **job-level single-flight** — a submission whose dedup key matches a
   queued/running job attaches to it as a subscriber,
2. **the content-addressed store** — later identical submissions are
   warm reads,
3. **cross-process single-flight locks** in the store — other replicas
   and CLI runs sharing the cache also wait instead of recomputing.

API (all JSON; see ``docs/service.md`` for the full reference)::

    POST /v1/jobs             submit a run or sweep job
    GET  /v1/jobs/<id>        job status + result rows
    GET  /v1/jobs/<id>/events NDJSON progress stream (live)
    GET  /v1/results/<key>    one stored summary by content key
    GET  /v1/healthz          liveness (+ draining flag)
    GET  /v1/stats            counters, queue depth, store location

Everything is stdlib: ``asyncio.start_server`` plus a hand-rolled
HTTP/1.1 request parser (one request per connection, ``Connection:
close``), which keeps the service deployable anywhere the repro package
runs.  SIGTERM/SIGINT starts a *drain*: the listener closes, queued and
running jobs finish, then the process exits 0; a second signal cancels
queued jobs and exits immediately.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .. import __version__
from ..experiments.engine import ExperimentConfig, ExperimentEngine
from ..experiments.runner import POLICY_NAMES
from ..experiments.store import config_key
from ..experiments.sweep import SweepSpec, default_sweep_configs
from ..sim.fusedc import _checked_pipeline
from ..workloads import SUITE_NAMES, workload_by_name
from .jobs import Job, JobQueue, new_job_id

__all__ = ["EvaluationService", "ServiceError"]

_log = logging.getLogger(__name__)

#: Request body cap; evaluation requests are a few hundred bytes.
_MAX_BODY_BYTES = 1 << 20

#: Per-read timeout on request parsing (slowloris guard, not a job limit).
_READ_TIMEOUT_S = 30.0

#: Event-stream poll interval; progress latency, not correctness.
_STREAM_POLL_S = 0.05

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Shape of a result key: a lowercase hex content hash.  Enforced at the
#: HTTP boundary (400 before any store lookup) so a request path like
#: ``/v1/results/../../etc/passwd`` can never reach the filesystem — the
#: store's own path builders reject malformed keys too, but an
#: unauthenticated input deserves its own front-line check.
_RESULT_KEY_RE = re.compile(r"^[0-9a-f]{16,64}$")

#: Terminal jobs linger this long (seconds) in the in-memory job map for
#: `GET /v1/jobs/<id>` polling, then are evicted — results stay servable
#: from the store via ``GET /v1/results/<key>``.  Without eviction a
#: long-running service retains every result row and event list it ever
#: produced.  Override via ``REPRO_SERVICE_JOB_TTL_S``.
_JOB_TTL_S = 900.0

#: Hard cap on retained terminal jobs regardless of age (a traffic burst
#: must not hold a TTL's worth of rows in memory).  Override via
#: ``REPRO_SERVICE_JOB_CAP``.
_JOB_CAP = 1024


def _job_ttl_s() -> float:
    configured = os.environ.get("REPRO_SERVICE_JOB_TTL_S", "")
    if configured:
        try:
            return max(0.0, float(configured))
        except ValueError:
            pass
    return _JOB_TTL_S


def _job_cap() -> int:
    configured = os.environ.get("REPRO_SERVICE_JOB_CAP", "")
    if configured:
        try:
            return max(0, int(float(configured)))
        except ValueError:
            pass
    return _JOB_CAP


class ServiceError(Exception):
    """A request error with an HTTP status (rendered as ``{"error": ...}``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _hash_request(material: dict) -> str:
    import hashlib

    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Request validation (shared vocabulary with the CLI)
# ----------------------------------------------------------------------
def _require_workloads(payload: dict) -> list[str]:
    workloads = payload.get("workloads")
    if workloads is None and "workload" in payload:
        workloads = [payload["workload"]]
    if workloads is None:
        workloads = list(SUITE_NAMES)
    if not isinstance(workloads, list) or not workloads or not all(
        isinstance(name, str) for name in workloads
    ):
        raise ServiceError(400, "workloads must be a non-empty list of names")
    unknown = sorted(set(workloads) - set(SUITE_NAMES))
    if unknown:
        raise ServiceError(
            400,
            f"unknown workload(s): {', '.join(unknown)}; "
            f"the suite is: {', '.join(SUITE_NAMES)}",
        )
    return workloads


def _require_mechanism(payload: dict) -> tuple[str, float, bool]:
    mechanism = payload.get("mechanism", "none")
    if mechanism not in ("none", "vrp", "vrs"):
        raise ServiceError(400, f"unknown mechanism {mechanism!r}")
    try:
        threshold_nj = float(payload.get("threshold_nj", 50.0))
    except (TypeError, ValueError):
        raise ServiceError(400, "threshold_nj must be a number")
    conventional = bool(payload.get("conventional_vrp", False))
    return mechanism, threshold_nj, conventional


def _require_policies(payload: dict) -> list[str]:
    policies = payload.get("policies")
    if policies is None or policies == ["all"] or policies == "all":
        return list(POLICY_NAMES)
    if not isinstance(policies, list) or not all(isinstance(p, str) for p in policies):
        raise ServiceError(400, "policies must be a list of names")
    unknown = sorted(set(policies) - set(POLICY_NAMES))
    if unknown:
        raise ServiceError(
            400,
            f"unknown polic{'y' if len(unknown) == 1 else 'ies'}: "
            f"{', '.join(unknown)}; registered: {', '.join(POLICY_NAMES)}",
        )
    return list(dict.fromkeys(policies))


def _require_priority(payload: dict) -> int:
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ServiceError(400, "priority must be an integer")
    return priority


def _require_pipeline(payload: dict) -> str:
    try:
        return _checked_pipeline(payload.get("pipeline", "auto"))
    except ValueError as error:
        raise ServiceError(400, str(error)) from None


class EvaluationService:
    """Asyncio HTTP server + priority queue over one shared engine."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        workers: int = 2,
        engine: Optional[ExperimentEngine] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.engine = engine if engine is not None else ExperimentEngine(jobs=jobs)
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        #: Retention of *terminal* jobs in ``self.jobs`` (see _prune_jobs).
        self.job_ttl_s = _job_ttl_s()
        self.job_cap = _job_cap()
        #: Job-level single-flight registry: dedup key -> live job.
        self.inflight: dict[str, Job] = {}
        self.draining = False
        self.counters = {
            "submitted": 0,
            "deduplicated": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rows": 0,
            "cold_rows": 0,
        }
        self._started_monotonic = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="eval-job"
        )
        self._stop = asyncio.Event()
        self._hard_stop = False

    # ------------------------------------------------------------------
    # Dedup keys: content hashes, not request texts
    # ------------------------------------------------------------------
    def _run_dedup_key(self, configs: list[ExperimentConfig], policies: list[str]) -> str:
        keys = [self.engine.key_for(config) for config in configs]
        return _hash_request({"kind": "run", "keys": keys, "policies": policies})

    def _sweep_dedup_key(self, spec: SweepSpec) -> str:
        keys = sorted(
            {
                config_key(
                    workload_by_name(point.workload),
                    point.mechanism,
                    point.threshold_nj,
                    point.conventional_vrp,
                    spec.config_map()[point.config],
                )
                + f"|{point.config}|{point.policy}"
                for point in spec.iter_points()
            }
        )
        return _hash_request({"kind": "sweep", "keys": keys})

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _build_run_job(self, payload: dict) -> Job:
        workloads = _require_workloads(payload)
        mechanism, threshold_nj, conventional = _require_mechanism(payload)
        policies = _require_policies(payload)
        pipeline = _require_pipeline(payload)
        priority = _require_priority(payload)
        configs = [
            ExperimentConfig(
                workload=name,
                mechanism=mechanism,
                threshold_nj=threshold_nj,
                conventional_vrp=conventional,
            )
            for name in workloads
        ]
        request = {
            "kind": "run",
            "workloads": workloads,
            "mechanism": mechanism,
            "threshold_nj": threshold_nj,
            "conventional_vrp": conventional,
            "policies": policies,
            "pipeline": pipeline,
        }
        return Job(
            id=new_job_id(),
            kind="run",
            request=request,
            dedup_key=self._run_dedup_key(configs, policies),
            priority=priority,
        )

    def _build_sweep_job(self, payload: dict) -> Job:
        workloads = _require_workloads(payload)
        mechanism, threshold_nj, conventional = _require_mechanism(payload)
        policies = _require_policies(payload)
        priority = _require_priority(payload)
        pipeline = _require_pipeline(payload)
        available = dict(default_sweep_configs())
        config_names = payload.get("configs")
        if config_names is None:
            config_names = list(available)
        if not isinstance(config_names, list) or not config_names or not all(
            isinstance(name, str) for name in config_names
        ):
            raise ServiceError(400, "configs must be a non-empty list of names")
        unknown = sorted(set(config_names) - set(available))
        if unknown:
            raise ServiceError(
                400,
                f"unknown machine config(s): {', '.join(unknown)}; "
                f"available: {', '.join(available)}",
            )
        spec = SweepSpec.cartesian(
            workloads=workloads,
            configs=tuple((name, available[name]) for name in config_names),
            policies=tuple(policies),
            mechanism=mechanism,
            threshold_nj=threshold_nj,
            conventional_vrp=conventional,
        )
        request = {
            "kind": "sweep",
            "workloads": workloads,
            "configs": config_names,
            "policies": policies,
            "mechanism": mechanism,
            "threshold_nj": threshold_nj,
            "conventional_vrp": conventional,
            "pipeline": pipeline,
        }
        return Job(
            id=new_job_id(),
            kind="sweep",
            request=request,
            dedup_key=self._sweep_dedup_key(spec),
            priority=priority,
        )

    def _prune_jobs(self) -> int:
        """Evict old terminal jobs so ``self.jobs`` tracks live traffic.

        Two bounds: terminal jobs older than ``job_ttl_s`` go, and the
        retained terminal set is capped at ``job_cap`` (oldest-finished
        first).  Queued/running jobs are never touched, and an evicted
        id simply 404s — the result rows remain addressable through the
        store (``GET /v1/results/<key>``).  A live event stream keeps
        its own reference to the Job object, so eviction never breaks
        an in-progress ``/events`` follow.
        """
        now = time.time()
        terminal = [
            job
            for job in self.jobs.values()
            if job.terminal and job.finished is not None
        ]
        victims = [job for job in terminal if now - job.finished > self.job_ttl_s]
        retained = [job for job in terminal if now - job.finished <= self.job_ttl_s]
        if len(retained) > self.job_cap:
            retained.sort(key=lambda job: job.finished)
            victims.extend(retained[: len(retained) - self.job_cap])
        for job in victims:
            self.jobs.pop(job.id, None)
        return len(victims)

    async def _submit(self, payload: dict) -> tuple[int, dict]:
        if self.draining:
            raise ServiceError(503, "service is draining; resubmit to another replica")
        self._prune_jobs()
        kind = payload.get("kind", "run")
        if kind == "run":
            build = self._build_run_job
        elif kind == "sweep":
            build = self._build_sweep_job
        else:
            raise ServiceError(400, f"unknown job kind {kind!r}; expected 'run' or 'sweep'")
        # Building a job hashes workload content for every point it would
        # evaluate (the dedup key); for a large cartesian sweep that is
        # real CPU time, so it runs on the default executor instead of
        # blocking the event loop (and /v1/healthz) mid-submit.  Not the
        # job executor: submits must never queue behind running
        # simulations.
        loop = asyncio.get_running_loop()
        job = await loop.run_in_executor(None, build, payload)
        if self.draining:
            # Drain began while we were hashing; the queue is closing.
            raise ServiceError(503, "service is draining; resubmit to another replica")
        existing = self.inflight.get(job.dedup_key)
        if existing is not None and not existing.terminal:
            # Job-level single-flight: identical work is already queued or
            # running — attach instead of enqueuing a duplicate.
            existing.subscribers += 1
            self.counters["deduplicated"] += 1
            return 200, {
                "job": existing.id,
                "state": existing.state,
                "deduplicated": True,
                "subscribers": existing.subscribers,
            }
        self.jobs[job.id] = job
        self.inflight[job.dedup_key] = job
        self.counters["submitted"] += 1
        job.emit("queued", kind=job.kind, priority=job.priority)
        await self.queue.put(job)
        return 202, {"job": job.id, "state": job.state, "deduplicated": False}

    # ------------------------------------------------------------------
    # Job execution (runs on the thread-pool executor)
    # ------------------------------------------------------------------
    def _execute_run(self, job: Job) -> None:
        request = job.request
        configs = [
            ExperimentConfig(
                workload=name,
                mechanism=request["mechanism"],
                threshold_nj=request["threshold_nj"],
                conventional_vrp=request["conventional_vrp"],
            )
            for name in request["workloads"]
        ]
        policies = request["policies"]
        rows: list[Optional[dict]] = [None] * len(configs)

        def render(index: int, evaluation) -> dict:
            summary = evaluation.summarize()
            if summary.failure is not None:
                return {
                    "workload": configs[index].workload,
                    "key": self.engine.key_for(configs[index]),
                    "error": summary.failure,
                }
            return {
                "workload": evaluation.workload.name,
                "key": self.engine.key_for(configs[index]),
                "mechanism": request["mechanism"],
                "threshold_nj": request["threshold_nj"],
                "conventional_vrp": request["conventional_vrp"],
                "instructions": evaluation.total_dynamic_instructions,
                "cycles": evaluation.outcome("baseline").cycles,
                "energy_nj": {
                    name: evaluation.outcome(name).energy.total for name in policies
                },
                "ed2": {name: evaluation.outcome(name).ed2 for name in policies},
            }

        def stream(index: int, evaluation) -> None:
            rows[index] = render(index, evaluation)
            if evaluation.freshly_computed:
                job.cold_rows += 1
            job.emit(
                "row",
                index=index,
                workload=configs[index].workload,
                source=(
                    "computed"
                    if evaluation.freshly_computed
                    else "replayed"
                    if evaluation.replayed_from_store
                    else "cached"
                ),
            )

        self.engine.map(
            configs,
            pipeline=request["pipeline"],
            on_error="keep",
            on_result=stream,
        )
        job.rows = [row for row in rows if row is not None]

    def _execute_sweep(self, job: Job) -> None:
        request = job.request
        available = dict(default_sweep_configs())
        spec = SweepSpec.cartesian(
            workloads=request["workloads"],
            configs=tuple((name, available[name]) for name in request["configs"]),
            policies=tuple(request["policies"]),
            mechanism=request["mechanism"],
            threshold_nj=request["threshold_nj"],
            conventional_vrp=request["conventional_vrp"],
        )
        rows = []
        for index, row in enumerate(
            self.engine.sweep(spec, pipeline=request["pipeline"], on_error="keep")
        ):
            rows.append(row.to_json_dict())
            if row.source in ("computed", "fused"):
                job.cold_rows += 1
            job.emit(
                "row",
                index=index,
                workload=row.workload,
                config=row.config,
                policy=row.policy,
                source=row.source,
            )
        job.rows = rows

    def _execute_job(self, job: Job) -> None:
        if job.kind == "run":
            self._execute_run(job)
        else:
            self._execute_sweep(job)

    # ------------------------------------------------------------------
    # Queue workers
    # ------------------------------------------------------------------
    async def _worker(self, number: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            if job is None:
                return  # queue closed and drained
            job.state = "running"
            job.started = time.time()
            job.emit("running", worker=number)
            try:
                await loop.run_in_executor(self._executor, self._execute_job, job)
            except Exception as exc:  # noqa: BLE001 - job boundary
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self.counters["failed"] += 1
                job.emit("failed", error=job.error)
                _log.warning("job %s failed: %s", job.id, job.error)
            else:
                job.state = "done"
                self.counters["completed"] += 1
                self.counters["rows"] += len(job.rows)
                self.counters["cold_rows"] += job.cold_rows
                job.emit("done", rows=len(job.rows), cold_rows=job.cold_rows)
            finally:
                job.finished = time.time()
                # The flight is over: later identical submissions should
                # re-resolve through the store (warm) instead of reading a
                # retained job forever.
                if self.inflight.get(job.dedup_key) is job:
                    del self.inflight[job.dedup_key]
                self._prune_jobs()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, dict, bytes]]:
        try:
            line = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServiceError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError):
                return None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ServiceError(400, "malformed Content-Length")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length), _READ_TIMEOUT_S)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                return None
        return method, target, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    async def _stream_events(self, writer: asyncio.StreamWriter, job: Job) -> None:
        """NDJSON progress stream: replay history, then follow live.

        The stream closes after the job's terminal event.  Progress is
        polled (``_STREAM_POLL_S``) rather than condition-signalled: the
        events list is append-only, so a stable prefix is always safe to
        read, and 50 ms of latency is invisible next to a simulation.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        sent = 0
        while True:
            events = job.events
            while sent < len(events):
                writer.write(
                    (json.dumps(events[sent], sort_keys=True) + "\n").encode("utf-8")
                )
                sent += 1
            await writer.drain()
            if job.terminal and sent >= len(job.events):
                return
            await asyncio.sleep(_STREAM_POLL_S)

    async def _route(
        self, method: str, target: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        path = target.split("?", 1)[0]
        if path == "/v1/healthz":
            if method != "GET":
                raise ServiceError(405, "healthz is GET-only")
            self._write_response(
                writer,
                200,
                {
                    "status": "draining" if self.draining else "ok",
                    "version": __version__,
                },
            )
            return
        if path == "/v1/stats":
            if method != "GET":
                raise ServiceError(405, "stats is GET-only")
            self._write_response(writer, 200, self._stats())
            return
        if path == "/v1/jobs":
            if method != "POST":
                raise ServiceError(405, "submit jobs with POST")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, ValueError):
                raise ServiceError(400, "request body is not valid JSON")
            if not isinstance(payload, dict):
                raise ServiceError(400, "request body must be a JSON object")
            status, response = await self._submit(payload)
            self._write_response(writer, status, response)
            return
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise ServiceError(405, "job resources are GET-only")
            rest = path[len("/v1/jobs/") :]
            job_id, _, tail = rest.partition("/")
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(404, f"unknown job {job_id!r}")
            if tail == "":
                self._write_response(writer, 200, job.to_json_dict())
                return
            if tail == "events":
                await self._stream_events(writer, job)
                return
            raise ServiceError(404, f"unknown job resource {tail!r}")
        if path.startswith("/v1/results/"):
            if method != "GET":
                raise ServiceError(405, "results are GET-only")
            key = path[len("/v1/results/") :]
            if not _RESULT_KEY_RE.fullmatch(key):
                raise ServiceError(
                    400,
                    "malformed result key: expected a lowercase hex content hash",
                )
            summary = self.engine.store.load(key) if self.engine.store.enabled else None
            if summary is None:
                raise ServiceError(404, f"no stored result for key {key!r}")
            self._write_response(
                writer, 200, {"key": key, "summary": summary.to_json_dict()}
            )
            return
        raise ServiceError(404, f"unknown path {path!r}")

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, _headers, body = request
                await self._route(method, target, body, writer)
            except ServiceError as exc:
                self._write_response(writer, exc.status, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - connection boundary
                _log.warning("request handling failed: %s: %s", type(exc).__name__, exc)
                try:
                    self._write_response(writer, 500, {"error": "internal error"})
                except Exception:
                    pass
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _stats(self) -> dict:
        store = self.engine.store
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_s": time.monotonic() - self._started_monotonic,
            "draining": self.draining,
            "workers": self.workers,
            "queue_depth": len(self.queue),
            "jobs": dict(self.counters, states=states),
            "store": {
                "enabled": store.enabled,
                "root": str(store.root) if store.enabled else None,
                "trace_enabled": store.trace_enabled,
            },
            "version": __version__,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _request_stop(self) -> None:
        if not self.draining:
            self.draining = True
            _log.warning("drain requested: finishing queued jobs, refusing new ones")
            self._stop.set()
            return
        # Second signal: hard stop — cancel what is still queued.
        _log.warning("second stop signal: cancelling queued jobs")
        self._hard_stop = True
        for job in self.queue.drain_now():
            job.state = "cancelled"
            job.finished = time.time()
            job.error = "cancelled at shutdown"
            self.counters["cancelled"] += 1
            job.emit("cancelled")
            if self.inflight.get(job.dedup_key) is job:
                del self.inflight[job.dedup_key]
        self._stop.set()

    async def serve(self, ready_stream=None) -> int:
        """Run until SIGTERM/SIGINT, then drain and return 0.

        Prints a single machine-readable ready line (JSON, ``"event":
        "ready"``) to ``ready_stream`` (default stdout) once the listener
        is bound — with ``--port 0`` this is how callers learn the actual
        port — and a matching ``"drained"`` line on the way out.
        """
        stream = ready_stream if ready_stream is not None else sys.stdout
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(self._handle_client, self.host, self.port)
        bound_port = server.sockets[0].getsockname()[1]
        self.port = bound_port
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._request_stop)
            except (NotImplementedError, RuntimeError):  # non-Unix loop
                signal.signal(signum, lambda *_: self._request_stop())
        workers = [
            loop.create_task(self._worker(number)) for number in range(self.workers)
        ]
        print(
            json.dumps(
                {
                    "event": "ready",
                    "host": self.host,
                    "port": bound_port,
                    "pid": os.getpid(),
                    "workers": self.workers,
                    "store": (
                        str(self.engine.store.root) if self.engine.store.enabled else None
                    ),
                },
                sort_keys=True,
            ),
            file=stream,
            flush=True,
        )
        _log.warning("evaluation service listening on %s:%d", self.host, bound_port)

        await self._stop.wait()
        server.close()
        await server.wait_closed()
        await self.queue.close()
        if self._hard_stop:
            for task in workers:
                task.cancel()
        results = await asyncio.gather(*workers, return_exceptions=True)
        for result in results:
            if isinstance(result, Exception) and not isinstance(
                result, asyncio.CancelledError
            ):
                _log.warning("worker exited with %s: %s", type(result).__name__, result)
        self._executor.shutdown(wait=True)
        print(
            json.dumps(
                {
                    "event": "drained",
                    "completed": self.counters["completed"],
                    "failed": self.counters["failed"],
                    "cancelled": self.counters["cancelled"],
                    "deduplicated": self.counters["deduplicated"],
                    "uptime_s": time.monotonic() - self._started_monotonic,
                },
                sort_keys=True,
            ),
            file=stream,
            flush=True,
        )
        return 0
