"""Content-addressed, on-disk store for experiment results.

Every evaluated configuration is keyed by a SHA-256 hash over everything
that can change its outcome: the workload's source text and input data, the
mechanism and its parameters, the VRP/VRS configuration defaults, the
machine configuration and the package/summary format versions.  Entries are
JSON files holding an :class:`~repro.experiments.summary.EvaluationSummary`,
so a fresh process (a new pytest session, a benchmark run, the CLI) can
serve repeated configurations without a single simulator step.

The store reads ``REPRO_RESULT_STORE`` (root, or an off word to disable
persistence), ``REPRO_TRACE_STORE`` (the binary trace-snapshot layer
under ``<root>/traces/``, keyed by a *simulator-side* code fingerprint so
analysis-layer edits replay stored traces instead of re-simulating),
``REPRO_TRACE_STORE_MAX_BYTES``, ``REPRO_STORE_TMP_TTL``,
``REPRO_STORE_LOCK_TTL`` and ``REPRO_STORE_FSYNC`` through
:mod:`repro.settings`; ``docs/experiments.md`` tabulates them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import socket
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Optional

from .. import __version__, settings
from ..core import VRPConfig, VRSConfig
from ..sim.snapshot import (
    TRACE_SNAPSHOT_VERSION,
    SimulationArtifact,
    decode_artifact,
    encode_artifact,
)
from ..uarch import MachineConfig
from ..workloads import Workload
from .chaos import chaos_blob
from .summary import SUMMARY_FORMAT_VERSION, EvaluationSummary

__all__ = [
    "Flight",
    "FsckReport",
    "ResultStore",
    "StoreEntry",
    "config_key",
    "default_store_root",
    "trace_key",
]

_log = logging.getLogger(__name__)

#: Shape of a generation directory name (12-hex source-fingerprint prefix).
_GENERATION_DIR_RE = re.compile(r"^[0-9a-f]{12}$")

#: Shape of a store key: a lowercase hex content hash.  Every path builder
#: enforces it, so a key arriving from an untrusted boundary (the service's
#: ``GET /v1/results/<key>``) can never contain separators or ``..`` and
#: resolve outside the store root.
_KEY_RE = re.compile(r"^[0-9a-f]{16,64}$")

#: Hard floor on the reap TTL.  A ``REPRO_STORE_TMP_TTL`` below this (or a
#: caller-supplied ``max_age_s``, including fsck's aggressive pass) would
#: let the reaper unlink the temp file of a *live* concurrent writer in the
#: window between its write and its ``os.replace``; no healthy publish
#: takes anywhere near a minute, so files younger than the floor are
#: always presumed live.
_TMP_TTL_FLOOR_S = 60.0


def _require_key(key: str) -> str:
    """Reject anything that is not a plain hex content hash.

    The store joins keys into filesystem paths; validating here (rather
    than trusting every caller) makes path traversal structurally
    impossible no matter where the key came from.
    """
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise ValueError(f"malformed store key {key!r} (expected a lowercase hex hash)")
    return key


@lru_cache(maxsize=1)
def _hostname() -> str:
    try:
        return socket.gethostname()
    except OSError:
        return "unknown-host"


def _summary_checksum(summary_dict: dict) -> str:
    """Content hash of the summary payload (verified by :meth:`fsck`).

    The dict is round-tripped through JSON first so the hash is computed
    over the exact form a reader decodes — int dict keys (histograms)
    become strings on disk, and ``sort_keys`` orders ``10`` after ``1``
    as a string but after ``9`` as an int.
    """
    canonical = json.loads(json.dumps(summary_dict, default=str))
    blob = json.dumps(canonical, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def default_store_root() -> Optional[Path]:
    """The store root ``REPRO_RESULT_STORE`` configures (None = disabled)."""
    return settings.get("REPRO_RESULT_STORE")


@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """SHA-256 over every source file of the package.

    Included in the configuration key so that *any* code change — a fixed
    energy coefficient, a timing-model tweak — invalidates warm store
    entries instead of silently serving stale numbers.  Computed once per
    process (~100 small files).
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Subpackages whose code can change what the *simulator* produces (the
#: compiled program, the VRP/VRS transformations, the dynamic trace).  The
#: analysis layers — ``uarch``, ``power``, ``hardware`` and most of
#: ``experiments`` — are deliberately excluded: editing them must not
#: invalidate trace snapshots, because replaying a stored trace through
#: the edited analysis is exactly the point of keeping snapshots.
_SIM_PACKAGES = ("asm", "core", "ir", "isa", "minic", "sim", "workloads")

#: Individual analysis-layer files that nevertheless orchestrate the
#: simulation itself (``runner._compute_evaluation``: mechanism dispatch,
#: input selection, transform order).  Included in the fingerprint so an edited
#: pipeline can never silently replay traces produced by the old one —
#: at the acceptable cost that unrelated edits to the same file also
#: retire the snapshot generation.
_SIM_FILES = ("experiments/runner.py",)


def _sim_source_paths() -> list[Path]:
    """Source files covered by the simulator fingerprint, sorted.

    Includes everything that determines what the simulator emits — in
    particular the block compiler (``sim/blockc.py``), whose generated
    per-program code is a pure function of these files, so editing its
    semantics retires every stored trace snapshot instead of replaying
    stale ones (``tests/test_block_compiler.py`` locks this down).
    """
    package_root = Path(__file__).resolve().parents[1]
    paths = [package_root / "__init__.py"]
    paths.extend(package_root / name for name in _SIM_FILES)
    for package in _SIM_PACKAGES:
        paths.extend((package_root / package).rglob("*.py"))
    return sorted(paths)


@lru_cache(maxsize=1)
def _sim_fingerprint() -> str:
    """SHA-256 over the simulator-side source files only (see above)."""
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in _sim_source_paths():
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@lru_cache(maxsize=256)
def _config_material(
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
    machine_config: Optional[MachineConfig],
) -> str:
    """Workload-independent part of the key material (cached: memo hits in
    hot sessions should not pay for config re-serialization)."""
    vrp_config = VRPConfig().conventional() if conventional_vrp else VRPConfig()
    material = {
        "format": SUMMARY_FORMAT_VERSION,
        "version": __version__,
        "code": _code_fingerprint(),
        "mechanism": mechanism,
        "threshold_nj": threshold_nj,
        "conventional_vrp": conventional_vrp,
        "vrp_config": asdict(vrp_config),
        "vrs_config": asdict(VRSConfig(threshold_nj=threshold_nj)),
        "machine_config": asdict(machine_config or MachineConfig()),
    }
    return json.dumps(material, sort_keys=True, default=str)


def config_key(
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
    machine_config: Optional[MachineConfig] = None,
) -> str:
    """Content hash identifying one evaluated configuration.

    The key covers the workload *content* (source and inputs, via
    :meth:`Workload.content_hash`), the transformation parameters, the
    analysis/specialization configuration defaults, the machine model and
    the package + summary format versions — so any change that could alter
    the stored numbers changes the key.
    """
    material = _config_material(mechanism, threshold_nj, conventional_vrp, machine_config)
    blob = f"{workload.content_hash()}|{material}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@lru_cache(maxsize=256)
def _trace_material(mechanism: str, threshold_nj: float, conventional_vrp: bool) -> str:
    """Workload-independent part of a trace-snapshot key.

    Unlike :func:`_config_material` this covers only what can change the
    *simulation* — the mechanism and its parameters, the VRP/VRS
    configuration defaults and the simulator-side code fingerprint.  The
    machine configuration, the analysis code and the summary format are
    deliberately absent: changing any of them leaves the trace valid, and
    serving it from the snapshot store is what makes analysis-only re-runs
    simulation-free.
    """
    vrp_config = VRPConfig().conventional() if conventional_vrp else VRPConfig()
    material = {
        "trace_format": TRACE_SNAPSHOT_VERSION,
        "sim_code": _sim_fingerprint(),
        "mechanism": mechanism,
        "threshold_nj": threshold_nj,
        "conventional_vrp": conventional_vrp,
        "vrp_config": asdict(vrp_config),
        "vrs_config": asdict(VRSConfig(threshold_nj=threshold_nj)),
    }
    return json.dumps(material, sort_keys=True, default=str)


def trace_key(
    workload: Workload,
    mechanism: str,
    threshold_nj: float,
    conventional_vrp: bool,
) -> str:
    """Content hash identifying one simulated trace (snapshot key)."""
    material = _trace_material(mechanism, threshold_nj, conventional_vrp)
    blob = f"{workload.content_hash()}|{material}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class FsckReport:
    """Outcome of one :meth:`ResultStore.fsck` scan."""

    scanned_entries: int = 0
    scanned_traces: int = 0
    ok_entries: int = 0
    ok_traces: int = 0
    quarantined: list = field(default_factory=list)  # (path str, reason)
    reaped_tmp: int = 0
    repaired: bool = True

    @property
    def clean(self) -> bool:
        return not self.quarantined

    def to_json_dict(self) -> dict:
        return {
            "scanned_entries": self.scanned_entries,
            "scanned_traces": self.scanned_traces,
            "ok_entries": self.ok_entries,
            "ok_traces": self.ok_traces,
            "quarantined": [
                {"path": path, "reason": reason} for path, reason in self.quarantined
            ],
            "reaped_tmp": self.reaped_tmp,
            "repaired": self.repaired,
            "clean": self.clean,
        }


@dataclass
class Flight:
    """Outcome of entering :meth:`ResultStore.single_flight`.

    ``owner`` is True when this caller holds the cross-process lock and
    must compute-and-publish the entry; False when another flight already
    published it, in which case ``summary`` carries the winner's result
    (and ``shared`` records that this caller waited on a concurrent
    winner rather than hitting a pre-existing entry).
    """

    key: str
    owner: bool
    summary: Optional[EvaluationSummary] = None
    shared: bool = False


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one persisted result."""

    key: str
    path: Path
    workload: str
    mechanism: str
    threshold_nj: float
    conventional_vrp: bool
    created: float
    size_bytes: int


class ResultStore:
    """Persistent map from configuration key to :class:`EvaluationSummary`.

    Writes are atomic (temp file + rename) so concurrent worker processes
    can share one store; corrupted or schema-incompatible entries are
    deleted on read and treated as misses.
    """

    def __init__(self, root: Optional[Path | str] = None) -> None:
        if root is None:
            resolved = default_store_root()
        else:
            resolved = Path(root).expanduser()
        self.root = resolved
        self._pruned_stale_generations = False
        self._pruned_stale_trace_generations = False
        # Crash consistency: a writer killed between creating its temp
        # file and os.replace leaks the temp forever; reap orphans at
        # open so the store never accretes dead bytes.
        self.reap_stale_tmp()

    def reap_stale_tmp(self, max_age_s: Optional[float] = None) -> int:
        """Delete orphaned ``*.tmp`` files older than the TTL; returns count.

        Only files past the age threshold are touched: a young temp file
        may belong to a live concurrent writer about to ``os.replace`` it.
        The threshold — whether from ``REPRO_STORE_TMP_TTL`` or an explicit
        ``max_age_s`` — is clamped to ``_TMP_TTL_FLOOR_S``, so even an
        aggressive caller (``fsck`` passes 0) can never unlink a temp file
        a concurrent ``_publish`` is still about to rename.  Best-effort
        (shared caches can race), and cheap enough to run at every open —
        the glob only walks the store's own directories.
        """
        if self.root is None:
            return 0
        if max_age_s is None:
            max_age_s = settings.get("REPRO_STORE_TMP_TTL")
        ttl = max(_TMP_TTL_FLOOR_S, max_age_s)
        cutoff = time.time() - ttl
        reaped = 0
        try:
            # One recursive sweep over every first-level subtree covers the
            # sharded entry layout, trace snapshots and any legacy depth.
            candidates = list(self.root.glob("*/**/*.tmp"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    reaped += 1
            except OSError:
                continue
        if reaped:
            _log.warning("reaped %d stale temp file(s) under %s", reaped, self.root)
        return reaped

    @property
    def enabled(self) -> bool:
        return self.root is not None

    @property
    def trace_enabled(self) -> bool:
        """True when binary trace snapshots are persisted too."""
        return self.root is not None and settings.get("REPRO_TRACE_STORE")

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def generation_root(self) -> Path:
        """Entries live under a per-code-fingerprint *generation* directory.

        Any source edit changes the fingerprint (and thus every key), which
        would otherwise orphan old entries forever; grouping them by
        generation lets :meth:`save` drop dead generations wholesale.
        """
        if self.root is None:
            raise RuntimeError("result store is disabled (REPRO_RESULT_STORE=off)")
        return self.root / _code_fingerprint()[:12]

    def path_for(self, key: str) -> Path:
        """Sharded entry path: two prefix levels keep directory fan-out flat.

        A service-scale store holds tens of thousands of entries; two
        256-way shard levels bound every directory to a few dozen files so
        opens, globs and the reaper stay O(directory) instead of O(store).

        Raises :class:`ValueError` for anything that is not a hex content
        hash — the key becomes path components, so this is where
        traversal (``../``) dies regardless of the caller.
        """
        _require_key(key)
        return self.generation_root / key[:2] / key[2:4] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[EvaluationSummary]:
        """Return the stored summary for ``key``, or None on miss.

        A corrupted entry (truncated write, schema drift, hand edits) is
        removed so the caller recomputes and overwrites it; a transient read
        failure (fd pressure, momentary permission hiccup on a shared cache
        dir) is treated as a plain miss and the entry is kept.
        """
        if self.root is None:
            return None
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except ValueError:
            _log.warning("evicting corrupt result entry %s (invalid JSON)", path)
            self.quarantine(path, "invalid JSON")
            return None
        try:
            return EvaluationSummary.from_json_dict(payload["summary"])
        except Exception as exc:
            # A decodable file with a broken summary payload — wrong
            # shape, missing fields, a half-migrated format.  Whatever
            # the decoder tripped on, the entry is unusable: evict it and
            # treat the lookup as a miss so evaluation falls back to
            # simulation instead of failing.
            _log.warning("evicting corrupt result entry %s (%s: %s)", path, type(exc).__name__, exc)
            self.quarantine(path, f"{type(exc).__name__}: {exc}")
            return None

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Quarantine (corrupt entries are preserved as evidence, not unlinked)
    # ------------------------------------------------------------------
    @property
    def quarantine_root(self) -> Path:
        if self.root is None:
            raise RuntimeError("result store is disabled (REPRO_RESULT_STORE=off)")
        return self.root / "quarantine"

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt entry out of the resolution path, keeping its bytes.

        The entry stops being servable (the original path is gone, so
        every lookup is a miss and the caller recomputes), but the
        corrupt bytes survive under ``<root>/quarantine/`` next to a
        ``<name>.reason.json`` manifest recording why and when — the
        evidence a postmortem (or ``fsck --report``) needs, which plain
        unlinking used to destroy.  Falls back to unlinking when the move
        itself fails (read-only root mid-flight, cross-device surprise).
        """
        if self.root is None:
            self._evict(path)
            return None
        stamp = time.time()
        target = self.quarantine_root / f"{int(stamp * 1000):013d}-{path.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            self._evict(path)
            return None
        manifest = {
            "original_path": str(path),
            "reason": reason,
            "quarantined_at": stamp,
            "size_bytes": target.stat().st_size if target.exists() else 0,
            "version": __version__,
        }
        try:
            target.with_name(target.name + ".reason.json").write_text(
                json.dumps(manifest, indent=2), encoding="utf-8"
            )
        except OSError:
            pass
        return target

    def quarantined(self) -> list[tuple[Path, dict]]:
        """Every quarantined entry with its reason manifest, oldest first."""
        if self.root is None or not self.quarantine_root.exists():
            return []
        found = []
        for path in sorted(self.quarantine_root.iterdir()):
            if path.name.endswith(".reason.json"):
                continue
            manifest_path = path.with_name(path.name + ".reason.json")
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                manifest = {}
            found.append((path, manifest))
        return found

    def save(self, key: str, summary: EvaluationSummary) -> Optional[Path]:
        """Persist ``summary`` under ``key``; returns the entry path.

        Persistence is best-effort: a computed result must never be lost to
        an unwritable store (read-only home, full disk), so write failures
        return None instead of raising.
        """
        if self.root is None:
            return None
        try:
            return self._save(key, summary)
        except OSError:
            return None

    def _save(self, key: str, summary: EvaluationSummary) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        summary_dict = summary.to_json_dict()
        payload = {
            "key": key,
            "meta": {
                "workload": summary.workload,
                "mechanism": summary.mechanism,
                "threshold_nj": summary.threshold_nj,
                "conventional_vrp": summary.conventional_vrp,
                "created": time.time(),
                "version": __version__,
            },
            "checksum": _summary_checksum(summary_dict),
            "summary": summary_dict,
        }
        blob = chaos_blob("store-save", json.dumps(payload).encode("utf-8"))
        self._publish(path, blob, prefix=f".{key[:8]}-")
        self._prune_stale_generations()
        return path

    def _publish(self, path: Path, blob: bytes, prefix: str) -> None:
        """Atomic temp-write + rename, optionally fsynced (crash-durable).

        The temp file lands in the target's own directory so the rename
        never crosses filesystems; any failure cleans the temp up (the
        open-time reaper catches the SIGKILL-between-write-and-rename
        window the handler cannot).
        """
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=path.parent,
            prefix=prefix,
            suffix=".tmp",
            delete=False,
        )
        fsync = settings.get("REPRO_STORE_FSYNC")
        try:
            with handle:
                handle.write(blob)
                if fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(handle.name, path)
            if fsync:
                # Durability of the *name* needs the directory synced too.
                fd = os.open(path.parent, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Cross-process single-flight
    # ------------------------------------------------------------------
    @property
    def lock_root(self) -> Path:
        """Single-flight locks live outside the generation directories.

        Generation pruning and the temp-file reaper never touch this
        subtree (locks are ``*.lock``, not ``*.tmp``), so a held lock
        cannot be swept out from under its owner by store maintenance.
        """
        if self.root is None:
            raise RuntimeError("result store is disabled (REPRO_RESULT_STORE=off)")
        return self.root / "locks"

    def lock_path_for(self, key: str) -> Path:
        _require_key(key)
        return self.lock_root / key[:2] / f"{key}.lock"

    def _lock_is_stale(self, path: Path) -> bool:
        """True when a lock's owner is provably dead or the lock too old.

        A lock held by a live pid on this host is *never* stale — not
        even past the TTL, because a legitimate computation can outlive
        any fixed age and breaking a held lock cascades (the owner's
        release then unlinks the usurper's lock).  A lock whose recorded
        pid no longer exists (same host) is immediately stale.  The
        ``REPRO_STORE_LOCK_TTL`` age fallback applies only to locks
        whose owner cannot be probed: cross-host locks and unparseable
        payloads.
        """
        try:
            stat = path.stat()
        except OSError:
            return False  # already released
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = {}  # just created and not yet written: young, keep it
        pid = payload.get("pid")
        if isinstance(pid, int) and payload.get("host") == _hostname():
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # provably dead: break immediately
            except OSError:
                return False  # EPERM and friends: the pid exists, owner lives
            return False  # probe succeeded: live owner, never age out
        return time.time() - stat.st_mtime > settings.get("REPRO_STORE_LOCK_TTL")

    @staticmethod
    def _break_lock(path: Path) -> None:
        _log.warning("breaking stale single-flight lock %s", path)
        try:
            path.unlink()
        except OSError:
            pass

    @contextmanager
    def single_flight(
        self,
        key: str,
        poll_s: float = 0.02,
        timeout_s: Optional[float] = None,
    ) -> Iterator[Flight]:
        """Cross-process dedup: at most one live computation per ``key``.

        Usage::

            with store.single_flight(key) as flight:
                if flight.summary is not None:
                    return flight.summary          # another flight won
                summary = compute()
                store.save(key, summary)           # publish *inside* the flight

        The first caller to create ``<root>/locks/<key[:2]>/<key>.lock``
        (``O_CREAT | O_EXCL``, so the race has exactly one winner across
        processes and threads) becomes the owner; it must publish the
        entry before leaving the ``with`` block, because the lock is
        released on exit and every waiter then reads the entry.  Losers
        poll until the lock disappears, then serve the winner's entry —
        N identical concurrent evaluations cost one simulation and N-1
        cheap reads.  Crash safety: a lock whose owner died is detected
        (pid probe on the same host, TTL elsewhere) and broken, and the
        first waiter to re-acquire takes over the computation.

        With the store disabled — or the lock directory unwritable — the
        flight degrades to ``owner=True`` with no lock: correctness is
        unchanged, only the dedup is lost.
        """
        if self.root is None:
            yield Flight(key=key, owner=True)
            return
        summary = self.load(key)
        if summary is not None:
            yield Flight(key=key, owner=False, summary=summary)
            return
        with self.claim(key, lambda: self.load(key), poll_s, timeout_s) as summary:
            if summary is None:
                yield Flight(key=key, owner=True)
            else:
                yield Flight(key=key, owner=False, summary=summary, shared=True)

    @contextmanager
    def claim(
        self,
        key: str,
        published: Callable[[], object],
        poll_s: float = 0.02,
        timeout_s: Optional[float] = None,
    ) -> Iterator[object]:
        """The lock protocol of :meth:`single_flight`, with the caller's own
        test of whether the work is already published.

        Yields what ``published()`` returns once that is not None — asked
        right after this caller acquires ``key``'s lock and after each
        wait on another owner — or None to an owner, which must compute
        and publish (so that ``published()`` finds it) before leaving the
        ``with`` block.  The owner holds the lock, except where
        :meth:`single_flight` degrades to an unlocked owner: a disabled
        store, an unwritable lock directory or a wait past its deadline.
        A sweep group of several machine configs claims its first lane's
        key with its snapshot replay as ``published``, so it never reads
        that lane's entry.
        """
        if self.root is None:
            yield None
            return
        lock_path = self.lock_path_for(key)
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else 2.0 * settings.get("REPRO_STORE_LOCK_TTL")
        )
        while True:
            fd = None
            try:
                lock_path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                pass
            except OSError:
                # Unwritable lock directory (read-only share): no dedup,
                # the caller just computes like before single-flight.
                yield None
                return
            if fd is not None:
                try:
                    os.write(
                        fd,
                        json.dumps(
                            {
                                "pid": os.getpid(),
                                "host": _hostname(),
                                "key": key,
                                "created": time.time(),
                            }
                        ).encode("utf-8"),
                    )
                finally:
                    os.close(fd)
                # Re-check under the lock: a winner may have published
                # between the caller's miss and this acquisition.
                value = None
                try:
                    value = published()
                    if value is None:
                        yield None
                finally:
                    try:
                        lock_path.unlink()
                    except OSError:
                        pass
                if value is not None:
                    yield value
                return
            # Contended: wait for the winner to release, break it if dead.
            while lock_path.exists():
                if self._lock_is_stale(lock_path):
                    self._break_lock(lock_path)
                    break
                if time.monotonic() > deadline:
                    # Out of patience with an owner that is (as far as we
                    # can tell) alive.  Compute *without* the lock rather
                    # than usurp it: unlinking a held lock makes the
                    # owner's release unlink the usurper's lock in turn,
                    # cascading takeovers and duplicate simulations.  The
                    # worst case here is one duplicated computation with
                    # an atomic, idempotent publish.
                    _log.warning(
                        "single-flight wait on %s exceeded its deadline; "
                        "computing without the lock",
                        lock_path,
                    )
                    yield None
                    return
                time.sleep(poll_s)
            value = published()
            if value is not None:
                yield value
                return
            # The winner died (or failed) without publishing: loop and
            # contend for ownership of the recomputation.

    # ------------------------------------------------------------------
    # Binary trace snapshots
    # ------------------------------------------------------------------
    @property
    def trace_generation_root(self) -> Path:
        """Snapshots live under a per-*simulator*-fingerprint directory.

        The fingerprint covers only the code that can change what the
        simulator produces, so analysis-layer edits keep the generation
        (and its snapshots) alive while simulator edits retire it.
        """
        if self.root is None:
            raise RuntimeError("result store is disabled (REPRO_RESULT_STORE=off)")
        return self.root / "traces" / _sim_fingerprint()[:12]

    def trace_path_for(self, key: str) -> Path:
        _require_key(key)
        return self.trace_generation_root / key[:2] / key[2:4] / f"{key}.trace"

    def load_trace(self, key: str) -> Optional[SimulationArtifact]:
        """Return the stored simulation artifact for ``key``, or None.

        Corrupted snapshots are evicted and treated as misses, exactly
        like summary entries.
        """
        if not self.trace_enabled:
            return None
        path = self.trace_path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            # Refresh the mtime so eviction (see :meth:`evict_traces`) is
            # least-recently-*used*, not least-recently-written.
            os.utime(path)
        except OSError:
            pass
        try:
            return decode_artifact(blob)
        except Exception as exc:
            # Truncated write, bit rot, or a stale format the decoder
            # chokes on — any failure to decode means the snapshot is
            # unusable, so log, evict and report a miss (the caller
            # falls back to simulating).
            _log.warning(
                "evicting corrupt trace snapshot %s (%s: %s)", path, type(exc).__name__, exc
            )
            self.quarantine(path, f"{type(exc).__name__}: {exc}")
            return None

    def save_trace(self, key: str, artifact: SimulationArtifact) -> Optional[Path]:
        """Persist a simulation artifact under ``key`` (best-effort)."""
        if not self.trace_enabled:
            return None
        try:
            return self._save_trace(key, artifact)
        except OSError:
            return None

    def _save_trace(self, key: str, artifact: SimulationArtifact) -> Path:
        path = self.trace_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = chaos_blob("store-save-trace", encode_artifact(artifact))
        self._publish(path, blob, prefix=f".{key[:8]}-")
        self._prune_stale_trace_generations()
        self.evict_traces()
        return path

    def evict_traces(self, budget_bytes: Optional[int] = None) -> int:
        """LRU-evict snapshots until the ``traces/`` subtree fits the budget.

        The budget comes from ``REPRO_TRACE_STORE_MAX_BYTES`` (or the
        explicit argument); with no budget configured this is a no-op.
        Runs after every snapshot publish, so a bounded store converges to
        the cap instead of drifting past it.  Eviction order is by mtime —
        :meth:`load_trace` touches snapshots on every hit, so the mtime is
        a recency-of-use clock, and the coldest snapshots go first.  Losing
        a snapshot only costs a re-simulation on the next analysis-side
        change; summary entries are never evicted.  Empty shard directories
        are compacted away afterwards.
        """
        if self.root is None:
            return 0
        budget = budget_bytes
        if budget is None:
            budget = settings.get("REPRO_TRACE_STORE_MAX_BYTES")
        if budget is None:
            return 0
        traces_root = self.root / "traces"
        try:
            snapshots = [(path, path.stat()) for path in traces_root.rglob("*.trace")]
        except OSError:
            return 0
        total = sum(stat.st_size for _, stat in snapshots)
        if total <= budget:
            return 0
        evicted = 0
        snapshots.sort(key=lambda item: item[1].st_mtime)
        for path, stat in snapshots:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            evicted += 1
        if evicted:
            _log.warning(
                "evicted %d trace snapshot(s) to fit %d-byte budget under %s",
                evicted,
                budget,
                traces_root,
            )
            self._compact_empty_dirs(traces_root)
        return evicted

    @staticmethod
    def _compact_empty_dirs(root: Path) -> None:
        """Remove empty shard directories left behind by eviction."""
        for dirpath, _dirnames, _filenames in os.walk(root, topdown=False):
            if Path(dirpath) == root:
                continue
            try:
                os.rmdir(dirpath)  # refuses (ENOTEMPTY) unless actually empty
            except OSError:
                continue

    def _prune_stale_trace_generations(self) -> None:
        """Drop snapshot directories written by other simulator generations.

        Mirrors :meth:`_prune_stale_generations` but under ``traces/`` and
        keyed by the simulator fingerprint.  Runs once per store instance,
        on first successful snapshot save.
        """
        if self._pruned_stale_trace_generations or self.root is None:
            return
        self._pruned_stale_trace_generations = True
        traces_root = self.root / "traces"
        current = self.trace_generation_root.name
        try:
            children = list(traces_root.iterdir())
        except OSError:
            return
        for child in children:
            if (
                child.is_dir()
                and child.name != current
                and _GENERATION_DIR_RE.fullmatch(child.name)
            ):
                shutil.rmtree(child, ignore_errors=True)

    def _prune_stale_generations(self) -> None:
        """Drop entry directories written by other code generations.

        Their keys can never be requested again (the fingerprint is part of
        every key), so without this the default store would grow by one dead
        generation per source edit, forever.  Runs once per store instance,
        on first successful save.

        Only directories that *look like* generation dirs (12 lowercase hex
        chars) are touched: the user may point ``REPRO_RESULT_STORE`` at a
        directory containing unrelated data, which must never be deleted.
        """
        if self._pruned_stale_generations or self.root is None:
            return
        self._pruned_stale_generations = True
        current = self.generation_root.name
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for child in children:
            if (
                child.is_dir()
                and child.name != current
                and _GENERATION_DIR_RE.fullmatch(child.name)
            ):
                shutil.rmtree(child, ignore_errors=True)

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[StoreEntry]:
        """Metadata of every persisted result of the current code generation,
        newest first."""
        if self.root is None or not self.generation_root.exists():
            return []
        found: list[StoreEntry] = []
        for path in self.generation_root.glob("*/*/*.json"):
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                meta = payload["meta"]
                found.append(
                    StoreEntry(
                        key=payload["key"],
                        path=path,
                        workload=meta["workload"],
                        mechanism=meta["mechanism"],
                        threshold_nj=meta["threshold_nj"],
                        conventional_vrp=meta["conventional_vrp"],
                        created=meta["created"],
                        size_bytes=path.stat().st_size,
                    )
                )
            except (OSError, ValueError, KeyError):
                continue
        found.sort(key=lambda entry: entry.created, reverse=True)
        return found

    def fsck(self, repair: bool = True) -> FsckReport:
        """Scan, verify and (optionally) repair the current generation.

        Three passes, mirroring what the lazy read path would eventually
        discover — but eagerly and exhaustively, so a service operator
        can trust a green ``fsck`` instead of waiting for corruption to
        surface mid-sweep:

        1. every summary entry must parse as JSON, decode as an
           :class:`EvaluationSummary`, and (when the entry carries a
           ``checksum``) hash back to its recorded content hash,
        2. every trace snapshot must decode as a simulation artifact,
        3. orphaned temp files are reaped aggressively — down to the
           safety floor that protects a live concurrent writer's young
           temp file (see :meth:`reap_stale_tmp`).

        With ``repair=True`` (default) bad files are quarantined with a
        reason manifest; with ``repair=False`` the report only lists
        them.  Entries written before checksums existed verify by decode
        only.
        """
        report = FsckReport(repaired=repair)
        if self.root is None:
            return report

        def condemn(path: Path, reason: str) -> None:
            report.quarantined.append((str(path), reason))
            if repair:
                _log.warning("fsck: quarantining %s (%s)", path, reason)
                self.quarantine(path, f"fsck: {reason}")

        if self.generation_root.exists():
            for path in sorted(self.generation_root.glob("*/*/*.json")):
                report.scanned_entries += 1
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    condemn(path, f"invalid JSON ({type(exc).__name__}: {exc})")
                    continue
                try:
                    summary_dict = payload["summary"]
                    EvaluationSummary.from_json_dict(summary_dict)
                except Exception as exc:
                    condemn(path, f"undecodable summary ({type(exc).__name__}: {exc})")
                    continue
                recorded = payload.get("checksum")
                if recorded is not None and recorded != _summary_checksum(summary_dict):
                    condemn(path, "checksum mismatch (content does not hash to its record)")
                    continue
                report.ok_entries += 1

        if self.trace_enabled and self.trace_generation_root.exists():
            for path in sorted(self.trace_generation_root.glob("*/*/*.trace")):
                report.scanned_traces += 1
                try:
                    decode_artifact(path.read_bytes())
                except Exception as exc:
                    condemn(path, f"undecodable snapshot ({type(exc).__name__}: {exc})")
                    continue
                report.ok_traces += 1

        if repair:
            report.reaped_tmp = self.reap_stale_tmp(max_age_s=0.0)
        return report

    def clear(self) -> int:
        """Delete every entry; returns the number of summary entries and
        trace snapshots removed.

        Orphaned temp files (left by a process killed mid-``save``) are
        swept as well, though they do not count as entries.
        """
        if self.root is None or not self.root.exists():
            return 0
        removed = len(self.entries())
        # Wipe every generation (current and stale), which also sweeps any
        # orphaned temp files inside them.  Non-generation directories are
        # untouched: the configured root may hold unrelated user data.
        try:
            children = list(self.root.iterdir())
        except OSError:
            return 0
        for child in children:
            if child.is_dir() and _GENERATION_DIR_RE.fullmatch(child.name):
                shutil.rmtree(child, ignore_errors=True)
        # Trace snapshots live under their own subtree; same rule: only
        # generation-shaped directories are touched.
        try:
            trace_children = list((self.root / "traces").iterdir())
        except OSError:
            return removed
        for child in trace_children:
            if child.is_dir() and _GENERATION_DIR_RE.fullmatch(child.name):
                removed += sum(1 for _ in child.glob("*/*/*.trace"))
                shutil.rmtree(child, ignore_errors=True)
        return removed
