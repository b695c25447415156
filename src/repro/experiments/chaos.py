"""Deterministic seeded fault injection at named probe points.

The chaos harness is the failure-path counterpart of the coexec seam
philosophy (PR 7): instead of trusting that the supervision, retry and
crash-consistency machinery works, named probe points are compiled into
the runtime (worker entry, store publish, ...) and a single environment
variable arms them deterministically::

    REPRO_CHAOS="<seed>:<point>=<action>[@<occurrence>][,<point>=<action>[@<occurrence>]...]"

Actions:

``kill``
    SIGKILL the current process at the probe (a worker dying mid-task).
``raise[:<Label>]``
    Raise :class:`ChaosInjectedError` at the probe (a transient worker
    exception; the optional label names the scenario in the message).
``sleep:<seconds>``
    Block at the probe (a hung worker, for deadline/reaping tests).
``truncate[:<bytes>]``
    At a *blob* probe (:func:`chaos_blob`), cut the payload to the given
    byte count (default: half) — a torn store write.

``@<occurrence>`` arms the rule for the N-th hit of the point only
(1-based, default 1).  Every rule fires **at most once**: within one
process via an in-memory marker, and across processes (fork workers
inherit ``REPRO_CHAOS``) via ``O_CREAT|O_EXCL`` marker files under the
directory named by ``REPRO_CHAOS_STATE`` — so a retried task is *not*
re-killed, which is exactly what makes "a SIGKILL'd worker's point is
retried bit-identically" a deterministic, testable property.

The ``<seed>`` prefix is part of the spec so distinct chaos scenarios
have distinct identities (it salts the cross-process marker names); the
injected faults themselves are deterministic functions of the occurrence
counters, never of wall-clock or PRNG state.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

from .. import settings

__all__ = [
    "ChaosConfig",
    "ChaosInjectedError",
    "ChaosRule",
    "active_chaos",
    "chaos_blob",
    "chaos_probe",
    "parse_chaos_spec",
    "reset_chaos",
]

_log = logging.getLogger(__name__)

#: Probe points compiled into the runtime.  Parsing rejects unknown
#: points so a typo'd spec fails loudly instead of silently injecting
#: nothing.
KNOWN_POINTS = (
    "worker-task",      # pool worker entry (engine._compute_summary_for)
    "store-save",       # summary publish (ResultStore._save)
    "store-save-trace", # snapshot publish (ResultStore._save_trace)
    "sweep-group",      # sweep group scoring (sweep.run_sweep)
)


class ChaosInjectedError(RuntimeError):
    """The error raised by an armed ``raise`` rule (clearly injected)."""


@dataclass(frozen=True)
class ChaosRule:
    """One armed ``point=action[@occurrence]`` clause."""

    point: str
    action: str                   # "kill" | "raise" | "sleep" | "truncate"
    occurrence: int = 1           # fire on the N-th hit (1-based)
    label: str = ""               # raise message label
    seconds: float = 0.0          # sleep duration
    truncate_to: Optional[int] = None  # byte count; None = half the blob


@dataclass
class ChaosConfig:
    """A parsed ``REPRO_CHAOS`` spec plus its firing state."""

    seed: int
    rules: tuple[ChaosRule, ...]
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self._hits: dict[str, int] = {}
        self._fired: set[tuple[str, int]] = set()

    # -- firing bookkeeping --------------------------------------------
    def _marker_name(self, rule: ChaosRule, index: int) -> str:
        material = f"{self.seed}:{rule.point}:{rule.action}:{rule.occurrence}:{index}"
        return "chaos-" + hashlib.sha256(material.encode()).hexdigest()[:16]

    def _claim(self, rule: ChaosRule, index: int) -> bool:
        """Atomically claim one rule firing (once per process *and*, with a
        state directory, once across every process sharing the spec)."""
        token = (rule.point, index)
        if token in self._fired:
            return False
        if self.state_dir is not None:
            path = os.path.join(self.state_dir, self._marker_name(rule, index))
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError as error:
                if error.errno == errno.EEXIST:
                    self._fired.add(token)
                    return False
                # Unwritable state dir: fall back to per-process one-shot.
            else:
                os.close(fd)
        self._fired.add(token)
        return True

    # -- probes ---------------------------------------------------------
    def hit(self, point: str) -> Optional[ChaosRule]:
        """Record one hit of ``point``; return the rule to fire, if any."""
        count = self._hits.get(point, 0) + 1
        self._hits[point] = count
        for index, rule in enumerate(self.rules):
            if rule.point != point or rule.occurrence != count:
                continue
            if self._claim(rule, index):
                return rule
        return None


def parse_chaos_spec(spec: str, state_dir: Optional[str] = None) -> ChaosConfig:
    """Parse ``<seed>:<point>=<action>[@k][,...]`` into a :class:`ChaosConfig`."""
    head, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(
            f"invalid REPRO_CHAOS spec {spec!r}: expected '<seed>:<point>=<action>[@k],...'"
        )
    try:
        seed = int(head, 0)
    except ValueError:
        raise ValueError(f"invalid REPRO_CHAOS seed {head!r}: expected an integer") from None
    rules = []
    for clause in body.split(","):
        clause = clause.strip()
        if not clause:
            continue
        point, sep, action_spec = clause.partition("=")
        if not sep:
            raise ValueError(f"invalid REPRO_CHAOS clause {clause!r}: missing '='")
        point = point.strip()
        if point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown chaos probe point {point!r}; known points: {', '.join(KNOWN_POINTS)}"
            )
        action_spec, at, occurrence_text = action_spec.partition("@")
        occurrence = 1
        if at:
            try:
                occurrence = int(occurrence_text)
            except ValueError:
                raise ValueError(
                    f"invalid chaos occurrence {occurrence_text!r} in {clause!r}"
                ) from None
            if occurrence < 1:
                raise ValueError(f"chaos occurrence must be >= 1 in {clause!r}")
        action, _, argument = action_spec.partition(":")
        action = action.strip()
        label = ""
        seconds = 0.0
        truncate_to: Optional[int] = None
        if action == "kill":
            pass
        elif action == "raise":
            label = argument or "injected"
        elif action == "sleep":
            try:
                seconds = float(argument)
            except ValueError:
                raise ValueError(f"invalid chaos sleep duration in {clause!r}") from None
        elif action == "truncate":
            if argument:
                try:
                    truncate_to = int(argument)
                except ValueError:
                    raise ValueError(f"invalid chaos truncate size in {clause!r}") from None
        else:
            raise ValueError(
                f"unknown chaos action {action!r} in {clause!r}; "
                "expected kill, raise, sleep or truncate"
            )
        rules.append(
            ChaosRule(
                point=point,
                action=action,
                occurrence=occurrence,
                label=label,
                seconds=seconds,
                truncate_to=truncate_to,
            )
        )
    return ChaosConfig(seed=seed, rules=tuple(rules), state_dir=state_dir)


# ----------------------------------------------------------------------
# Process-wide active configuration (lazily read from the environment)
# ----------------------------------------------------------------------
_ACTIVE: Optional[ChaosConfig] = None
_ACTIVE_SPEC: Optional[str] = None


def active_chaos() -> Optional[ChaosConfig]:
    """The armed :class:`ChaosConfig`, or None when ``REPRO_CHAOS`` is unset.

    Re-parsed whenever the environment variable changes, so tests can arm
    and disarm scenarios with ``monkeypatch.setenv`` without touching
    module state; firing state is preserved while the spec is stable.
    """
    global _ACTIVE, _ACTIVE_SPEC
    spec = settings.get("REPRO_CHAOS")
    if spec is None:
        _ACTIVE = _ACTIVE_SPEC = None
        return None
    if spec != _ACTIVE_SPEC:
        _ACTIVE = parse_chaos_spec(spec, state_dir=settings.get("REPRO_CHAOS_STATE"))
        _ACTIVE_SPEC = spec
    return _ACTIVE


def reset_chaos() -> None:
    """Forget parsed spec and firing state (tests)."""
    global _ACTIVE, _ACTIVE_SPEC
    _ACTIVE = _ACTIVE_SPEC = None


def chaos_probe(point: str) -> None:
    """Execute the armed action for ``point``, if any (no-op when unarmed).

    ``kill`` SIGKILLs the calling process (SIGKILL cannot be caught, so
    this faithfully models an OOM kill); ``raise`` raises
    :class:`ChaosInjectedError`; ``sleep`` blocks; ``truncate`` rules are
    ignored here (they only apply to :func:`chaos_blob`).
    """
    config = active_chaos()
    if config is None:
        return
    rule = config.hit(point)
    if rule is None:
        return
    if rule.action == "kill":
        _log.warning("chaos: SIGKILL at probe %r (seed %d)", point, config.seed)
        os.kill(os.getpid(), signal.SIGKILL)
    elif rule.action == "raise":
        raise ChaosInjectedError(f"chaos[{config.seed}]: injected {rule.label} at {point}")
    elif rule.action == "sleep":
        _log.warning(
            "chaos: sleeping %.3fs at probe %r (seed %d)", rule.seconds, point, config.seed
        )
        time.sleep(rule.seconds)


def chaos_blob(point: str, blob: bytes) -> bytes:
    """Pass ``blob`` through the armed transform for ``point``, if any.

    Only ``truncate`` rules transform; ``kill``/``raise``/``sleep`` rules
    on a blob probe behave as in :func:`chaos_probe` (the hit is shared).
    """
    config = active_chaos()
    if config is None:
        return blob
    rule = config.hit(point)
    if rule is None:
        return blob
    if rule.action == "truncate":
        cut = rule.truncate_to if rule.truncate_to is not None else len(blob) // 2
        cut = max(0, min(len(blob), cut))
        _log.warning(
            "chaos: truncating %d-byte blob to %d at probe %r (seed %d)",
            len(blob),
            cut,
            point,
            config.seed,
        )
        return blob[:cut]
    if rule.action == "kill":
        _log.warning("chaos: SIGKILL at probe %r (seed %d)", point, config.seed)
        os.kill(os.getpid(), signal.SIGKILL)
    elif rule.action == "raise":
        raise ChaosInjectedError(f"chaos[{config.seed}]: injected {rule.label} at {point}")
    elif rule.action == "sleep":
        time.sleep(rule.seconds)
    return blob
