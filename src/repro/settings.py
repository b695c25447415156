"""Every ``REPRO_*`` environment variable the package reads, declared once.

:data:`SETTINGS` holds one :class:`Setting` per variable: its parser, its
default and a one-line description (``docs/experiments.md`` renders the
same table).  :func:`get` reads a variable where it is used and caches
nothing, so ``monkeypatch.setenv`` takes effect on the next read.  An
unset or empty variable gives the default; a value its parser rejects
raises ``ValueError`` naming the variable and the value.  :func:`check`
validates the whole environment and also rejects ``REPRO_*`` names that
are not declared; ``python -m repro.experiments`` runs it before any
subcommand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["OFF", "ON", "SETTINGS", "Setting", "check", "get"]

#: The one on/off vocabulary of every switch (case-insensitive).  The
#: off words also disable the result store.
ON = ("1", "on", "true", "yes", "enabled")
OFF = ("0", "off", "false", "no", "disabled", "none")


@dataclass(frozen=True)
class Setting:
    """One variable: ``parse`` maps a non-empty value to the setting and
    raises ``ValueError`` on a malformed one; ``default`` (called first
    if callable) stands in for an unset or empty variable."""

    name: str
    parse: Callable[[str], Any]
    default: Any
    doc: str


def _switch(value: str) -> bool:
    word = value.strip().lower()
    if word in ON or word in OFF:
        return word in ON
    raise ValueError(f"not one of {', '.join(ON + OFF)}")


def _store_root(value: str) -> Optional[Path]:
    return None if value.strip().lower() in OFF else Path(value).expanduser()


def _cache_root() -> Optional[Path]:
    cache_home = os.environ.get("XDG_CACHE_HOME", "")
    if not cache_home:
        try:
            cache_home = str(Path.home() / ".cache")
        except RuntimeError:  # no resolvable home (bare container): disable
            return None
    return Path(cache_home).expanduser() / "repro" / "results"


def _at_least(kind: Callable[[str], Any], floor: float) -> Callable[[str], Any]:
    """A number clamped to ``floor`` from below."""
    return lambda value: max(floor, kind(value))


def _budget(kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """A positive number; zero or a negative one means no budget (None)."""

    def parse(value: str) -> Any:
        parsed = kind(value)
        return parsed if parsed > 0 else None

    return parse


def _whole(value: str) -> int:
    """An integer that may be written as a float (``1e9``), truncated."""
    return int(float(value))


def _byte_cap(value: str) -> Optional[int]:
    parsed = _whole(value)
    return parsed if parsed >= 0 else None


def _chaos_spec(value: str) -> str:
    from .experiments.chaos import parse_chaos_spec

    parse_chaos_spec(value)
    return value


SETTINGS: dict[str, Setting] = {
    setting.name: setting
    for setting in (
        Setting(
            "REPRO_RESULT_STORE",
            _store_root,
            _cache_root,
            "store root directory, or an off word to disable persistence",
        ),
        Setting(
            "REPRO_TRACE_STORE",
            _switch,
            True,
            "on/off switch for the binary trace-snapshot layer",
        ),
        Setting(
            "REPRO_TRACE_STORE_MAX_BYTES",
            _byte_cap,
            None,
            "LRU byte cap on trace snapshots, a number; negative means unbounded",
        ),
        Setting(
            "REPRO_STORE_TMP_TTL",
            _at_least(float, 60.0),
            3600.0,
            "seconds before orphaned *.tmp files are reaped, at least 60",
        ),
        Setting(
            "REPRO_STORE_LOCK_TTL",
            _at_least(float, 1.0),
            300.0,
            "seconds before an unprobeable single-flight lock is broken, at least 1",
        ),
        Setting(
            "REPRO_STORE_FSYNC",
            _switch,
            False,
            "on/off switch for fsyncing every store publish",
        ),
        Setting(
            "REPRO_JOBS",
            _at_least(int, 1),
            None,
            "worker processes for cold computes, an integer of at least 1",
        ),
        Setting(
            "REPRO_TASK_TIMEOUT_S",
            _budget(float),
            None,
            "per-task pool deadline in seconds; zero or negative means none",
        ),
        Setting(
            "REPRO_SIM_WALL_TIME_S",
            _budget(float),
            None,
            "wall-time budget per simulation in seconds; zero or negative means none",
        ),
        Setting(
            "REPRO_SIM_MAX_TRACE_BYTES",
            _budget(int),
            None,
            "trace bytes per simulation (metas plus memory column), an integer; "
            "zero or negative means none",
        ),
        Setting(
            "REPRO_SIM_PROBE_DIR",
            str,
            None,
            "directory receiving one marker file per live compute",
        ),
        Setting(
            "REPRO_CHAOS",
            _chaos_spec,
            None,
            "fault-injection spec <seed>:<point>=<action>[@k],...",
        ),
        Setting(
            "REPRO_CHAOS_STATE",
            str,
            None,
            "directory of cross-process one-shot chaos markers",
        ),
        Setting(
            "REPRO_SERVICE_JOB_TTL_S",
            _at_least(float, 0.0),
            900.0,
            "seconds a finished service job stays pollable, at least 0",
        ),
        Setting(
            "REPRO_SERVICE_JOB_CAP",
            _at_least(_whole, 0),
            1024,
            "most finished service jobs retained, a number of at least 0",
        ),
    )
}


def get(name: str) -> Any:
    """The parsed value of the declared variable ``name``, read now."""
    setting = SETTINGS[name]
    value = os.environ.get(name, "")
    if not value:
        return setting.default() if callable(setting.default) else setting.default
    try:
        return setting.parse(value)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{name}={value!r} is malformed ({exc}); {name}: {setting.doc}") from None


def check() -> None:
    """Parse every declared variable; reject any undeclared ``REPRO_*`` name."""
    unknown = sorted(
        name for name in os.environ if name.startswith("REPRO_") and name not in SETTINGS
    )
    if unknown:
        raise ValueError(
            f"unknown environment variable {', '.join(unknown)}; "
            f"the REPRO_* settings are {', '.join(SETTINGS)}"
        )
    for name in SETTINGS:
        get(name)
