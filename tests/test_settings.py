"""The one settings table: every ``REPRO_*`` variable, parsed loudly.

The matrix pins, per declared variable, the default for an unset or
empty value, the value of every accepted spelling (clamps included) and
a ``ValueError`` naming the variable and the value for every malformed
one.  The source scans keep the table the only place the package reads
its environment.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro import settings
from repro.experiments.__main__ import main

SRC = Path(settings.__file__).resolve().parent
DOCS = SRC.parents[1] / "docs"

#: Accepted spellings per variable and the value each gives.
ACCEPTED = {
    "REPRO_RESULT_STORE": [
        ("/srv/results", Path("/srv/results")),
        ("~/results", Path.home() / "results"),
        ("off", None),
        ("OFF", None),
        ("0", None),
        ("false", None),
        ("disabled", None),
        ("none", None),
    ],
    "REPRO_TRACE_STORE": [
        ("off", False),
        ("Off", False),
        ("0", False),
        ("false", False),
        ("disabled", False),
        ("none", False),
        ("on", True),
        ("1", True),
        ("true", True),
        ("yes", True),
    ],
    "REPRO_TRACE_STORE_MAX_BYTES": [
        ("1000", 1000),
        ("1e6", 1_000_000),
        ("2.9", 2),
        ("0", 0),
        ("-1", None),
    ],
    "REPRO_STORE_TMP_TTL": [("120", 120.0), ("7200.5", 7200.5), ("30", 60.0), ("0", 60.0)],
    "REPRO_STORE_LOCK_TTL": [("30", 30.0), ("1", 1.0), ("0.5", 1.0), ("0", 1.0)],
    "REPRO_STORE_FSYNC": [
        ("1", True),
        ("true", True),
        ("TRUE", True),
        ("yes", True),
        ("on", True),
        ("0", False),
        ("off", False),
        ("false", False),
        ("disabled", False),
        ("none", False),
    ],
    "REPRO_JOBS": [("1", 1), ("3", 3), (" 2 ", 2), ("0", 1), ("-4", 1)],
    "REPRO_TASK_TIMEOUT_S": [("30", 30.0), ("0.5", 0.5), ("0", None), ("-1", None)],
    "REPRO_SIM_WALL_TIME_S": [("10", 10.0), ("1e-9", 1e-9), ("0", None), ("-1", None)],
    "REPRO_SIM_MAX_TRACE_BYTES": [("4096", 4096), ("0", None), ("-1", None)],
    "REPRO_SIM_PROBE_DIR": [("/tmp/probes", "/tmp/probes")],
    "REPRO_CHAOS": [
        ("42:worker-task=kill@1", "42:worker-task=kill@1"),
        ("3:worker-task=raise:Boom", "3:worker-task=raise:Boom"),
    ],
    "REPRO_CHAOS_STATE": [("/tmp/chaos", "/tmp/chaos")],
    "REPRO_SERVICE_JOB_TTL_S": [("123", 123.0), ("0", 0.0), ("-5", 0.0)],
    "REPRO_SERVICE_JOB_CAP": [("7", 7), ("7.9", 7), ("1e3", 1000), ("-3", 0)],
}

#: Malformed values per variable; path-valued variables accept any text.
MALFORMED = {
    "REPRO_TRACE_STORE": ["of", "maybe"],
    "REPRO_TRACE_STORE_MAX_BYTES": ["2G", "lots", "inf"],
    "REPRO_STORE_TMP_TTL": ["2h"],
    "REPRO_STORE_LOCK_TTL": ["5m"],
    "REPRO_STORE_FSYNC": ["flase", "sure"],
    "REPRO_JOBS": ["two", "2.5", "4 workers"],
    "REPRO_TASK_TIMEOUT_S": ["30s", "never", "1 min"],
    "REPRO_SIM_WALL_TIME_S": ["10s"],
    "REPRO_SIM_MAX_TRACE_BYTES": ["1GB", "1e9"],
    "REPRO_CHAOS": ["42", "x:worker-task=kill", "1:nowhere=kill"],
    "REPRO_SERVICE_JOB_TTL_S": ["15min"],
    "REPRO_SERVICE_JOB_CAP": ["lots"],
}

#: Values earlier revisions read without a word, with what they silently used.
SILENT = [
    ("REPRO_SIM_WALL_TIME_S", "10s"),  # [None: no budget]
    ("REPRO_SIM_MAX_TRACE_BYTES", "1GB"),  # [None: no budget]
    ("REPRO_STORE_TMP_TTL", "2h"),  # [3600]
    ("REPRO_STORE_LOCK_TTL", "5m"),  # [300]
    ("REPRO_TRACE_STORE_MAX_BYTES", "2G"),  # [unbounded]
    ("REPRO_STORE_FSYNC", "flase"),  # [True]
    ("REPRO_TRACE_STORE", "of"),  # [on]
    ("REPRO_SERVICE_JOB_TTL_S", "15min"),  # [900]
    ("REPRO_SERVICE_JOB_CAP", "lots"),  # [1024]
]

#: Tier selectors that no longer exist: every tier gives the same numbers.
DELETED = [
    ("REPRO_SIM_DISPATCH", "block"),
    ("REPRO_TIMING_KERNEL", "compiled"),
    ("REPRO_PIPELINE", "auto"),
]

#: ``REPRO_*`` literals in ``src/`` that name constants, not variables.
CONSTANTS = {"REPRO_ROOT", "REPRO_VERSION"}


@pytest.fixture
def clean_env(monkeypatch, tmp_path):
    """No ``REPRO_*`` variable set, and a known default store root."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return monkeypatch


def _default(name, tmp_path):
    if name == "REPRO_RESULT_STORE":
        return tmp_path / "cache" / "repro" / "results"
    return settings.SETTINGS[name].default


def _raises_naming(name, value):
    return pytest.raises(ValueError, match=re.escape(f"{name}={value!r}"))


def test_matrix_covers_every_declared_variable():
    assert set(ACCEPTED) == set(settings.SETTINGS)
    assert set(MALFORMED) <= set(settings.SETTINGS)


@pytest.mark.parametrize("name", sorted(settings.SETTINGS))
def test_unset_or_empty_gives_the_default(name, clean_env, tmp_path):
    assert settings.get(name) == _default(name, tmp_path)
    clean_env.setenv(name, "")
    assert settings.get(name) == _default(name, tmp_path)


@pytest.mark.parametrize(
    "name, value, expected",
    [(name, value, expected) for name, cases in ACCEPTED.items() for value, expected in cases],
)
def test_accepted_spellings_keep_their_meaning(name, value, expected, clean_env):
    clean_env.setenv(name, value)
    assert settings.get(name) == expected
    settings.check()


@pytest.mark.parametrize(
    "name, value", [(name, value) for name, values in MALFORMED.items() for value in values]
)
def test_malformed_values_raise_naming_variable_and_value(name, value, clean_env):
    clean_env.setenv(name, value)
    with _raises_naming(name, value):
        settings.get(name)
    with _raises_naming(name, value):
        settings.check()


@pytest.mark.parametrize("name, value", SILENT)
def test_silently_misread_values_now_fail(name, value, clean_env, capsys):
    clean_env.setenv(name, value)
    with _raises_naming(name, value):
        settings.get(name)
    assert main(["ls"]) == 2
    assert f"{name}={value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", DELETED + [("REPRO_NO_SUCH_SETTING", "1")])
def test_check_rejects_undeclared_variables(name, value, clean_env, capsys):
    settings.check()
    clean_env.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        settings.check()
    assert main(["ls"]) == 2
    assert name in capsys.readouterr().err


def test_get_reads_the_environment_at_every_call(clean_env):
    clean_env.setenv("REPRO_JOBS", "3")
    assert settings.get("REPRO_JOBS") == 3
    clean_env.setenv("REPRO_JOBS", "5")
    assert settings.get("REPRO_JOBS") == 5


def test_only_settings_reads_the_environment():
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "settings.py" and re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == []


def test_every_repro_literal_in_src_is_declared():
    literals = set()
    for path in SRC.rglob("*.py"):
        literals.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert literals - CONSTANTS <= set(settings.SETTINGS)


def test_docs_table_matches_the_settings_table():
    text = (DOCS / "experiments.md").read_text()
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.M)
    assert sorted(rows) == sorted(settings.SETTINGS)
