"""Test-suite isolation for the experiment engine, plus divergence fixtures.

The engine persists results to a per-user store by default
(``~/.cache/repro/results``).  Tests must be hermetic — a warm store from a
previous run would hand back *restored* evaluations (no trace, no program)
and silently change what the tests exercise — so the whole session is
pointed at a throwaway store under pytest's tmp directory.  Tests that
specifically exercise store persistence create their own stores.

The ``assert_tiers_agree`` / ``assert_kernels_agree`` fixtures are the
differential suites' failure path: instead of a summary mismatch after
thousands of instructions, a bit-exactness failure reports the *first*
diverging step with a per-field diff (see ``docs/coexec.md``).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the files under tests/golden/ from the current code",
    )


@pytest.fixture
def assert_tiers_agree():
    """Fail with a first-divergence report if two simulator tiers disagree.

    ``assert_tiers_agree(program, tiers=("reference", "block"), ...)``
    co-executes the tiers in lockstep; on divergence the test fails with
    the exact step, instruction uid, basic block and field diff.
    """
    from repro.coexec import first_divergence

    def _assert(program, tiers=("reference", "block"), max_instructions=20_000_000, arguments=None):
        divergence = first_divergence(
            program, tiers=tiers, max_instructions=max_instructions, arguments=arguments
        )
        if divergence is not None:
            pytest.fail(f"simulator tiers diverged:\n{divergence.describe()}")

    return _assert


@pytest.fixture
def assert_kernels_agree():
    """Fail with a bisected first-divergence report if two timing kernels
    (or the per-policy vs fused accountants) disagree over a trace."""
    from repro.coexec import compare_accounting, compare_timing

    def _assert(trace, config=None, kernels=("reference", "compiled"), accounting=False):
        if accounting:
            divergence = compare_accounting(trace, config)
            label = "energy accountants"
        else:
            divergence = compare_timing(trace, config, kernels=kernels)
            label = "timing kernels"
        if divergence is not None:
            pytest.fail(f"{label} diverged:\n{divergence.describe()}")

    return _assert


@pytest.fixture
def assert_fused_agrees():
    """Fail with a bisected first-divergence report if the streaming fused
    pipeline splits from the materialized oracle over one program."""
    from repro.coexec import compare_fused

    def _assert(program, config=None, max_instructions=20_000_000):
        divergence = compare_fused(program, config, max_instructions=max_instructions)
        if divergence is not None:
            pytest.fail(
                f"fused pipeline diverged from the materialized oracle:\n"
                f"{divergence.describe()}"
            )

    return _assert


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_store(tmp_path_factory):
    """Point the default engine at a fresh store for the whole session."""
    import os

    from repro.experiments import reset_default_engine

    store_root = tmp_path_factory.mktemp("result-store")
    previous = os.environ.get("REPRO_RESULT_STORE")
    os.environ["REPRO_RESULT_STORE"] = str(store_root)
    reset_default_engine()
    yield
    if previous is None:
        os.environ.pop("REPRO_RESULT_STORE", None)
    else:
        os.environ["REPRO_RESULT_STORE"] = previous
    reset_default_engine()
