"""Lockstep co-execution and first-divergence bisection.

The repo's differential guarantees — bit-identical reference and block
simulator tiers, three timing-kernel implementations, per-policy vs fused energy
accounting — are enforced end-to-end by summary equality.  This package
turns a summary mismatch into an actionable report: the exact first
diverging dynamic step, its static instruction, a per-field diff, and a
minimized self-contained reproducer.  See ``docs/coexec.md``.
"""

from .inject import (
    MUTATIONS,
    Fault,
    compile_faulty_block_program,
    eligible_faults,
    resolve_fault_uid,
)
from .kernels import (
    TIMING_COMPARATORS,
    compare_accounting,
    compare_fused,
    compare_timing,
    run_timing,
)
from .lockstep import Divergence, Lockstep, first_divergence
from .shrink import (
    REPRO_ROOT,
    load_reproducer,
    replay_reproducer,
    shrink_source,
    write_reproducer,
)

__all__ = [
    "Divergence",
    "Lockstep",
    "first_divergence",
    "Fault",
    "MUTATIONS",
    "eligible_faults",
    "resolve_fault_uid",
    "compile_faulty_block_program",
    "TIMING_COMPARATORS",
    "run_timing",
    "compare_timing",
    "compare_accounting",
    "compare_fused",
    "REPRO_ROOT",
    "shrink_source",
    "write_reproducer",
    "load_reproducer",
    "replay_reproducer",
]
