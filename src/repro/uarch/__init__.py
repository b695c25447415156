"""Out-of-order microarchitecture timing model (Table 2 machine).

Two bit-identical kernel tiers run the model: the reference scoreboard
walk (:meth:`OutOfOrderModel.run_reference`) and the compiled kernel
(:mod:`repro.uarch.tkernel`, the default — one generated lane walk over
a packed static table, ring-buffer slot allocators and inlined
caches/predictor).  :func:`run_compiled` is that walk at one lane;
:func:`run_compiled_many` times many configs in shared lane walks.
Select with ``REPRO_TIMING_KERNEL`` or ``OutOfOrderModel(kernel=...)``;
see ``docs/timing.md``.
"""

from .branch_predictor import CombinedPredictor
from .caches import Cache, CacheHierarchy
from .config import CacheConfig, MachineConfig, PredictorConfig
from .ooo import TIMING_KERNELS, OutOfOrderModel, TimingResult
from .tkernel import (
    MULTI_KERNEL_MAX_LANES,
    StaticTable,
    bake_static_table,
    run_compiled,
    run_compiled_many,
)

__all__ = [
    "CombinedPredictor",
    "Cache",
    "CacheHierarchy",
    "CacheConfig",
    "MachineConfig",
    "PredictorConfig",
    "OutOfOrderModel",
    "TimingResult",
    "TIMING_KERNELS",
    "StaticTable",
    "bake_static_table",
    "run_compiled",
    "run_compiled_many",
    "MULTI_KERNEL_MAX_LANES",
]
