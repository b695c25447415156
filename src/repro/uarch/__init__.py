"""Out-of-order microarchitecture timing model (Table 2 machine).

Two bit-identical kernels run the model: :meth:`OutOfOrderModel.run`
uses the compiled kernel (:mod:`repro.uarch.tkernel` — one generated
lane walk over a packed static table, ring-buffer slot allocators and
inlined caches/predictor), and :meth:`OutOfOrderModel.run_reference` is
the scoreboard walk it is locked against.  :func:`run_compiled` is that
walk at one lane; :func:`run_compiled_many` times many configs in shared
lane walks, and a :class:`TimingMemo` walks timing-identical traces once.
See ``docs/timing.md``.
"""

from .branch_predictor import CombinedPredictor
from .caches import Cache, CacheHierarchy
from .config import CacheConfig, MachineConfig, PredictorConfig
from .ooo import OutOfOrderModel, TimingResult
from .tkernel import (
    MULTI_KERNEL_MAX_LANES,
    StaticTable,
    TimingMemo,
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
    "StaticTable",
    "TimingMemo",
    "bake_static_table",
    "run_compiled",
    "run_compiled_many",
    "MULTI_KERNEL_MAX_LANES",
]
