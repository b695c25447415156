"""Functional simulation: interpreter, memory, traces and value profiling."""

from .fusedc import PIPELINES, FusedOutcome, ShapeAggregate
from .machine import (
    CODE_BASE_ADDRESS,
    Machine,
    RunResult,
    SimulationError,
    SimulationLimitExceeded,
)
from .memory import Memory, load_program_data
from .profiler import ValueProfiler, ValueTable
from .trace import StaticEntry, StaticInfo, Trace, TraceRecord

__all__ = [
    "CODE_BASE_ADDRESS",
    "PIPELINES",
    "Machine",
    "RunResult",
    "SimulationError",
    "SimulationLimitExceeded",
    "FusedOutcome",
    "ShapeAggregate",
    "Memory",
    "load_program_data",
    "ValueProfiler",
    "ValueTable",
    "StaticEntry",
    "StaticInfo",
    "Trace",
    "TraceRecord",
]
