"""The paper's core contribution: VRP and VRS.

* **Value Range Propagation (VRP)** — static, conservative value/useful
  range analysis over the binary-level IR followed by narrow opcode
  assignment (:func:`run_vrp`, :func:`apply_widths`).
* **Value Range Specialization (VRS)** — profile-guided cloning of code
  regions guarded by range tests, driven by an energy cost/benefit model
  (:func:`run_vrs`).
"""

from .candidates import Candidate, eligible_instructions, identify_candidates
from .constprop import FoldStats, fold_constants_in_region
from .energy_model import (
    ALU_ENERGY_SAVINGS_NJ,
    EnergyModel,
    GuardCost,
    SavingsEstimator,
    alu_energy_saving_nj,
    class_energy_saving_nj,
)
from .propagation import FunctionAnalysis, FunctionFacts, FunctionVRP, VRPConfig
from .refinement import BranchConstraints, compute_branch_constraints
from .specialize import SpecializationRecord, specialize_candidate
from .transfer import forward_transfer
from .vrs import CandidateOutcome, VRSConfig, VRSResult, VRSTraining, run_vrs
from .trip_count import LoopPins, analyze_loop_iterators
from .useful import UsefulBitsConfig, compute_useful_bits
from .value_range import FULL_RANGE, ValueRange, bits_needed_for_mask, range_for_width
from .vrp import VRPResult, apply_widths, run_vrp
from .width_assignment import NARROWABLE_KINDS, required_width, width_for_bits

__all__ = [
    "Candidate",
    "eligible_instructions",
    "identify_candidates",
    "FoldStats",
    "fold_constants_in_region",
    "ALU_ENERGY_SAVINGS_NJ",
    "EnergyModel",
    "GuardCost",
    "SavingsEstimator",
    "alu_energy_saving_nj",
    "class_energy_saving_nj",
    "BranchConstraints",
    "compute_branch_constraints",
    "SpecializationRecord",
    "specialize_candidate",
    "CandidateOutcome",
    "VRSConfig",
    "VRSResult",
    "VRSTraining",
    "run_vrs",
    "FunctionAnalysis",
    "FunctionFacts",
    "FunctionVRP",
    "VRPConfig",
    "forward_transfer",
    "LoopPins",
    "analyze_loop_iterators",
    "UsefulBitsConfig",
    "compute_useful_bits",
    "FULL_RANGE",
    "ValueRange",
    "bits_needed_for_mask",
    "range_for_width",
    "VRPResult",
    "apply_widths",
    "run_vrp",
    "NARROWABLE_KINDS",
    "required_width",
    "width_for_bits",
]
