"""Simulator and verifier for work statistics of coarse thermodynamic
control sequences (partial thermalizations, level shifts, zero-gap swaps)
acting on a two-level system at fixed inverse temperature."""

from coarseops.bounds import (
    NoGoBound,
    theorem_main_bound,
    theorem_rev_bound,
    theorem_same_side,
)
from coarseops.characterize import (
    TransitionClassification,
    classify_transition,
    mixing_coefficient,
    synthesize_protocol,
)
from coarseops.engine import (
    WorkDistribution,
    brute_force_work_distribution,
    exact_work_distribution,
    final_state,
    monte_carlo,
    prob_work_at_most,
    total_variation,
)
from coarseops.protocol import (
    BistochasticTransformation,
    LevelTransformation,
    PartialThermalization,
    Protocol,
    build_average_work_protocol,
    build_pure_excited_reset,
    build_thermalize_once,
    validate,
)
from coarseops.thermo import (
    ThermalContext,
    QubitState,
    gibbs_population,
    energy_of_population,
    partition_function,
    entropy,
    free_energy,
    gibbs_free_energy,
    gibbs_integral,
)

__all__ = [
    "ThermalContext",
    "QubitState",
    "gibbs_population",
    "energy_of_population",
    "partition_function",
    "entropy",
    "free_energy",
    "gibbs_free_energy",
    "gibbs_integral",
    "PartialThermalization",
    "LevelTransformation",
    "BistochasticTransformation",
    "Protocol",
    "validate",
    "build_average_work_protocol",
    "build_thermalize_once",
    "build_pure_excited_reset",
    "WorkDistribution",
    "exact_work_distribution",
    "brute_force_work_distribution",
    "monte_carlo",
    "final_state",
    "prob_work_at_most",
    "total_variation",
    "NoGoBound",
    "theorem_main_bound",
    "theorem_rev_bound",
    "theorem_same_side",
    "TransitionClassification",
    "classify_transition",
    "mixing_coefficient",
    "synthesize_protocol",
]
