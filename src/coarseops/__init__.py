"""Simulator and verifier for work statistics of coarse thermodynamic
control sequences (partial thermalizations, level shifts, zero-gap swaps)
acting on a two-level system at fixed inverse temperature.

Each public name below is imported from its module on first use (PEP 562),
so `import coarseops` loads no submodule and no numpy."""

import importlib

# Each public module and the names the package exports from it.
_EXPORTS = {
    "thermo": ("ThermalContext", "QubitState", "gibbs_population",
               "energy_of_population", "partition_function", "entropy",
               "free_energy", "gibbs_free_energy", "gibbs_integral"),
    "protocol": ("PartialThermalization", "LevelTransformation",
                 "BistochasticTransformation", "Protocol", "validate",
                 "build_average_work_protocol", "build_thermalize_once",
                 "build_pure_excited_reset"),
    "engine": ("WorkDistribution", "exact_work_distribution",
               "brute_force_work_distribution", "monte_carlo", "final_state",
               "prob_work_at_most", "total_variation"),
    "bounds": ("NoGoBound", "theorem_main_bound", "theorem_rev_bound",
               "theorem_same_side"),
    "characterize": ("TransitionClassification", "classify_transition",
                     "mixing_coefficient", "synthesize_protocol"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # Bound here, so later lookups skip this hook, which costs several
    # times a scalar gibbs_population call.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
