"""Closed-form Gibbs-state mathematics for a two-level system.

All energies are in natural units with the inverse temperature beta kept
explicit; entropies are in nats so the free-energy formulas hold without
unit conversion.  Every function here is a pure total function over finite
floats, and gibbs_population also maps a float ndarray elementwise, so a
quadrature grid is one call; non-finite inputs are rejected eagerly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy import ndarray

# Above this beta*e, exp(beta*e) nears overflow, and exp(-beta*e) equals
# 1/(1 + exp(beta*e)) to double precision (their ratio is 1 + exp(-700)).
_LOGISTIC_CUT = 700.0


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True, slots=True)
class ThermalContext:
    """Fixed environment of every computation: inverse temperature and the
    boundary energy gap the excited level must return to.

    p_beta, the excited-level population of the thermal state at the
    boundary gap, is set once when the context is created.  It lies in
    (0, 1/2] since e0 >= 0, except that it underflows to 0 once beta*e0
    exceeds about 745.  It is no init argument and takes no part in
    equality, hashing or repr; dataclasses.replace computes it again."""

    beta: float
    e0: float
    p_beta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite(self.beta, "beta")
        _require_finite(self.e0, "e0")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.e0 < 0:
            raise ValueError(f"boundary energy must be >= 0, got {self.e0}")
        object.__setattr__(self, "p_beta", gibbs_population(self.e0, self))


@dataclass(frozen=True, slots=True)
class QubitState:
    """Energy-diagonal two-level state, represented by its excited-level
    population.  The population vector is (1 - p, p); there is no coherence."""

    p_excited: float

    def __post_init__(self):
        # NaN and +-inf fail the range test too, so the finiteness check,
        # and its message, is needed only when the range test fails.
        if not 0.0 <= self.p_excited <= 1.0:
            _require_finite(self.p_excited, "p_excited")
            raise ValueError(f"population must lie in [0, 1], got {self.p_excited}")


def gibbs_population(e, ctx: ThermalContext):
    """Excited-level population of the thermal state at energy gap e:
    exp(-beta*e) / (1 + exp(-beta*e)).  Strictly decreasing in e.

    Evaluated in the logistic form 1/(1 + exp(beta*e)), which is stable for
    both signs of e, except where beta*e > 700: there it is exp(-beta*e),
    equal to double precision, and finite however large beta*e grows.  A
    float gives a float; a float ndarray gives the array of populations,
    equal to the float results to within a few ulp (numpy's exp against
    the math module's)."""
    if isinstance(e, ndarray):
        e = np.asarray(e, dtype=float)
        if not np.isfinite(e).all():
            raise ValueError("energy must be finite, got a non-finite entry")
        x = ctx.beta * e
        return np.where(x > _LOGISTIC_CUT,
                        np.exp(-np.maximum(x, _LOGISTIC_CUT)),
                        1.0 / (1.0 + np.exp(np.minimum(x, _LOGISTIC_CUT))))
    x = ctx.beta * _require_finite(e, "energy")
    if x > _LOGISTIC_CUT:
        return math.exp(-x)
    return 1.0 / (1.0 + math.exp(x))


def energy_of_population(p: float, ctx: ThermalContext) -> float:
    """Energy gap whose thermal state has excited population p:
    -(1/beta) * ln(p / (1 - p)).  Exact inverse of gibbs_population on (0, 1)."""
    p = _require_finite(p, "population")
    if not 0.0 < p < 1.0:
        raise ValueError(f"population must lie strictly in (0, 1), got {p}")
    return -math.log(p / (1.0 - p)) / ctx.beta


def partition_function(e: float, ctx: ThermalContext) -> float:
    """Two-level partition function 1 + exp(-beta*e), inf past overflow."""
    e = _require_finite(e, "energy")
    try:
        return 1.0 + math.exp(-ctx.beta * e)
    except OverflowError:
        return math.inf


def entropy(state: QubitState) -> float:
    """Binary Shannon entropy of the population vector, in nats."""
    p = state.p_excited
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def free_energy(state: QubitState, e: float, ctx: ThermalContext) -> float:
    """Free energy of a state at energy gap e: p*e - S/beta."""
    e = _require_finite(e, "energy")
    return state.p_excited * e - entropy(state) / ctx.beta


def gibbs_free_energy(e: float, ctx: ThermalContext) -> float:
    """Free energy of the thermal state at energy gap e.  Closed form
    -(1/beta) * ln(1 + exp(-beta*e)), which equals
    free_energy(thermal state at e, e)."""
    e = _require_finite(e, "energy")
    # ln(1 + exp(-be)) = max(-be, 0) + log1p(exp(-|be|)): exp never
    # overflows, and log1p keeps precision for large |be|.
    be = ctx.beta * e
    return -(max(-be, 0.0) + math.log1p(math.exp(-abs(be)))) / ctx.beta


def gibbs_integral(e_from: float, e_to: float, ctx: ThermalContext) -> float:
    """Integral of the Gibbs curve over [e_from, e_to], in closed form:
    (1/beta) * ln((1 + exp(-beta*e_from)) / (1 + exp(-beta*e_to))).

    Equals gibbs_free_energy(e_to) - gibbs_free_energy(e_from) and is
    antisymmetric under swapping the endpoints."""
    e_from = _require_finite(e_from, "e_from")
    e_to = _require_finite(e_to, "e_to")
    return gibbs_free_energy(e_to, ctx) - gibbs_free_energy(e_from, ctx)
