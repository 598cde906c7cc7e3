"""Control sequences for the two-level system.

A protocol is an ordered list of steps applied at a fixed inverse
temperature, starting and ending at the boundary energy gap:

* partial thermalization PT(lambda): mix toward the thermal state at the
  current gap with probability lambda;
* level transformation LT(delta_e): shift the excited level, paying work
  -delta_e exactly when the level is occupied;
* bit swap BT(gamma): probabilistic population flip, physical only while
  the gap is (numerically) zero.

Protocols are immutable values; validation returns a structured report
rather than raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from coarseops.thermo import ThermalContext, _require_finite

# Gap tolerance of both physicality constraints, in units of 1/beta: staged
# protocols compute increments by division, so exact equality is too brittle.
GAP_TOL = 1e-9


@dataclass(frozen=True)
class PartialThermalization:
    lam: float

    def __post_init__(self):
        _require_finite(self.lam, "lambda")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class LevelTransformation:
    delta_e: float

    def __post_init__(self):
        _require_finite(self.delta_e, "delta_e")


@dataclass(frozen=True)
class BistochasticTransformation:
    gamma: float

    def __post_init__(self):
        _require_finite(self.gamma, "gamma")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


ProtocolStep = Union[
    PartialThermalization, LevelTransformation, BistochasticTransformation
]


@dataclass(frozen=True)
class Violation:
    step_index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Protocol:
    ctx: ThermalContext
    steps: tuple[ProtocolStep, ...]

    def __init__(self, ctx: ThermalContext, steps):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "steps", tuple(steps))

    def energy_trajectory(self) -> list[float]:
        """Gap before each step plus the final gap: length len(steps) + 1."""
        energies = [self.ctx.e0]
        for step in self.steps:
            e = energies[-1]
            if isinstance(step, LevelTransformation):
                e = e + step.delta_e
            energies.append(e)
        return energies


def validate(proto: Protocol) -> ValidationReport:
    """Check cyclicity (final gap returns to the boundary) and that every
    nontrivial swap happens at zero gap, both within GAP_TOL / beta.  Never
    raises; all violations are collected with their step index."""
    violations: list[Violation] = []
    energies = proto.energy_trajectory()
    tol = GAP_TOL / proto.ctx.beta
    for i, step in enumerate(proto.steps):
        if isinstance(step, BistochasticTransformation) and step.gamma > 0:
            if abs(energies[i]) > tol:
                violations.append(
                    Violation(i, f"swap with gamma={step.gamma} at gap {energies[i]}")
                )
    if abs(energies[-1] - proto.ctx.e0) > tol:
        violations.append(
            Violation(
                len(proto.steps),
                f"final gap {energies[-1]} does not return to {proto.ctx.e0}",
            )
        )
    return ValidationReport(tuple(violations))


def normalize(proto: Protocol) -> Protocol:
    """Merge adjacent same-type steps and drop zero-effect steps.

    PT merges as lam = 1 - (1-lam1)(1-lam2), LT increments add, and swap
    probabilities combine as gamma1(1-gamma2) + gamma2(1-gamma1).  The final
    state and work distribution are unchanged."""
    def _is_noop(step: ProtocolStep) -> bool:
        if isinstance(step, PartialThermalization):
            return step.lam == 0.0
        if isinstance(step, LevelTransformation):
            return step.delta_e == 0.0
        return step.gamma == 0.0

    merged: list[ProtocolStep] = []
    for step in proto.steps:
        if _is_noop(step):
            continue
        if merged and type(merged[-1]) is type(step):
            prev = merged.pop()
            if isinstance(step, PartialThermalization):
                step = PartialThermalization(
                    1.0 - (1.0 - prev.lam) * (1.0 - step.lam)
                )
            elif isinstance(step, LevelTransformation):
                step = LevelTransformation(prev.delta_e + step.delta_e)
            else:
                step = BistochasticTransformation(
                    prev.gamma * (1.0 - step.gamma) + step.gamma * (1.0 - prev.gamma)
                )
        merged.append(step)
        # A merge can itself produce a no-op (e.g. opposite shifts); dropping
        # it may make its neighbours adjacent, so filter in the same pass.
        if _is_noop(merged[-1]):
            merged.pop()
    return Protocol(proto.ctx, merged)


def build_average_work_protocol(
    p_in: float, p_out: float, ctx: ThermalContext, n_stage2: int
) -> Protocol:
    """Quasi-static transformation protocol.

    Stage I raises the gap from the boundary to the one whose thermal
    population is p_in; stage II performs n_stage2 rounds of a small shift
    followed by a full thermalization, walking the gap to the one matching
    p_out; stage III shifts back to the boundary.  Its mean work approaches
    the free-energy difference of the endpoint states as n_stage2 grows."""
    from coarseops.thermo import energy_of_population

    if n_stage2 < 1:
        raise ValueError(f"n_stage2 must be >= 1, got {n_stage2}")
    e_in = energy_of_population(p_in, ctx)
    e_out = energy_of_population(p_out, ctx)
    delta = (e_in - e_out) / n_stage2
    steps: list[ProtocolStep] = [LevelTransformation(e_in - ctx.e0)]
    for _ in range(n_stage2):
        steps.append(LevelTransformation(-delta))
        steps.append(PartialThermalization(1.0))
    steps.append(LevelTransformation(ctx.e0 - e_out))
    return Protocol(ctx, steps)


def build_thermalize_once(
    e_contact: float, lam: float, ctx: ThermalContext
) -> Protocol:
    """Shift the gap to e_contact, thermalize with probability lam, and
    shift back."""
    _require_finite(e_contact, "e_contact")
    return Protocol(
        ctx,
        [
            LevelTransformation(e_contact - ctx.e0),
            PartialThermalization(lam),
            LevelTransformation(ctx.e0 - e_contact),
        ],
    )


def build_pure_excited_reset(ctx: ThermalContext) -> Protocol:
    """Lower the excited level to zero gap, swap, and raise the now empty
    level back.  Maps the pure excited state to the ground state while
    gaining work equal to the boundary gap with certainty."""
    return Protocol(
        ctx,
        [
            LevelTransformation(-ctx.e0),
            BistochasticTransformation(1.0),
            LevelTransformation(ctx.e0),
        ],
    )


def random_protocol(
    seed: int, max_steps: int, energy_range: float, ctx: ThermalContext
) -> Protocol:
    """Deterministic seeded generator of valid protocols for property tests.

    The last level shift is forced to close the cycle, and swaps are only
    emitted right after a shift that lands exactly at zero gap."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(1, max_steps + 1))
    steps: list[ProtocolStep] = []
    e = ctx.e0
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            steps.append(PartialThermalization(float(rng.random())))
        elif kind < 0.8:
            target = float(rng.uniform(-energy_range, energy_range))
            steps.append(LevelTransformation(target - e))
            e = target
        else:
            # A swap is only physical at zero gap: walk there first.
            if e != 0.0:
                steps.append(LevelTransformation(-e))
                e = 0.0
            steps.append(BistochasticTransformation(float(rng.random())))
    steps.append(LevelTransformation(ctx.e0 - e))
    return Protocol(ctx, steps)


_STEP_KEYS = {
    "PT": ("lambda", PartialThermalization),
    "LT": ("delta_e", LevelTransformation),
    "BT": ("gamma", BistochasticTransformation),
}


def to_json_dict(proto: Protocol) -> dict:
    steps = []
    for step in proto.steps:
        if isinstance(step, PartialThermalization):
            steps.append({"type": "PT", "lambda": step.lam})
        elif isinstance(step, LevelTransformation):
            steps.append({"type": "LT", "delta_e": step.delta_e})
        else:
            steps.append({"type": "BT", "gamma": step.gamma})
    return {"beta": proto.ctx.beta, "e0": proto.ctx.e0, "steps": steps}


def to_json(proto: Protocol) -> str:
    return json.dumps(to_json_dict(proto))


def _number(value, what: str) -> float:
    """A JSON number as a float; null, booleans, strings and integers
    beyond the float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer of {len(str(abs(value)))} "
                         "digits, too large for a float") from None


def from_json_dict(data: dict) -> Protocol:
    if not isinstance(data, dict):
        raise ValueError("protocol document must be a JSON object")
    extra = set(data) - {"beta", "e0", "steps"}
    if extra:
        raise ValueError(f"unknown protocol keys: {sorted(extra)}")
    if not {"beta", "e0", "steps"} <= set(data):
        raise ValueError("protocol document requires keys beta, e0, steps")
    ctx = ThermalContext(
        beta=_number(data["beta"], "beta"), e0=_number(data["e0"], "e0")
    )
    if not isinstance(data["steps"], list):
        raise ValueError("protocol steps must be a JSON array")
    steps: list[ProtocolStep] = []
    for i, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict) or "type" not in raw:
            raise ValueError(f"step {i}: expected an object with a 'type' key")
        kind = raw["type"]
        if kind not in _STEP_KEYS:
            raise ValueError(f"step {i}: unknown step type {kind!r}")
        param_key, cls = _STEP_KEYS[kind]
        extra = set(raw) - {"type", param_key}
        if extra:
            raise ValueError(f"step {i}: unknown keys {sorted(extra)}")
        if param_key not in raw:
            raise ValueError(f"step {i}: missing {param_key!r}")
        steps.append(cls(_number(raw[param_key], f"step {i}: {param_key}")))
    return Protocol(ctx, steps)


def from_json(text: str) -> Protocol:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("protocol document is nested too deeply") from None
    return from_json_dict(data)
