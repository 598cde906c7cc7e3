"""Reachability classifier for population transitions.

A transition p_in -> p_out is achievable at zero work exactly when p_out
lies between p_in and the boundary thermal population (a single partial
thermalization interpolates), or when the input is the pure excited state
(which can be reset to the ground state for free and re-mixed from there).
Every other transition is forbidden: any protocol realizing it loses work.
The classifier states the regime partition once and only dispatches each
forbidden cell, with its regime, to the no-go bound composer of `bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass

from coarseops.bounds import NoGoBound, _stage_bound
from coarseops.protocol import (
    PartialThermalization,
    Protocol,
    build_pure_excited_reset,
)
from coarseops.thermo import ThermalContext


@dataclass(frozen=True, slots=True)
class TransitionClassification:
    """Tagged verdict: exactly one of lam (mixing), pure_excited, or bound
    (forbidden) is populated."""

    verdict: str  # "mixing" | "pure_excited" | "forbidden"
    lam: float | None = None
    bound: NoGoBound | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.bound is not None:
            out["bound"] = self.bound.to_json_dict()
        return out


def mixing_coefficient(p_in: float, p_out: float, ctx: ThermalContext) -> float:
    """Weight lambda with p_out = (1-lambda) p_in + lambda p_beta.

    Requires p_out in the closed interval between p_in and p_beta.  When
    p_in = p_beta the interval is the single point p_beta and any weight
    works; returns 1.  p_out == p_in above p_beta divides 0.0 by a
    negative number; that -0.0 is read as 0.0."""
    p_beta = ctx.p_beta
    lo = p_beta if p_beta < p_in else p_in  # min(p_in, p_beta)
    hi = p_beta if p_beta > p_in else p_in  # max(p_in, p_beta)
    if not lo <= p_out <= hi:
        raise ValueError(
            f"p_out={p_out} is outside the mixing interval [{lo}, {hi}]"
        )
    if p_in == p_beta:
        return 1.0
    return (p_out - p_in) / (p_beta - p_in) or 0.0


def classify_transition(
    p_in: float, p_out: float, ctx: ThermalContext
) -> TransitionClassification:
    """Total classifier over [0,1]^2.

    Mixing wins on its closed interval; the pure excited state reaches
    everything; crossing the thermal population or moving away from it on
    either side is forbidden with the matching bound."""
    if not 0.0 <= p_in <= 1.0 or not 0.0 <= p_out <= 1.0:
        raise ValueError(f"populations must lie in [0, 1], got {p_in}, {p_out}")
    p_beta = ctx.p_beta
    if p_beta >= 0.5:
        # At zero boundary gap the swap is free at the boundary, so the
        # forbidden regions collapse; p_beta is 1/2 below beta*e0 ~ 2e-16.
        raise ValueError(f"classification requires p_beta < 1/2, got p_beta "
                         f"= {p_beta} at beta*e0 = {ctx.beta * ctx.e0:.6g}")
    if p_in == 1.0:
        return TransitionClassification("pure_excited")
    # p_out between p_in and p_beta, the test of mixing_coefficient.
    if (p_in <= p_out <= p_beta if p_in < p_beta
            else p_beta <= p_out <= p_in):
        return TransitionClassification(
            "mixing", mixing_coefficient(p_in, p_out, ctx)
        )
    if p_in < p_beta < p_out:
        # A target above 1/2 inherits the capped target's bound: mixing the
        # output back toward the thermal population is free, so a protocol
        # reaching p_out also realizes the transition to min(p_out, 1/2).
        bound = _stage_bound(p_in, 0.5 if 0.5 < p_out else p_out, p_beta,
                             ctx, "A6")
    elif p_out < p_beta < p_in:
        bound = _stage_bound(p_in, p_out, p_beta, ctx, "A7")
    else:
        bound = _stage_bound(p_in, p_out, p_in, ctx, "A8")
    return TransitionClassification("forbidden", None, bound)


def synthesize_protocol(
    classification: TransitionClassification,
    p_in: float,
    p_out: float,
    ctx: ThermalContext,
) -> Protocol:
    """A witness protocol for an achievable verdict: reproduces p_out
    exactly and never produces negative work."""
    if classification.verdict == "mixing":
        return Protocol(ctx, (PartialThermalization(classification.lam),))
    if classification.verdict == "pure_excited":
        if p_out >= ctx.p_beta:
            # Mix the pure excited state down toward the thermal population;
            # no level moves, so no work at all.
            lam = mixing_coefficient(1.0, p_out, ctx)
            return Protocol(ctx, [PartialThermalization(lam)])
        # Reset to the ground state (extracts the gap when occupied, never
        # pays), then mix up toward the thermal population.
        reset = build_pure_excited_reset(ctx)
        lam = mixing_coefficient(0.0, p_out, ctx)
        return Protocol(ctx, list(reset.steps) + [PartialThermalization(lam)])
    raise ValueError("cannot synthesize a protocol for a forbidden transition")
