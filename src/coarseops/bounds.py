"""Closed-form no-go bounds on work loss for forbidden transitions, plus
the probability-theory helpers they rest on.

Every bound states: any protocol realizing the given population transition
loses at least `work_threshold` of work with probability at least
`probability_lower_bound`.  The probability factors as p_1 (stage-I
conditioning), p_2 (stage-II concentration), p_3 (stage-III conditioning),
and p_f (fraction of branches ending beyond the pivot level q*).

Every forbidden move p_in -> p_out is bounded by one composer,
`_stage_bound`, from a reference level: p_beta for crossing the thermal
population (A6 raising, A7 lowering) and p_in for moving away from it on
one side (A8).  The pivot is q* = (p_out + ref)/2 and p_f = |p_out - ref|/2.
The side of the move picks the stage-III margin and p_3: epsilon_iii and
p_3 = q* upward, epsilon_iii_tilde and p_3 = 1 - q* downward.  p_1 is
min(p_in, 1 - p_in).  Stage II absorbs half the stage-III margin eps: the
threshold is eps/2 and p_2 = lemma_w2_probability(eps/2).  A margin that
rounds below 0 (p_out within an ulp or two of p_beta) is taken as 0: the
bound is vacuous (threshold 0, p_2 = 0, probability 0) but valid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from coarseops.paths import epsilon_iii, epsilon_iii_tilde
from coarseops.thermo import ThermalContext, energy_of_population


@dataclass(frozen=True, slots=True)
class NoGoBound:
    work_threshold: float
    probability_lower_bound: float
    p_1: float
    p_2: float
    p_3: float
    p_f: float
    regime: str

    def __post_init__(self):
        for name in ("probability_lower_bound", "p_1", "p_2", "p_3", "p_f"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not self.work_threshold >= 0.0:
            raise ValueError("work threshold must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.work_threshold,
            "probability": self.probability_lower_bound,
            "components": {
                "p1": self.p_1,
                "p2": self.p_2,
                "p3": self.p_3,
                "pf": self.p_f,
            },
            "regime": self.regime,
        }


def _stage_bound(p_in, p_out, ref, ctx, regime) -> NoGoBound:
    """Compose the stage bounds for the move from `ref` toward p_out (see
    the module docstring).  p_2 is 0 where eps/2 is 0, which the lemma
    refuses: a vacuous margin, or a subnormal one that halves to 0."""
    q_star = (p_out + ref) / 2.0
    if p_out >= ref:
        eps, p3 = epsilon_iii(q_star, ctx), q_star
    else:
        eps, p3 = epsilon_iii_tilde(q_star, ctx), 1.0 - q_star
    half = max(eps, 0.0) / 2.0
    # -0.0 is falsy, so a start of -0.0 gets the bound of a start of 0.0.
    p1 = min(p_in, 1.0 - p_in) or 0.0
    p2 = lemma_w2_probability(half, ctx) if half > 0.0 else 0.0
    pf = abs(p_out - ref) / 2.0
    return NoGoBound(half, p1 * p2 * p3 * pf, p1, p2, p3, pf, regime)


def lemma_simplecase_bound(
    p_in: float, p_out: float, ctx: ThermalContext
) -> tuple[float, float]:
    """Simple-case loss bound for the staged quasi-static protocol with
    n >= 2 stage-II rounds: losing at least (E(p_in) - E(p_out))/2 has
    probability at least p_in * p_out * (1 - exp(-2 (1/2 - p_out)^2)), the
    last factor one minus hoeffding_tail(1, p_out).  It is false for one
    round: at p_beta = 1/4, 0.025 -> 0.125 in one round loses at most
    ln(7/3) = 0.847, below the threshold 0.8588."""
    if not 0.0 < p_in < 1.0:
        raise ValueError(f"p_in must lie strictly in (0, 1), got {p_in}")
    if not 0.0 < p_out < 0.5:
        raise ValueError(f"p_out must lie strictly in (0, 1/2), got {p_out}")
    threshold = (
        energy_of_population(p_in, ctx) - energy_of_population(p_out, ctx)
    ) / 2.0
    prob = p_in * p_out * (1.0 - hoeffding_tail(1, p_out))
    return threshold, prob


def hoeffding_tail(n: int, p: float) -> float:
    """Upper bound exp(-2 n (1/2 - p)^2) on P(Bin(n, p) >= n/2)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p < 0.5:
        raise ValueError(f"p must lie in [0, 1/2), got {p}")
    return math.exp(-2.0 * n * (0.5 - p) ** 2)


def exact_binomial_upper_tail(n: int, p: float) -> float:
    """Exact P(Bin(n, p) >= n/2), the quantity hoeffding_tail dominates.

    Each term is formed in log space, so no factor overflows for large n."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    k_min = math.ceil(n / 2)
    if p == 0.0 or p == 1.0:
        return float(p == 1.0 or k_min == 0)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * log_p + (n - k) * log_q)
        for k in range(k_min, n + 1)
    )


def lemma_w2_probability(epsilon2: float, ctx: ThermalContext) -> float:
    """Stage-II concentration probability min{2/3, eps / (4/beta + eps)};
    where 4/beta overflows (beta below about 2.2e-308), in the equal form
    beta*eps / (4 + beta*eps)."""
    if not epsilon2 > 0.0:
        raise ValueError(f"epsilon2 must be positive, got {epsilon2}")
    scale = 4.0 / ctx.beta
    if scale == math.inf:
        x = ctx.beta * epsilon2
        return min(2.0 / 3.0, x / (4.0 + x))
    return min(2.0 / 3.0, epsilon2 / (scale + epsilon2))


def lemma_path_bound(
    p_in: float, q_out: float, ctx: ThermalContext
) -> tuple[float, float]:
    """Single-path loss bound: a path from p_in ending at level q_out loses
    at least eps/2, eps = epsilon_iii(q_out), with probability at least
    p_in * lemma_w2_probability(eps/2) * q_out."""
    p_beta = ctx.p_beta
    if not (0.0 < p_in < p_beta < q_out <= 0.5):
        raise ValueError(
            f"need 1/2 >= q_out > p_beta > p_in > 0, got "
            f"p_in={p_in}, p_beta={p_beta}, q_out={q_out}"
        )
    # The one path ends at its own pivot q_out: p_f = 1, not |q_out - q_out|/2.
    b = _stage_bound(p_in, q_out, q_out, ctx, "path")
    return b.work_threshold, b.p_1 * b.p_2 * b.p_3


def theorem_main_bound(
    p_in: float, p_out: float, ctx: ThermalContext
) -> NoGoBound:
    """No-go bound for raising a below-thermal state above the thermal
    population (0 <= p_in < p_beta < p_out <= 1/2).  At p_in = 0 the
    stage-I conditioning factor p_1 = p_in is zero and the bound is
    vacuous (probability 0), but still valid."""
    p_beta = ctx.p_beta
    if not (0.0 <= p_in < p_beta < p_out <= 0.5):
        raise ValueError(
            f"need 1/2 >= p_out > p_beta > p_in >= 0, got "
            f"p_in={p_in}, p_beta={p_beta}, p_out={p_out}"
        )
    return _stage_bound(p_in, p_out, p_beta, ctx, "A6")


def theorem_rev_bound(
    p_in: float, p_out: float, ctx: ThermalContext
) -> NoGoBound:
    """No-go bound for lowering an above-thermal state below the thermal
    population (p_out < p_beta < p_in < 1; the pure excited state is the
    achievable exception)."""
    p_beta = ctx.p_beta
    if not (0.0 <= p_out < p_beta < p_in < 1.0):
        raise ValueError(
            f"need 0 <= p_out < p_beta < p_in < 1, got "
            f"p_in={p_in}, p_beta={p_beta}, p_out={p_out}"
        )
    return _stage_bound(p_in, p_out, p_beta, ctx, "A7")


def theorem_same_side(
    p_in: float, p_out: float, ctx: ThermalContext
) -> NoGoBound:
    """No-go bound for moving away from the thermal population on the same
    side (p_beta <= p_in < p_out <= 1 or p_beta >= p_in > p_out >= 0).

    The source result asserts only a positive loss with positive
    probability; this is a constructive instantiation composing the
    stage bounds of the applicable side at q* = (p_in + p_out)/2."""
    p_beta = ctx.p_beta
    if not (p_beta <= p_in < p_out <= 1.0 or p_beta >= p_in > p_out >= 0.0):
        raise ValueError(
            "need p_beta <= p_in < p_out <= 1 or p_beta >= p_in > p_out >= 0, "
            f"got p_in={p_in}, p_beta={p_beta}, p_out={p_out}"
        )
    return _stage_bound(p_in, p_out, p_in, ctx, "A8")


@dataclass(frozen=True, slots=True)
class ReverseMarkovBounds:
    above: float  # lower bound on P(Y > a)
    below: float  # lower bound on P(Y < a)
    above_clamped: bool
    below_clamped: bool


def reverse_markov_lower(mean: float, a: float) -> ReverseMarkovBounds:
    """For Y supported on [0, 1]: P(Y > a) >= 1 - (1 - EY)/(1 - a) and
    P(Y < a) >= 1 - EY/a.  Negative (vacuous) bounds are clamped to 0 and
    flagged."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie strictly in (0, 1), got {a}")
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"mean of a [0,1] variable must lie in [0,1], got {mean}")
    above = 1.0 - (1.0 - mean) / (1.0 - a)
    below = 1.0 - mean / a
    return ReverseMarkovBounds(
        max(0.0, above), max(0.0, below), above < 0.0, below < 0.0
    )


def cantelli_lower(delta: float, variance: float) -> float:
    """P(X <= EX + delta) >= delta^2 / (Var X + delta^2), or its limit where
    delta^2 overflows; 1 at delta = inf (a sure event), for any variance."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not variance >= 0.0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if delta * delta < math.inf:
        return delta * delta / (variance + delta * delta)
    return 1.0 / (1.0 + variance / delta / delta) if delta < math.inf else 1.0
