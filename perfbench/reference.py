"""Reference computations the benchmark checks the program against.

Nothing here imports coarseops: each function restates the model from its
definition (a two-level system whose excited level is occupied with some
probability, driven by level shifts LT, partial thermalizations PT and
swaps BT) so that a fault in the program cannot hide in its own reference.

A protocol is a list of (kind, parameter) pairs with kind in "LT", "PT",
"BT".  Work follows the program's sign: a level shift by x pays work -x
when the level is occupied.
"""

from __future__ import annotations

import math


def gibbs(e: float, beta: float) -> float:
    """Thermal excited population at gap e."""
    return 1.0 / (1.0 + math.exp(beta * e))


def gap_of(p: float, beta: float) -> float:
    """Gap whose thermal excited population is p."""
    return -math.log(p / (1.0 - p)) / beta


def staged_steps(p_in: float, p_out: float, beta: float, e0: float, rounds: int):
    """The staged transformation protocol: shift to the gap of p_in, walk
    to the gap of p_out in `rounds` shift-then-thermalize rounds, and shift
    back to the boundary gap e0."""
    e_in, e_out = gap_of(p_in, beta), gap_of(p_out, beta)
    delta = (e_in - e_out) / rounds
    return ([("LT", e_in - e0)] + [("LT", -delta), ("PT", 1.0)] * rounds
            + [("LT", e0 - e_out)])


def moments(steps, beta: float, e0: float, p0: float):
    """Mean work, work variance and final occupation by a recursion over
    the steps on (mass, first moment, second moment) per occupation bit."""
    m = [1.0 - p0, p0]
    s = [0.0, 0.0]
    q = [0.0, 0.0]
    e = e0
    for kind, x in steps:
        if kind == "LT":
            # The occupied branch shifts its work by -x.
            q[1] = q[1] - 2.0 * x * s[1] + x * x * m[1]
            s[1] = s[1] - x * m[1]
            e += x
        elif kind == "PT":
            g = gibbs(e, beta)
            m = _thermalize(m, x, g)
            s = _thermalize(s, x, g)
            q = _thermalize(q, x, g)
        else:
            m, s, q = _swap(m, x), _swap(s, x), _swap(q, x)
    mean = s[0] + s[1]
    return mean, q[0] + q[1] - mean * mean, m[1]


def _thermalize(v, lam, g):
    total = v[0] + v[1]
    return [(1.0 - lam) * v[0] + lam * (1.0 - g) * total,
            (1.0 - lam) * v[1] + lam * g * total]


def _swap(v, gam):
    return [(1.0 - gam) * v[0] + gam * v[1], (1.0 - gam) * v[1] + gam * v[0]]


def work_range(steps, beta: float, e0: float, p0: float):
    """Smallest and largest work any branch with positive probability can
    accumulate, tracked per occupation bit."""
    inf = math.inf
    reach = [p0 < 1.0, p0 > 0.0]
    lo = [0.0 if r else inf for r in reach]
    hi = [0.0 if r else -inf for r in reach]
    e = e0
    for kind, x in steps:
        if kind == "LT":
            lo[1] -= x
            hi[1] -= x
            e += x
            continue
        if kind == "PT":
            g = gibbs(e, beta)
            into = [x > 0.0 and g < 1.0, x > 0.0 and g > 0.0]
            # A redraw reaches bit b from either bit.
            src_lo, src_hi = min(lo), max(hi)
            new_lo = [src_lo if into[b] else inf for b in (0, 1)]
            new_hi = [src_hi if into[b] else -inf for b in (0, 1)]
            if x < 1.0:
                new_lo = [min(new_lo[b], lo[b]) for b in (0, 1)]
                new_hi = [max(new_hi[b], hi[b]) for b in (0, 1)]
        else:
            keep, flip = x < 1.0, x > 0.0
            new_lo = [min(lo[b] if keep else inf, lo[1 - b] if flip else inf)
                      for b in (0, 1)]
            new_hi = [max(hi[b] if keep else -inf, hi[1 - b] if flip else -inf)
                      for b in (0, 1)]
        lo, hi = new_lo, new_hi
    return min(lo), max(hi)


def final_population(steps, beta: float, e0: float, p0: float) -> float:
    """Excited population after the steps, by the scalar recursion."""
    p, e = p0, e0
    for kind, x in steps:
        if kind == "LT":
            e += x
        elif kind == "PT":
            p = (1.0 - x) * p + x * gibbs(e, beta)
        else:
            p = (1.0 - x) * p + x * (1.0 - p)
    return p


def verdict_rule(p_in: float, p_out: float, p_beta: float) -> str:
    """Interval rule of the reachability classifier: the pure excited state
    reaches everything, a target between the input and the thermal
    population is reached by mixing, every other target is forbidden."""
    if p_in == 1.0:
        return "pure_excited"
    if min(p_in, p_beta) <= p_out <= max(p_in, p_beta):
        return "mixing"
    return "forbidden"


def dkw_epsilon(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz half-width: an empirical CDF of n samples
    leaves the band of this width around the true CDF with probability at
    most alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def cdf_distance(values_a, probs_a, values_b, probs_b, tol: float) -> float:
    """Largest gap between two step CDFs, evaluated just above every atom
    of either law; atoms closer than tol count as the same point."""
    a = sorted(zip(values_a, probs_a))
    b = sorted(zip(values_b, probs_b))
    points = sorted({v for v, _ in a} | {v for v, _ in b})
    worst = ia = ib = 0
    fa = fb = 0.0
    for x in points:
        while ia < len(a) and a[ia][0] <= x + tol:
            fa += a[ia][1]
            ia += 1
        while ib < len(b) and b[ib][0] <= x + tol:
            fb += b[ib][1]
            ib += 1
        worst = max(worst, abs(fa - fb))
    return worst
