"""Self-verification suite behind `coarseops verify`.

Ten randomized checks of the engine, the path formalism and the no-go
bounds.  Each check takes (ctx, cases, rng) and returns (passed, margin),
where margin is a one-line "name=value" report of its worst case.  The
layers are called through their modules, so that a tracer patching module
attributes (perfbench/spans.py) still sees each call.
"""

from __future__ import annotations

import math

import numpy as np

from coarseops import bounds, engine, paths, protocol, thermo
from coarseops.paths import Tag
from coarseops.thermo import QubitState, ThermalContext


def _simpson(f, a: float, b: float, n: int = 2000) -> float:
    x = np.linspace(a, b, n + 1)
    y = np.array([f(float(v)) for v in x])
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def _check_gibbs_quadrature(ctx, cases, rng):
    worst = 0.0
    for _ in range(cases):
        a, b = rng.uniform(-4.0, 4.0, size=2)
        a, b = float(a), float(b)
        numeric = _simpson(lambda e: thermo.gibbs_population(e, ctx), a, b)
        worst = max(worst, abs(numeric - thermo.gibbs_integral(a, b, ctx)))
    return worst <= 1e-9, f"max_quadrature_error={worst:.3e}"


def _check_engine_equivalence(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        proto = protocol.random_protocol(seed, 8, 2.0, ctx)
        initial = QubitState(float(rng.uniform(0.0, 1.0)))
        tv = engine.total_variation(
            engine.exact_work_distribution(proto, initial),
            engine.brute_force_work_distribution(proto, initial),
        )
        worst = max(worst, tv)
    return worst <= 1e-12, f"max_total_variation={worst:.3e}"


def _check_stage_closure(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        proto = protocol.random_protocol(seed, 6, 2.0, ctx)
        for path in paths.enumerate_paths(proto):
            d = paths.decompose_stages(paths.shrink(path))
            worst = max(worst, abs(d.delta_f_1 + d.delta_f_2 + d.delta_f_3))
    return worst <= 1e-10, f"max_closure_residual={worst:.3e}"


def _check_mean_area(ctx, cases, rng):
    worst = 0.0
    for _ in range(cases):
        path = paths.random_cyclic_path(rng, ctx, with_swaps=False)
        mean = paths.stage2_work_distribution(path).mean
        area = paths.area_between(path).total
        identity = -paths.decompose_stages(path).delta_f_2 - area
        worst = max(worst, abs(mean - identity))
    return worst <= 1e-9, f"max_identity_residual={worst:.3e}"


def _check_variance_area_toward_zero(ctx, cases, rng):
    worst = -math.inf
    for _ in range(cases):
        e = float(rng.uniform(1.0, 3.0)) * (1 if rng.random() < 0.5 else -1)
        energies = [e]
        for _ in range(int(rng.integers(1, 6))):
            e = float(rng.uniform(0, abs(e))) * math.copysign(1.0, e)
            energies.append(e)
        path = paths.cyclic_path(energies, (Tag.GIBBS,) * len(energies), ctx)
        var = paths.stage2_work_distribution(path).variance
        excess = var - (2.0 / ctx.beta) * paths.area_between(path).total
        worst = max(worst, excess)
    return worst <= 1e-9, f"max_variance_excess={worst:.3e}"


def _check_variance_area_refutation(ctx, cases, rng):
    # The claimed universal variance-area inequality is false: this check
    # passes when the pinned counterexample (one thermalized segment moved
    # away from zero gap) still violates it, keeping the refutation on
    # record.  See the variance_area_toward_zero check for the regime in
    # which the inequality does hold.
    path = paths.cyclic_path((1.0, 3.0), (Tag.GIBBS, Tag.GIBBS), ctx)
    var = paths.stage2_work_distribution(path).variance
    excess = var - (2.0 / ctx.beta) * paths.area_between(path).total
    return excess > 0.1, f"counterexample_excess={excess:.6f}"


def _check_w2_concentration(ctx, cases, rng):
    worst = math.inf
    for _ in range(cases):
        path = paths.random_cyclic_path(rng, ctx, with_swaps=rng.random() < 0.5)
        dist = paths.stage2_work_distribution(path)
        delta_f_2 = paths.decompose_stages(path).delta_f_2
        for eps in (0.05, 0.5, 2.0, 8.0):
            measured = engine.prob_work_at_most(dist, -delta_f_2 + eps)
            bound = bounds.lemma_w2_probability(eps, ctx)
            worst = min(worst, measured - bound)
    return worst >= -1e-12, f"min_slack={worst:.3e}"


def _check_hoeffding(ctx, cases, rng):
    worst = -math.inf
    for n in range(1, 201):
        for p in np.arange(0.05, 0.46, 0.05):
            excess = (bounds.exact_binomial_upper_tail(n, p)
                      - bounds.hoeffding_tail(n, p))
            worst = max(worst, excess)
    return worst <= 0.0, f"max_tail_excess={worst:.3e}"


def _check_appendix_utilities(ctx, cases, rng):
    worst = math.inf
    for _ in range(cases):
        k = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 1.0, size=k)
        probs = rng.uniform(0.0, 1.0, size=k)
        probs /= probs.sum()
        a = float(rng.uniform(0.01, 0.99))
        rm = bounds.reverse_markov_lower(float(values @ probs), a)
        worst = min(worst, float(probs[values > a].sum()) - rm.above)
        worst = min(worst, float(probs[values < a].sum()) - rm.below)
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        delta = float(rng.uniform(0.01, 2.0))
        exact = float(probs[values <= mean + delta].sum())
        worst = min(worst, exact - bounds.cantelli_lower(delta, var))
    ok = worst >= -1e-12
    # Swap-segment inequality grid (x <= sinh x form).
    for d1 in np.linspace(1e-3, 5.0, 100):
        q = thermo.gibbs_population(float(d1), ctx)
        for d2 in np.linspace(1e-3, 5.0, 100):
            lhs = 2.0 * q * (1.0 - q) * d1 * d2
            rhs = (2.0 / ctx.beta) * (0.5 - q) * d2
            ok = ok and lhs <= rhs + 1e-12
    return ok, f"min_slack={worst:.3e}"


def _check_bounds_vs_simulation(ctx, cases, rng):
    worst = math.inf
    raising = [(0.125, p) for p in np.linspace(0.27, 0.5, max(2, cases // 2))]
    lowering = [(p, 0.1) for p in np.linspace(0.3, 0.95, max(2, cases // 2))]
    for p_in, p_out in raising + lowering:
        p_in, p_out = float(p_in), float(p_out)
        if p_in < ctx.p_beta < p_out:
            bound = bounds.theorem_main_bound(p_in, p_out, ctx)
        else:
            bound = bounds.theorem_rev_bound(p_in, p_out, ctx)
        e_out = thermo.energy_of_population(p_out, ctx)
        proto = protocol.build_thermalize_once(e_out, 1.0, ctx)
        dist = engine.exact_work_distribution(proto, QubitState(p_in))
        measured = engine.prob_work_at_most(dist, -bound.work_threshold)
        worst = min(worst, measured - bound.probability_lower_bound)
    return worst >= 0.0, f"min_probability_slack={worst:.3e}"


_CHECKS = [
    ("gibbs_quadrature", _check_gibbs_quadrature),
    ("engine_equivalence", _check_engine_equivalence),
    ("stage_closure", _check_stage_closure),
    ("mean_area_identity", _check_mean_area),
    ("variance_area_toward_zero", _check_variance_area_toward_zero),
    ("variance_area_refutation", _check_variance_area_refutation),
    ("stage2_concentration", _check_w2_concentration),
    ("hoeffding_binomial", _check_hoeffding),
    ("appendix_utilities", _check_appendix_utilities),
    ("bounds_vs_simulation", _check_bounds_vs_simulation),
]


def run_checks(ctx: ThermalContext, cases: int, seed: int):
    """Run every check with `cases` randomized instances, check i on its
    own Philox stream keyed seed + 1000*i.  Returns (name, passed, margin)
    per check, in suite order."""
    results = []
    for i, (name, check) in enumerate(_CHECKS):
        rng = np.random.Generator(np.random.Philox(key=seed + 1000 * i))
        passed, margin = check(ctx, cases, rng)
        results.append((name, bool(passed), margin))
    return results
