"""Command-line front end.

Subcommands: simulate a protocol's work distribution, emit the loss-bound
curve data (figure8), run the self-verification suite, classify a
transition, and evaluate the no-go bounds.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 verification
failure.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from coarseops.bounds import (
    cantelli_lower,
    exact_binomial_upper_tail,
    hoeffding_tail,
    lemma_w2_probability,
    reverse_markov_lower,
    theorem_main_bound,
    theorem_rev_bound,
)
from coarseops.characterize import classify_transition, synthesize_protocol
from coarseops.engine import (
    ResourceError,
    brute_force_work_distribution,
    exact_work_distribution,
    final_state,
    monte_carlo,
    prob_work_at_most,
    total_variation,
)
from coarseops.paths import (
    Path,
    Tag,
    area_between,
    decompose_stages,
    enumerate_paths,
    path_work_distribution,
    shrink,
)
from coarseops.protocol import (
    Protocol,
    build_average_work_protocol,
    build_thermalize_once,
    from_json,
    random_protocol,
    to_json,
    validate,
)
from coarseops.thermo import (
    QubitState,
    ThermalContext,
    energy_of_population,
    gibbs_integral,
    gibbs_population,
)

# The spec'd exit-code contract puts usage problems at 1.
click.exceptions.UsageError.exit_code = 1

EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _make_ctx(beta, e0, p_beta, default_p_beta=None):
    if e0 is not None and p_beta is not None:
        raise click.UsageError("--e0 and --p-beta are mutually exclusive")
    if beta <= 0:
        _fail(EXIT_VALIDATION, f"beta must be positive, got {beta}")
    if e0 is None:
        if p_beta is None:
            p_beta = default_p_beta
        if p_beta is None:
            raise click.UsageError("one of --e0 or --p-beta is required")
        if not 0.0 < p_beta <= 0.5:
            _fail(EXIT_VALIDATION, f"p_beta must lie in (0, 1/2], got {p_beta}")
        e0 = energy_of_population(p_beta, ThermalContext(beta, 0.0))
    if e0 < 0:
        _fail(EXIT_VALIDATION, f"e0 must be nonnegative, got {e0}")
    return ThermalContext(beta=beta, e0=e0)


def _write_output(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_ctx_options = [
    click.option("--beta", type=float, default=1.0, show_default=True,
                 help="Inverse temperature."),
    click.option("--e0", type=float, default=None,
                 help="Boundary energy gap (exclusive with --p-beta)."),
    click.option("--p-beta", type=float, default=None,
                 help="Thermal population at the boundary gap."),
]


def _with_ctx_options(fn):
    for opt in reversed(_ctx_options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Simulate and verify work fluctuations of coarse two-level protocols."""


@main.command()
@_with_ctx_options
@click.option("--protocol", "protocol_file", type=click.Path(), default=None,
              help="Protocol JSON file (overrides --beta/--e0/--p-beta).")
@click.option("--p-in", type=float, default=None,
              help="Initial excited population (default: thermal).")
@click.option("--p-out", type=float, default=None,
              help="Target population for the built staged protocol.")
@click.option("--stage2-steps", type=int, default=100, show_default=True,
              help="Thermalization rounds of the built staged protocol.")
@click.option("--samples", type=int, default=None,
              help="Use Monte Carlo with this many samples instead of exact DP.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def simulate(beta, e0, p_beta, protocol_file, p_in, p_out, stage2_steps,
             samples, seed, out, fmt):
    """Compute the work distribution and final state of a protocol."""
    if protocol_file is not None:
        try:
            with open(protocol_file) as fh:
                proto = from_json(fh.read())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            _fail(EXIT_VALIDATION, f"invalid protocol file: {exc}")
    else:
        if p_out is None:
            raise click.UsageError("provide --protocol or --p-out")
        ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
        start = ctx.p_beta if p_in is None else p_in
        try:
            proto = build_average_work_protocol(start, p_out, ctx, stage2_steps)
        except ValueError as exc:
            _fail(EXIT_VALIDATION, str(exc))
    report = validate(proto)
    if not report.ok:
        for v in report.violations:
            click.echo(f"validation: step {v.step_index}: {v.message}", err=True)
        sys.exit(EXIT_VALIDATION)
    if samples is not None and samples < 1:
        _fail(EXIT_VALIDATION, f"--samples must be >= 1, got {samples}")
    try:
        initial = QubitState(proto.ctx.p_beta if p_in is None else p_in)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    std_error = None
    if samples is not None:
        result = monte_carlo(proto, initial, samples, seed)
        dist, final_p = result.distribution, result.final_p_excited
        std_error = result.mean_std_error
    else:
        try:
            dist = exact_work_distribution(proto, initial)
        except ResourceError as exc:
            _fail(EXIT_VALIDATION, f"{exc}; rerun with --samples")
        final_p = final_state(proto, initial).p_excited
    if fmt == "csv":
        _write_output(dist.to_csv(), out)
        summary = (
            f"final_p_excited={_fmt(final_p)} mean={_fmt(dist.mean)} "
            f"variance={_fmt(dist.variance)} atoms={len(dist.values)}"
        )
        if std_error is not None:
            summary += f" mean_std_error={_fmt(std_error)}"
        click.echo(summary, err=True)
    else:
        doc = {
            "work": list(dist.values),
            "probability": list(dist.probabilities),
            "final_p_excited": final_p,
            "mean": dist.mean,
            "variance": dist.variance,
        }
        if std_error is not None:
            doc["mean_std_error"] = std_error
        _write_output(json.dumps(doc, indent=2) + "\n", out)


FIGURE8_P_INS = (1 / 16, 1 / 8, 3 / 16)


def figure8_rows(ctx: ThermalContext, points: int):
    """Bound curve data: grid over (p_beta, 1/2], threshold and the A6
    probability for the three reference input populations."""
    rows = []
    for k in range(1, points + 1):
        p_out = ctx.p_beta + k * (0.5 - ctx.p_beta) / points
        bounds = [theorem_main_bound(p, p_out, ctx) for p in FIGURE8_P_INS]
        rows.append((p_out, bounds[0].work_threshold,
                     *(b.probability_lower_bound for b in bounds)))
    return rows


@main.command()
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--e0", type=float, default=None)
@click.option("--p-beta", type=float, default=None)
@click.option("--points", type=int, default=2500, show_default=True,
              help="Grid points over (p_beta, 1/2].")
@click.option("--out", type=click.Path(), default=None)
def figure8(beta, e0, p_beta, points, out):
    """Emit the loss threshold and probability bound curves as CSV."""
    ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
    if points < 100:
        raise click.UsageError("--points must be at least 100")
    if ctx.p_beta >= 0.5 or max(FIGURE8_P_INS) >= ctx.p_beta:
        _fail(EXIT_VALIDATION,
              f"p_beta={ctx.p_beta} leaves no room for the reference inputs")
    lines = ["p_out,work_threshold,prob_pin_1_16,prob_pin_1_8,prob_pin_3_16"]
    for row in figure8_rows(ctx, points):
        lines.append(",".join(_fmt(x) for x in row))
    _write_output("\n".join(lines) + "\n", out)


@main.command()
@_with_ctx_options
@click.option("--p-in", type=float, required=True)
@click.option("--p-out", type=float, required=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write the witness protocol JSON here when achievable.")
def classify(beta, e0, p_beta, p_in, p_out, out):
    """Decide reachability of a population transition."""
    ctx = _make_ctx(beta, e0, p_beta)
    try:
        verdict = classify_transition(p_in, p_out, ctx)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    click.echo(json.dumps(verdict.to_json_dict(), indent=2))
    if out and verdict.verdict != "forbidden":
        proto = synthesize_protocol(verdict, p_in, p_out, ctx)
        with open(out, "w") as fh:
            fh.write(to_json(proto) + "\n")


@main.command("bounds")
@_with_ctx_options
@click.option("--p-in", type=float, required=True)
@click.option("--p-out", type=float, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def bounds_cmd(beta, e0, p_beta, p_in, p_out, fmt, out):
    """Evaluate the no-go bound for a forbidden transition."""
    ctx = _make_ctx(beta, e0, p_beta)
    try:
        verdict = classify_transition(p_in, p_out, ctx)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if verdict.verdict != "forbidden":
        _fail(EXIT_VALIDATION,
              f"transition is achievable ({verdict.verdict}); no bound applies")
    b = verdict.bound
    if fmt == "json":
        _write_output(json.dumps(b.to_json_dict(), indent=2) + "\n", out)
    else:
        lines = [
            "threshold,probability,p1,p2,p3,pf,regime",
            ",".join(
                [_fmt(b.work_threshold), _fmt(b.probability_lower_bound),
                 _fmt(b.p_1), _fmt(b.p_2), _fmt(b.p_3), _fmt(b.p_f), b.regime]
            ),
        ]
        _write_output("\n".join(lines) + "\n", out)


# --------------------------------------------------------------------------
# Verification suite


def _simpson(f, a: float, b: float, n: int = 2000) -> float:
    x = np.linspace(a, b, n + 1)
    y = np.array([f(float(v)) for v in x])
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def _random_cyclic_path(rng, ctx: ThermalContext, with_swaps: bool) -> Path:
    energies = [float(rng.uniform(-2.0, 2.0))]
    tags = [Tag.GIBBS]
    for _ in range(int(rng.integers(1, 6))):
        if with_swaps and rng.random() < 0.5:
            energies.append(0.0)
            tags.append(Tag.SWAP)
        else:
            energies.append(float(rng.uniform(-2.0, 2.0)))
            tags.append(Tag.GIBBS)
    energies.append(float(rng.uniform(-2.0, 2.0)))
    tags.append(Tag.GIBBS)
    increments = [energies[0] - ctx.e0]
    increments += [b - a for a, b in zip(energies, energies[1:])]
    increments.append(ctx.e0 - energies[-1])
    return Path(tuple(increments), tuple(tags), 1.0, ctx, ctx.e0)


def _check_gibbs_quadrature(ctx, cases, rng):
    worst = 0.0
    for _ in range(cases):
        a, b = rng.uniform(-4.0, 4.0, size=2)
        numeric = _simpson(lambda e: gibbs_population(e, ctx), float(a), float(b))
        worst = max(worst, abs(numeric - gibbs_integral(float(a), float(b), ctx)))
    return worst <= 1e-9, f"max_quadrature_error={worst:.3e}"


def _check_engine_equivalence(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        proto = random_protocol(seed, 8, 2.0, ctx)
        initial = QubitState(float(rng.uniform(0.0, 1.0)))
        tv = total_variation(
            exact_work_distribution(proto, initial),
            brute_force_work_distribution(proto, initial),
        )
        worst = max(worst, tv)
    return worst <= 1e-12, f"max_total_variation={worst:.3e}"


def _check_stage_closure(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        for path in enumerate_paths(random_protocol(seed, 6, 2.0, ctx)):
            d = decompose_stages(shrink(path))
            worst = max(worst, abs(d.delta_f_1 + d.delta_f_2 + d.delta_f_3))
    return worst <= 1e-10, f"max_closure_residual={worst:.3e}"


def _check_mean_area(ctx, cases, rng):
    worst = 0.0
    for _ in range(cases):
        path = _random_cyclic_path(rng, ctx, with_swaps=False)
        d = decompose_stages(path)
        q_a = gibbs_population(d.e_a, ctx)
        mean = path_work_distribution(d.stage2, QubitState(q_a)).mean
        area = area_between(path).total
        worst = max(worst, abs(mean - (-d.delta_f_2 - area)))
    return worst <= 1e-9, f"max_identity_residual={worst:.3e}"


def _check_variance_area_toward_zero(ctx, cases, rng):
    worst = -math.inf
    for _ in range(cases):
        e = float(rng.uniform(1.0, 3.0)) * (1 if rng.random() < 0.5 else -1)
        energies = [e]
        for _ in range(int(rng.integers(1, 6))):
            e = float(rng.uniform(0, abs(e))) * math.copysign(1.0, e)
            energies.append(e)
        increments = [energies[0] - ctx.e0]
        increments += [b - a for a, b in zip(energies, energies[1:])]
        increments.append(ctx.e0 - energies[-1])
        path = Path(tuple(increments), (Tag.GIBBS,) * len(energies), 1.0,
                    ctx, ctx.e0)
        d = decompose_stages(path)
        q_a = gibbs_population(d.e_a, ctx)
        var = path_work_distribution(d.stage2, QubitState(q_a)).variance
        excess = var - (2.0 / ctx.beta) * area_between(path).total
        worst = max(worst, excess)
    return worst <= 1e-9, f"max_variance_excess={worst:.3e}"


def _check_variance_area_refutation(ctx, cases, rng):
    # The claimed universal variance-area inequality is false: this check
    # passes when the pinned counterexample (one thermalized segment moved
    # away from zero gap) still violates it, keeping the refutation on
    # record.  See the variance_area_toward_zero check for the regime in
    # which the inequality does hold.
    path = Path((1.0 - ctx.e0, 2.0, ctx.e0 - 3.0), (Tag.GIBBS, Tag.GIBBS),
                1.0, ctx, ctx.e0)
    d = decompose_stages(path)
    q = gibbs_population(d.e_a, ctx)
    var = path_work_distribution(d.stage2, QubitState(q)).variance
    excess = var - (2.0 / ctx.beta) * area_between(path).total
    return excess > 0.1, f"counterexample_excess={excess:.6f}"


def _check_w2_concentration(ctx, cases, rng):
    worst = math.inf
    for _ in range(cases):
        path = _random_cyclic_path(rng, ctx, with_swaps=rng.random() < 0.5)
        d = decompose_stages(path)
        q_a = gibbs_population(d.e_a, ctx)
        dist = path_work_distribution(d.stage2, QubitState(q_a))
        for eps in (0.05, 0.5, 2.0, 8.0):
            measured = prob_work_at_most(dist, -d.delta_f_2 + eps)
            bound = lemma_w2_probability(eps, ctx)
            worst = min(worst, measured - bound)
    return worst >= -1e-12, f"min_slack={worst:.3e}"


def _check_hoeffding(ctx, cases, rng):
    worst = -math.inf
    for n in range(1, 201):
        for p in np.arange(0.05, 0.46, 0.05):
            worst = max(worst,
                        exact_binomial_upper_tail(n, p) - hoeffding_tail(n, p))
    return worst <= 0.0, f"max_tail_excess={worst:.3e}"


def _check_appendix_utilities(ctx, cases, rng):
    worst = math.inf
    for _ in range(cases):
        k = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 1.0, size=k)
        probs = rng.uniform(0.0, 1.0, size=k)
        probs /= probs.sum()
        a = float(rng.uniform(0.01, 0.99))
        rm = reverse_markov_lower(float(values @ probs), a)
        worst = min(worst, float(probs[values > a].sum()) - rm.above)
        worst = min(worst, float(probs[values < a].sum()) - rm.below)
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        delta = float(rng.uniform(0.01, 2.0))
        exact = float(probs[values <= mean + delta].sum())
        worst = min(worst, exact - cantelli_lower(delta, var))
    ok = worst >= -1e-12
    # Swap-segment inequality grid (x <= sinh x form).
    for d1 in np.linspace(1e-3, 5.0, 100):
        q = gibbs_population(float(d1), ctx)
        for d2 in np.linspace(1e-3, 5.0, 100):
            lhs = 2.0 * q * (1.0 - q) * d1 * d2
            rhs = (2.0 / ctx.beta) * (0.5 - q) * d2
            ok = ok and lhs <= rhs + 1e-12
    return ok, f"min_slack={worst:.3e}"


def _check_bounds_vs_simulation(ctx, cases, rng, broken=False):
    worst = math.inf
    raising = [(0.125, p) for p in np.linspace(0.27, 0.5, max(2, cases // 2))]
    lowering = [(p, 0.1) for p in np.linspace(0.3, 0.95, max(2, cases // 2))]
    for p_in, p_out in raising + lowering:
        p_in, p_out = float(p_in), float(p_out)
        if p_in < ctx.p_beta < p_out:
            bound = theorem_main_bound(p_in, p_out, ctx)
        else:
            bound = theorem_rev_bound(p_in, p_out, ctx)
        proto = build_thermalize_once(energy_of_population(p_out, ctx), 1.0, ctx)
        dist = exact_work_distribution(proto, QubitState(p_in))
        measured = prob_work_at_most(dist, -bound.work_threshold)
        claimed = bound.probability_lower_bound
        if broken:
            # Fault injection: overstate the claim to near-certainty.
            claimed = min(1.0, claimed + 0.99)
        worst = min(worst, measured - claimed)
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


@main.command()
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--e0", type=float, default=None)
@click.option("--p-beta", type=float, default=None)
@click.option("--cases", type=int, default=100, show_default=True,
              help="Randomized instances per property.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--inject-broken-bound", is_flag=True, hidden=True,
              help="Fault injection: overstate the bound probabilities.")
def verify(beta, e0, p_beta, cases, seed, fmt, inject_broken_bound):
    """Run the invariant suite and report pass/fail with margins."""
    ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
    if cases < 1:
        raise click.UsageError("--cases must be positive")
    results = []
    for i, (name, check) in enumerate(_CHECKS):
        rng = np.random.Generator(np.random.Philox(key=seed + 1000 * i))
        if inject_broken_bound and name == "bounds_vs_simulation":
            passed, margin = check(ctx, cases, rng, broken=True)
        else:
            passed, margin = check(ctx, cases, rng)
        results.append({"check": name, "passed": bool(passed), "margin": margin})
    ok = all(r["passed"] for r in results)
    if fmt == "json":
        click.echo(json.dumps({"ok": ok, "checks": results}, indent=2))
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            click.echo(f"{status} {r['check']} ({r['margin']})")
    sys.exit(0 if ok else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
