"""Command-line front end.

Subcommands: simulate a protocol's work distribution, emit the loss-bound
curve data (figure8), run the self-verification suite, classify a
transition, and evaluate the no-go bounds.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 verification
failure.  Every subcommand runs inside one boundary, `_Group.invoke`, the
only code that prints an `error:` line: a ValueError or ResourceError, from
the library or the CLI's own checks, or the FloatingPointError numpy raises
there on overflow or an invalid operation, prints one line and exits 2, so
no domain error reaches the user as a traceback, or as warnings and an
infinite work value.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from coarseops.bounds import theorem_main_bound
from coarseops.characterize import classify_transition, synthesize_protocol
from coarseops.engine import (
    ResourceError,
    exact_work_distribution,
    final_state,
    monte_carlo,
)
from coarseops.protocol import (
    build_average_work_protocol,
    from_json,
    to_json,
    validate,
)
from coarseops.thermo import QubitState, ThermalContext, energy_of_population
from coarseops.verify import run_checks

# The spec'd exit-code contract puts usage problems at 1.
click.exceptions.UsageError.exit_code = 1

EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3


def _make_ctx(beta, e0, p_beta, default_p_beta=None):
    if e0 is not None and p_beta is not None:
        raise click.UsageError("--e0 and --p-beta are mutually exclusive")
    if e0 is None:
        if p_beta is None:
            p_beta = default_p_beta
        if p_beta is None:
            raise click.UsageError("one of --e0 or --p-beta is required")
        if not 0.0 < p_beta <= 0.5:
            raise ValueError(f"p_beta must lie in (0, 1/2], got {p_beta}")
        e0 = energy_of_population(p_beta, ThermalContext(beta, 0.0))
    return ThermalContext(beta=beta, e0=e0)


def _write_output(text: str, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from None
    else:
        click.echo(text, nl=False)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _law_json(doc: dict) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a dict of floats and
    lists of floats.  json's encoder runs in Python whenever indent is set,
    so each nonempty list with a finite sum, whose floats are then all
    finite, is written here instead, as one join of float.__repr__, which
    json calls for a finite float; every other entry goes through json,
    Infinity and NaN included, and so does a finite list whose sum
    overflows, with the same bytes."""
    entries = []
    for key, value in doc.items():
        if isinstance(value, list) and value and math.isfinite(sum(value)):
            entries.append(f"  {json.dumps(key)}: [\n    "
                           + ",\n    ".join(map(float.__repr__, value))
                           + "\n  ]")
        else:
            entries.append(json.dumps({key: value}, indent=2)[2:-2])
    return "{\n" + ",\n".join(entries) + "\n}"


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


class _Group(click.Group):
    """The CLI's one domain-error boundary, around every subcommand."""

    def invoke(self, ctx):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return super().invoke(ctx)
        except (ValueError, ResourceError, FloatingPointError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)


@click.group(cls=_Group)
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
        except (OSError, ValueError) as exc:
            raise ValueError(f"invalid protocol file: {exc}") from None
    else:
        if p_out is None:
            raise click.UsageError("provide --protocol or --p-out")
        ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
        if p_in is None and ctx.p_beta == 0.0:
            raise ValueError(
                "the boundary thermal population underflows to 0 at "
                f"beta*e0 = {ctx.beta * ctx.e0:.6g}; give the start "
                "population with --p-in")
        start = ctx.p_beta if p_in is None else p_in
        proto = build_average_work_protocol(start, p_out, ctx, stage2_steps)
    report = validate(proto)
    if not report.ok:
        for v in report.violations:
            click.echo(f"validation: step {v.step_index}: {v.message}", err=True)
        sys.exit(EXIT_VALIDATION)
    if samples is not None and samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    initial = QubitState(proto.ctx.p_beta if p_in is None else p_in)
    std_error = None
    if samples is not None:
        result = monte_carlo(proto, initial, samples, seed)
        dist, final_p = result.distribution, result.final_p_excited
        std_error = result.mean_std_error
    else:
        try:
            dist = exact_work_distribution(proto, initial)
        except ResourceError as exc:
            raise ResourceError(f"{exc}; rerun with --samples") from None
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
        _write_output(_law_json(doc) + "\n", out)


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
@_with_ctx_options
@click.option("--points", type=int, default=2500, show_default=True,
              help="Grid points over (p_beta, 1/2].")
@click.option("--out", type=click.Path(), default=None)
def figure8(beta, e0, p_beta, points, out):
    """Emit the loss threshold and probability bound curves as CSV."""
    ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
    if points < 100:
        raise click.UsageError("--points must be at least 100")
    if ctx.p_beta >= 0.5 or max(FIGURE8_P_INS) >= ctx.p_beta:
        raise ValueError(
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
    verdict = classify_transition(p_in, p_out, ctx)
    click.echo(json.dumps(verdict.to_json_dict(), indent=2))
    if out and verdict.verdict != "forbidden":
        proto = synthesize_protocol(verdict, p_in, p_out, ctx)
        _write_output(to_json(proto) + "\n", out)


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
    verdict = classify_transition(p_in, p_out, ctx)
    if verdict.verdict != "forbidden":
        raise ValueError(
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


@main.command()
@_with_ctx_options
@click.option("--cases", type=int, default=100, show_default=True,
              help="Randomized instances per property.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def verify(beta, e0, p_beta, cases, seed, fmt):
    """Run the invariant suite and report pass/fail with margins."""
    ctx = _make_ctx(beta, e0, p_beta, default_p_beta=0.25)
    if cases < 1:
        raise click.UsageError("--cases must be positive")
    results = run_checks(ctx, cases, seed)
    ok = all(passed for _, passed, _ in results)
    if fmt == "json":
        checks = [{"check": name, "passed": passed, "margin": margin}
                  for name, passed, margin in results]
        click.echo(json.dumps({"ok": ok, "checks": checks}, indent=2))
    else:
        for name, passed, margin in results:
            click.echo(f"{'PASS' if passed else 'FAIL'} {name} ({margin})")
    sys.exit(0 if ok else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
