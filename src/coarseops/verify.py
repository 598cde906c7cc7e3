"""Self-verification suite behind `coarseops verify`.

Ten randomized checks of the engine, the path formalism and the no-go
bounds.  Each check takes (ctx, cases, rng) and returns (passed, margin),
where margin is a one-line "name=value" report of its worst case.  The
layers are called through their modules, so that a tracer patching module
attributes (perfbench/spans.py) still sees each call.

Every energy a check draws or pins is a multiple of 1/beta, and every
margin in units of energy is multiplied by beta before it is gated and
reported.  A margin in units of energy squared is formed from energies
already multiplied by beta (the variance of beta*W, the grid on beta*d),
so it neither overflows nor underflows at either end of the float range.
A check then tests the same populations at every beta and reports the
same figure, instead of passing on the frozen tail of the Gibbs curve at
large beta; at beta = 1 every scaling is an exact no-op.

The checks are independent, so `run_checks` runs them on every CPU the
process may use, in forked workers beside the calling process.  The
output does not depend on the number of CPUs, and a check that raises
raises as it would on one CPU.  A process with another Python thread
running forks nothing.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
import warnings

import numpy as np

from coarseops import bounds, engine, paths, protocol, thermo
from coarseops.paths import Tag
from coarseops.thermo import QubitState, ThermalContext

_TINY = float(np.finfo(float).tiny)
# The widest value the suite forms, in units of 1/beta: a random protocol's
# work, at most 7 shifts of 4/beta between levels in [-2, 2]/beta and 2 of
# 2/beta to and from the boundary gap (plus 2*e0, which the caller sets).
_WIDEST = 32.0
_MIN_BETA = _WIDEST / sys.float_info.max


def _simpson(f, a: float, b: float, *args) -> float:
    """Composite Simpson rule for f over [a, b] on n = 2000 intervals,
    calling f(nodes, *args) once on the array of n + 1 nodes."""
    n = 2000
    y = f(np.linspace(a, b, n + 1), *args)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def _variance_of_beta_w(dist: engine.WorkDistribution, beta: float) -> float:
    """Variance of beta*W: each work value is multiplied by beta before it
    is squared."""
    return engine.WorkDistribution(
        tuple(beta * w for w in dist.values), dist.probabilities
    ).variance


def _check_gibbs_quadrature(ctx, cases, rng):
    # The quadrature evaluates gibbs_population on whole node arrays, so the
    # scalar form is checked against the array form at each case's endpoints
    # and midpoint; the gap is relative, floored at the smallest normal.
    # Endpoints lie in [-4, 4]/beta, so the Gibbs curve spans the same share
    # of the Simpson grid at every beta; the integral is an energy.
    worst = gap = 0.0
    for _ in range(cases):
        a, b = rng.uniform(-4.0, 4.0, size=2) / ctx.beta
        a, b = float(a), float(b)
        numeric = _simpson(thermo.gibbs_population, a, b, ctx)
        worst = max(worst, abs(numeric - thermo.gibbs_integral(a, b, ctx)))
        points = (a, 0.5 * (a + b), b)
        vector = thermo.gibbs_population(np.array(points), ctx)
        for e, v in zip(points, vector.tolist()):
            s = thermo.gibbs_population(e, ctx)
            gap = max(gap, abs(s - v) / max(s, _TINY))
    worst *= ctx.beta
    return (worst <= 1e-9 and gap <= 1e-15,
            f"max_quadrature_error={worst:.3e} max_scalar_gap={gap:.3e}")


def _check_engine_equivalence(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        proto = protocol.random_protocol(seed, 8, 2.0 / ctx.beta, ctx)
        initial = QubitState(float(rng.uniform(0.0, 1.0)))
        dp = engine.exact_work_distribution(proto, initial)
        bf = engine.brute_force_work_distribution(proto, initial)
        worst = max(worst, engine.total_variation(dp, bf, ctx))
    return worst <= 1e-12, f"max_total_variation={worst:.3e}"


def _check_stage_closure(ctx, cases, rng):
    worst = 0.0
    for seed in range(cases):
        proto = protocol.random_protocol(seed, 6, 2.0 / ctx.beta, ctx)
        for path in paths.enumerate_paths(proto):
            d = paths.decompose_stages(paths.shrink(path))
            worst = max(worst, abs(d.delta_f_1 + d.delta_f_2 + d.delta_f_3))
    worst *= ctx.beta
    return worst <= 1e-10, f"max_closure_residual={worst:.3e}"


def _check_mean_area(ctx, cases, rng):
    worst = 0.0
    for _ in range(cases):
        path = paths.random_cyclic_path(rng, ctx, with_swaps=False)
        d = paths.decompose_stages(path)
        mean = d.stage2_work_distribution().mean
        identity = -d.delta_f_2 - paths.area_between(path).total
        worst = max(worst, abs(mean - identity))
    worst *= ctx.beta
    return worst <= 1e-9, f"max_identity_residual={worst:.3e}"


def _check_variance_area_toward_zero(ctx, cases, rng):
    beta = ctx.beta
    worst = -math.inf
    for _ in range(cases):
        e = float(rng.uniform(1.0, 3.0)) / beta
        e *= 1 if rng.random() < 0.5 else -1
        energies = [e]
        for _ in range(int(rng.integers(1, 6))):
            e = float(rng.uniform(0, abs(e))) * math.copysign(1.0, e)
            energies.append(e)
        path = paths.cyclic_path(energies, (Tag.GIBBS,) * len(energies), ctx)
        var = _variance_of_beta_w(paths.stage2_work_distribution(path), beta)
        excess = var - 2.0 * (beta * paths.area_between(path).total)
        worst = max(worst, excess)
    return worst <= 1e-9, f"max_variance_excess={worst:.3e}"


def _check_variance_area_refutation(ctx, cases, rng):
    # The claimed universal variance-area inequality is false: this check
    # passes when the pinned counterexample (one thermalized segment moved
    # away from zero gap) still violates it, keeping the refutation on
    # record.  See the variance_area_toward_zero check for the regime in
    # which the inequality does hold.  The segment runs from gap 1/beta to
    # 3/beta, so the excess scales as 1/beta^2 and is gated and reported in
    # units of 1/beta^2, the same figure at every beta.
    beta = ctx.beta
    path = paths.cyclic_path((1.0 / beta, 3.0 / beta), (Tag.GIBBS,) * 2, ctx)
    var = _variance_of_beta_w(paths.stage2_work_distribution(path), beta)
    excess = var - 2.0 * (beta * paths.area_between(path).total)
    return excess > 0.1, f"counterexample_excess={excess:.6f}"


def _check_w2_concentration(ctx, cases, rng):
    worst = math.inf
    for _ in range(cases):
        path = paths.random_cyclic_path(rng, ctx, with_swaps=rng.random() < 0.5)
        d = paths.decompose_stages(path)
        dist, delta_f_2 = d.stage2_work_distribution(), d.delta_f_2
        for eps in [e / ctx.beta for e in (0.05, 0.5, 2.0, 8.0)]:
            measured = engine.prob_work_at_most(dist, -delta_f_2 + eps, ctx)
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
    # Every case must pass, but a tie (bound 0 met by share 0, or bound 1 by
    # share 1) has zero slack however loose the bound is, so the reported
    # margin is over bounds strictly inside (0, 1).
    worst = tightest = math.inf
    for _ in range(cases):
        k = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 1.0, size=k)
        probs = rng.uniform(0.0, 1.0, size=k)
        probs /= probs.sum()
        a = float(rng.uniform(0.01, 0.99))
        mean = float(values @ probs)
        rm = bounds.reverse_markov_lower(mean, a)
        var = float(((values - mean) ** 2) @ probs)
        delta = float(rng.uniform(0.01, 2.0))
        for share, bound in (
            (float(probs[values > a].sum()), rm.above),
            (float(probs[values < a].sum()), rm.below),
            (float(probs[values <= mean + delta].sum()),
             bounds.cantelli_lower(delta, var)),
        ):
            worst = min(worst, share - bound)
            if 0.0 < bound < 1.0:
                tightest = min(tightest, share - bound)
    ok = worst >= -1e-12
    # Swap-segment inequality grid (x <= sinh x form), rows d1, columns d2,
    # at gaps in [1e-3, 5]/beta, built on beta*d; both sides are energies
    # squared times beta^2.
    bd = np.linspace(1e-3, 5.0, 100)
    q = thermo.gibbs_population(bd / ctx.beta, ctx)[:, None]
    lhs = 2.0 * q * (1.0 - q) * bd[:, None] * bd
    rhs = 2.0 * (0.5 - q) * bd
    ok = ok and bool((lhs <= rhs + 1e-12).all())
    grid = float((rhs - lhs).min())
    return ok, f"min_interior_slack={tightest:.3e} grid_min_slack={grid:.3e}"


def _check_bounds_vs_simulation(ctx, cases, rng):
    # Raising pairs run from p_beta/2 to levels in (p_beta, 1/2], lowering
    # pairs from levels in (p_beta, 1) to 2 p_beta/5, each through its own
    # theorem.  A pair is dropped unless both levels are positive and lie on
    # either side of p_beta (a level can round onto p_beta, and p_beta can be
    # 1/2 or underflow to 0), so an empty run reads inf.
    p_beta, n = ctx.p_beta, max(2, cases // 2)
    pairs = [(bounds.theorem_main_bound, p_beta / 2.0, p)
             for p in np.linspace(p_beta, 0.5, n + 1)[1:].tolist()]
    pairs += [(bounds.theorem_rev_bound, p, 2.0 * p_beta / 5.0)
              for p in np.linspace(p_beta, 1.0, n + 2)[1:-1].tolist()]
    worst = math.inf
    for theorem, p_in, p_out in pairs:
        if not 0.0 < min(p_in, p_out) < p_beta < max(p_in, p_out):
            continue
        bound = theorem(p_in, p_out, ctx)
        e_out = thermo.energy_of_population(p_out, ctx)
        proto = protocol.build_thermalize_once(e_out, 1.0, ctx)
        dist = engine.exact_work_distribution(proto, QubitState(p_in))
        measured = engine.prob_work_at_most(dist, -bound.work_threshold, ctx)
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


def _run_check(i: int, ctx: ThermalContext, cases: int, seed: int):
    """(name, passed, margin) of check i, on its Philox stream."""
    name, check = _CHECKS[i]
    rng = np.random.Generator(np.random.Philox(key=seed + 1000 * i))
    passed, margin = check(ctx, cases, rng)
    return name, bool(passed), margin


def _drain(queue: int, ctx: ThermalContext, cases: int, seed: int) -> dict:
    """Run the checks whose indices this process reads from the queue pipe,
    one byte per read, until the queue is empty or a check raises; returns
    {index: result} of the checks that returned.  A check that raised is
    left unreported, so that run_checks runs it again in suite order."""
    done = {}
    while index := os.read(queue, 1):
        try:
            done[index[0]] = _run_check(index[0], ctx, cases, seed)
        except Exception:
            break
    return done


def _fork_worker(queue: int, ctx: ThermalContext, cases: int, seed: int):
    """Fork a worker that drains the queue and writes its results, pickled,
    to a pipe of its own, then leaves by os._exit; returns its pid and the
    read end of that pipe."""
    reader, writer = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 and later warn about a fork in a process with
            # threads, counting native ones such as numpy's BLAS pool;
            # run_checks forks only when no other Python thread runs, the
            # worker starts no thread, and an error raised here would leave
            # it running.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            with open(writer, "wb") as pipe:
                pickle.dump(_drain(queue, ctx, cases, seed), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return pid, reader


def run_checks(ctx: ThermalContext, cases: int, seed: int):
    """Run every check with `cases` randomized instances, check i on its
    own Philox stream keyed seed + 1000*i.  Returns (name, passed, margin)
    per check, in suite order.  Raises ValueError, before any check runs,
    when a key would fall outside Philox's range [0, 2**128), or when beta
    is below _MIN_BETA (about 1.78e-307), where the suite's widest value,
    32/beta, overflows.

    The checks run on every CPU the process may use, at most one process
    per check: this process and forked workers take check indices from one
    pipe, filled in suite order.  A result is a function of (ctx, cases,
    seed, i) alone, so the output does not depend on the number of CPUs.
    After every worker is reaped, this process runs, in suite order, each
    check no worker reported (one that raised, or whose worker died or
    could not be forked), so an error is raised with the type and message
    of a run on one CPU.  An exception in this process, such as Ctrl-C,
    kills and reaps the workers before it propagates.  On one CPU, without
    os.fork, or while another Python thread runs (a forked child could wait
    forever on a lock that thread held), nothing is forked and this process
    runs every check."""
    top = 2**128 - 1 - 1000 * (len(_CHECKS) - 1)
    if not 0 <= seed <= top:
        raise ValueError(f"seed must lie in [0, {top}], got {seed}")
    if ctx.beta < _MIN_BETA:
        raise ValueError(f"verify needs beta >= {_MIN_BETA!r}, where "
                         f"{_WIDEST:g}/beta is finite, got beta = {ctx.beta!r}")
    forks = 0
    if hasattr(os, "fork") and threading.active_count() == 1:
        forks = min(engine._usable_cpus(), len(_CHECKS)) - 1
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(_CHECKS))))
    os.close(feed)
    readers, running = [], {}
    try:
        while len(readers) < forks:
            try:
                pid, reader = _fork_worker(queue, ctx, cases, seed)
            except OSError:
                break
            readers.append(reader)
            running[pid] = reader
        done = _drain(queue, ctx, cases, seed)
        for pid, reader in list(running.items()):
            with open(reader, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if status == 0:
                done.update(pickle.loads(payload))
    except BaseException:
        import signal  # not loaded by the CLI otherwise

        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in (queue, *readers):
            os.close(fd)
    return [done[i] if i in done else _run_check(i, ctx, cases, seed)
            for i in range(len(_CHECKS))]
