"""Acceptance suite: one test per acceptance criterion, named so that
`pytest -v` prints one pass/fail line for each.

Criterion 4 (the universal variance-area inequality) is expected to fail:
the claimed inequality is refuted by the exact engine on paths whose
segments move away from zero gap.  The failure message reports the
violation statistics and the minimal counterexample.  See
tests/test_paths.py for the regime in which the inequality does hold.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from coarseops.bounds import (
    cantelli_lower,
    exact_binomial_upper_tail,
    hoeffding_tail,
    lemma_simplecase_bound,
    reverse_markov_lower,
    theorem_main_bound,
    theorem_rev_bound,
)
from coarseops.characterize import classify_transition, synthesize_protocol
from coarseops.cli import figure8_rows
from coarseops.engine import (
    brute_force_work_distribution,
    exact_work_distribution,
    final_state,
    monte_carlo,
    prob_work_at_most,
    total_variation,
)
from coarseops.paths import (
    Tag,
    area_between,
    decompose_stages,
    enumerate_paths,
    epsilon_iii,
    random_cyclic_path,
    shrink,
    stage2_work_distribution,
)
from coarseops.protocol import (
    build_average_work_protocol,
    build_thermalize_once,
    random_protocol,
)
from coarseops.thermo import (
    QubitState,
    ThermalContext,
    energy_of_population,
    free_energy,
    gibbs_population,
)

CTX = ThermalContext(beta=1.0, e0=math.log(3))  # p_beta = 1/4


def random_shrunk_path(seed: int, with_swaps: bool):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return random_cyclic_path(rng, CTX, with_swaps)


def test_criterion_01_average_work_protocol_mean():
    # Exact DP mean of the staged quasi-static protocol matches the
    # free-energy difference of the endpoint states within 2e-3 at
    # n_stage2 = 2000, and the discretization error shrinks when doubling n.
    for p_in, p_out in ((0.1, 0.3), (0.4, 0.26), (0.05, 0.45)):
        start = time.monotonic()
        target = free_energy(QubitState(p_in), CTX.e0, CTX) - free_energy(
            QubitState(p_out), CTX.e0, CTX
        )
        errors = {}
        for n in (2000, 4000):
            proto = build_average_work_protocol(p_in, p_out, CTX, n)
            dist = exact_work_distribution(proto, QubitState(p_in))
            errors[n] = abs(dist.mean - target)
        assert errors[2000] <= 2e-3, (p_in, p_out, errors)
        assert errors[4000] < errors[2000], (p_in, p_out, errors)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"case ({p_in}, {p_out}) took {elapsed:.1f}s"


def test_criterion_02_halfway_loss_probability():
    start = time.monotonic()
    p_in, p_out = 0.1, 0.3
    proto = build_average_work_protocol(p_in, p_out, CTX, 50)
    dist = exact_work_distribution(proto, QubitState(p_in))
    threshold, bound = lemma_simplecase_bound(p_in, p_out, CTX)
    measured = prob_work_at_most(dist, -threshold, CTX)
    assert bound == pytest.approx(2.31e-3, abs=1e-5)
    assert measured > bound, (measured, bound)
    assert time.monotonic() - start < 5.0


def test_criterion_03_hoeffding_binomial_tails():
    violations = 0
    for n in range(1, 201):
        for p in np.arange(0.05, 0.46, 0.05):
            if exact_binomial_upper_tail(n, float(p)) > hoeffding_tail(n, float(p)):
                violations += 1
    assert violations == 0


def test_criterion_04_variance_area_bound():
    # EXPECTED RED.  The claimed universal inequality Var W_II <= (2/beta) A
    # is false: segments moving away from zero gap violate it (see
    # tests/test_paths.py for the pinned counterexample and the provable
    # toward-zero regime).  This test states the criterion faithfully on the
    # seeded fair corpus and reports the measured violations.
    start = time.monotonic()
    swap_count = 0
    violations = []
    for seed in range(500):
        path = random_shrunk_path(seed, with_swaps=(seed % 3 == 0))
        if any(t is Tag.SWAP for t in path.tags):
            swap_count += 1
        var = stage2_work_distribution(path).variance
        excess = var - (2.0 / CTX.beta) * area_between(path).total
        if excess > 1e-9:
            violations.append((seed, excess))
    assert swap_count >= 100
    assert time.monotonic() - start < 30.0
    if violations:
        worst_seed, worst = max(violations, key=lambda v: v[1])
        pytest.fail(
            f"variance-area bound violated on {len(violations)}/500 corpus "
            f"paths (worst excess {worst:.6f} at seed {worst_seed}); minimal "
            f"counterexample: one stage-II segment thermalized at gap 1 and "
            f"shifted to gap 3 has Var W = 0.786 > (2/beta) A = 0.546. The "
            f"inequality as claimed is false; it holds only for segments "
            f"moving toward zero gap."
        )


def test_criterion_05_stage_identities():
    # Free-energy closure over stages on random cyclic protocols.
    worst = 0.0
    for seed in range(500):
        proto = random_protocol(seed, 6, 2.0, CTX)
        for path in enumerate_paths(proto):
            d = decompose_stages(shrink(path))
            worst = max(worst, abs(d.delta_f_1 + d.delta_f_2 + d.delta_f_3))
    assert worst <= 1e-10
    # Mean work of all-thermalize stage-II paths equals -dF_II - A.
    for seed in range(200):
        path = random_shrunk_path(seed, with_swaps=False)
        mean = stage2_work_distribution(path).mean
        identity = -decompose_stages(path).delta_f_2 - area_between(path).total
        assert mean == pytest.approx(identity, abs=1e-9), seed


def _realizing_protocols(p_out):
    """Two hand-built protocol families realizing the transition to p_out:
    a single full thermalization at the matching contact gap, and a staged
    walk ending there."""
    e_out = energy_of_population(p_out, CTX)
    return [
        build_thermalize_once(e_out, 1.0, CTX),
        build_average_work_protocol(CTX.p_beta, p_out, CTX, 4),
    ]


def test_criterion_06_raising_bound_verification():
    start = time.monotonic()
    p_in = 0.125
    ratios = []
    for p_out in np.linspace(0.27, 0.499, 10):
        p_out = float(p_out)
        bound = theorem_main_bound(p_in, p_out, CTX)
        for proto in _realizing_protocols(p_out):
            assert final_state(proto, QubitState(p_in)).p_excited == (
                pytest.approx(p_out, abs=1e-12)
            )
            dist = exact_work_distribution(proto, QubitState(p_in))
            measured = prob_work_at_most(dist, -bound.work_threshold, CTX)
            assert measured >= bound.probability_lower_bound, p_out
            ratios.append(measured / bound.probability_lower_bound)
    assert len(ratios) == 20
    assert time.monotonic() - start < 60.0
    print(
        f"criterion 6 measured/bound ratios: min {min(ratios):.3g}, "
        f"max {max(ratios):.3g}"
    )


def test_criterion_07_lowering_bound_verification():
    start = time.monotonic()
    ratios = []
    cases = [
        (p_in, p_out)
        for p_in in (0.3, 0.5, 0.7, 0.9, 0.99)
        for p_out in (0.02, 0.12)
    ]
    for p_in, p_out in cases:
        bound = theorem_rev_bound(p_in, p_out, CTX)
        for proto in _realizing_protocols(p_out):
            assert final_state(proto, QubitState(p_in)).p_excited == (
                pytest.approx(p_out, abs=1e-12)
            )
            dist = exact_work_distribution(proto, QubitState(p_in))
            measured = prob_work_at_most(dist, -bound.work_threshold, CTX)
            assert measured >= bound.probability_lower_bound, (p_in, p_out)
            ratios.append(measured / bound.probability_lower_bound)
    assert len(ratios) == 20
    assert time.monotonic() - start < 60.0
    print(
        f"criterion 7 measured/bound ratios: min {min(ratios):.3g}, "
        f"max {max(ratios):.3g}"
    )


def test_criterion_08_bound_curve_reproduction():
    rows = figure8_rows(CTX, 2500)
    assert len(rows) >= 100
    # Grid lands on p_out = 0.2501 and ends at exactly 1/2.
    assert rows[0][0] == pytest.approx(0.2501, abs=1e-15)
    assert rows[-1][0] == pytest.approx(0.5, abs=1e-15)
    # Vanishing near the thermal population: all probability columns tiny.
    assert all(p < 1e-6 for p in rows[0][2:])
    thresholds = [r[1] for r in rows]
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
    # Endpoint threshold, recomputed independently: the margin at level 3/8
    # is log(3/2), so the threshold is half of that.
    assert rows[-1][1] == pytest.approx(math.log(1.5) / 2, abs=1e-12)
    for r in rows:
        q_star = (r[0] + CTX.p_beta) / 2
        assert r[1] == pytest.approx(epsilon_iii(q_star, CTX) / 2, abs=1e-12)
        assert r[3] == pytest.approx(2 * r[2], rel=1e-12)
        assert r[4] == pytest.approx(3 * r[2], rel=1e-12)


def test_criterion_09_classifier_totality_and_soundness():
    grid = [i / 1000 for i in range(1, 1001)]
    p_beta = CTX.p_beta
    counts = {"mixing": 0, "pure_excited": 0, "forbidden": 0}
    for p_in in grid:
        for p_out in grid:
            c = classify_transition(p_in, p_out, CTX)
            counts[c.verdict] += 1
            in_interval = min(p_in, p_beta) <= p_out <= max(p_in, p_beta)
            if p_in == 1.0:
                assert c.verdict == "pure_excited"
            elif in_interval:
                assert c.verdict == "mixing", (p_in, p_out)
            else:
                assert c.verdict == "forbidden", (p_in, p_out)
                assert c.bound.probability_lower_bound > 0.0, (p_in, p_out)
                assert c.bound.work_threshold > 0.0
            if c.verdict != "forbidden":
                proto = synthesize_protocol(c, p_in, p_out, CTX)
                out = final_state(proto, QubitState(p_in)).p_excited
                assert out == pytest.approx(p_out, abs=1e-12), (p_in, p_out)
                dist = exact_work_distribution(proto, QubitState(p_in))
                assert all(w >= 0.0 for w in dist.values), (p_in, p_out)
    assert sum(counts.values()) == 1000 * 1000
    assert counts["pure_excited"] == 1000
    assert counts["mixing"] > 0 and counts["forbidden"] > 0


def _ks_statistic(a, b) -> float:
    candidates = sorted(set(a.values) | set(b.values))
    return max(
        abs(prob_work_at_most(a, x, CTX) - prob_work_at_most(b, x, CTX))
        for x in candidates
    )


def test_criterion_10_engine_oracle_equivalence():
    for seed in range(200):
        proto = random_protocol(seed, 8, 2.0, CTX)
        initial = QubitState((seed % 11) / 10)
        tv = total_variation(
            exact_work_distribution(proto, initial),
            brute_force_work_distribution(proto, initial),
            CTX,
        )
        assert tv <= 1e-12, seed
    # Monte Carlo vs exact DP: Kolmogorov-Smirnov at the 99.9% level on 20
    # seeds; at most one failure tolerated across the suite.
    proto = build_average_work_protocol(0.1, 0.3, CTX, 3)
    initial = QubitState(0.1)
    exact = exact_work_distribution(proto, initial)
    n = 100_000
    d_crit = math.sqrt(math.log(2 / 0.001) / (2 * n))
    failures = 0
    for seed in range(20):
        mc = monte_carlo(proto, initial, n, seed).distribution
        if _ks_statistic(mc, exact) > d_crit:
            failures += 1
    assert failures <= 1, failures


def test_monte_carlo_within_dkw_band_on_random_protocols():
    # Partial thermalizations (0 < lambda < 1) and swaps, which the staged
    # protocol above never draws.  Dvoretzky-Kiefer-Wolfowitz: the sup
    # distance of an n-sample empirical CDF exceeds eps with probability at
    # most 2 exp(-2 n eps^2), here alpha = 1e-6 per protocol.
    n = 20_000
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * n))
    for seed in range(60):
        proto = random_protocol(seed, 8, 2.0, CTX)
        initial = QubitState((seed % 11) / 10)
        exact = exact_work_distribution(proto, initial)
        mc = monte_carlo(proto, initial, n, seed).distribution
        ks = _ks_statistic(mc, exact)
        assert ks <= eps, (seed, ks / eps)


def test_criterion_11_probability_utilities():
    rng = np.random.default_rng(np.random.Philox(key=1111))
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        values = rng.uniform(0.0, 1.0, size=k)
        probs = rng.uniform(0.0, 1.0, size=k)
        probs /= probs.sum()
        a = float(rng.uniform(0.01, 0.99))
        rm = reverse_markov_lower(float(values @ probs), a)
        assert float(probs[values > a].sum()) >= rm.above - 1e-12
        assert float(probs[values < a].sum()) >= rm.below - 1e-12
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        values = rng.uniform(-5.0, 5.0, size=k)
        probs = rng.uniform(0.0, 1.0, size=k)
        probs /= probs.sum()
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        delta = float(rng.uniform(0.01, 5.0))
        exact = float(probs[values <= mean + delta].sum())
        assert exact >= cantelli_lower(delta, var) - 1e-12
    # Swap-segment inequality grid, equivalent to x <= sinh x.
    for d1 in np.linspace(1e-3, 5.0, 100):
        q = gibbs_population(float(d1), CTX)
        for d2 in np.linspace(1e-3, 5.0, 100):
            lhs = 2.0 * q * (1.0 - q) * d1 * d2
            rhs = (2.0 / CTX.beta) * (0.5 - q) * d2
            assert lhs <= rhs + 1e-12
