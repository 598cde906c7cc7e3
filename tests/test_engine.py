"""Tests for the exact DP work engine, the exhaustive oracle, and the
Monte Carlo sampler."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseops.engine import (
    MERGE_TOL,
    ResourceError,
    WorkDistribution,
    _merge_atoms,
    brute_force_work_distribution,
    dp_final_occupation,
    exact_work_distribution,
    final_state,
    monte_carlo,
    prob_work_at_most,
    total_variation,
)
from coarseops.protocol import (
    BistochasticTransformation as BT,
    LevelTransformation as LT,
    PartialThermalization as PT,
    Protocol,
    build_average_work_protocol,
    build_pure_excited_reset,
    build_thermalize_once,
    normalize,
    random_protocol,
)
from coarseops.thermo import QubitState, ThermalContext

CTX = ThermalContext(beta=1.0, e0=math.log(3))
LN3 = math.log(3)


def test_final_state_full_thermalization():
    proto = Protocol(CTX, [PT(1.0)])
    for p in (0.0, 0.3, 1.0):
        assert final_state(proto, QubitState(p)).p_excited == pytest.approx(
            0.25, rel=1e-15
        )


def test_final_state_swap():
    proto = Protocol(ThermalContext(1.0, 0.0), [BT(1.0)])
    assert final_state(proto, QubitState(0.0)).p_excited == 1.0
    assert final_state(proto, QubitState(1.0)).p_excited == 0.0


def test_final_state_partial_mixing():
    proto = build_thermalize_once(CTX.e0, 0.4, CTX)
    out = final_state(proto, QubitState(0.1))
    assert out.p_excited == pytest.approx(0.6 * 0.1 + 0.4 * 0.25, rel=1e-14)


def test_exact_empty_protocol():
    dist = exact_work_distribution(Protocol(CTX, []), QubitState(0.3))
    assert dist.values == (0.0,)
    assert dist.probabilities == (1.0,)


def test_exact_thermalize_once_at_zero():
    # Excited input: gains ln 3 lowering the occupied level, rethermalizes
    # at zero gap (occupation 1/2), and pays ln 3 back iff still occupied.
    proto = build_thermalize_once(0.0, 1.0, CTX)
    dist = exact_work_distribution(proto, QubitState(1.0))
    assert dist.values == pytest.approx((0.0, LN3), abs=1e-14)
    assert dist.probabilities == pytest.approx((0.5, 0.5))


def test_exact_thermalize_once_from_ground():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    dist = exact_work_distribution(proto, QubitState(0.0))
    assert dist.values == pytest.approx((-LN3, 0.0))
    assert dist.probabilities == pytest.approx((0.5, 0.5))


def test_exact_pure_excited_reset():
    proto = build_pure_excited_reset(CTX)
    dist = exact_work_distribution(proto, QubitState(1.0))
    assert dist.values == pytest.approx((LN3,))
    assert dist.probabilities == (1.0,)
    # From the ground state the swap populates the level before it is
    # raised, so the same protocol costs ln 3 instead.
    dist = exact_work_distribution(proto, QubitState(0.0))
    assert dist.values == pytest.approx((-LN3,))
    assert dist.probabilities == (1.0,)


def test_prob_work_at_most():
    point = exact_work_distribution(Protocol(CTX, []), QubitState(0.5))
    assert prob_work_at_most(point, -0.1) == 0.0
    assert prob_work_at_most(point, math.inf) == 1.0
    two = exact_work_distribution(
        build_thermalize_once(0.0, 1.0, CTX), QubitState(0.0)
    )
    assert prob_work_at_most(two, -1.0) == pytest.approx(0.5)
    # Threshold numerically on an atom counts it.
    assert prob_work_at_most(two, -LN3) == pytest.approx(0.5)


def test_brute_force_trivial_cases():
    assert brute_force_work_distribution(
        Protocol(CTX, []), QubitState(0.4)
    ).values == (0.0,)
    single_pt = brute_force_work_distribution(
        Protocol(CTX, [PT(0.7)]), QubitState(0.4)
    )
    assert single_pt.values == (0.0,)
    assert single_pt.probabilities == pytest.approx((1.0,))


def test_brute_force_branch_limit():
    proto = Protocol(CTX, [PT(0.5)] * 21)
    with pytest.raises(ResourceError):
        brute_force_work_distribution(proto, QubitState(0.5))


def test_dp_matches_brute_force_on_random_protocols():
    for seed in range(200):
        proto = random_protocol(seed, 8, 2.0, CTX)
        initial = QubitState((seed % 11) / 10)
        dp = exact_work_distribution(proto, initial)
        bf = brute_force_work_distribution(proto, initial)
        assert total_variation(dp, bf) <= 1e-12, f"seed {seed}"
        assert dp.total == pytest.approx(1.0, abs=1e-12)


def test_dp_occupation_marginal_matches_final_state():
    for seed in range(50):
        proto = random_protocol(seed, 10, 2.0, CTX)
        initial = QubitState((seed % 7) / 6)
        assert dp_final_occupation(proto, initial) == pytest.approx(
            final_state(proto, initial).p_excited, abs=1e-12
        )


def test_normalize_preserves_law_and_state():
    for seed in range(100):
        proto = random_protocol(seed, 8, 2.0, CTX)
        norm = normalize(proto)
        initial = QubitState(0.35)
        assert (
            total_variation(
                exact_work_distribution(proto, initial),
                exact_work_distribution(norm, initial),
            )
            <= 1e-12
        )
        assert final_state(norm, initial).p_excited == pytest.approx(
            final_state(proto, initial).p_excited, abs=1e-12
        )


def test_work_support_is_signed_subset_sums():
    for seed in range(30):
        proto = random_protocol(seed, 6, 2.0, CTX)
        increments = [
            s.delta_e for s in proto.steps if hasattr(s, "delta_e")
        ]
        dist = exact_work_distribution(proto, QubitState(0.4))
        sums = {
            -sum(chosen)
            for r in range(len(increments) + 1)
            for chosen in itertools.combinations(increments, r)
        }
        for w in dist.values:
            assert any(abs(w - s) < 1e-8 for s in sums), (seed, w)


def test_no_shift_means_no_work():
    proto = Protocol(CTX, [PT(0.3), PT(0.9)])
    dist = exact_work_distribution(proto, QubitState(0.2))
    assert dist.values == (0.0,)


def test_moments_consistency():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    dist = exact_work_distribution(proto, QubitState(0.0))
    assert dist.mean == pytest.approx(-LN3 / 2)
    assert dist.variance == pytest.approx(0.25 * LN3**2)


@pytest.mark.parametrize("p_in, rounds", [(0.1, 2000), (None, 3000)])
def test_staged_exact_law_is_sorted_and_normalized(p_in, rounds):
    # Long staged protocols carry atoms of near-denormal mass; merging them
    # must not move them out of order.
    start = CTX.p_beta if p_in is None else p_in
    proto = build_average_work_protocol(start, 0.3, CTX, rounds)
    dist = exact_work_distribution(proto, QubitState(start))
    values = np.array(dist.values)
    assert (np.diff(values) > 0).all()
    assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("group, probs", [
    # Collapsed toward 0 when the center was sum(p*v) / max(sum p, 1e-300).
    ((0.5, 0.5 + 4e-11, 0.5 + 8e-11), (1e-310, 2e-310, 3e-320)),
    # Rounding of denormal products puts the plain mean above the run.
    ((0.0, 5.748945026821453e-11), (1.64996681e-318, 4.66542778e-308)),
])
def test_merge_atoms_centers_denormal_group_inside_its_span(group, probs):
    values = np.array((2.0,) + group[::-1])
    merged, mass = _merge_atoms(values, np.array((1.0,) + probs[::-1]))
    assert len(merged) == 2
    assert group[0] <= merged[0] <= group[-1]
    assert merged[1] == 2.0
    assert mass[0] == pytest.approx(sum(probs), rel=1e-6)


def test_merge_atoms_sums_every_mass_column():
    values = np.array([1.0, 1.0 + MERGE_TOL / 2, 3.0])
    merged, a, b = _merge_atoms(
        values, np.array([0.25, 0.0, 0.5]), np.array([0.0, 0.25, 0.0])
    )
    assert merged.tolist() == pytest.approx([1.0 + MERGE_TOL / 4, 3.0])
    assert a.tolist() == [0.25, 0.5]
    assert b.tolist() == [0.25, 0.0]


def test_atom_cap_refuses():
    # Incommensurate shifts double the support each round.
    steps = []
    for k in range(14):
        steps.append(LT(math.sqrt(2 + k)))
        steps.append(PT(0.5))
        steps.append(LT(-math.sqrt(2 + k)))
    proto = Protocol(CTX, steps)
    with pytest.raises(ResourceError):
        exact_work_distribution(proto, QubitState(0.5), atom_cap=1000)


def test_monte_carlo_single_sample():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    result = monte_carlo(proto, QubitState(0.0), 1, seed=5)
    assert len(result.distribution.values) == 1
    assert result.distribution.probabilities == (1.0,)


def test_monte_carlo_deterministic_in_seed():
    proto = build_thermalize_once(0.0, 0.6, CTX)
    a = monte_carlo(proto, QubitState(0.3), 10_000, seed=7)
    b = monte_carlo(proto, QubitState(0.3), 10_000, seed=7)
    assert a.distribution == b.distribution
    assert a.final_p_excited == b.final_p_excited
    c = monte_carlo(proto, QubitState(0.3), 10_000, seed=8)
    assert c.distribution != a.distribution


def test_monte_carlo_matches_exact():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    exact = exact_work_distribution(proto, QubitState(1.0))
    n = 100_000
    result = monte_carlo(proto, QubitState(1.0), n, seed=11)
    sigma = math.sqrt(0.25 / n)
    p_hat = prob_work_at_most(result.distribution, -1.0)
    assert abs(p_hat - prob_work_at_most(exact, -1.0)) < 4 * sigma
    assert abs(result.distribution.mean - exact.mean) < 4 * result.mean_std_error


def test_csv_export():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    csv = exact_work_distribution(proto, QubitState(0.0)).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "work,probability"
    assert len(lines) == 3
    first_work = float(lines[1].split(",")[0])
    assert first_work == pytest.approx(-LN3, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), p_in=st.floats(0.0, 1.0))
def test_exact_law_invariants(seed, p_in):
    # Strictly ascending atoms, total mass 1, and every atom inside the
    # attainable range, from paying every raising shift to gaining every
    # lowering one.
    proto = random_protocol(seed, 20, 2.0, CTX)
    dist = exact_work_distribution(proto, QubitState(p_in))
    values = np.array(dist.values)
    shifts = [s.delta_e for s in proto.steps if isinstance(s, LT)]
    lowest = -sum(d for d in shifts if d > 0)
    highest = -sum(d for d in shifts if d < 0)
    assert (np.diff(values) > 0).all()
    assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert lowest - 1e-9 <= values[0] and values[-1] <= highest + 1e-9


def _jarzynski_residual(dist, beta):
    return abs(math.fsum(
        p * math.exp(beta * w) for w, p in zip(dist.values, dist.probabilities)
    ) - 1.0)


def _reversed(proto):
    """Time reverse: steps in reverse order, level shifts negated."""
    return Protocol(proto.ctx, [
        LT(-s.delta_e) if isinstance(s, LT) else s for s in reversed(proto.steps)
    ])


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_jarzynski_and_crooks_on_random_protocols(beta):
    # From the thermal state, E[exp(beta W)] = 1 and
    # P_F(W) exp(beta W) = P_R(-W) for every cyclic protocol.
    ctx = ThermalContext(beta, LN3)
    thermal = QubitState(ctx.p_beta)
    for seed in range(300):
        proto = random_protocol(seed, 8, 2.0, ctx)
        forward = exact_work_distribution(proto, thermal)
        assert _jarzynski_residual(forward, beta) <= 1e-12, seed
        tilted = WorkDistribution.from_atoms(
            [-w for w in forward.values],
            [p * math.exp(beta * w)
             for w, p in zip(forward.values, forward.probabilities)],
        )
        reverse = exact_work_distribution(_reversed(proto), thermal)
        assert total_variation(tilted, reverse) <= 1e-12, seed


def test_jarzynski_on_long_staged_protocol():
    # 3000 rounds: far beyond the brute-force oracle's 20 branches.
    proto = build_average_work_protocol(CTX.p_beta, 0.3, CTX, 3000)
    dist = exact_work_distribution(proto, QubitState(CTX.p_beta))
    assert _jarzynski_residual(dist, CTX.beta) <= 1e-12
