"""Tests for the exact DP work engine, the exhaustive oracle, and the
Monte Carlo sampler."""

from __future__ import annotations

import collections
import gc
import itertools
import math
import pathlib
import sys
import threading
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseops import engine, paths
from coarseops.engine import (
    MERGE_TOL,
    ResourceError,
    WorkDistribution,
    _merge_atoms,
    brute_force_work_distribution,
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
    random_protocol,
)
from coarseops.thermo import QubitState, ThermalContext, gibbs_population

CTX = ThermalContext(beta=1.0, e0=math.log(3))
LN3 = math.log(3)


def _dp_occupation(proto, initial):
    """Reference: the mass of the DP's occupied column at the end, which
    final_state gives by the population recursion."""
    return float(np.sum(engine._run_dp(proto.steps, proto.energy_trajectory(),
                                       proto.ctx, initial.p_excited)[2]))


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


# The largest lambda below 1: a thermalization that does not forget the
# population, however little it remembers.
_NEARLY_ONE = 1.0 - 2.0**-53


def _renewal_corpus():
    """(ctx, steps) for final_state's start at the last full
    thermalization: staged protocols; random protocols with lambda as drawn
    (never 1) and with every lambda set to 1; PT(1) as the first and the
    last step and at zero gap beside swaps; and PT(1 - 2**-53)."""
    for e0 in (0.05, LN3, 3.0):
        ctx = ThermalContext(1.0, e0)
        for n in (1, 2, 3, 400):
            for p_in, p_out in ((ctx.p_beta, 0.3), (0.1, 0.45), (0.9, 0.05)):
                yield ctx, build_average_work_protocol(p_in, p_out, ctx,
                                                       n).steps
    for seed in range(200):
        steps = random_protocol(seed, 12, 2.0, CTX).steps
        yield CTX, steps
        yield CTX, [PT(1.0) if isinstance(s, PT) else s for s in steps]
    for steps in (
        [PT(1.0), LT(0.5), PT(0.3), LT(-0.5)],
        [PT(1.0), PT(0.4), BT(0.0), PT(0.6)],
        [LT(0.5), PT(0.3), LT(-0.5), PT(1.0)],
        [PT(0.4), PT(1.0)],
        [LT(-LN3), BT(0.3), PT(1.0), BT(0.6), LT(LN3)],
        [LT(-LN3), PT(1.0), BT(1.0), LT(LN3), PT(0.7)],
        [LT(-LN3), BT(1.0), PT(1.0), LT(LN3)],
        [LT(0.5), PT(0.3), LT(-0.5), PT(0.6)],
        [LT(-LN3), BT(0.3), LT(LN3), PT(0.2)],
    ):
        yield CTX, steps
    ctx = ThermalContext(1.0, 3.0)
    yield ctx, [PT(_NEARLY_ONE)]
    yield ctx, [PT(1.0), LT(0.5), PT(_NEARLY_ONE), LT(-0.5)]
    yield ctx, [PT(_NEARLY_ONE), PT(0.5), BT(0.0), PT(_NEARLY_ONE)]


def test_final_state_starts_at_the_last_full_thermalization_with_the_bits():
    # At PT(1) the recursion gives 0*p + g, which is g for every finite p,
    # so the start at the last one gives the bits of the whole recursion.
    ctx = ThermalContext(1.0, 3.0)
    assert engine._final_population(
        [PT(_NEARLY_ONE)], [3.0], ctx, 1.0) != gibbs_population(3.0, ctx)
    for ctx, steps in _renewal_corpus():
        proto = Protocol(ctx, steps)
        for p in (0.0, -0.0, 0.3, 1.0):
            assert repr(final_state(proto, QubitState(p)).p_excited) == repr(
                engine._final_population(
                    proto.steps, proto.energy_trajectory(), ctx, p))


def test_final_state_runs_the_recursion_after_the_last_full_thermalization(
        monkeypatch):
    recursions, weights = [], [0]
    recursion, gibbs = engine._final_population, engine.gibbs_population

    def spy_recursion(steps, gaps, ctx, p):
        recursions.append((tuple(steps), list(gaps), p))
        return recursion(steps, gaps, ctx, p)

    def spy_gibbs(e, ctx):
        weights[0] += 1
        return gibbs(e, ctx)

    monkeypatch.setattr(engine, "_final_population", spy_recursion)
    monkeypatch.setattr(engine, "gibbs_population", spy_gibbs)
    for ctx, steps in _renewal_corpus():
        proto = Protocol(ctx, steps)
        gaps = proto.energy_trajectory()
        full = [j for j, s in enumerate(proto.steps)
                if isinstance(s, PT) and s.lam == 1.0]
        start = full[-1] + 1 if full else 0
        recursions.clear()
        weights[0] = 0
        final_state(proto, QubitState(0.3))
        p = gibbs(gaps[start - 1], ctx) if full else 0.3
        assert recursions == [(proto.steps[start:], gaps[start:], p)]
        assert weights[0] == bool(full) + sum(
            isinstance(s, PT) for s in proto.steps[start:])
    # A staged solve reads one Gibbs weight, whatever its number of rounds.
    proto = build_average_work_protocol(0.1, 0.3, CTX, 400)
    weights[0] = 0
    final_state(proto, QubitState(0.1))
    assert weights[0] == 1


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
    assert prob_work_at_most(point, -0.1, CTX) == 0.0
    assert prob_work_at_most(point, math.inf, CTX) == 1.0
    two = exact_work_distribution(
        build_thermalize_once(0.0, 1.0, CTX), QubitState(0.0)
    )
    assert prob_work_at_most(two, -1.0, CTX) == pytest.approx(0.5)
    # Threshold numerically on an atom counts it.
    assert prob_work_at_most(two, -LN3, CTX) == pytest.approx(0.5)


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


def test_brute_force_refuses_before_the_frontier_passes_atom_cap(monkeypatch):
    # 2 * 3**k live branches after k splits: the 12th split would pass the
    # budget, so the frontier stops at 2 * 3**11 = 354,294 branches.
    proto = Protocol(CTX, [PT(0.5)] * 13)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="ATOM_CAP"):
            brute_force_work_distribution(proto, QubitState(0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One budget's frontier: a bool and two floats per branch.
    assert peak < 2 * engine.ATOM_CAP * 17
    # The live branches times the nonzero children must fit, exactly.
    monkeypatch.setattr("coarseops.engine.ATOM_CAP", 2 * 3**5)
    proto = Protocol(CTX, [s for k in range(5) for s in (
        LT(math.sqrt(2 + k)), PT(0.5), LT(-math.sqrt(2 + k)))])
    initial = QubitState(0.5)
    assert total_variation(brute_force_work_distribution(proto, initial),
                           exact_work_distribution(proto, initial),
                           CTX) <= 1e-12
    # The refusal states the budget only: monte_carlo is no substitute for
    # an oracle.
    with pytest.raises(ResourceError, match=r"^oracle frontier of 1458 "
                       r"exceeds ATOM_CAP = 486$"):
        brute_force_work_distribution(Protocol(CTX, [PT(0.5)] * 6),
                                      QubitState(0.5))


def _recursive_oracle(proto, i, occupied, prob, work, leaves):
    """The depth-first branch recursion the frontier oracle replaced, kept
    as its reference: same arithmetic, leaves appended in visiting order."""
    if prob == 0.0:
        return
    if i == len(proto.steps):
        leaves.append((work, prob))
        return
    step = proto.steps[i]
    if isinstance(step, LT):
        w = work - step.delta_e if occupied else work
        _recursive_oracle(proto, i + 1, occupied, prob, w, leaves)
    elif isinstance(step, PT):
        g = gibbs_population(proto.energy_trajectory()[i], proto.ctx)
        _recursive_oracle(proto, i + 1, occupied, prob * (1.0 - step.lam), work, leaves)
        _recursive_oracle(proto, i + 1, True, prob * step.lam * g, work, leaves)
        _recursive_oracle(proto, i + 1, False, prob * step.lam * (1.0 - g), work, leaves)
    else:
        _recursive_oracle(proto, i + 1, occupied, prob * (1.0 - step.gamma), work, leaves)
        _recursive_oracle(proto, i + 1, not occupied, prob * step.gamma, work, leaves)


def test_brute_force_frontier_equals_recursion_bit_for_bit():
    for seed in range(60):
        proto = random_protocol(seed, 8, 2.0, CTX)
        p0 = (seed % 11) / 10
        leaves = []
        _recursive_oracle(proto, 0, True, p0, 0.0, leaves)
        _recursive_oracle(proto, 0, False, 1.0 - p0, 0.0, leaves)
        reference = WorkDistribution.from_atoms(
            [w for w, _ in leaves], [p for _, p in leaves], CTX)
        assert brute_force_work_distribution(proto, QubitState(p0)) == reference


@pytest.mark.parametrize("steps, p_in, leaves", [
    # Swaps that never flip, from either pure state: one live branch.
    ([BT(0.0), LT(1.0), BT(0.0), LT(-1.0)] * 3, 1.0, 1),
    ([BT(0.0), LT(1.0), BT(0.0), LT(-1.0)] * 3, 0.0, 1),
    # Full thermalizations: the unchanged child has zero weight, so each
    # live branch has two children (2 * 3**4 leaves unpruned), and a swap
    # that never flips has one.
    ([PT(1.0), LT(0.7)] * 4, 0.0, 16),
    ([PT(1.0), LT(-0.4), PT(1.0), LT(0.4), BT(0.0)] * 2, 1.0, 16),
    # Thirty branching steps with one live child each: the budget counts
    # branches, not steps.
    ([LT(-LN3)] + [BT(1.0)] * 30 + [LT(LN3)], 0.5, 2),
    ([LT(-LN3)] + [BT(1.0), LT(0.5), PT(0.0), LT(-0.5)] * 15 + [LT(LN3)],
     0.3, 2),
])
def test_brute_force_prunes_zero_probability_branches(monkeypatch, steps,
                                                      p_in, leaves):
    seen = []
    from_atoms = WorkDistribution.from_atoms

    def spy(values, probs, ctx):
        seen.append(len(values))
        return from_atoms(values, probs, ctx)

    monkeypatch.setattr(WorkDistribution, "from_atoms", staticmethod(spy))
    proto = Protocol(CTX, steps)
    initial = QubitState(p_in)
    bf = brute_force_work_distribution(proto, initial)
    assert seen == [leaves]
    assert total_variation(exact_work_distribution(proto, initial), bf,
                           CTX) <= 1e-12


def test_brute_force_leaves_no_reference_cycle():
    proto = random_protocol(5, 8, 2.0, CTX)
    gc.collect()
    gc.disable()
    try:
        brute_force_work_distribution(proto, QubitState(0.3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dp_matches_brute_force_on_random_protocols():
    for seed in range(200):
        proto = random_protocol(seed, 8, 2.0, CTX)
        initial = QubitState((seed % 11) / 10)
        dp = exact_work_distribution(proto, initial)
        bf = brute_force_work_distribution(proto, initial)
        assert total_variation(dp, bf, CTX) <= 1e-12, f"seed {seed}"
        assert dp.total == pytest.approx(1.0, abs=1e-12)


def test_dp_occupation_marginal_matches_final_state():
    for seed in range(50):
        proto = random_protocol(seed, 10, 2.0, CTX)
        initial = QubitState((seed % 7) / 6)
        assert _dp_occupation(proto, initial) == pytest.approx(
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


def test_variance_is_inf_when_a_squared_deviation_overflows():
    # (w - mean)**2 = 1e400 overflows a float: inf, not OverflowError.
    dist = WorkDistribution((-1e200, 1e200), (0.5, 0.5))
    assert dist.mean == 0.0
    assert dist.variance == math.inf


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
    merged, mass = _merge_atoms(values, MERGE_TOL,
                                np.array((1.0,) + probs[::-1]))
    assert len(merged) == 2
    assert group[0] <= merged[0] <= group[-1]
    assert merged[1] == 2.0
    assert mass[0] == pytest.approx(sum(probs), rel=1e-6)


def test_merge_atoms_sums_every_mass_column():
    values = np.array([1.0, 1.0 + MERGE_TOL / 2, 3.0])
    merged, a, b = _merge_atoms(
        values, MERGE_TOL, np.array([0.25, 0.0, 0.5]),
        np.array([0.0, 0.25, 0.0])
    )
    assert merged.tolist() == pytest.approx([1.0 + MERGE_TOL / 4, 3.0])
    assert a.tolist() == [0.25, 0.5]
    assert b.tolist() == [0.25, 0.0]


def test_atom_cap_refuses(monkeypatch):
    # Incommensurate shifts double the support each round.
    steps = []
    for k in range(14):
        steps.append(LT(math.sqrt(2 + k)))
        steps.append(PT(0.5))
        steps.append(LT(-math.sqrt(2 + k)))
    proto = Protocol(CTX, steps)
    monkeypatch.setattr("coarseops.engine.ATOM_CAP", 1000)
    with pytest.raises(ResourceError, match=r"^work support of 1015 "
                       r"exceeds ATOM_CAP = 1000$"):
        exact_work_distribution(proto, QubitState(0.5))


def _staged(p_in, rounds):
    """The staged protocol toward 0.3 and its start (thermal when p_in is
    None)."""
    start = CTX.p_beta if p_in is None else p_in
    return build_average_work_protocol(start, 0.3, CTX, rounds), start


def _count_merges(monkeypatch):
    """Record the support size of every _merge_atoms call."""
    calls = []
    merge = engine._merge_atoms

    def counted(*args):
        calls.append(len(args[0]))
        return merge(*args)

    monkeypatch.setattr(engine, "_merge_atoms", counted)
    return calls


def test_staged_law_is_merged_once(monkeypatch):
    # Within the shift-count lattice nothing is merged per shift: the only
    # merge is the final one in from_atoms.
    calls = _count_merges(monkeypatch)
    proto, start = _staged(0.1, 2000)
    dist = exact_work_distribution(proto, QubitState(start))
    assert len(calls) == 1
    assert len(dist.values) == 4548


def test_atom_cap_refuses_staged_protocol(monkeypatch):
    # A lattice larger than ATOM_CAP falls back to merging per shift, which
    # refuses once the support passes the cap (4,548 atoms here).
    monkeypatch.setattr("coarseops.engine.ATOM_CAP", 1000)
    proto, start = _staged(0.1, 2000)
    with pytest.raises(ResourceError):
        exact_work_distribution(proto, QubitState(start))


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p_in", [0.0, 1.0])
def test_shift_free_law_is_one_atom_without_merge(monkeypatch, lam, p_in):
    # Without a level shift the support never leaves the atom at 0: there
    # is nothing to sort or merge.
    calls = _count_merges(monkeypatch)
    proto = Protocol(CTX, [PT(lam)])
    dist = exact_work_distribution(proto, QubitState(p_in))
    assert (dist.values, dist.probabilities) == ((0.0,), (1.0,))
    assert calls == []
    assert _dp_occupation(proto, QubitState(p_in)) == final_state(
        proto, QubitState(p_in)).p_excited


def _float_law(dist):
    """The law's (values, probabilities), asserting each is a Python float:
    the laws are hashed by repr, and numpy 2 prints np.float64(1.0)."""
    assert all(type(x) is float
               for x in dist.values + dist.probabilities), repr(dist)
    return dist.values, dist.probabilities


def test_from_atoms_keeps_a_single_atom_of_positive_mass():
    empty = ((), ())
    cases = [
        (([], []), empty),
        (([2.5], [0.0]), empty),
        ((-1.5, 0.25), ((-1.5,), (0.25,))),
        ((-1.5, 0.0), empty),
        ((-0.0, 1.0), ((-0.0,), (1.0,))),
        ((np.float64(-1.5), np.float64(0.25)), ((-1.5,), (0.25,))),
        ((np.array([2.5]), np.array([0.25])), ((2.5,), (0.25,))),
        ((np.array([-0.0]), np.array([1.0])), ((-0.0,), (1.0,))),
        ((np.array([2.5]), np.array([0.0])), empty),
        ((np.zeros(0), np.zeros(0)), empty),
    ]
    for (values, probs), law in cases:
        dist = WorkDistribution.from_atoms(values, probs, CTX)
        # repr tells -0.0 from 0.0.
        assert repr(_float_law(dist)) == repr(law)


# Mixing steps before the first level shift, each followed by a random
# protocol with at least one shift: the columns start as one float atom and
# become arrays at the first shift.  Swaps run at zero boundary gap.
_ZERO_GAP = ThermalContext(1.0, 0.0)
_MIXING_PREFIXES = [
    (CTX, [PT(0.3)]),
    (CTX, [PT(1.0), PT(0.45)]),
    (_ZERO_GAP, [BT(0.35), PT(0.6)]),
    (_ZERO_GAP, [PT(0.2), BT(1.0), BT(0.5)]),
]


@pytest.mark.parametrize("p_in", [0.3, np.float64(0.3), 0, 1],
                         ids=["float", "float64", "int0", "int1"])
@pytest.mark.parametrize("ctx, steps", [
    (CTX, []),
    (CTX, [PT(0.3)]),
    (CTX, [PT(1.0), LT(0.0), PT(0.45)]),
    (_ZERO_GAP, [BT(0.35), PT(0.6)]),
], ids=["empty", "PT", "PT-LT0-PT", "BT-PT"])
def test_shift_free_law_holds_python_floats(ctx, steps, p_in):
    # A shift-free protocol's law is its one atom as plain floats, whatever
    # the number type of the start, with the bits of the array route.
    proto = Protocol(ctx, steps)
    dist = exact_work_distribution(proto, QubitState(p_in))
    works, unocc, occ = engine._run_dp(steps, proto.energy_trajectory(), ctx,
                                        p_in)
    arrays = WorkDistribution.from_atoms(np.atleast_1d(works),
                                         np.atleast_1d(unocc + occ), ctx)
    assert repr(_float_law(dist)) == repr(_float_law(arrays))
    assert dist.values == (0.0,)
    assert dist.probabilities == pytest.approx((1.0,), abs=1e-15)


_UNIT_E0 = ThermalContext(1.0, 1.0)


def _ln3_ctx(num):
    return ThermalContext(num(np.float64(1.0)), num(np.float64(LN3)))


# Each case builds its law twice, once from numpy scalars and once from
# the same parameters passed through float().  The float32 shifts sum to
# gaps exact in float32, so the law does not hang on numpy's promotion rule.
@pytest.mark.parametrize("solve", [
    lambda num: exact_work_distribution(
        build_thermalize_once(num(np.float64(0.5)), 1.0, CTX),
        QubitState(0.3)),
    lambda num: exact_work_distribution(
        build_average_work_protocol(0.1, 0.3, _ln3_ctx(num), 5),
        QubitState(0.1)),
    lambda num: exact_work_distribution(
        build_thermalize_once(0.5, 0.4, _ln3_ctx(num)), QubitState(0.7)),
    lambda num: exact_work_distribution(
        build_pure_excited_reset(_ln3_ctx(num)), QubitState(0.3)),
    lambda num: paths.path_work_distribution(
        paths.cyclic_path([num(g) for g in np.array([0.3, -0.7, 1.2])],
                          [paths.Tag.GIBBS] * 3, CTX),
        QubitState(0.3)),
    lambda num: exact_work_distribution(
        Protocol(_UNIT_E0, [LT(num(np.float32(0.5))), PT(0.3),
                            LT(num(np.float32(-0.25))), PT(1.0),
                            LT(num(np.float32(-0.25)))]),
        QubitState(0.3)),
], ids=["thermalize-once-shift", "staged-ctx", "thermalize-once-ctx",
        "reset-ctx", "cyclic-path-array", "float32-shifts"])
def test_exact_laws_take_numpy_scalars(solve):
    assert repr(solve(lambda x: x)) == repr(solve(float))


@pytest.mark.parametrize("fallback", [False, True])
def test_dp_matches_brute_force_after_mixing_prefix(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(engine, "_LATTICE_CELLS_PER_SHIFT", 0)
    cases = on_lattice = 0
    for k, (ctx, prefix) in enumerate(_MIXING_PREFIXES):
        for seed in range(25):
            steps = random_protocol(seed, 8, 2.0, ctx).steps
            if all(not isinstance(s, LT) or s.delta_e == 0.0 for s in steps):
                continue
            proto = Protocol(ctx, prefix + list(steps))
            on_lattice += engine._shift_lattice(proto.steps) is not None
            for p in (0.0, 0.37, 1.0):
                initial = QubitState(p)
                dp = exact_work_distribution(proto, initial)
                bf = brute_force_work_distribution(proto, initial)
                assert total_variation(dp, bf, ctx) <= 1e-12, (k, seed, p)
                assert _dp_occupation(proto, initial) == pytest.approx(
                    final_state(proto, initial).p_excited, abs=1e-14)
                cases += 1
    assert cases == 288
    assert on_lattice == (0 if fallback else 92)


def _work_moments(proto, p):
    """Mean and variance of the work by a scalar recursion over the steps:
    mass, E[W; X] and E[W^2; X] for each final occupation X."""
    # Index 0: unoccupied, 1: occupied; each entry is (mass, m1, m2).
    col = [[1.0 - p, 0.0, 0.0], [p, 0.0, 0.0]]
    energies = proto.energy_trajectory()
    for step, e in zip(proto.steps, energies):
        if isinstance(step, LT):
            d = step.delta_e
            mass, m1, m2 = col[1]
            col[1] = [mass, m1 - d * mass, m2 - 2.0 * d * m1 + d * d * mass]
        elif isinstance(step, PT):
            g, lam = gibbs_population(e, proto.ctx), step.lam
            total = [a + b for a, b in zip(*col)]
            col = [[(1 - lam) * a + lam * (1 - g) * t
                    for a, t in zip(col[0], total)],
                   [(1 - lam) * b + lam * g * t
                    for b, t in zip(col[1], total)]]
        else:
            gam = step.gamma
            col = [[(1 - gam) * a + gam * b for a, b in zip(*col)],
                   [(1 - gam) * b + gam * a for a, b in zip(*col)]]
    mean = col[0][1] + col[1][1]
    return mean, col[0][2] + col[1][2] - mean * mean


@pytest.mark.parametrize("p_in, rounds, atoms", [
    (0.1, 2000, 4548), (None, 3000, 3663),
])
def test_staged_law_matches_moment_recursion(p_in, rounds, atoms):
    proto, start = _staged(p_in, rounds)
    dist = exact_work_distribution(proto, QubitState(start))
    mean, variance = _work_moments(proto, start)
    assert len(dist.values) == atoms
    assert abs(dist.mean - mean) <= 1e-11
    assert abs(dist.variance - variance) <= 1e-11


def test_dp_matches_brute_force_on_long_random_protocols():
    # Every random protocol of up to 40 steps that the oracle can reach,
    # on both sides of the lattice/fallback rule.
    sides = set()
    cases = 0
    for seed in range(100):
        proto = random_protocol(seed, 40, 2.0, CTX)
        if sum(not isinstance(s, LT) for s in proto.steps) > 10:
            continue
        cases += 1
        sides.add(engine._shift_lattice(proto.steps) is None)
        initial = QubitState((seed % 11) / 10)
        dp = exact_work_distribution(proto, initial)
        bf = brute_force_work_distribution(proto, initial)
        assert total_variation(dp, bf, CTX) <= 1e-12, f"seed {seed}"
    assert cases == 44
    assert sides == {True, False}


def test_lattice_and_fallback_layouts_agree_to_rounding(monkeypatch):
    # The two layouts of the DP sum the same shifts in different orders,
    # so their laws agree to rounding, not bit for bit: on this corpus 16
    # of the 104 lattice protocols differ in the last bits of some atom.
    laws = []
    for seed in range(300):
        proto = random_protocol(seed, 40, 2.0, CTX)
        if engine._shift_lattice(proto.steps) is not None:
            laws.append((proto, QubitState((seed % 11) / 10)))
    assert len(laws) == 104
    lattice = [exact_work_distribution(*law) for law in laws]
    monkeypatch.setattr(engine, "_LATTICE_CELLS_PER_SHIFT", 0)
    for (proto, initial), dist in zip(laws, lattice):
        merged = exact_work_distribution(proto, initial)
        assert len(merged.values) == len(dist.values)
        assert total_variation(merged, dist, CTX) <= 1e-15


def _shift_lattice_by_reinsertion(steps):
    """Reference: _shift_lattice with each |delta_e|'s counts popped and
    re-inserted at every shift, so the axes end up in the order of each
    one's last shift."""
    deltas = [s.delta_e for s in steps
              if isinstance(s, LT) and s.delta_e != 0.0]
    if not deltas:
        return None
    limit = min(engine.ATOM_CAP,
                engine._LATTICE_CELLS_PER_SHIFT * (len(deltas) + 1))
    counts = {}
    for d in deltas:
        n = counts[abs(d)] = counts.pop(abs(d), [0, 0])
        n[d > 0] += 1
    axes, cells, origin = [], 1, 0
    for m, (neg, pos) in counts.items():
        axes.append((m, cells, neg + pos + 1, neg))
        origin += neg * cells
        cells *= neg + pos + 1
        if cells > limit:
            return None
    return axes, cells, origin


@pytest.mark.parametrize("budget", ["default", "unlimited"])
def test_shift_lattice_orders_axes_by_their_last_shift(monkeypatch, budget):
    # The same axes in the same order as the reference, within the
    # lattice budget and with it lifted, so that every axis is compared.
    if budget == "unlimited":
        monkeypatch.setattr(engine, "ATOM_CAP", 2**200)
        monkeypatch.setattr(engine, "_LATTICE_CELLS_PER_SHIFT", 2**200)
    step_lists = [random_protocol(seed, 40, 2.0, CTX).steps
                  for seed in range(300)]
    for e0 in (0.05, LN3, 3.0):
        ctx = ThermalContext(beta=1.0, e0=e0)
        step_lists += [
            build_average_work_protocol(p_in, p_out, ctx, rounds).steps
            for p_in, p_out, rounds in ((ctx.p_beta, 0.3, 3000),
                                        (0.1, 0.45, 500), (0.9, 0.05, 1))]
    # Both signs of one |delta_e|, first, last and between other shifts,
    # with zero shifts, which count on no axis.
    step_lists += [
        [LT(0.5), LT(-0.5)],
        [LT(-0.5), PT(0.3), LT(0.5), LT(0.5)],
        [LT(0.25), LT(-0.5), LT(-0.25), LT(0.5), LT(0.25), LT(-0.25)],
        [LT(-0.0), LT(0.75), LT(0.0), LT(-0.25), LT(-0.75), LT(0.25)],
        [LT(0.1), LT(-0.2), LT(0.3), LT(-0.1), LT(0.2), LT(-0.3), LT(0.1)],
        [LT(0.0), PT(1.0)],
        [],
    ]
    shapes = set()
    for steps in step_lists:
        lattice = engine._shift_lattice(steps)
        reference = _shift_lattice_by_reinsertion(steps)
        assert repr(lattice) == repr(reference), steps
        shapes.add(None if lattice is None else len(lattice[0]))
    assert None in shapes and {1, 2, 3} <= shapes


def _commensurate_corpus():
    """200 protocols of 5-24 rounds, each a shift to a gap on the grid
    0.1 * k, k in [-20, 20], and a thermalization; the shifts, differences
    of grid points, are commensurate but not equal as floats."""
    ctx = ThermalContext(1.0, 1.0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        e, steps = ctx.e0, []
        for _ in range(int(rng.integers(5, 25))):
            gap = round(int(rng.integers(-20, 21)) / 10, 1)
            steps += [LT(gap - e), PT(float(rng.random()))]
            e = gap
        steps.append(LT(ctx.e0 - e))
        yield Protocol(ctx, steps)


def test_merge_fallback_merges_commensurate_shifts(monkeypatch):
    # Most of these protocols have too many distinct |delta_e| for the
    # lattice.  The fallback merges their sums by value after each shift,
    # so the support stays below 1,000 atoms (423 at most); keyed by the
    # shift counts of each distinct |delta_e|, it would not.
    corpus = list(_commensurate_corpus())
    initial = QubitState(0.3)
    assert sum(engine._shift_lattice(p.steps) is None for p in corpus) == 169
    small = [p for p in corpus if sum(isinstance(s, PT) for s in p.steps) <= 10]
    assert len(small) == 46
    for proto in small:
        dp = exact_work_distribution(proto, initial)
        bf = brute_force_work_distribution(proto, initial)
        assert total_variation(dp, bf, proto.ctx) <= 1e-12
    monkeypatch.setattr(engine, "ATOM_CAP", 1000)
    for proto in corpus:
        exact_work_distribution(proto, initial)


# Shifts of 1e308 whose sum of two overflows.  The thermalization at gap
# 1e308 empties the excited level, so only branches without occupied mass
# take the later shifts; no engine may form their work (a numpy overflow
# warning is an error under this suite's filterwarnings).
_EMPTIED_BEFORE_OVERFLOW = Protocol(ThermalContext(1.0, 0.0), [
    LT(1e308), PT(1.0), LT(-1e308), LT(1e308), LT(-1e308)])


_SOLVERS = {
    "dp": exact_work_distribution,
    "oracle": brute_force_work_distribution,
    "monte_carlo": lambda proto, initial: monte_carlo(
        proto, initial, 1000, 0).distribution,
}


@pytest.mark.parametrize("solver, fallback", [
    ("dp", False), ("dp", True), ("oracle", False), ("monte_carlo", False),
])
def test_engines_form_work_only_where_there_is_mass(monkeypatch, solver,
                                                     fallback):
    if fallback:
        monkeypatch.setattr(engine, "_LATTICE_CELLS_PER_SHIFT", 0)
    dist = _SOLVERS[solver](_EMPTIED_BEFORE_OVERFLOW, QubitState(0.5))
    assert dist.values == (-1e308, 0.0)
    assert math.fsum(dist.probabilities) == pytest.approx(1.0)


def _per_axis_works(axes, cell):
    """The lattice cells' works formed with each axis's count taken as
    cell // stride % size, the reference for engine._lattice_works."""
    works = np.zeros(len(cell))
    for m, stride, size, neg in axes:
        works -= (cell // stride % size - neg) * m
    return works


def _lattice_solves():
    """(kind, steps, gaps, ctx, p) of solves for the shift-count lattice:
    staged protocols at three values of beta*e0, random 12-step protocols
    and stage-II paths, with and without swaps."""
    for e0 in (0.05, LN3, 3.0):
        ctx = ThermalContext(1.0, e0)
        for p_in, p_out, rounds in ((ctx.p_beta, 0.3, 200), (0.1, 0.45, 50),
                                    (0.9, 0.05, 30)):
            proto = build_average_work_protocol(p_in, p_out, ctx, rounds)
            yield "staged", proto.steps, proto.energy_trajectory(), ctx, p_in
    for seed in range(300):
        proto = random_protocol(seed, 12, 2.0, CTX)
        yield ("random", proto.steps, proto.energy_trajectory(), CTX,
               (seed % 11) / 10)
    rng = np.random.Generator(np.random.Philox(key=0))
    for i in range(200):
        d = paths.decompose_stages(
            paths.random_cyclic_path(rng, CTX, with_swaps=i % 2 == 1))
        yield ("path", *paths._path_steps(d.stage2), CTX,
               gibbs_population(d.e_a, CTX))


def test_lattice_works_keep_the_bits_of_per_axis_counts(monkeypatch):
    # _run_dp's works against the per-axis formula on the cells it kept,
    # byte for byte, so the sign of a zero counts too.  The inputs reach
    # windows that start past cell 0 and negative counts, and summing the
    # axes in reverse order would change some work's bits.
    kept = []
    form = engine._lattice_works

    def spy(axes, cell):
        kept.append((axes, cell))
        return form(axes, cell)

    monkeypatch.setattr(engine, "_lattice_works", spy)
    seen = collections.Counter()
    for kind, steps, gaps, ctx, p in _lattice_solves():
        kept.clear()
        works, _, _ = engine._run_dp(steps, gaps, ctx, p)
        if not kept:
            assert engine._shift_lattice(steps) is None
            continue
        (axes, cell), = kept
        assert works.tobytes() == _per_axis_works(axes, cell).tobytes()
        seen[kind] += 1
        seen[kind, "off origin"] += bool(cell[0] > 0)
        seen[kind, "negative"] += any((cell // stride % size < neg).any()
                                      for _, stride, size, neg in axes)
        seen[kind, "reordered"] += (
            _per_axis_works(axes[::-1], cell).tobytes() != works.tobytes())
    # Every staged solve and path takes the lattice, and 261 of the 300
    # random protocols.
    assert [seen[kind] for kind in ("staged", "random", "path")] == [
        9, 261, 200]
    assert all(seen[kind, what] > 0 for kind in ("staged", "random", "path")
               for what in ("off origin", "negative", "reordered"))


class _NotOne(float):
    """A lambda of 1.0 that compares unequal to everything, so the DP takes
    its general thermalization arm; it counts the comparisons it answers."""

    compared = 0

    def __eq__(self, other):
        _NotOne.compared += 1
        return False

    __hash__ = float.__hash__


def _general_arm(steps):
    return [PT(_NotOne(1.0)) if isinstance(s, PT) and s.lam == 1.0 else s
            for s in steps]


_STARTS = (0.0, -0.0, 1.0, 0.3)


def _assert_full_thermalization_arm_keeps_bits(steps, ctx=CTX,
                                               starts=_STARTS):
    fast, general = Protocol(ctx, steps), Protocol(ctx, _general_arm(steps))
    for p in starts:
        before = _NotOne.compared
        arrays = engine._run_dp(fast.steps, fast.energy_trajectory(), ctx, p)
        forced = engine._run_dp(general.steps, general.energy_trajectory(),
                                ctx, p)
        assert _NotOne.compared > before
        assert [np.asarray(a).tobytes() for a in arrays] == [
            np.asarray(a).tobytes() for a in forced]
        initial = QubitState(p)
        assert (exact_work_distribution(fast, initial)
                == exact_work_distribution(general, initial))
        assert (_dp_occupation(fast, initial)
                == _dp_occupation(general, initial))


def _pairs_per_run(monkeypatch, steps):
    """The number of (shift, full thermalization) pairs of each run that
    _run_dp takes on one column (engine._thermalization_run)."""
    pairs, run = [], engine._thermalization_run

    def spy(steps, gaps, i, *rest):
        out = run(steps, gaps, i, *rest)
        pairs.append((out[0] - i) // 2)
        return out

    proto = Protocol(CTX, steps)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_thermalization_run", spy)
        engine._run_dp(proto.steps, proto.energy_trajectory(), CTX, 0.3)
    return pairs


@pytest.mark.parametrize("rounds", [200, 2000])
def test_full_thermalization_arm_keeps_bits_on_staged_protocols(monkeypatch,
                                                                rounds):
    # Stage II's first PT(1) opens the one run; every later round is one
    # pair of it, and it stops at stage III's shift.
    proto = build_average_work_protocol(0.1, 0.3, CTX, rounds)
    assert _pairs_per_run(monkeypatch, proto.steps) == [rounds - 1]
    _assert_full_thermalization_arm_keeps_bits(proto.steps)


def test_full_thermalization_arm_keeps_bits_on_random_protocols():
    # Every lambda set to 1, on both layouts: the lattice, where each PT(1)
    # opens a run (also before the first shift), and the merge fallback,
    # which mixes at every lambda.
    layouts = set()
    for seed in range(300):
        steps = [PT(1.0) if isinstance(s, PT) else s
                 for s in random_protocol(seed, 40, 2.0, CTX).steps]
        if any(isinstance(s, PT) for s in steps):
            layouts.add(engine._shift_lattice(steps) is None)
            _assert_full_thermalization_arm_keeps_bits(
                steps, starts=[_STARTS[seed % len(_STARTS)]])
    assert layouts == {True, False}


def test_full_thermalization_arm_keeps_bits_where_g_is_subnormal():
    # Gaps 705.25 ... 750: the Gibbs population falls from 5.2e-307 through
    # the subnormals to 0.
    steps = [LT(705.0 - CTX.e0)] + [LT(0.25), PT(1.0)] * 180 + [
        LT(CTX.e0 - 750.0)]
    assert 0.0 < gibbs_population(720.0, CTX) < np.finfo(float).tiny
    assert gibbs_population(750.0, CTX) == 0.0
    _assert_full_thermalization_arm_keeps_bits(steps)


def test_full_thermalization_arm_keeps_bits_on_stage2_path_laws(monkeypatch):
    # Every Gibbs tag of a path is PT(1).
    rng = np.random.Generator(np.random.Philox(key=17))
    path_list = [paths.random_cyclic_path(rng, CTX, with_swaps=i % 2 == 1)
                 for i in range(500)]
    fast = [paths.stage2_work_distribution(path) for path in path_list]
    monkeypatch.setitem(paths._TAG_STEPS, paths.Tag.GIBBS, PT(_NotOne(1.0)))
    before = _NotOne.compared
    assert fast == [paths.stage2_work_distribution(path) for path in path_list]
    assert _NotOne.compared > before


def _assert_thermalization_run_keeps_the_law(monkeypatch, steps, runs):
    # On the lattice, each PT(1) opens a run, which carries the (nonzero
    # shift, PT(1)) pairs after it on one column; anything else, a zero
    # shift included, or the end of the steps ends it.
    assert engine._shift_lattice(steps) is not None
    assert _pairs_per_run(monkeypatch, steps) == runs
    _assert_full_thermalization_arm_keeps_bits(steps)
    proto = Protocol(CTX, steps)
    for p in (0.0, 0.3, 1.0):
        initial = QubitState(p)
        dp = exact_work_distribution(proto, initial)
        assert total_variation(
            dp, brute_force_work_distribution(proto, initial), CTX) <= 1e-15
        assert _dp_occupation(proto, initial) == pytest.approx(
            final_state(proto, initial).p_excited, abs=1e-15)


# A lattice window of several cells at a gap where g != 1/2, then PT(1)
# and the steps that follow it; the suffix shifts back to the boundary.
_RUN_PREFIX = [LT(0.5), PT(0.3), LT(-0.25), PT(0.6)]
_RUN_SUFFIX = [LT(-0.5), PT(0.4), LT(0.25)]


@pytest.mark.parametrize("middle, runs", [
    ([PT(1.0), LT(0.25), PT(0.7), LT(-0.25)], [0]),
    ([PT(1.0), LT(-0.25), PT(0.7), LT(0.25)], [0]),
    ([PT(1.0), LT(0.0), PT(0.7)], [0]),
    ([LT(-0.25 - LN3), PT(1.0), BT(0.3), LT(0.25 + LN3)], [0]),
    ([PT(1.0), PT(0.5)], [0]),
    ([PT(1.0), PT(1.0)], [0, 0]),
    ([PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(0.7)], [1]),
    ([PT(1.0), LT(0.25), PT(1.0), LT(0.0), LT(-0.25), PT(1.0), LT(0.0),
      PT(1.0), PT(0.7)], [1, 0, 0]),
    ([LT(-0.25 - LN3), PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0),
      BT(0.3), LT(0.25 + LN3)], [2]),
    ([PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0), PT(0.5)], [2]),
], ids=["shift up", "shift down", "zero shift", "swap at zero gap",
        "PT(0.5)", "PT(1)", "run of one pair, then a lone shift",
        "runs cut by a zero shift", "run cut by a swap at zero gap",
        "run of mixed signs cut by PT(0.5)"])
def test_deferred_full_thermalization_split(monkeypatch, middle, runs):
    _assert_thermalization_run_keeps_the_law(
        monkeypatch, _RUN_PREFIX + middle + _RUN_SUFFIX, runs)


@pytest.mark.parametrize("steps, runs", [
    (_RUN_PREFIX + [PT(1.0)], [0]),
    ([PT(1.0), LT(0.5), PT(1.0), LT(-0.5)], [1]),
    (_RUN_PREFIX + [PT(1.0), LT(0.25), PT(1.0), LT(-0.5), PT(1.0)], [2]),
    # Axis 0.5 has stride 1 and axis 0.25 stride 3, so the run's first
    # shift moves the one-cell window past itself.
    ([PT(1.0), LT(0.25), PT(1.0), LT(0.5), PT(1.0), LT(-0.5), PT(1.0),
      LT(-0.25)], [3]),
    # Gaps 720 and 720.25, where the Gibbs population is subnormal.
    ([LT(720.0 - LN3), PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0),
      LT(LN3 - 720.0)], [2]),
], ids=["end", "before the first shift", "run to the last step",
        "run of mixed signs before the first shift, wider than the window",
        "run where g is subnormal"])
def test_deferred_full_thermalization_split_at_the_ends(monkeypatch, steps,
                                                        runs):
    _assert_thermalization_run_keeps_the_law(monkeypatch, steps, runs)


def test_mean_sums_the_products_in_atom_order():
    for seed in range(50):
        proto = random_protocol(seed, 12, 2.0, CTX)
        dist = exact_work_distribution(proto, QubitState((seed % 11) / 10))
        assert dist.mean == float(sum(
            w * p for w, p in zip(dist.values, dist.probabilities)))
    empty = WorkDistribution((), ())
    assert empty.mean == 0.0 and type(empty.mean) is float


def test_monte_carlo_single_sample():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    result = monte_carlo(proto, QubitState(0.0), 1, seed=5)
    assert len(result.distribution.values) == 1
    assert result.distribution.probabilities == (1.0,)


def test_monte_carlo_refuses_zero_samples():
    proto = build_thermalize_once(0.0, 1.0, CTX)
    with pytest.raises(ValueError, match=r"^n_samples must be >= 1, got 0$"):
        monte_carlo(proto, QubitState(0.0), 0, seed=5)


def test_readme_library_example_prints_the_atoms(capsys):
    # The README's library example is the one use of WorkDistribution.atoms.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    fence = "```python\n"
    start = text.index(fence, text.index("## Library")) + len(fence)
    exec(text[start:text.index("```", start)], {})
    atoms_line = capsys.readouterr().out.splitlines()[0]
    assert atoms_line == "{0.0: 0.5, 1.0986122886681098: 0.5}"


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
    p_hat = prob_work_at_most(result.distribution, -1.0, CTX)
    assert abs(p_hat - prob_work_at_most(exact, -1.0, CTX)) < 4 * sigma
    assert abs(result.distribution.mean - exact.mean) < 4 * result.mean_std_error


def test_monte_carlo_memory_is_per_step_not_per_protocol():
    # One chunk of the 200-round staged protocol: drawing per step keeps a
    # few chunk-length arrays alive at a time, far below holding every
    # uniform of the chunk at once (65,536 x 401 doubles, about 200 MB).
    proto = build_average_work_protocol(0.1, 0.3, CTX, 200)
    tracemalloc.start()
    try:
        monte_carlo(proto, QubitState(0.1), 65_536, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_monte_carlo_jarzynski_on_long_staged_protocol():
    # Thermal start, 200 rounds: 400 branching steps, far beyond the
    # brute-force oracle.  The sample mean of exp(beta W) must lie within
    # 6 standard errors of 1, the error taken from its sample variance.
    proto, start = _staged(None, 200)
    n = 131_072
    result = monte_carlo(proto, QubitState(start), n, seed=0)
    d = result.distribution
    tilt = np.exp(CTX.beta * np.array(d.values))
    p = np.array(d.probabilities)
    mean = float(p @ tilt)
    std_error = math.sqrt(float(p @ (tilt - mean) ** 2) * n / (n - 1) / n)
    assert abs(mean - 1.0) <= 6 * std_error, (mean, std_error)


def reference_monte_carlo(proto, initial, n_samples, seed):
    """The sampler as it stood when it drew Generator(Philox).random
    doubles and branched on float comparisons."""
    energies = proto.energy_trajectory()
    all_values = []
    all_counts = []
    occupied_total = 0
    base = np.random.Philox(key=seed)
    for chunk_index, start in enumerate(range(0, n_samples, engine._MC_CHUNK)):
        m = min(engine._MC_CHUNK, n_samples - start)
        rng = np.random.Generator(base.jumped(chunk_index))
        occupied = rng.random(m) < initial.p_excited
        work = np.zeros(m)
        for i, step in enumerate(proto.steps):
            if isinstance(step, LT):
                work -= np.where(occupied, step.delta_e, 0.0)
            elif isinstance(step, PT):
                lam = step.lam
                g = gibbs_population(energies[i], proto.ctx)
                u = rng.random(m)
                occupied = np.where(u < lam, u < lam * g, occupied)
            else:
                occupied ^= rng.random(m) < step.gamma
        occupied_total += int(occupied.sum())
        values, counts = np.unique(work, return_counts=True)
        all_values.append(values)
        all_counts.append(counts.astype(float))
    values = np.concatenate(all_values)
    probs = np.concatenate(all_counts) / n_samples
    dist = WorkDistribution.from_atoms(values, probs, proto.ctx)
    return engine.MonteCarloResult(dist, occupied_total / n_samples, n_samples)


def _mc_bits(result):
    """Every output bit of a sampler run: -0.0 and 0.0 differ here."""
    d = result.distribution
    return (np.array(d.values).tobytes(), np.array(d.probabilities).tobytes(),
            result.final_p_excited.hex())


def _assert_matches_reference(proto, initial, n_samples, seed):
    got = monte_carlo(proto, initial, n_samples, seed)
    want = reference_monte_carlo(proto, initial, n_samples, seed)
    assert _mc_bits(got) == _mc_bits(want), (n_samples, seed)
    assert got.n_samples == want.n_samples


@pytest.mark.parametrize("seed", [0, 7])
def test_monte_carlo_matches_reference_on_staged_protocol(seed):
    proto = build_average_work_protocol(0.1, 0.3, CTX, 200)
    _assert_matches_reference(proto, QubitState(0.1), 131_072, seed)


def test_monte_carlo_matches_reference_on_random_protocols():
    # Swaps, 0 < lambda < 1 and every p_in in {0, 0.1, ..., 1} occur.
    kinds = set()
    for seed in range(300):
        proto = random_protocol(seed, 20, 2.0, CTX)
        kinds |= {type(s) for s in proto.steps}
        kinds |= {"mixing" for s in proto.steps
                  if isinstance(s, PT) and 0.0 < s.lam < 1.0}
        _assert_matches_reference(proto, QubitState((seed % 11) / 10), 3000,
                                  seed)
    assert kinds == {LT, PT, BT, "mixing"}


def test_monte_carlo_matches_reference_with_a_one_sample_chunk():
    proto = build_average_work_protocol(0.1, 0.3, CTX, 5)
    _assert_matches_reference(proto, QubitState(0.1), engine._MC_CHUNK + 1, 3)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("p_in", [0.0, 0.3, 1.0])
def test_monte_carlo_matches_reference_at_extreme_weights(lam, gamma, p_in):
    # Gaps of -50 and +800 put the thermal population at 1.0 and 0.0, so
    # the threshold lam*g also takes both ends.
    steps = [LT(-LN3), BT(gamma), PT(lam)]
    for gap in (-50.0, 800.0, 0.7):
        steps += [LT(gap), PT(lam), LT(-gap), BT(gamma)]
    proto = Protocol(CTX, steps + [PT(lam), LT(LN3)])
    _assert_matches_reference(proto, QubitState(p_in), 4096, 1)


# Every step kind: shifts, full and partial thermalizations, swaps.
_ALL_KINDS = Protocol(CTX, [LT(-LN3), BT(0.3), PT(0.6), LT(0.5), PT(1.0),
                            BT(0.7), LT(-0.25), PT(0.2), LT(LN3 - 0.25)])


@pytest.mark.parametrize("n_samples", [131_072, 69_537, 200_003])
def test_monte_carlo_bits_do_not_depend_on_the_thread_count(monkeypatch,
                                                            n_samples):
    # 69,537 and 200,003 end in a chunk that is not a whole number of
    # Philox blocks (4,001 and 3,395 samples), which runs as one slice.
    # The slices may outnumber the CPUs, and threads switch as often as
    # the interpreter allows.
    want = _mc_bits(reference_monte_carlo(_ALL_KINDS, QubitState(0.3),
                                          n_samples, 5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3, 4):
            monkeypatch.setattr(engine, "_usable_cpus", lambda: threads)
            assert len(engine._slice_starts(engine._MC_CHUNK)) == threads + 1
            got = monte_carlo(_ALL_KINDS, QubitState(0.3), n_samples, 5)
            assert _mc_bits(got) == want, threads
    finally:
        sys.setswitchinterval(interval)


def test_monte_carlo_slices_share_one_chunk_of_memory(monkeypatch):
    # The slices of a chunk read and write views of its one work array, so
    # two slices hold between them what one slice holds alone.  A first
    # call outside the measurement leaves out one-time allocations.
    proto = build_average_work_protocol(0.1, 0.3, CTX, 200)
    monte_carlo(proto, QubitState(0.1), engine._MC_CHUNK, seed=0)
    peaks = {}
    for threads in (1, 2):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: threads)
        tracemalloc.start()
        try:
            monte_carlo(proto, QubitState(0.1), engine._MC_CHUNK, seed=0)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks


def test_monte_carlo_helpers_run_under_the_callers_error_state(monkeypatch):
    states = []
    sample_slice = engine._sample_slice

    def recording(*args):
        states.append(np.geterr())
        return sample_slice(*args)

    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(engine, "_sample_slice", recording)
    with np.errstate(over="raise", under="warn", invalid="ignore"):
        want = np.geterr()
        monte_carlo(_ALL_KINDS, QubitState(0.3), engine._MC_CHUNK, 1)
    assert states == [want] * 3


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_monte_carlo_joins_every_helper_when_a_slice_raises(monkeypatch,
                                                            failing):
    sample_slice = engine._sample_slice

    def failing_slice(*args):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (failing == "caller"):
            raise FloatingPointError(f"{failing} slice")
        return sample_slice(*args)

    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(engine, "_sample_slice", failing_slice)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"^{failing} slice$"):
        monte_carlo(_ALL_KINDS, QubitState(0.3), engine._MC_CHUNK, 1)
    assert threading.active_count() == before


def test_philox_uniform_is_the_top_53_bits_of_a_raw_word():
    # The sampler branches on raw words because numpy forms a Philox
    # uniform as (x >> 11) * 2**-53; if that conversion changes, the
    # stream of every seeded run changes with it, and this fails.
    for jumps in (0, 1, 5):
        words = np.random.Philox(key=9).jumped(jumps).random_raw(10_000)
        doubles = np.random.Generator(
            np.random.Philox(key=9).jumped(jumps)).random(10_000)
        assert ((words >> np.uint64(11)) * 2.0**-53).tobytes() == doubles.tobytes()


def test_word_threshold_agrees_with_the_float_comparison():
    rng = np.random.Generator(np.random.Philox(key=4))
    ks = rng.integers(0, 2**53, size=20, dtype=np.uint64).tolist()
    thresholds = [0.0, 5e-324, 1.0 - 2.0**-53, 1.0]
    for k in ks + [1, 2**52, 2**53 - 1]:
        thresholds += [k * 2.0**-53, math.nextafter(k * 2.0**-53, 2.0)]
    low = rng.integers(0, 2**11, size=64, dtype=np.uint64)
    for t in thresholds:
        # Words at, just below and just above the threshold's top 53 bits,
        # each with random low bits, plus the extremes of the word range.
        k = math.ceil(t * 2.0**53)
        tops = np.array([max(k - 1, 0), min(k, 2**53 - 1), min(k + 1, 2**53 - 1)],
                        dtype=np.uint64)
        words = np.concatenate([
            ((tops[:, None] << np.uint64(11)) | low).ravel(),
            np.array([0, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64, size=256, dtype=np.uint64, endpoint=False),
        ])
        u = (words >> np.uint64(11)) * 2.0**-53
        below = engine._uniform_below(words, engine._word_limit(t))
        assert (below == (u < t)).all(), t


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
            ctx,
        )
        reverse = exact_work_distribution(_reversed(proto), thermal)
        assert total_variation(tilted, reverse, ctx) <= 1e-12, seed


def test_jarzynski_on_long_staged_protocol():
    # 3000 rounds: far beyond the brute-force oracle's 20 branches.
    proto = build_average_work_protocol(CTX.p_beta, 0.3, CTX, 3000)
    dist = exact_work_distribution(proto, QubitState(CTX.p_beta))
    assert _jarzynski_residual(dist, CTX.beta) <= 1e-12


def _scaled(proto, ctx, c):
    """The protocol at inverse temperature c*beta with every energy over c."""
    return Protocol(ctx, [LT(s.delta_e / c) if isinstance(s, LT) else s
                          for s in proto.steps])


def _assert_same_law_of_beta_w(base, scaled, c, ctx):
    assert len(scaled.values) == len(base.values)
    assert np.allclose(np.array(scaled.values) * c, base.values,
                       rtol=0.0, atol=1e-12)
    assert np.allclose(scaled.probabilities, base.probabilities,
                       rtol=0.0, atol=1e-12)
    # The distribution function at every atom, each counted with its slack.
    assert np.allclose(
        [prob_work_at_most(scaled, w / c, ctx) for w in base.values],
        [prob_work_at_most(base, w, CTX) for w in base.values],
        rtol=0.0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), p_in=st.floats(0.0, 1.0),
       exponent=st.floats(-12.0, 12.0), fallback=st.booleans(),
       y=st.floats(-2.0, 2.0), z=st.floats(-2.0, 2.0))
def test_law_of_beta_w_does_not_depend_on_the_unit_of_energy(
        seed, p_in, exponent, fallback, y, z):
    # Scaling (beta, every energy) -> (c beta, E/c) leaves every beta*E, so
    # the law of beta*W, its atom count and the shrunk tags must not move:
    # every tolerance is in units of 1/beta.  The oracle and the sampler
    # (same seed) merge through from_atoms and are covered too.
    G, I, S = paths.Tag.GIBBS, paths.Tag.IDENTITY, paths.Tag.SWAP
    c = 10.0**exponent
    ctx = ThermalContext(c * CTX.beta, CTX.e0 / c)
    base = random_protocol(seed, 8, 2.0, CTX)
    scaled = _scaled(base, ctx, c)
    initial = QubitState(p_in)
    cells = 0 if fallback else engine._LATTICE_CELLS_PER_SHIFT
    with mock.patch.object(engine, "_LATTICE_CELLS_PER_SHIFT", cells):
        for solve in (exact_work_distribution, brute_force_work_distribution,
                      lambda p, s: monte_carlo(p, s, 2000, seed).distribution):
            _assert_same_law_of_beta_w(solve(base, initial),
                                       solve(scaled, initial), c, ctx)
        for path, twin in zip(paths.enumerate_paths(base),
                              paths.enumerate_paths(scaled), strict=True):
            short, short_twin = paths.shrink(path), paths.shrink(twin)
            assert short_twin.tags == short.tags
            _assert_same_law_of_beta_w(
                paths.path_work_distribution(short, initial),
                paths.path_work_distribution(short_twin, initial), c, ctx)
    # Two swaps around shifts that cancel up to rounding cancel at any c.
    for k, k_ctx in ((1.0, CTX), (c, ctx)):
        energies = [1.0 / k, 0.0, y / k, z / k, 0.0, -1.0 / k]
        path = paths.cyclic_path(energies, [G, S, I, I, S, G], k_ctx)
        assert paths.shrink(path).tags == (G, G)
