"""Tests for the closed-form loss bounds and the probability utilities,
each checked against an independent exact oracle where one exists."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from coarseops import bounds
from coarseops.bounds import (
    NoGoBound,
    cantelli_lower,
    exact_binomial_upper_tail,
    hoeffding_tail,
    lemma_path_bound,
    lemma_simplecase_bound,
    lemma_w2_probability,
    reverse_markov_lower,
    theorem_main_bound,
    theorem_rev_bound,
    theorem_same_side,
)
from coarseops.characterize import classify_transition
from coarseops.engine import (
    brute_force_work_distribution,
    exact_work_distribution,
    final_state,
    prob_work_at_most,
)
from coarseops.paths import (
    Path,
    Tag,
    epsilon_iii,
    epsilon_iii_tilde,
    path_work_distribution,
)
from coarseops.protocol import (
    BistochasticTransformation,
    LevelTransformation,
    Protocol,
    build_average_work_protocol,
    build_thermalize_once,
)
from coarseops.thermo import (
    QubitState,
    ThermalContext,
    energy_of_population,
    gibbs_integral,
)

CTX = ThermalContext(beta=1.0, e0=math.log(3))  # p_beta = 1/4

# Frozen oracles, evaluated independently at 40 digits.
SIMPLECASE_PROB_01_03 = 0.0023065096084009265
SIMPLECASE_THRESH_01_03 = 0.6749633584745079
LEMMA_PATH_PROB_EXAMPLE = 0.004983430958338627
EPS_III_5_16 = 0.22314355131420976
EPS_III_TILDE_3_16 = 0.4477674877988538
A6_PROB_EXAMPLE = 6.625009735341917e-05
A7_PROB_EXAMPLE = 0.0010766486067532711


def test_simplecase_example_values():
    thr, prob = lemma_simplecase_bound(0.1, 0.3, CTX)
    assert prob == pytest.approx(SIMPLECASE_PROB_01_03, rel=1e-14)
    assert prob == pytest.approx(0.03 * (1 - math.exp(-0.08)), rel=1e-15)
    assert thr == pytest.approx(SIMPLECASE_THRESH_01_03, rel=1e-14)
    assert thr == pytest.approx((math.log(9) - math.log(7 / 3)) / 2, rel=1e-14)


def test_simplecase_probability_vanishes_at_half():
    _, prob = lemma_simplecase_bound(0.1, 0.5 - 1e-9, CTX)
    assert 0.0 <= prob < 1e-9
    with pytest.raises(ValueError):
        lemma_simplecase_bound(0.1, 0.5, CTX)
    with pytest.raises(ValueError):
        lemma_simplecase_bound(0.0, 0.3, CTX)


def test_simplecase_lemma_is_false_for_one_round():
    # Kept on record, like verify's variance_area_refutation: stage I
    # raises the gap by ln 13 and the one stage-II shift gives back
    # ln(39/7) to a branch still occupied, so the worst loss is ln(7/3).
    p_in, p_out = 0.025, 0.125
    threshold, bound = lemma_simplecase_bound(p_in, p_out, CTX)
    assert threshold == pytest.approx(math.log(39 / 7) / 2, rel=1e-14)
    assert bound == pytest.approx(7.66e-4, rel=1e-3)
    dist = exact_work_distribution(
        build_average_work_protocol(p_in, p_out, CTX, 1), QubitState(p_in))
    assert dist.values[0] == pytest.approx(-math.log(7 / 3), rel=1e-12)
    assert prob_work_at_most(dist, -threshold, CTX) == 0.0


@pytest.mark.parametrize("beta_e0", [0.05, 0.5, math.log(3), 3.0],
                         ids=["0.05", "0.5", "ln3", "3"])
def test_simplecase_lemma_holds_from_two_rounds(beta_e0):
    # The lemma's domain: the staged protocol with n >= 2 rounds, on the
    # i/40 grid with p_in != p_out and p_out < 1/2.  The one-round protocol
    # fails the lemma on 77, 103, 79 and 2 of these cells.
    ctx = ThermalContext(beta=1.0, e0=beta_e0)
    for i in range(1, 40):
        for j in range(1, 20):
            if i == j:
                continue
            p_in, p_out = i / 40, j / 40
            threshold, bound = lemma_simplecase_bound(p_in, p_out, ctx)
            for n in (2, 3, 10):
                dist = exact_work_distribution(
                    build_average_work_protocol(p_in, p_out, ctx, n),
                    QubitState(p_in))
                measured = prob_work_at_most(dist, -threshold, ctx)
                assert measured >= bound, (p_in, p_out, n, measured, bound)


def test_hoeffding_examples():
    assert hoeffding_tail(1, 0.25) == pytest.approx(math.exp(-0.125), rel=1e-15)
    assert exact_binomial_upper_tail(1, 0.25) == pytest.approx(0.25)
    assert exact_binomial_upper_tail(100, 0.3) <= math.exp(-8.0)
    assert hoeffding_tail(5, 0.5 - 1e-12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hoeffding_tail(10, 0.5)
    with pytest.raises(ValueError):
        hoeffding_tail(0, 0.3)
    # NaN and a non-integer n fail the guards instead of returning NaN or
    # raising TypeError.
    for n in (math.nan, 2.5, math.inf):
        with pytest.raises(ValueError, match="^n must be >= 1, got "):
            hoeffding_tail(n, 0.2)
    for n, p, name in [(5, math.nan, "p"), (5, 1.5, "p"), (5, -0.1, "p"),
                       (-1, 0.3, "n"), (math.nan, 0.2, "n"), (2.5, 0.2, "n"),
                       (math.inf, 0.2, "n")]:
        with pytest.raises(ValueError, match=f"^{name} must "):
            exact_binomial_upper_tail(n, p)


def test_hoeffding_dominates_exact_binomial_on_grid():
    for n in range(1, 201):
        for p in np.arange(0.05, 0.46, 0.05):
            assert exact_binomial_upper_tail(n, p) <= hoeffding_tail(n, p)


def _comb_binomial_upper_tail(n, p):
    # Reference: integer binomial coefficients, exact up to n = 1029.
    return sum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(math.ceil(n / 2), n + 1)
    )


def test_exact_binomial_matches_integer_coefficients():
    for n in range(0, 201):
        for p in [0.0, 1.0, *np.arange(0.05, 0.96, 0.05)]:
            ref = _comb_binomial_upper_tail(n, float(p))
            assert exact_binomial_upper_tail(n, float(p)) == pytest.approx(
                ref, rel=1e-12
            )


def test_exact_binomial_large_n_is_finite_and_dominated():
    for n in (1030, 5000):
        for p in (0.05, 0.3, 0.45, 0.49):
            tail = exact_binomial_upper_tail(n, p)
            assert math.isfinite(tail)
            assert 0.0 <= tail <= hoeffding_tail(n, p)


def test_w2_probability_examples():
    assert lemma_w2_probability(4.0, CTX) == pytest.approx(0.5)
    assert lemma_w2_probability(1e9, CTX) == pytest.approx(2 / 3)
    assert lemma_w2_probability(1e-12, CTX) == pytest.approx(0.0, abs=1e-12)
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError, match="^epsilon2 must be positive"):
            lemma_w2_probability(eps, CTX)
    # Monotone increasing in epsilon.
    grid = [lemma_w2_probability(e, CTX) for e in np.linspace(0.01, 20, 50)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_w2_probability_is_the_same_where_4_over_beta_overflows():
    # Below beta of about 2.2e-308, 4/beta is inf; at the same beta*e0 the
    # bound, p_2 included, must read as it does at beta = 1.
    tiny = theorem_main_bound(0.1, 0.5, ThermalContext(1e-308, 1e306))
    unit = theorem_main_bound(0.1, 0.5, ThermalContext(1.0, 1e-2))
    assert unit.p_2 == 3.1357546647549253e-4
    assert tiny.p_2 == pytest.approx(unit.p_2, rel=1e-12, abs=0)
    assert tiny.probability_lower_bound == pytest.approx(
        unit.probability_lower_bound, rel=1e-12, abs=0)


def test_lemma_path_example():
    thr, prob = lemma_path_bound(0.125, 0.5, CTX)
    assert thr == pytest.approx(math.log(2) / 2, rel=1e-14)
    assert prob == pytest.approx(LEMMA_PATH_PROB_EXAMPLE, rel=1e-14)


def test_lemma_path_probability_cap_and_boundary():
    for q_out in (0.26, 0.3, 0.45, 0.5):
        for p_in in (0.01, 0.1, 0.2):
            _, prob = lemma_path_bound(p_in, q_out, CTX)
            assert prob <= p_in * q_out
    thr, prob = lemma_path_bound(0.1, 0.25 + 1e-9, CTX)
    assert 0.0 < thr < 1e-8
    assert 0.0 < prob < 1e-9


def test_lemma_path_domain_errors():
    for p_in, q_out in ((0.25, 0.4), (0.3, 0.4), (0.1, 0.25), (0.1, 0.51)):
        with pytest.raises(ValueError):
            lemma_path_bound(p_in, q_out, CTX)


def test_theorem_main_components():
    b = theorem_main_bound(0.125, 0.375, CTX)
    assert b.regime == "A6"
    assert b.work_threshold == pytest.approx(EPS_III_5_16 / 2, rel=1e-14)
    assert b.work_threshold == pytest.approx(epsilon_iii(5 / 16, CTX) / 2)
    assert b.p_1 == 0.125
    assert b.p_3 == pytest.approx(5 / 16)
    assert b.p_f == pytest.approx(1 / 16)
    assert b.p_2 == pytest.approx(
        min(2 / 3, EPS_III_5_16 / (8 + EPS_III_5_16)), rel=1e-14
    )
    assert b.probability_lower_bound == pytest.approx(
        b.p_1 * b.p_2 * b.p_3 * b.p_f, rel=1e-15
    )
    assert b.probability_lower_bound == pytest.approx(A6_PROB_EXAMPLE, rel=1e-13)


def test_theorem_main_linear_in_p_in():
    hi = theorem_main_bound(0.125, 0.375, CTX)
    lo = theorem_main_bound(0.0625, 0.375, CTX)
    assert hi.probability_lower_bound == pytest.approx(
        2 * lo.probability_lower_bound, rel=1e-14
    )
    assert hi.work_threshold == lo.work_threshold


def test_theorem_main_vacuous_at_pure_ground_input():
    b = theorem_main_bound(0.0, 0.375, CTX)
    assert b.p_1 == 0.0 and b.probability_lower_bound == 0.0
    assert b.work_threshold == theorem_main_bound(0.125, 0.375, CTX).work_threshold


def test_theorem_main_vanishes_toward_p_beta():
    b = theorem_main_bound(0.125, 0.25 + 1e-9, CTX)
    assert 0.0 < b.work_threshold < 1e-8
    assert 0.0 < b.probability_lower_bound < 1e-9


def test_theorem_main_domain_errors():
    for p_in, p_out in ((0.25, 0.375), (0.125, 0.25), (0.125, 0.51), (0.3, 0.4)):
        with pytest.raises(ValueError):
            theorem_main_bound(p_in, p_out, CTX)


def test_theorem_rev_example_factors():
    b = theorem_rev_bound(0.6, 0.125, CTX)
    assert b.regime == "A7"
    assert b.work_threshold == pytest.approx(EPS_III_TILDE_3_16 / 2, rel=1e-14)
    assert b.work_threshold == pytest.approx(epsilon_iii_tilde(3 / 16, CTX) / 2)
    assert b.p_1 == pytest.approx(0.4)
    assert b.p_3 == pytest.approx(13 / 16)
    assert b.p_f == pytest.approx(1 / 16)
    assert b.probability_lower_bound == pytest.approx(A7_PROB_EXAMPLE, rel=1e-13)
    assert b.probability_lower_bound > 0.0
    # Pure ground target is inside the domain.
    assert theorem_rev_bound(0.6, 0.0, CTX).probability_lower_bound > 0.0


def test_theorem_rev_domain_errors():
    for p_in, p_out in ((1.0, 0.125), (0.6, 0.25), (0.25, 0.125), (0.2, 0.1)):
        with pytest.raises(ValueError):
            theorem_rev_bound(p_in, p_out, CTX)


def test_theorem_same_side_above_branch():
    b = theorem_same_side(0.3, 0.4, CTX)
    assert b.regime == "A8"
    assert b.work_threshold == pytest.approx(epsilon_iii(0.35, CTX) / 2)
    assert b.work_threshold > 0.0
    assert b.probability_lower_bound > 0.0
    assert b.p_f == pytest.approx(0.05)


def test_theorem_same_side_below_branch():
    b = theorem_same_side(0.2, 0.1, CTX)
    assert b.regime == "A8"
    assert b.work_threshold == pytest.approx(epsilon_iii_tilde(0.15, CTX) / 2)
    assert b.work_threshold > 0.0
    assert b.probability_lower_bound > 0.0
    assert b.p_f == pytest.approx(0.05)
    assert theorem_same_side(0.2, 0.0, CTX).probability_lower_bound > 0.0


def test_theorem_same_side_domain_errors():
    for p_in, p_out in ((0.3, 0.3), (0.1, 0.3), (0.4, 0.1), (0.2, 0.24)):
        with pytest.raises(ValueError):
            theorem_same_side(p_in, p_out, CTX)


@pytest.mark.parametrize("p_in, p_out", [(0.5, 1.05), (0.9, 1.5)])
def test_theorem_same_side_refuses_populations_above_one(p_in, p_out):
    # Both once slipped past the domain check: the first returned a bound
    # with p_f = 0.275, the second failed inside the stage-III margin.
    with pytest.raises(ValueError, match=r"^need p_beta <= p_in < p_out <= 1 "):
        theorem_same_side(p_in, p_out, CTX)


def test_theorem_same_side_accepts_the_pure_excited_target():
    b = theorem_same_side(0.5, 1.0, CTX)
    assert b.regime == "A8" and b.p_f == 0.25 and b.probability_lower_bound > 0


# One bound per regime, as composed before the regimes shared one composer;
# the composer must keep every bit.
PINNED_REPRS = [
    (theorem_main_bound, (0.125, 0.375),
     "NoGoBound(work_threshold=0.11157177565710491, probability_lower_bound="
     "6.625009735341917e-05, p_1=0.125, p_2=0.027136039875960496, "
     "p_3=0.3125, p_f=0.0625, regime='A6')"),
    (theorem_rev_bound, (0.6, 0.125),
     "NoGoBound(work_threshold=0.22388374389942678, probability_lower_bound="
     "0.0010766486067532708, p_1=0.4, p_2=0.053004239101699484, "
     "p_3=0.8125, p_f=0.0625, regime='A7')"),
    (theorem_same_side, (0.3, 0.4),
     "NoGoBound(work_threshold=0.16823611831060648, probability_lower_bound="
     "0.00021189769390719227, p_1=0.3, p_2=0.04036146550613186, "
     "p_3=0.35, p_f=0.05000000000000002, regime='A8')"),
    (theorem_same_side, (0.2, 0.1),
     "NoGoBound(work_threshold=0.3805759548370012, probability_lower_bound="
     "0.0007384635375497967, p_1=0.2, p_2=0.08687806324115255, "
     "p_3=0.85, p_f=0.05, regime='A8')"),
    (lemma_path_bound, (0.125, 0.5),
     "(0.3465735902799727, 0.004983430958338628)"),
]


@pytest.mark.parametrize("bound, args, expected", PINNED_REPRS)
def test_bounds_keep_their_pinned_bits(bound, args, expected):
    assert repr(bound(*args, CTX)) == expected


def test_every_bound_takes_p2_from_the_stage2_lemma(monkeypatch):
    # p_2 is the lemma that verify's stage2_concentration check tests, at
    # the loss threshold, not a second statement of its formula.
    calls = []

    def lemma(epsilon2, ctx):
        calls.append(epsilon2)
        return 0.5

    monkeypatch.setattr(bounds, "lemma_w2_probability", lemma)
    for bound, args, _ in PINNED_REPRS[:4]:
        b = bound(*args, CTX)
        assert b.p_2 == 0.5 and calls.pop() == b.work_threshold
    thr, prob = lemma_path_bound(0.125, 0.5, CTX)
    assert calls == [thr] and prob == 0.125 * 0.5 * 0.5


def test_margin_rounding_below_zero_gives_a_vacuous_bound():
    # p_in = p_beta and p_out one ulp below: the stage-III margin at the
    # pivot rounds to -5.6e-17, which the composer takes as 0.
    ctx = ThermalContext(1.0, 2.751535313041949)
    p_in, p_out = 0.06000000000000001, 0.060000000000000005
    assert epsilon_iii_tilde((p_in + p_out) / 2.0, ctx) < 0.0
    b = theorem_same_side(p_in, p_out, ctx)
    assert (b.work_threshold, b.probability_lower_bound, b.p_2) == (0, 0, 0)
    assert 0.0 < b.p_1 <= 1.0 and 0.0 < b.p_3 <= 1.0 and 0.0 < b.p_f <= 1.0


def test_bound_json_shape():
    d = theorem_main_bound(0.125, 0.375, CTX).to_json_dict()
    assert set(d) == {"threshold", "probability", "components", "regime"}
    assert set(d["components"]) == {"p1", "p2", "p3", "pf"}
    assert d["regime"] == "A6"


_COMPONENTS = {"p_1": 0.5, "p_2": 0.25, "p_3": 0.75, "p_f": 1.0}
# Each value outside [0, 1] with the text its message prints.
_OUTSIDE = [(math.nan, "nan"), (-0.1, "-0.1"), (1.1, "1.1"),
            (math.inf, "inf"), (-math.inf, "-inf"), (1.5, "1.5")]
_OUTSIDE_IDS = [text for _, text in _OUTSIDE]


@pytest.mark.parametrize("name", sorted(_COMPONENTS))
@pytest.mark.parametrize("value, text", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_no_go_bound_rejects_component_outside_unit_interval(name, value,
                                                             text):
    components = {**_COMPONENTS, name: value}
    message = f"{name} must lie in [0, 1], got {text}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoGoBound(0.1, 0.05, regime="A6", **components)


@pytest.mark.parametrize("value, text", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_no_go_bound_rejects_probability_outside_unit_interval(value, text):
    message = f"probability_lower_bound must lie in [0, 1], got {text}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoGoBound(0.1, value, regime="A6", **_COMPONENTS)


@pytest.mark.parametrize("value, refused", [
    (math.nan, True), (math.inf, False), (-math.inf, True), (-0.1, True),
    (1.5, False)], ids=["nan", "inf", "-inf", "-0.1", "1.5"])
def test_no_go_bound_threshold_guard(value, refused):
    if refused:
        with pytest.raises(ValueError,
                           match="^work threshold must be nonnegative$"):
            NoGoBound(value, 0.05, regime="A6", **_COMPONENTS)
    else:
        assert NoGoBound(value, 0.05, regime="A6",
                         **_COMPONENTS).work_threshold == value


def test_no_go_bound_rejects_negative_threshold():
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        NoGoBound(-1e-12, 0.05, regime="A6", **_COMPONENTS)
    # The ends of every range are admitted.
    NoGoBound(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, "A6")


def test_no_go_bound_rejects_nan_threshold():
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        NoGoBound(math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, "A6")


def test_reverse_markov_examples():
    at_mean = reverse_markov_lower(0.5, 0.5 - 1e-16)
    assert at_mean.above == pytest.approx(0.0, abs=1e-15)
    clamped = reverse_markov_lower(0.3, 0.5)
    assert clamped.above == 0.0
    assert clamped.above_clamped
    rm = reverse_markov_lower(0.375, 5 / 16)
    assert rm.above == pytest.approx(1 / 11, rel=1e-14)
    assert not rm.above_clamped
    assert rm.above >= 1 / 16  # the weaker (p_out - p_beta)/2 form
    with pytest.raises(ValueError):
        reverse_markov_lower(0.3, 0.0)
    with pytest.raises(ValueError):
        reverse_markov_lower(1.2, 0.5)


def _random_unit_distribution(rng):
    k = int(rng.integers(1, 8))
    values = rng.uniform(0.0, 1.0, size=k)
    probs = rng.uniform(0.0, 1.0, size=k)
    probs /= probs.sum()
    return values, probs


def test_reverse_markov_never_exceeds_exact():
    rng = np.random.default_rng(np.random.Philox(key=101))
    for _ in range(1000):
        values, probs = _random_unit_distribution(rng)
        a = float(rng.uniform(0.01, 0.99))
        rm = reverse_markov_lower(float(values @ probs), a)
        assert probs[values > a].sum() >= rm.above - 1e-12
        assert probs[values < a].sum() >= rm.below - 1e-12


def test_cantelli_examples():
    assert cantelli_lower(0.5, 0.0) == 1.0
    assert cantelli_lower(2.0, 4.0) == pytest.approx(0.5)
    # Past delta ~ 1.34e154, delta^2 overflows; the bound is its limit, not
    # inf / inf.  At delta = inf the event is sure, whatever the variance.
    for delta in (1e154, 1e200, math.inf):
        assert cantelli_lower(delta, 1.0) == 1.0
    assert cantelli_lower(1e155, 1e308) == pytest.approx(1 / 1.01, rel=1e-15)
    assert cantelli_lower(1e200, math.inf) == 0.0
    assert cantelli_lower(math.inf, math.inf) == 1.0
    for delta in (0.0, math.nan):
        with pytest.raises(ValueError, match="^delta must be positive"):
            cantelli_lower(delta, 1.0)
    for variance in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^variance must be nonnegative"):
            cantelli_lower(1.0, variance)


def test_cantelli_never_exceeds_exact():
    rng = np.random.default_rng(np.random.Philox(key=202))
    for _ in range(1000):
        values, probs = _random_unit_distribution(rng)
        values = values * 10.0 - 5.0
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        delta = float(rng.uniform(0.01, 5.0))
        exact = probs[values <= mean + delta].sum()
        assert exact >= cantelli_lower(delta, var) - 1e-12


def test_stage1_loss_under_designated_occupation():
    # A single pre-thermalization shift: conditioned on the occupation that
    # pays for the shift direction, W_I <= -dF_I deterministically.
    rng = np.random.default_rng(np.random.Philox(key=303))
    for _ in range(200):
        inc = float(rng.uniform(-3.0, 3.0))
        if inc == 0.0:
            continue
        e_a = CTX.e0 + inc
        path = Path((CTX.e0, e_a, e_a), (Tag.GIBBS,), 1.0, CTX)
        occupied = inc > 0.0  # raising costs iff occupied; lowering pays iff not
        dist = path_work_distribution(path, QubitState(1.0 if occupied else 0.0))
        (w,) = dist.values
        df1 = gibbs_integral(CTX.e0, e_a, CTX)
        assert w <= -df1 + 1e-12


def test_stage3_loss_matches_margin_exactly():
    # Returning from E(q_out) to the boundary while occupied loses exactly
    # dF_III + epsilon_iii(q_out).
    for q_out in np.linspace(0.2501, 0.5, 25):
        e_b = energy_of_population(float(q_out), CTX)
        path = Path((e_b, CTX.e0), (), 1.0, CTX)
        dist = path_work_distribution(path, QubitState(1.0))
        (w,) = dist.values
        df3 = gibbs_integral(e_b, CTX.e0, CTX)
        assert w == pytest.approx(-df3 - epsilon_iii(float(q_out), CTX), abs=1e-12)


def _random_stage2_path(seed: int) -> Path:
    """A path that starts and ends on a Gibbs draw, with optional swaps at
    zero gap in between; its work law is a stage-II work law."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    energies = [float(rng.uniform(-2.0, 2.0))]
    tags = [Tag.GIBBS]
    for _ in range(int(rng.integers(1, 5))):
        if rng.uniform() < 0.3:
            energies.append(0.0)
            tags.append(Tag.SWAP)
        else:
            energies.append(float(rng.uniform(-2.0, 2.0)))
            tags.append(Tag.GIBBS)
    if tags[-1] is not Tag.GIBBS:
        energies.append(float(rng.uniform(-2.0, 2.0)))
        tags.append(Tag.GIBBS)
    return Path((energies[0], *energies, energies[-1]), tuple(tags), 1.0, CTX)


def test_w2_concentration_holds_on_random_stage2_paths():
    for seed in range(220):
        path = _random_stage2_path(seed)
        dist = path_work_distribution(path, QubitState(0.5))
        df2 = gibbs_integral(path.start_energy, path.end_energy, CTX)
        for eps in (0.05, 0.3, 1.0, 4.0, 12.0):
            measured = prob_work_at_most(dist, -df2 + eps, CTX)
            assert measured >= lemma_w2_probability(eps, CTX) - 1e-12, (
                seed,
                eps,
            )


def test_main_bound_holds_for_thermalize_once_protocols():
    # Protocols that actually realize a forbidden raising transition must
    # lose the threshold with at least the bound probability.
    p_in = 0.125
    for p_out in (0.3, 0.35, 0.4, 0.45, 0.499):
        bound = theorem_main_bound(p_in, p_out, CTX)
        proto = build_thermalize_once(energy_of_population(p_out, CTX), 1.0, CTX)
        dist = exact_work_distribution(proto, QubitState(p_in))
        measured = prob_work_at_most(dist, -bound.work_threshold, CTX)
        assert measured >= bound.probability_lower_bound, p_out


def test_rev_bound_holds_for_thermalize_once_protocols():
    for p_in, p_out in ((0.6, 0.125), (0.3, 0.05), (0.9, 0.2), (0.5, 0.01)):
        bound = theorem_rev_bound(p_in, p_out, CTX)
        proto = build_thermalize_once(energy_of_population(p_out, CTX), 1.0, CTX)
        dist = exact_work_distribution(proto, QubitState(p_in))
        measured = prob_work_at_most(dist, -bound.work_threshold, CTX)
        assert measured >= bound.probability_lower_bound, (p_in, p_out)


def test_rev_bound_is_false_for_an_inverted_input_at_small_beta_e0():
    # Kept on record, like test_simplecase_lemma_is_false_for_one_round:
    # at beta*e0 = 0.2, lowering the gap to zero, swapping fully and raising
    # it back realizes 0.9 -> 0.1, and its worst loss, e0, is below the A7
    # threshold that the classifier attaches to the transition.
    ctx = ThermalContext(beta=1.0, e0=0.2)
    p_in = 0.9
    swap = Protocol(ctx, [LevelTransformation(-0.2),
                          BistochasticTransformation(1.0),
                          LevelTransformation(0.2)])
    p_out = final_state(swap, QubitState(p_in)).p_excited
    assert p_out == 1.0 - p_in == 0.09999999999999998
    verdict = classify_transition(p_in, p_out, ctx)
    assert verdict.verdict == "forbidden" and verdict.bound.regime == "A7"
    threshold = verdict.bound.work_threshold
    assert threshold == pytest.approx(0.5227, abs=5e-5)
    assert verdict.bound.probability_lower_bound == pytest.approx(1.4669e-3,
                                                                  abs=5e-8)
    dist = exact_work_distribution(swap, QubitState(p_in))
    assert dist == brute_force_work_distribution(swap, QubitState(p_in))
    assert dist.values == (-0.2, 0.2)
    assert dist.probabilities == (1.0 - p_in, p_in)
    assert prob_work_at_most(dist, -threshold, ctx) == 0.0


@pytest.mark.parametrize("beta_e0, cells", [
    (0.05, 361), (0.5, 381), (math.log(3), 480), (3.0, 703)],
    ids=["0.05", "0.5", "ln3", "3"])
def test_same_side_bound_holds_for_thermalize_once_protocols(beta_e0, cells):
    # Every A8 cell of the i/40 grid with 0 < p_out < 1, realized by
    # thermalizing once at E(p_out).  The smallest measured/bound ratio is
    # 37.7, 55.2, 46.7 and 21.8.
    ctx = ThermalContext(beta=1.0, e0=beta_e0)
    tested = 0
    for i in range(41):
        for j in range(1, 40):
            p_in, p_out = i / 40, j / 40
            if not (ctx.p_beta <= p_in < p_out or ctx.p_beta >= p_in > p_out):
                continue
            bound = theorem_same_side(p_in, p_out, ctx)
            proto = build_thermalize_once(energy_of_population(p_out, ctx),
                                          1.0, ctx)
            dist = exact_work_distribution(proto, QubitState(p_in))
            measured = prob_work_at_most(dist, -bound.work_threshold, ctx)
            assert measured >= bound.probability_lower_bound, (p_in, p_out)
            tested += 1
    assert tested == cells
