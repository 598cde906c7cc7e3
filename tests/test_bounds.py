"""Tests for the closed-form loss bounds and the probability utilities,
each checked against an independent exact oracle where one exists."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from coarseops import bounds
from coarseops.bounds import (
    NoGoBound,
    cantelli_lower,
    epsilon_iii,
    epsilon_iii_tilde,
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
from coarseops.characterize import (
    TransitionClassification,
    classify_transition,
    mixing_coefficient,
)
from coarseops.engine import (
    brute_force_work_distribution,
    exact_work_distribution,
    final_state,
    prob_work_at_most,
)
from coarseops.paths import (
    Path,
    Tag,
    cyclic_path,
    path_work_distribution,
    random_cyclic_path,
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


def _lgamma_binomial_upper_tails(n, ps):
    # The tail at each p with every log coefficient formed as
    # lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1), once for this n,
    # then added to k * log p and (n - k) * log(1 - p) in that order: the
    # reference for the row of coefficients that the library keeps.
    k_min = math.ceil(n / 2)
    log_n = math.lgamma(n + 1)
    terms = [(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1), k, n - k)
             for k in range(k_min, n + 1)]
    tails = []
    for p in ps:
        if p == 0.0 or p == 1.0:
            tails.append(float(p == 1.0 or k_min == 0))
            continue
        log_p, log_q = math.log(p), math.log1p(-p)
        tails.append(math.fsum([math.exp(c + k * log_p + j * log_q)
                                for c, k, j in terms]))
    return tails


def test_exact_binomial_keeps_the_bits_of_the_lgamma_sum():
    ns = [*range(401), 1030, 5000]
    ps = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, *np.arange(0.01, 1.0, 0.01)]
    reference = {(n, i): tail for n in ns
                 for i, tail in enumerate(_lgamma_binomial_upper_tails(n, ps))}
    # n ascending, n descending and p outermost, so no state of the row
    # cache can decide a result.
    orders = (
        [(n, i) for n in ns for i in range(len(ps))],
        [(n, i) for n in reversed(ns) for i in range(len(ps))],
        [(n, i) for i in range(len(ps)) for n in ns],
    )
    for order in orders:
        for n, i in order:
            tail, ref = exact_binomial_upper_tail(n, ps[i]), reference[n, i]
            assert tail == ref and repr(tail) == repr(ref), (n, ps[i])
    # The cache keeps the row of one n, whatever was asked before.
    info = bounds._log_binomial_row.cache_info()
    assert info.maxsize == 1 and info.currsize == 1


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


@pytest.mark.parametrize("key, beta_e0",
                         enumerate([0.05, 0.5, math.log(3), 3.0]),
                         ids=["0.05", "0.5", "ln3", "3"])
def test_lemma_path_bound_holds_on_cyclic_paths(key, beta_e0):
    # Seeded cyclic paths, every other one with swaps at zero gap, whose
    # last Gibbs tag is moved to E(q_out), from p_in in (0, p_beta) with
    # q_out in (p_beta, 1/2].  The smallest measured/bound ratio is 571,
    # 57.5, 39.1 and 86.1.
    ctx = ThermalContext(beta=1.0, e0=beta_e0)
    rng = np.random.Generator(np.random.Philox(key=key))
    for k in range(3000):
        base = random_cyclic_path(rng, ctx, with_swaps=k % 2 == 1)
        p_in = float(rng.uniform(0.0, ctx.p_beta))
        q_out = ctx.p_beta + (0.5 - ctx.p_beta) * (1.0 - float(rng.random()))
        path = cyclic_path(
            (*base.gaps[1:-2], energy_of_population(q_out, ctx)), base.tags,
            ctx)
        assert path.tags[-1] is Tag.GIBBS
        threshold, bound = lemma_path_bound(p_in, q_out, ctx)
        measured = prob_work_at_most(
            path_work_distribution(path, QubitState(p_in)), -threshold, ctx)
        assert measured >= bound, (k, p_in, q_out, measured, bound)


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


# Test-side copies of the classifier path as written with the builtins
# min, max and abs, which the library spells as comparisons.  Each copy
# states the same rule with the same messages; the library must give the
# same repr, -0.0 and NaN included, and raise the same messages.
def _builtin_lemma_w2(epsilon2, ctx):
    if not epsilon2 > 0.0:
        raise ValueError(f"epsilon2 must be positive, got {epsilon2}")
    scale = 4.0 / ctx.beta
    if scale == math.inf:
        x = ctx.beta * epsilon2
        return min(2.0 / 3.0, x / (4.0 + x))
    return min(2.0 / 3.0, epsilon2 / (scale + epsilon2))


def _builtin_stage_bound(p_in, p_out, ref, ctx, regime):
    q_star = (p_out + ref) / 2.0
    up = p_out >= ref
    margin = epsilon_iii if up else epsilon_iii_tilde
    eps = margin(q_star, ctx) if 0.0 < q_star < 1.0 else 0.0
    p3 = q_star if up else 1.0 - q_star
    half = max(eps, 0.0) / 2.0
    p1 = min(p_in, 1.0 - p_in) or 0.0
    p2 = _builtin_lemma_w2(half, ctx) if half > 0.0 else 0.0
    pf = abs(p_out - ref) / 2.0
    return NoGoBound(half, p1 * p2 * p3 * pf, p1, p2, p3, pf, regime)


def _builtin_main(p_in, p_out, ctx):
    p_beta = ctx.p_beta
    if not (0.0 <= p_in < p_beta < p_out <= 0.5):
        raise ValueError(
            f"need 1/2 >= p_out > p_beta > p_in >= 0, got "
            f"p_in={p_in}, p_beta={p_beta}, p_out={p_out}")
    return _builtin_stage_bound(p_in, p_out, p_beta, ctx, "A6")


def _builtin_rev(p_in, p_out, ctx):
    p_beta = ctx.p_beta
    if not (0.0 <= p_out < p_beta < p_in < 1.0):
        raise ValueError(
            f"need 0 <= p_out < p_beta < p_in < 1, got "
            f"p_in={p_in}, p_beta={p_beta}, p_out={p_out}")
    return _builtin_stage_bound(p_in, p_out, p_beta, ctx, "A7")


def _builtin_same_side(p_in, p_out, ctx):
    p_beta = ctx.p_beta
    if not (p_beta <= p_in < p_out <= 1.0 or p_beta >= p_in > p_out >= 0.0):
        raise ValueError(
            "need p_beta <= p_in < p_out <= 1 or p_beta >= p_in > p_out >= 0, "
            f"got p_in={p_in}, p_beta={p_beta}, p_out={p_out}")
    return _builtin_stage_bound(p_in, p_out, p_in, ctx, "A8")


def _builtin_mixing(p_in, p_out, ctx):
    p_beta = ctx.p_beta
    lo, hi = min(p_in, p_beta), max(p_in, p_beta)
    if not lo <= p_out <= hi:
        raise ValueError(
            f"p_out={p_out} is outside the mixing interval [{lo}, {hi}]")
    if p_in == p_beta:
        return 1.0
    return (p_out - p_in) / (p_beta - p_in) or 0.0


def _builtin_classify(p_in, p_out, ctx):
    if not 0.0 <= p_in <= 1.0 or not 0.0 <= p_out <= 1.0:
        raise ValueError(f"populations must lie in [0, 1], got {p_in}, {p_out}")
    p_beta = ctx.p_beta
    if p_beta >= 0.5:
        raise ValueError(f"classification requires p_beta < 1/2, got p_beta "
                         f"= {p_beta} at beta*e0 = {ctx.beta * ctx.e0:.6g}")
    if p_in == 1.0:
        return TransitionClassification("pure_excited")
    if min(p_in, p_beta) <= p_out <= max(p_in, p_beta):
        return TransitionClassification(
            "mixing", lam=_builtin_mixing(p_in, p_out, ctx))
    if p_in < p_beta < p_out:
        bound = _builtin_main(p_in, min(p_out, 0.5), ctx)
    elif p_out < p_beta < p_in:
        bound = _builtin_rev(p_in, p_out, ctx)
    else:
        bound = _builtin_same_side(p_in, p_out, ctx)
    return TransitionClassification("forbidden", bound=bound)


def _outcome(fn, *args):
    """repr of the result, or the type and message of what was raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _edge_populations(ctx):
    """0, -0.0, the smallest subnormal, p_beta and 1 and 2 ulp either side,
    1/2 and 1 ulp either side, 1 - 2**-53 and 1, a regular grid, and three
    values outside [0, 1]."""
    p = ctx.p_beta
    below, above = math.nextafter(p, 0.0), math.nextafter(p, 1.0)
    edges = [0.0, -0.0, 5e-324, math.nextafter(below, 0.0), below, p, above,
             math.nextafter(above, 1.0), math.nextafter(0.5, 0.0), 0.5,
             math.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0]
    return (edges + [i / 48 for i in range(1, 48)]
            + [-5e-324, math.nextafter(1.0, 2.0), math.nan])


ALL_KINDS = frozenset({"mixing", "pure_excited", "A6", "A7", "A8"})


# At beta*e0 = 800, p_beta underflows to 0: no population lies below it,
# so no move crosses it.  Only mixing, the pure excited state and A8 occur
# there, and the theorems of the crossing regimes A6 and A7 only refuse.
@pytest.mark.parametrize("beta_e0, kinds, refusing", [
    (0.05, ALL_KINDS, ()),
    (0.5, ALL_KINDS, ()),
    (math.log(3), ALL_KINDS, ()),
    (3.0, ALL_KINDS, ()),
    (800.0, {"mixing", "pure_excited", "A8"},
     ("theorem_main_bound", "theorem_rev_bound")),
], ids=["0.05", "0.5", "ln3", "3", "800"])
def test_classifier_path_keeps_the_bits_of_min_max_and_abs(beta_e0, kinds,
                                                           refusing):
    ctx = ThermalContext(beta=1.0, e0=beta_e0)
    pops = _edge_populations(ctx)
    pairs = [
        (classify_transition, _builtin_classify),
        (mixing_coefficient, _builtin_mixing),
        (theorem_main_bound, _builtin_main),
        (theorem_rev_bound, _builtin_rev),
        (theorem_same_side, _builtin_same_side),
    ]
    seen = set()
    for p_in in pops:
        for p_out in pops:
            for library, builtin in pairs:
                got = _outcome(library, p_in, p_out, ctx)
                assert got == _outcome(builtin, p_in, p_out, ctx), (
                    library.__name__, p_in, p_out)
                seen.add((library.__name__, got.startswith("ValueError")))
                if library is classify_transition:
                    seen.update(k for k in kinds if f"'{k}'" in got)
    # Every function raised on the grid and every one but the refusing
    # ones returned, and the classifier reached every verdict and regime.
    assert seen == kinds | {(library.__name__, raised)
                            for library, _ in pairs
                            for raised in (False, True)
                            if raised or library.__name__ not in refusing}


@pytest.mark.parametrize("ctx", [ThermalContext(beta=1.0, e0=800.0),
                                 ThermalContext(beta=1e300, e0=1.0)],
                         ids=["e0=800", "beta=1e300"])
def test_classifier_is_total_where_p_beta_underflows_to_0(ctx):
    assert ctx.p_beta == 0.0
    pops = [p for p in _edge_populations(ctx) if 0.0 <= p <= 1.0]
    kinds = set()
    for p_in in pops:
        for p_out in pops:
            verdict = classify_transition(p_in, p_out, ctx)
            kinds.add(verdict.bound.regime if verdict.bound else
                      verdict.verdict)
    assert kinds == {"mixing", "pure_excited", "A8"}
    # q* = (0 + 5e-324)/2 rounds onto 0, the thermal population of no gap:
    # the bound is vacuous.
    for p_in in (0.0, -0.0):
        b = classify_transition(p_in, 5e-324, ctx).bound
        assert b.regime == "A8"
        assert b.work_threshold == b.p_2 == b.probability_lower_bound == 0.0


@pytest.mark.parametrize("beta", [1.0, 1e-310], ids=["1", "1e-310"])
def test_stage2_lemma_keeps_the_bits_of_min(beta):
    # At beta = 1e-310, 4/beta overflows and the lemma takes its other form.
    ctx = ThermalContext(beta=beta, e0=1.0)
    # At beta = 1 the cap 2/3 takes over at eps = 8.
    epsilons = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.1, 7.99, 7.9999,
                7.999999999999999, 8.0, 8.000000000000002, 100.0, 1e300,
                math.inf, -math.inf, math.nan]
    for eps in epsilons:
        assert (_outcome(lemma_w2_probability, eps, ctx)
                == _outcome(_builtin_lemma_w2, eps, ctx)), eps


def _loop_checked_bound(*fields):
    """NoGoBound's range checks as a loop over the fields, each named in
    order, and then the threshold."""
    names = ("probability_lower_bound", "p_1", "p_2", "p_3", "p_f")
    for name, v in zip(names, fields[1:6]):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if not fields[0] >= 0.0:
        raise ValueError("work threshold must be nonnegative")
    return NoGoBound(*fields)


def test_no_go_bound_names_the_first_bad_field():
    # Every field at an admitted value, a bad value, and an end of its
    # range, in all combinations: the one test that rejects names the same
    # field, with the same message, as checking field by field.
    choices = [(0.5, -0.0, math.nan, -1.0)] + [
        (0.5, 0.0, 1.0, -0.0, math.nan, 1.5)] * 5
    for fields in itertools.product(*choices):
        assert (_outcome(NoGoBound, *fields, "A6")
                == _outcome(_loop_checked_bound, *fields, "A6")), fields
