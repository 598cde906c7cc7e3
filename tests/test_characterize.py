"""Tests for the transition classifier and witness-protocol synthesis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from coarseops.characterize import (
    classify_transition,
    mixing_coefficient,
    synthesize_protocol,
)
from coarseops.engine import exact_work_distribution, final_state
from coarseops.protocol import validate
from coarseops.thermo import QubitState, ThermalContext, energy_of_population

CTX = ThermalContext(beta=1.0, e0=math.log(3))  # p_beta = 1/4


def test_mixing_coefficient_examples():
    assert mixing_coefficient(0.3, 0.3, CTX) == 0.0
    assert mixing_coefficient(0.3, 0.25, CTX) == pytest.approx(1.0)
    assert mixing_coefficient(0.3, 0.26, CTX) == pytest.approx(0.8)
    assert mixing_coefficient(0.25, 0.25, CTX) == 1.0
    with pytest.raises(ValueError):
        mixing_coefficient(0.3, 0.31, CTX)
    with pytest.raises(ValueError):
        mixing_coefficient(0.3, 0.2, CTX)


def test_classify_examples():
    c = classify_transition(0.1, 0.3, CTX)
    assert c.verdict == "forbidden" and c.bound.regime == "A6"
    c = classify_transition(1.0, 0.05, CTX)
    assert c.verdict == "pure_excited"
    c = classify_transition(0.3, 0.26, CTX)
    assert c.verdict == "mixing" and c.lam == pytest.approx(0.8)
    c = classify_transition(0.6, 0.125, CTX)
    assert c.verdict == "forbidden" and c.bound.regime == "A7"
    c = classify_transition(0.3, 0.4, CTX)
    assert c.verdict == "forbidden" and c.bound.regime == "A8"
    c = classify_transition(0.2, 0.1, CTX)
    assert c.verdict == "forbidden" and c.bound.regime == "A8"


def test_classify_boundaries():
    # Reaching the thermal population itself is always a full mix.
    for p_in in (0.0, 0.1, 0.25, 0.5, 0.9):
        c = classify_transition(p_in, 0.25, CTX)
        assert c.verdict == "mixing" and c.lam == pytest.approx(1.0)
    # Identity transition mixes with weight 0.
    c = classify_transition(0.4, 0.4, CTX)
    assert c.verdict == "mixing" and c.lam == 0.0
    # Pure excited wins over mixing even when mixing would suffice.
    assert classify_transition(1.0, 1.0, CTX).verdict == "pure_excited"
    with pytest.raises(ValueError):
        classify_transition(-0.1, 0.5, CTX)
    with pytest.raises(ValueError):
        classify_transition(0.5, 1.1, CTX)


def test_classify_totality_and_partition_on_grid():
    grid = np.linspace(0.0, 1.0, 201)
    counts = {"mixing": 0, "pure_excited": 0, "forbidden": 0}
    for p_in in grid:
        for p_out in grid:
            c = classify_transition(float(p_in), float(p_out), CTX)
            counts[c.verdict] += 1
            if c.verdict == "forbidden":
                assert c.bound.work_threshold > 0.0
                if p_in > 0.0:
                    assert c.bound.probability_lower_bound > 0.0, (p_in, p_out)
                else:
                    # Pure ground input carries only the vacuous bound.
                    assert c.bound.probability_lower_bound >= 0.0
            elif c.verdict == "mixing":
                assert 0.0 <= c.lam <= 1.0
    assert sum(counts.values()) == 201 * 201
    assert all(v > 0 for v in counts.values())


def test_classify_matches_interval_rule():
    rng = np.random.default_rng(np.random.Philox(key=7))
    p_beta = CTX.p_beta
    for _ in range(2000):
        p_in, p_out = rng.uniform(0.0, 1.0, size=2)
        c = classify_transition(float(p_in), float(p_out), CTX)
        in_interval = min(p_in, p_beta) <= p_out <= max(p_in, p_beta)
        achievable = c.verdict in ("mixing", "pure_excited")
        assert achievable == (in_interval or p_in == 1.0)


def _check_witness(p_in, p_out):
    c = classify_transition(p_in, p_out, CTX)
    proto = synthesize_protocol(c, p_in, p_out, CTX)
    assert validate(proto).ok
    out = final_state(proto, QubitState(p_in))
    assert out.p_excited == pytest.approx(p_out, abs=1e-12)
    dist = exact_work_distribution(proto, QubitState(p_in))
    assert all(w >= 0.0 for w in dist.values)
    return proto, dist


def test_synthesize_mixing_cases():
    for p_in, p_out in ((0.3, 0.26), (0.1, 0.2), (0.25, 0.25), (0.0, 0.1)):
        proto, dist = _check_witness(p_in, p_out)
        assert dist.values == (0.0,)  # pure mixing does no work at all


def test_synthesize_pure_excited_to_ground():
    c = classify_transition(1.0, 0.0, CTX)
    proto = synthesize_protocol(c, 1.0, 0.0, CTX)
    dist = exact_work_distribution(proto, QubitState(1.0))
    assert dist.values == pytest.approx((CTX.e0,))
    assert dist.probabilities == (1.0,)
    assert final_state(proto, QubitState(1.0)).p_excited == pytest.approx(0.0)


def test_synthesize_pure_excited_below_thermal():
    for p_out in (0.05, 0.2, 0.25):
        proto, dist = _check_witness(1.0, p_out)
        # Work is the extracted gap, deterministically nonnegative.
        assert min(dist.values) >= 0.0


def test_synthesize_pure_excited_above_thermal():
    for p_out in (0.3, 0.4, 0.9, 1.0):
        proto, dist = _check_witness(1.0, p_out)
        assert dist.values == (0.0,)  # mixing only, no level moves


def test_synthesize_forbidden_raises():
    c = classify_transition(0.1, 0.3, CTX)
    with pytest.raises(ValueError):
        synthesize_protocol(c, 0.1, 0.3, CTX)


def test_forbidden_bound_soundness_on_realizing_protocols():
    # Hand-built protocols that do realize forbidden transitions must lose
    # the classifier's threshold with at least its probability.
    from coarseops.protocol import build_thermalize_once

    cases = [(0.1, 0.3), (0.125, 0.45), (0.6, 0.125), (0.9, 0.05)]
    for p_in, p_out in cases:
        c = classify_transition(p_in, p_out, CTX)
        assert c.verdict == "forbidden"
        proto = build_thermalize_once(
            energy_of_population(p_out, CTX), 1.0, CTX
        )
        dist = exact_work_distribution(proto, QubitState(p_in))
        from coarseops.engine import prob_work_at_most

        measured = prob_work_at_most(dist, -c.bound.work_threshold, CTX)
        assert measured >= c.bound.probability_lower_bound, (p_in, p_out)


def test_json_verdict_shape():
    d = classify_transition(0.3, 0.26, CTX).to_json_dict()
    assert d == {"verdict": "mixing", "lambda": pytest.approx(0.8)}
    d = classify_transition(0.1, 0.3, CTX).to_json_dict()
    assert d["verdict"] == "forbidden"
    assert d["bound"]["regime"] == "A6"
    d = classify_transition(1.0, 0.1, CTX).to_json_dict()
    assert d == {"verdict": "pure_excited"}


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_classifier_is_total_one_or_two_ulp_from_p_beta(beta):
    # Next to p_beta the stage-III margin can round below 0; the bound must
    # then be vacuous (threshold 0, probability 0), never an error.
    vacuous = 0
    for nominal in np.linspace(0.01, 0.49, 97).tolist():
        ctx = ThermalContext(
            beta, energy_of_population(nominal, ThermalContext(beta, 0.0))
        )
        below = math.nextafter(ctx.p_beta, 0.0)
        above = math.nextafter(ctx.p_beta, 1.0)
        near = (math.nextafter(below, 0.0), below, ctx.p_beta, above,
                math.nextafter(above, 1.0))
        for p_in in near:
            for p_out in near:
                bound = classify_transition(p_in, p_out, ctx).bound
                if bound is None:
                    continue
                components = (bound.p_1, bound.p_2, bound.p_3, bound.p_f,
                              bound.probability_lower_bound)
                assert all(0.0 <= c <= 1.0 for c in components)
                assert bound.work_threshold >= 0.0
                vacuous += bound.probability_lower_bound == 0.0
    assert vacuous > 0


def _edge_values(ctx):
    """0, -0.0, the smallest subnormal, 1e-300, 1 - 2**-53, 1, p_beta and
    1 ulp either side, and i/48."""
    p = ctx.p_beta
    return [0.0, -0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0,
            math.nextafter(p, 0.0), p, math.nextafter(p, 1.0),
            *(i / 48 for i in range(49))]


@pytest.mark.parametrize("beta_e0", [0.05, 0.5, math.log(3), 3.0],
                         ids=["0.05", "0.5", "ln3", "3"])
def test_classifier_is_total_at_the_edges_of_the_square(beta_e0):
    ctx = ThermalContext(beta=1.0, e0=beta_e0)
    pops = _edge_values(ctx)
    for p_in in pops:
        for p_out in pops:
            classify_transition(p_in, p_out, ctx)
    # The pivot q* = (p_out + p_in)/2 of these A8 moves rounds onto the end
    # of [0, 1] they head for, where no gap has that thermal population:
    # the stage-III margin is taken as 0, and the bound is vacuous.
    for p_in, p_out in ((5e-324, 0.0), (5e-324, -0.0), (1.0 - 2.0**-53, 1.0)):
        c = classify_transition(p_in, p_out, ctx)
        assert c.verdict == "forbidden" and c.bound.regime == "A8"
        assert (c.bound.work_threshold, c.bound.p_2,
                c.bound.probability_lower_bound) == (0.0, 0.0, 0.0)


def test_pure_excited_witness_mixes_down_with_the_mixing_coefficient():
    for p_out in (CTX.p_beta, 0.5, 0.9, 1.0):
        c = classify_transition(1.0, p_out, CTX)
        [step] = synthesize_protocol(c, 1.0, p_out, CTX).steps
        assert step.lam == (1.0 - p_out) / (1.0 - CTX.p_beta)
