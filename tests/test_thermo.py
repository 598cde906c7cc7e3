"""Tests for the closed-form two-level thermodynamics helpers."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coarseops.thermo import (
    QubitState,
    ThermalContext,
    energy_of_population,
    entropy,
    free_energy,
    gibbs_free_energy,
    gibbs_integral,
    gibbs_population,
    partition_function,
)

CTX = ThermalContext(beta=1.0, e0=math.log(3))

# Frozen expected values, computed independently at 40 digits.
ENTROPY_QUARTER = 0.5623351446188083
FREE_ENERGY_QUARTER_LN3 = -0.2876820724517809
GIBBS_FREE_ENERGY_LN3 = -0.2876820724517809
GIBBS_INTEGRAL_0_LN3 = 0.4054651081081644


def test_context_invariants():
    with pytest.raises(ValueError):
        ThermalContext(beta=0.0, e0=1.0)
    with pytest.raises(ValueError):
        ThermalContext(beta=1.0, e0=-0.1)
    with pytest.raises(ValueError):
        ThermalContext(beta=math.inf, e0=1.0)
    assert 0.0 < ThermalContext(beta=2.0, e0=5.0).p_beta <= 0.5
    assert ThermalContext(beta=1.0, e0=0.0).p_beta == pytest.approx(0.5)


def test_p_beta_is_cached_and_not_a_field():
    ctx = ThermalContext(beta=0.7, e0=1.3)
    twin = ThermalContext(beta=0.7, e0=1.3)
    assert ctx.p_beta == gibbs_population(ctx.e0, ctx)
    assert ctx.p_beta is ctx.p_beta
    # The cached value changes neither equality nor hash, and replace()
    # builds a context that computes its own.
    assert ctx == twin and hash(ctx) == hash(twin)
    assert dataclasses.astuple(ctx) == (0.7, 1.3)
    moved = dataclasses.replace(ctx, e0=0.2)
    assert moved.p_beta == gibbs_population(0.2, moved)
    assert dataclasses.replace(ctx) == ctx
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.e0 = 2.0


def test_state_invariants():
    with pytest.raises(ValueError):
        QubitState(-0.01)
    with pytest.raises(ValueError):
        QubitState(1.01)
    with pytest.raises(ValueError):
        QubitState(math.nan)


@pytest.mark.parametrize("value, message", [
    (math.nan, "p_excited must be finite, got nan"),
    (math.inf, "p_excited must be finite, got inf"),
    (-math.inf, "p_excited must be finite, got -inf"),
    (-0.1, "population must lie in [0, 1], got -0.1"),
    (1.5, "population must lie in [0, 1], got 1.5"),
], ids=["nan", "inf", "-inf", "-0.1", "1.5"])
def test_state_guard_messages(value, message):
    # The range test runs first; a non-finite value still gets its own message.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QubitState(value)


def test_gibbs_population_values():
    assert gibbs_population(0.0, CTX) == pytest.approx(0.5, abs=0)
    assert gibbs_population(math.log(3), CTX) == pytest.approx(0.25, rel=1e-15)
    assert gibbs_population(50.0, CTX) < 1e-20
    with pytest.raises(ValueError):
        gibbs_population(math.inf, CTX)


def _relative_gap(array, scalar):
    # Relative to the scalar value, floored at the smallest normal float so
    # that results deep in the exp(-beta*e) tail compare by absolute ulps.
    return np.abs(array - scalar) / np.maximum(scalar, np.finfo(float).tiny)


@pytest.mark.parametrize("beta", [0.5, 1.0, 7.0])
def test_gibbs_population_array_matches_scalar(beta):
    ctx = ThermalContext(beta, 0.0)
    below = np.linspace(-40.0, 40.0, 100_001)
    # Both sides of the beta*e > 700 cut, into the denormal tail and past it.
    above = np.linspace(690.0, 800.0, 2_001) / beta
    for e in (below, above):
        array = gibbs_population(e, ctx)
        scalar = np.array([gibbs_population(float(v), ctx) for v in e])
        assert array.shape == e.shape
        assert _relative_gap(array, scalar).max() <= 1e-15


def test_gibbs_population_above_the_cut_is_the_exponential_tail():
    ctx = ThermalContext(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gibbs_population(710.0, ctx) == math.exp(-710.0)
        assert gibbs_population(1e308, ThermalContext(10.0, 0.0)) == 0.0
        tail = gibbs_population(np.array([700.5, 710.0, 800.0]), ctx)
    assert tail.tolist() == [math.exp(-700.5), math.exp(-710.0), 0.0]
    # At the cut the two forms agree to double precision.
    assert gibbs_population(700.0, ctx) == pytest.approx(math.exp(-700.0),
                                                         rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gibbs_population_array_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        gibbs_population(np.array([0.0, bad, 1.0]), CTX)
    with pytest.raises(ValueError):
        gibbs_population(np.array(bad), CTX)


def test_energy_of_population_values():
    assert energy_of_population(0.5, CTX) == 0.0
    assert energy_of_population(0.25, CTX) == pytest.approx(math.log(3), rel=1e-15)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            energy_of_population(bad, CTX)


@given(p=st.floats(min_value=1e-12, max_value=1 - 1e-12))
def test_population_energy_round_trip(p):
    assert gibbs_population(energy_of_population(p, CTX), CTX) == pytest.approx(
        p, rel=1e-12
    )


@given(
    e1=st.floats(min_value=-20, max_value=20),
    e2=st.floats(min_value=-20, max_value=20),
)
def test_gibbs_population_strictly_decreasing(e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    assert gibbs_population(lo, CTX) >= gibbs_population(hi, CTX)
    # Strictness needs a resolvable gap; near saturation adjacent floats tie.
    if hi - lo > 1e-9 and abs(lo) < 15 and abs(hi) < 15:
        assert gibbs_population(lo, CTX) > gibbs_population(hi, CTX)


def test_gibbs_population_range():
    for e in (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0):
        g = gibbs_population(e, CTX)
        assert 0.0 < g < 1.0
        if e > 0:
            assert g < 0.5
        else:
            assert g > 0.5


def test_partition_function_values():
    assert partition_function(0.0, CTX) == pytest.approx(2.0, abs=0)
    assert partition_function(math.log(3), CTX) == pytest.approx(4 / 3, rel=1e-15)
    # exp(-beta*e) overflows below beta*e = -709.78: the sum is inf there,
    # as gibbs_free_energy is -inf, and no OverflowError escapes.
    assert partition_function(-700.0, CTX) == 1.0 + math.exp(700.0)
    assert partition_function(-800.0, CTX) == math.inf
    assert partition_function(-1e308, ThermalContext(10.0, 1.0)) == math.inf


@given(e=st.floats(min_value=-20, max_value=20))
def test_partition_function_times_population(e):
    # Z_E * g(E) = exp(-beta*E)
    z = partition_function(e, CTX)
    g = gibbs_population(e, CTX)
    assert z * g == pytest.approx(math.exp(-CTX.beta * e), rel=1e-12)


def test_entropy_values():
    assert entropy(QubitState(0.0)) == 0.0
    assert entropy(QubitState(1.0)) == 0.0
    assert entropy(QubitState(0.5)) == pytest.approx(math.log(2), rel=1e-15)
    assert entropy(QubitState(0.25)) == pytest.approx(ENTROPY_QUARTER, rel=1e-14)


def test_free_energy_values():
    assert free_energy(QubitState(0.0), 3.7, CTX) == 0.0
    assert free_energy(QubitState(0.25), math.log(3), CTX) == pytest.approx(
        FREE_ENERGY_QUARTER_LN3, rel=1e-13
    )


def test_gibbs_free_energy_values():
    assert gibbs_free_energy(0.0, CTX) == pytest.approx(-math.log(2), rel=1e-15)
    assert gibbs_free_energy(math.log(3), CTX) == pytest.approx(
        GIBBS_FREE_ENERGY_LN3, rel=1e-13
    )


@given(e=st.floats(min_value=-20, max_value=20))
def test_gibbs_free_energy_two_closed_forms(e):
    # The thermal state's free energy equals -(1/beta) ln Z_E.
    tau = QubitState(gibbs_population(e, CTX))
    assert gibbs_free_energy(e, CTX) == pytest.approx(
        free_energy(tau, e, CTX), abs=1e-12
    )


@given(e=st.floats(min_value=-15, max_value=15))
def test_gibbs_free_energy_derivative_is_population(e):
    h = 1e-5
    deriv = (gibbs_free_energy(e + h, CTX) - gibbs_free_energy(e - h, CTX)) / (2 * h)
    assert deriv == pytest.approx(gibbs_population(e, CTX), abs=1e-6)


def test_gibbs_integral_values():
    assert gibbs_integral(1.3, 1.3, CTX) == 0.0
    assert gibbs_integral(0.0, math.log(3), CTX) == pytest.approx(
        GIBBS_INTEGRAL_0_LN3, rel=1e-13
    )


@settings(max_examples=50)
@given(
    a=st.floats(min_value=-20, max_value=20),
    b=st.floats(min_value=-20, max_value=20),
)
def test_gibbs_integral_matches_quadrature(a, b):
    numeric, _ = quad(lambda e: gibbs_population(e, CTX), a, b, epsabs=1e-12)
    assert gibbs_integral(a, b, CTX) == pytest.approx(numeric, abs=1e-9)


@given(
    a=st.floats(min_value=-20, max_value=20),
    b=st.floats(min_value=-20, max_value=20),
    c=st.floats(min_value=-20, max_value=20),
)
def test_gibbs_integral_additive_and_antisymmetric(a, b, c):
    total = gibbs_integral(a, b, CTX) + gibbs_integral(b, c, CTX)
    assert total == pytest.approx(gibbs_integral(a, c, CTX), abs=1e-12)
    assert gibbs_integral(a, b, CTX) == pytest.approx(
        -gibbs_integral(b, a, CTX), abs=0
    )
