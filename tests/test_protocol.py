"""Tests for protocol representation, validation, normalization, builders,
and JSON serialization."""

from __future__ import annotations

import math

import pytest

from coarseops.protocol import (
    BistochasticTransformation as BT,
    LevelTransformation as LT,
    PartialThermalization as PT,
    Protocol,
    build_average_work_protocol,
    build_pure_excited_reset,
    build_thermalize_once,
    from_json,
    normalize,
    random_protocol,
    to_json,
    validate,
)
from coarseops.thermo import ThermalContext

CTX = ThermalContext(beta=1.0, e0=math.log(3))


def test_step_parameter_ranges():
    with pytest.raises(ValueError):
        PT(-0.1)
    with pytest.raises(ValueError):
        PT(1.1)
    with pytest.raises(ValueError):
        BT(2.0)
    with pytest.raises(ValueError):
        LT(math.inf)


def test_validate_cyclic_pair():
    ctx = ThermalContext(beta=1.0, e0=0.5)
    assert validate(Protocol(ctx, [LT(1.0), LT(-1.0)])).ok


def test_validate_rejects_open_trajectory():
    ctx = ThermalContext(beta=1.0, e0=0.5)
    report = validate(Protocol(ctx, [LT(1.0)]))
    assert not report.ok
    assert "does not return" in report.violations[0].message


def test_validate_swap_at_zero():
    assert validate(Protocol(CTX, [LT(-CTX.e0), BT(1.0), LT(CTX.e0)])).ok
    # Same swap away from zero gap is rejected, with the step index.
    report = validate(Protocol(CTX, [BT(1.0)]))
    assert not report.ok
    assert report.violations[0].step_index == 0
    # gamma = 0 swap is a no-op and legal anywhere.
    assert validate(Protocol(CTX, [BT(0.0)])).ok


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e9])
def test_validate_tolerance_scales_but_still_refuses(beta):
    # The gap tolerance is in units of 1/beta: a miss of 1e-6/beta is
    # refused at every beta, and the staged protocol is accepted.
    ctx = ThermalContext(beta, math.log(3) / beta)
    miss = 1e-6 / beta
    report = validate(Protocol(ctx, [LT(1.0 / beta), LT(-1.0 / beta + miss)]))
    assert [v.step_index for v in report.violations] == [2]
    assert "does not return" in report.violations[0].message
    report = validate(
        Protocol(ctx, [LT(miss - ctx.e0), BT(0.5), LT(ctx.e0 - miss)]))
    assert [v.step_index for v in report.violations] == [1]
    assert "swap with gamma=0.5" in report.violations[0].message
    assert validate(build_average_work_protocol(0.1, 0.3, ctx, 200)).ok


def test_normalize_merges_thermalizations():
    out = normalize(Protocol(CTX, [PT(0.5), PT(0.5)]))
    assert out.steps == (PT(0.75),)


def test_normalize_merges_shifts():
    out = normalize(Protocol(CTX, [LT(1.0), LT(2.0)]))
    assert out.steps == (LT(3.0),)


def test_normalize_cancels_full_swaps():
    assert normalize(Protocol(CTX, [BT(1.0), BT(1.0)])).steps == ()


def test_normalize_idempotent_and_drops_noops():
    proto = Protocol(CTX, [PT(0.0), LT(1.0), LT(-1.0), PT(0.3), PT(0.0), BT(0.0)])
    once = normalize(proto)
    assert once.steps == (PT(0.3),)
    assert normalize(once).steps == once.steps


def test_average_work_protocol_energies():
    # p_in = 1/8 has gap ln 7, p_out = 3/8 has gap ln(5/3).
    proto = build_average_work_protocol(1 / 8, 3 / 8, CTX, n_stage2=2)
    energies = proto.energy_trajectory()
    assert energies[0] == pytest.approx(math.log(3))
    assert energies[1] == pytest.approx(math.log(7), rel=1e-12)
    mid = (math.log(7) + math.log(5 / 3)) / 2
    assert energies[2] == pytest.approx(mid, rel=1e-12)
    assert energies[4] == pytest.approx(math.log(5 / 3), rel=1e-12)
    assert energies[-1] == pytest.approx(math.log(3), rel=1e-12)
    assert validate(proto).ok


def test_average_work_protocol_degenerate_is_noop():
    p = CTX.p_beta
    proto = normalize(build_average_work_protocol(p, p, CTX, n_stage2=3))
    assert all(isinstance(s, PT) for s in proto.steps)
    with pytest.raises(ValueError):
        build_average_work_protocol(0.0, 0.3, CTX, n_stage2=2)


def test_thermalize_once_shape():
    proto = build_thermalize_once(0.0, 0.7, CTX)
    assert proto.steps == (LT(-math.log(3)), PT(0.7), LT(math.log(3)))
    assert validate(proto).ok


def test_pure_excited_reset_shape():
    proto = build_pure_excited_reset(CTX)
    assert proto.steps == (LT(-math.log(3)), BT(1.0), LT(math.log(3)))
    assert validate(proto).ok
    ctx0 = ThermalContext(beta=1.0, e0=0.0)
    assert normalize(build_pure_excited_reset(ctx0)).steps == (BT(1.0),)


def test_random_protocol_deterministic_and_valid():
    a = random_protocol(42, 10, 3.0, CTX)
    b = random_protocol(42, 10, 3.0, CTX)
    assert a.steps == b.steps
    kinds = set()
    for seed in range(1000):
        proto = random_protocol(seed, 8, 3.0, CTX)
        assert validate(proto).ok
        kinds.update(type(s).__name__ for s in proto.steps)
    assert {"PartialThermalization", "LevelTransformation"} <= kinds


def test_json_round_trip():
    proto = build_average_work_protocol(0.1, 0.3, CTX, n_stage2=3)
    again = from_json(to_json(proto))
    assert again.steps == proto.steps
    assert again.ctx == proto.ctx


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        from_json('{"beta": 1.0, "e0": 0.0, "steps": [], "extra": 1}')
    with pytest.raises(ValueError, match="unknown"):
        from_json(
            '{"beta": 1.0, "e0": 0.0,'
            ' "steps": [{"type": "PT", "lambda": 0.5, "x": 2}]}'
        )
    with pytest.raises(ValueError, match="type"):
        from_json('{"beta": 1.0, "e0": 0.0, "steps": [{"type": "XX", "y": 1}]}')
    with pytest.raises(ValueError):
        from_json('{"beta": 1.0, "steps": []}')
