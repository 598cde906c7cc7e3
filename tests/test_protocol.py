"""Tests for protocol representation, validation, builders and JSON
serialization."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
import threading

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
    random_protocol,
    to_json,
    validate,
)
from coarseops.thermo import ThermalContext, energy_of_population

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


@pytest.mark.parametrize("value, message", [
    (math.nan, "lambda must be finite, got nan"),
    (math.inf, "lambda must be finite, got inf"),
    (-math.inf, "lambda must be finite, got -inf"),
    (-0.1, "lambda must lie in [0, 1], got -0.1"),
    (1.5, "lambda must lie in [0, 1], got 1.5"),
], ids=["nan", "inf", "-inf", "-0.1", "1.5"])
def test_thermalization_guard_messages(value, message):
    # The range test runs first; a non-finite value still gets its own message.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PT(value)


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


@pytest.mark.parametrize("p_in, rounds", [
    (0.1, 1), (0.1, 2000), (CTX.p_beta, 3000), (0.9, 7)])
def test_staged_builder_equals_the_protocol_built_step_by_step(p_in, rounds):
    # The builder shares one shift and one thermalization across its rounds.
    e_in = energy_of_population(p_in, CTX)
    e_out = energy_of_population(0.3, CTX)
    delta = (e_in - e_out) / rounds
    steps = [LT(e_in - CTX.e0)]
    for _ in range(rounds):
        steps.append(LT(-delta))
        steps.append(PT(1.0))
    steps.append(LT(CTX.e0 - e_out))
    expected = Protocol(CTX, steps)
    proto = build_average_work_protocol(p_in, 0.3, CTX, rounds)
    assert proto == expected
    assert to_json(proto) == to_json(expected)


def test_average_work_protocol_degenerate_is_noop():
    p = CTX.p_beta
    proto = build_average_work_protocol(p, p, CTX, n_stage2=3)
    assert all(s.delta_e == 0.0 for s in proto.steps if isinstance(s, LT))
    assert [s for s in proto.steps if not isinstance(s, LT)] == [PT(1.0)] * 3
    with pytest.raises(ValueError):
        build_average_work_protocol(0.0, 0.3, CTX, n_stage2=2)


def test_builders_refuse_an_empty_loop():
    with pytest.raises(ValueError, match=r"^n_stage2 must be >= 1, got 0$"):
        build_average_work_protocol(0.1, 0.3, CTX, 0)
    with pytest.raises(ValueError, match=r"^max_steps must be >= 1, got 0$"):
        random_protocol(0, 0, 2.0, CTX)


def test_thermalize_once_shape():
    proto = build_thermalize_once(0.0, 0.7, CTX)
    assert proto.steps == (LT(-math.log(3)), PT(0.7), LT(math.log(3)))
    assert validate(proto).ok


def test_pure_excited_reset_shape():
    proto = build_pure_excited_reset(CTX)
    assert proto.steps == (LT(-math.log(3)), BT(1.0), LT(math.log(3)))
    assert validate(proto).ok
    ctx0 = ThermalContext(beta=1.0, e0=0.0)
    steps = build_pure_excited_reset(ctx0).steps
    assert [type(s) for s in steps] == [LT, BT, LT]
    assert steps[1] == BT(1.0)
    assert all(s.delta_e == 0.0 for s in steps if isinstance(s, LT))


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


def _summed_gaps(proto):
    """Reference: the running sum of the shifts from e0, one list a call."""
    gaps = [proto.ctx.e0]
    for step in proto.steps:
        gaps.append(gaps[-1] + step.delta_e if isinstance(step, LT)
                    else gaps[-1])
    return gaps


def test_energy_trajectory_gives_each_protocol_its_own_gaps():
    # Equal but distinct protocols, and dataclasses.replace copies, asked
    # in turn and twice in a row, each get the gaps of their own steps.
    # Protocols at e0 = 0.0 and -0.0 are equal, but their gaps differ in
    # the sign of zero.
    steps = [LT(0.5), PT(0.3), LT(-0.25), BT(0.0), LT(-0.25)]
    a, b = Protocol(CTX, steps), Protocol(CTX, steps)
    zero = Protocol(ThermalContext(1.0, 0.0), [PT(0.5), LT(-0.0)])
    negative_zero = dataclasses.replace(zero, ctx=ThermalContext(1.0, -0.0))
    protos = [
        a, b, dataclasses.replace(a), dataclasses.replace(a, ctx=CTX),
        dataclasses.replace(a, ctx=ThermalContext(1.0, 2.0)),
        dataclasses.replace(a, steps=steps[:3]),
        dataclasses.replace(a, steps=[LT(-0.0), PT(1.0)]),
        build_average_work_protocol(0.1, 0.3, CTX, 50),
        zero, negative_zero,
    ]
    assert a == b and a is not b and zero == negative_zero
    assert repr(_summed_gaps(negative_zero)) == "[-0.0, -0.0, -0.0]"
    for order in (protos, protos[::-1], [p for p in protos for _ in "ab"]):
        for proto in order:
            assert repr(proto.energy_trajectory()) == repr(_summed_gaps(proto))


def test_energy_trajectory_returns_a_fresh_list():
    # A caller that mutates its gaps changes neither the next call's gaps
    # nor an earlier caller's, on the protocol summed last or not.
    proto = build_average_work_protocol(0.1, 0.3, CTX, 5)
    other = Protocol(CTX, [LT(1.0), LT(-1.0)])
    expected, expected_other = _summed_gaps(proto), _summed_gaps(other)
    for _ in range(3):
        first, second = proto.energy_trajectory(), proto.energy_trajectory()
        assert first is not second
        first[0] = 99.0
        first.append(1.0)
        second.clear()
        assert proto.energy_trajectory() == expected
        assert other.energy_trajectory() == expected_other


def test_energy_trajectory_threads_get_their_own_gaps():
    # Four threads each ask their own two protocols 1,000 times, each
    # twice in a row, with the interpreter switching threads as often as
    # it can.
    def protocols(k):
        return [Protocol(ThermalContext(1.0, 0.5 * k), [LT(0.25 * k + 0.125),
                                                        PT(0.5), LT(-1.0)]),
                random_protocol(k, 12, 2.0, CTX)]

    errors = []
    barrier = threading.Barrier(4, timeout=60)

    def ask(k):
        mine = protocols(k)
        expected = [_summed_gaps(p) for p in mine]
        barrier.wait()
        for i in range(1000):
            gaps = mine[i // 2 % 2].energy_trajectory()
            if gaps != expected[i // 2 % 2]:
                errors.append((k, i, gaps))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
