"""The value types are frozen, slotted dataclasses: no per-instance
__dict__, no assignment, and equality, hashing, repr and
dataclasses.replace as generated.  ThermalContext is the one value type
with a __dict__, where its cached p_beta lives."""

from __future__ import annotations

import dataclasses
import math

import pytest

from coarseops.bounds import NoGoBound, reverse_markov_lower
from coarseops.characterize import TransitionClassification
from coarseops.engine import MonteCarloResult, WorkDistribution
from coarseops.paths import AreaReport, Path, Segment, Tag, decompose_stages
from coarseops.protocol import (
    BistochasticTransformation,
    LevelTransformation,
    PartialThermalization,
    Protocol,
    ValidationReport,
    Violation,
)
from coarseops.thermo import QubitState, ThermalContext

CTX = ThermalContext(beta=1.0, e0=math.log(3))
_LAW = WorkDistribution((0.0, 1.5), (0.25, 0.75))
_PATH = Path((1.0, 0.5, 1.0), (Tag.GIBBS,), 0.5, CTX)
_SEGMENT = Segment(0, 0.5, 1.0, 0.25, "G", 0.125)
_VALUES = [
    NoGoBound(0.1, 0.01, 0.5, 0.25, 0.75, 0.125, "A6"),
    reverse_markov_lower(0.5, 0.25),
    TransitionClassification("mixing", lam=0.5),
    _LAW,
    MonteCarloResult(_LAW, 0.3, 1000),
    _PATH,
    decompose_stages(_PATH),
    _SEGMENT,
    AreaReport(0.125, (_SEGMENT,)),
    PartialThermalization(0.5),
    LevelTransformation(-1.0),
    BistochasticTransformation(0.5),
    Violation(1, "gap must be zero"),
    ValidationReport((Violation(1, "gap must be zero"),)),
    Protocol(CTX, [PartialThermalization(0.5), LevelTransformation(1.0)]),
    QubitState(0.3),
]


@pytest.mark.parametrize("value", _VALUES,
                         ids=[type(v).__name__ for v in _VALUES])
def test_value_type_is_slotted_and_frozen(value):
    cls = type(value)
    first = dataclasses.fields(cls)[0].name
    assert not hasattr(value, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    # The frozen __setattr__ of a slotted class refuses an undeclared name
    # with TypeError on Python 3.10 and 3.11: it compares the instance's type
    # with the class as it was before slots=True rebuilt it.
    with pytest.raises((AttributeError, TypeError)):
        value.undeclared = 1
    # Even past the frozen __setattr__ there is no slot to hold it.
    with pytest.raises(AttributeError):
        object.__setattr__(value, "undeclared", 1)

    twin = dataclasses.replace(value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    assert repr(value).startswith(f"{cls.__name__}({first}=")


def test_replace_and_repr_of_slotted_values():
    state = QubitState(0.3)
    assert repr(state) == "QubitState(p_excited=0.3)"
    assert dataclasses.replace(state, p_excited=0.4) == QubitState(0.4)
    assert QubitState(0.3) != QubitState(0.4)
    proto = _VALUES[-2]
    moved = dataclasses.replace(proto, steps=[PartialThermalization(1.0)])
    assert moved.steps == (PartialThermalization(1.0),)
    assert moved.ctx is CTX and moved != proto
    # replace() runs the checks of the constructor.
    with pytest.raises(ValueError, match="^lambda must lie"):
        dataclasses.replace(PartialThermalization(0.5), lam=2.0)


def test_thermal_context_keeps_its_dict_for_the_cached_p_beta():
    ctx = ThermalContext(beta=1.0, e0=math.log(3))
    assert vars(ctx) == {"beta": 1.0, "e0": math.log(3)}
    p_beta = ctx.p_beta
    assert vars(ctx)["p_beta"] is p_beta
    assert not hasattr(ThermalContext, "__slots__")
