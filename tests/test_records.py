"""The model records refuse what the paper's model does not admit, with the field named."""

import dataclasses
import inspect
import math
from dataclasses import FrozenInstanceError, astuple, dataclass, fields, replace

import numpy as np
import pytest

from sempower.channel import ChannelState
from sempower.errors import DomainError
from sempower.modulation import preset
from sempower.numerics import ToleranceConfig
from sempower.perception import SampleSet, StreamCurve, SurfaceParams, default_edge_curve
from sempower.solvers import Allocation, StreamSpec
from sempower.svgchart import line_chart

# Each record with its fields that must be finite and > 0, in the order they are checked.
POSITIVE_FIELDS = [
    (SurfaceParams(0.3, 0.95, 5e-3, 1e-3, 1.0, 1.0), ("tau1", "tau2", "beta1", "beta2")),
    (StreamCurve(0.3, 0.95, 5e-3, 1.0), ("tau", "beta")),
    (preset("bpsk"), ("a", "b")),
    (ChannelState(1.0, 1.0), ("gain", "noise_w", "fading")),
    (ToleranceConfig(), ("abs_tol", "rel_tol")),
]
RECORD_IDS = [type(record).__name__ for record, _ in POSITIVE_FIELDS]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("record, field", [
    pytest.param(record, field, id=f"{type(record).__name__}.{field}")
    for record, names in POSITIVE_FIELDS for field in names])
def test_positive_field_refused_by_name(record, field, value):
    with pytest.raises(DomainError) as exc:
        replace(record, **{field: value})
    assert str(exc.value) == f"{field} must be finite and > 0, got {value}"


@pytest.mark.parametrize("record, names", POSITIVE_FIELDS, ids=RECORD_IDS)
def test_first_bad_field_is_reported(record, names):
    with pytest.raises(DomainError, match=f"^{names[0]} must be finite and > 0, got -1.0$"):
        replace(record, **dict.fromkeys(names, -1.0))


@pytest.mark.parametrize("record, names", POSITIVE_FIELDS[:2], ids=RECORD_IDS[:2])
def test_floor_must_sit_below_ceiling(record, names):
    # checked before the positive fields, so it is the one reported when both are bad
    for bad in ({}, dict.fromkeys(names, -1.0)):
        with pytest.raises(DomainError) as exc:
            replace(record, p0=0.5, pmax=0.5, **bad)
        assert str(exc.value) == "need 0 <= p0 < pmax <= 1, got p0=0.5, pmax=0.5"


def test_stream_needs_a_bit():
    with pytest.raises(DomainError, match=r"^bits must be >= 1, got 0$"):
        StreamSpec(0, preset("bpsk"), ChannelState(1.0, 1.0), default_edge_curve())


def test_sample_set_lengths_must_agree():
    with pytest.raises(DomainError, match="^psi1, psi2 and p must be equal-length 1-D arrays$"):
        SampleSet(psi1=np.zeros(3), psi2=np.zeros(3), p=np.full(2, 0.4))


@pytest.mark.parametrize("p", [-0.1, 1.1])
def test_sample_set_p_in_unit_interval(p):
    with pytest.raises(DomainError, match=r"^P must lie in \[0, 1\]$"):
        SampleSet(psi1=np.zeros(2), psi2=np.zeros(2), p=[0.4, p])


def test_chart_needs_a_plottable_point():
    # non-finite and non-positive values are dropped, which leaves nothing
    series = [("a", [0.0, 1.0], [0.0, -1.0]), ("b", [math.nan], [1.0]), ("c", [], [])]
    with pytest.raises(DomainError, match="^no plottable points in any series$"):
        line_chart(series, "x", "y", "t")


# Allocation stores its fields itself; it must keep every behaviour of the
# frozen dataclass whose generated __init__ it replaces.
@dataclass(frozen=True)
class _GeneratedAllocation:
    q: tuple[float, float]
    psi: tuple[float, float]
    achieved_p: float
    total_cost: float
    solver: str
    iterations: int
    feasible: bool
    converged: bool = True


ALLOCATION_VALUES = ((1.5, 2.0), (1e-3, 0.25), 0.6, 11.5, "bisection", 4, True, False)


def _pair(*values):
    return Allocation(*values), _GeneratedAllocation(*values)


def test_allocation_is_frozen():
    got = Allocation(*ALLOCATION_VALUES)
    for name in ("q", "converged", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(got, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(got, name)
    assert astuple(got) == ALLOCATION_VALUES


def test_allocation_matches_the_generated_dataclass():
    got, want = _pair(*ALLOCATION_VALUES)
    assert [(f.name, f.default, f.init, f.compare, f.hash) for f in fields(got)] == [
        (f.name, f.default, f.init, f.compare, f.hash) for f in fields(want)]
    assert astuple(got) == astuple(want)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert hash(got) == hash(want)
    assert repr(got) == repr(want).replace("_GeneratedAllocation", "Allocation")
    moved = replace(got, total_cost=3.0, solver="x")
    moved_want = replace(want, total_cost=3.0, solver="x")
    assert type(moved) is Allocation and astuple(moved) == astuple(moved_want)
    assert got == Allocation(*ALLOCATION_VALUES) and got != moved
    assert (got == moved) == (want == moved_want)
    assert got != want  # as for any two dataclasses: equal only to its own class


def test_allocation_construction():
    names = [f.name for f in fields(Allocation)]
    assert list(inspect.signature(Allocation).parameters) == names
    keyword = Allocation(**dict(zip(names, ALLOCATION_VALUES)))
    assert keyword == Allocation(*ALLOCATION_VALUES)
    assert vars(keyword) == dict(zip(names, ALLOCATION_VALUES))  # the fields, and nothing else
    got, want = _pair(*ALLOCATION_VALUES[:-1])
    assert got.converged is True and astuple(got) == astuple(want)
    for bad in (ALLOCATION_VALUES[:-2], ALLOCATION_VALUES + (1,)):
        with pytest.raises(TypeError):
            Allocation(*bad)
