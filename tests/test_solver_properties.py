"""Property tests of the four allocators over random problems.

Surfaces, stream curves, modulations, link gains, bit counts and
targets are drawn at random (derandomised, see ``conftest.py``); every
example runs :func:`sweep_targets` on one target with numpy
``RuntimeWarning`` promoted to an error.
"""

import math
import warnings
from dataclasses import replace

from hypothesis import example, given
from hypothesis import strategies as st

from sempower.channel import ChannelState, make_channel_state
from sempower.errors import SempowerWarning
from sempower.modulation import PRESETS, ModulationScheme, preset
from sempower.perception import L_EDGE, L_PROMPT, StreamCurve, SurfaceParams
from sempower.solvers import ProblemSpec, StreamSpec, achievable_range, sweep_targets

from conftest import REF_CHANNEL, make_problem

TARGET_ATOL = 1e-6  # acceptance c03
COST_RTOL = 1e-3

MODULATIONS = [preset(name) for name in PRESETS] + [ModulationScheme("custom", 4, 1.0, 1.0)]
NOISE_W = 1e-14  # -110 dBm


@st.composite
def shapes(draw):
    """``(p0, pmax, tau, beta)`` with tau in [1e-5, 1e-1], beta on both sides of 1."""
    p0 = draw(st.floats(0.0, 0.9))
    pmax = min(p0 + (1.0 - p0) * draw(st.floats(0.05, 1.0)), 1.0)
    return p0, pmax, 10.0 ** draw(st.floats(-5.0, -1.0)), draw(st.floats(0.3, 3.0))


@st.composite
def streams(draw):
    p0, pmax, tau, beta = draw(shapes())
    return StreamSpec(
        bits=draw(st.integers(1, 10**7)),
        modulation=draw(st.sampled_from(MODULATIONS)),
        channel=ChannelState(gain=10.0 ** draw(st.floats(-20.0, 0.0)), noise_w=NOISE_W),
        curve=StreamCurve(p0, pmax, tau, beta),
    )


@st.composite
def problems(draw):
    p0, pmax, tau1, beta1 = draw(shapes())
    _, _, tau2, beta2 = draw(shapes())
    p = ProblemSpec(
        streams=(draw(streams()), draw(streams())),
        surface=SurfaceParams(p0, pmax, tau1, tau2, beta1, beta2),
        target=0.5,
    )
    lo, hi = achievable_range(p)
    return replace(p, target=lo + (hi - lo) * draw(st.floats(1e-6, 1.0 - 1e-6)))


def _saturating_curves():
    # Curves that reach pmax = 1: the proportional ratio would need to
    # fall below its lower end 1e-9 to degrade the streams to 0.92.
    p = make_problem(make_channel_state(REF_CHANNEL), target=0.92)
    return replace(p, streams=tuple(
        replace(s, curve=StreamCurve(p0=1.0 - value, pmax=1.0, tau=1e-4, beta=1.0))
        for s, value in zip(p.streams, (L_PROMPT, L_EDGE))
    ))


def _small_ber_rule():
    # The rule needs BERs near 1e-9 here, where 1 - rho * L_i cancels.
    bpsk = preset("bpsk")
    s = StreamSpec(1, bpsk, ChannelState(gain=1.0, noise_w=1e-14), StreamCurve(0.0, 1.0, 0.1, 1.0))
    return ProblemSpec((s, s), SurfaceParams(0.0, 1.0, 0.1, 1e-5, 1.0, 1.0), target=0.5)


@given(problems())
@example(_saturating_curves())
@example(_small_ber_rule())
def test_sweep_meets_target_or_refuses(p):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SempowerWarning)
        warnings.simplefilter("error", RuntimeWarning)
        # sweep_targets turns InfeasibleError and DomainError into error
        # rows and lets any other exception through, so a raise here is
        # a failure of the wrong type.
        rows = sweep_targets(p, [p.target])
    allocs = {r.solver: r.allocation for r in rows if r.allocation is not None}
    assert {"bisection", "grid_oracle"} <= set(allocs), [r.error for r in rows]
    for name, a in allocs.items():
        assert a.feasible and a.converged, name
        assert all(math.isfinite(q) and q >= 0.0 for q in a.q), (name, a.q)
        assert math.isfinite(a.total_cost), name
        assert abs(a.achieved_p - p.target) <= TARGET_ATOL, (name, a.achieved_p)
    if not any(issubclass(w.category, SempowerWarning) for w in caught):
        cost_b = allocs["bisection"].total_cost
        for name in ("equal_snr", "proportional"):
            if name in allocs:
                assert cost_b <= (1.0 + COST_RTOL) * allocs[name].total_cost, name

