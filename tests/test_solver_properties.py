"""Property tests of the four allocators over random problems.

Surfaces, stream curves, modulations, link gains, bit counts and
targets are drawn at random (derandomised, see ``conftest.py``); every
example runs :func:`sweep_targets` on one target with numpy
``RuntimeWarning`` promoted to an error.
"""

import math
import warnings
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from sempower import solvers
from sempower.channel import ChannelState, make_channel_state
from sempower.config import load_config
from sempower.errors import DomainError, InfeasibleError, SempowerWarning
from sempower.modulation import (
    PSI_FLOOR,
    PRESETS,
    ModulationScheme,
    power_from_ber,
    preset,
    zero_power_ber,
)
from sempower.numerics import bisect_root, finite_difference
from sempower.perception import (
    L_EDGE,
    L_PROMPT,
    StreamCurve,
    SurfaceParams,
    _line_ends,
    decay_shares,
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    eval_surface,
    line_point,
)
from sempower.solvers import (
    ORACLE_AGREEMENT_RTOL,
    ProblemSpec,
    StreamSpec,
    achievable_range,
    solve_bisection,
    solve_equal_snr,
    solve_grid_oracle,
    solve_proportional,
    sweep_targets,
)

from conftest import REF_CHANNEL, kept_fractions, make_problem, midpoint_run, recorded_gap_calls

TARGET_ATOL = 1e-6  # acceptance c03
RATIO_ATOL = 1e-8  # the proportional rule's |r1 - r2|, as in test_solvers.py
COST_RTOL = 1e-3
ORACLE_SLACK = 1e-9  # bisection may sit this far above the grid oracle

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
    # Curves that reach pmax = 1: to reach 0.92 the proportional rule
    # leaves each stream about 7.4e-12 of its semantic value.
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


def _rule_near_a_saturated_curve():
    # Both streams lose 28% of their value, all that stream 2's curve can
    # take: the rule's point sits where that curve has saturated.
    s1 = StreamSpec(9636454, preset("8qam"), ChannelState(gain=3.48e-12, noise_w=NOISE_W),
                    StreamCurve(0.092, 0.878, 6.89e-4, 2.89))
    s2 = StreamSpec(6826047, preset("bpsk"), ChannelState(gain=5.53e-5, noise_w=NOISE_W),
                    StreamCurve(0.618, 0.725, 2.59e-4, 1.16))
    return ProblemSpec((s1, s2), SurfaceParams(0.705, 0.817, 0.0729, 5.88e-3, 2.45, 1.21),
                       target=0.7844)


def _rule_where_the_curve_inverse_overflowed():
    # Both streams lose 17.7% of their value, all that stream 2's curve
    # can take, so the curve inverse of that loss overflows to infinity.
    s1 = StreamSpec(5915832, preset("8qam"), ChannelState(gain=2.77e-14, noise_w=NOISE_W),
                    StreamCurve(0.867, 0.933, 3.49e-5, 1.69))
    s2 = StreamSpec(5510048, MODULATIONS[-1], ChannelState(gain=3.73e-9, noise_w=NOISE_W),
                    StreamCurve(0.0887, 0.25, 3.09e-5, 2.22))
    return ProblemSpec((s1, s2), SurfaceParams(0.206, 0.685, 8.45e-5, 0.0597, 2.6, 2.21),
                       target=0.6319)


@given(problems())
@example(_saturating_curves())
@example(_small_ber_rule())
@example(_rule_near_a_saturated_curve())
@example(_rule_where_the_curve_inverse_overflowed())
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
    if "proportional" in allocs:
        r1, r2 = kept_fractions(p, allocs["proportional"])
        assert abs(r1 - r2) <= RATIO_ATOL, (r1, r2)
    if not any(issubclass(w.category, SempowerWarning) for w in caught):
        cost_b = allocs["bisection"].total_cost
        for name in ("equal_snr", "proportional"):
            if name in allocs:
                assert cost_b <= (1.0 + COST_RTOL) * allocs[name].total_cost, name


def _optimum_under_the_ber_floor():
    # beta = 0.3 on both axes and a stream-2 link 1.5e5 times weaker put
    # the optimum at psi1 < 1e-15, where the power is clamped at the BER
    # floor; a search linear in psi1 stopped 0.1% above the oracle there.
    bpsk = preset("bpsk")
    s1, s2 = (
        StreamSpec(bits, bpsk, ChannelState(gain=gain, noise_w=NOISE_W), curve)
        for bits, gain, curve in ((1024, 1e-10, StreamCurve(1.0 - L_PROMPT, 0.95, 5e-3, 1.0)),
                                  (8192, 6.8e-16, StreamCurve(1.0 - L_EDGE, 0.95, 1e-3, 1.0)))
    )
    return ProblemSpec((s1, s2), SurfaceParams(0.3, 0.95, 1.6e-3, 1.6e-3, 0.3, 0.3), target=0.625)


def _optimum_past_the_floor_region():
    # Near the surface floor psi1 stays under the BER floor for the first
    # 60% of stream 1's share, where its clamped power is flat; the
    # optimum lies at a share of 0.89. A slope of -inf in the clamped
    # stretch made the search stop at psi1 = 0, 0.7% above the oracle.
    s = StreamSpec(163554, preset("16qam"), ChannelState(gain=5.5e-17, noise_w=NOISE_W),
                   StreamCurve(0.287, 0.999, 2.8e-3, 2.84))
    surface = SurfaceParams(0.133, 0.176, 0.01, 2.8e-3, 0.4, 2.84)
    return ProblemSpec((s, s), surface, target=0.133 + 1e-5 * (0.176 - 0.133))


@given(problems())
@example(_optimum_under_the_ber_floor())
@example(_optimum_past_the_floor_region())
def test_bisection_never_above_oracle(p):
    # The strategy draws beta on both sides of 1 and link gains 20 decades
    # apart, so optima sit near either end of the line, and on about one
    # problem in six a BER under the floor.
    cost_b = solve_bisection(p).total_cost
    cost_g = solve_grid_oracle(p).total_cost
    assert cost_b <= cost_g * (1.0 + ORACLE_SLACK), (cost_b, cost_g)


@st.composite
def wide_problems(draw):
    """The reference problem on a surface with ``tau`` from 1e-320 to 10 and
    ``beta`` from 0.05 to 50, both streams on one preset."""
    taus = [10.0 ** draw(st.floats(-320.0, 1.0)) for _ in range(2)]
    betas = [10.0 ** draw(st.floats(-1.3, 1.7)) for _ in range(2)]
    scheme = draw(st.sampled_from(["bpsk", "8qam", "16qam"]))
    p = replace(make_problem(make_channel_state(REF_CHANNEL), scheme),
                surface=SurfaceParams(0.3, 0.95, *taus, *betas))
    lo, hi = achievable_range(p)
    target = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
    assume(lo < target < hi)  # a range narrower than rounding holds no target
    return replace(p, target=target)


def _small_beta1():
    # beta1 = 0.069: twelve decades of psi1 below its top are under one
    # decade of stream 1's share, and a grid over them priced 2.2282 where
    # bisection finds 2.0390.
    surface = SurfaceParams(0.3, 0.95, 5.6029223416311225e-192, 1.3597206671358468,
                            0.06905819716309045, 0.18360094535316446)
    p = make_problem(make_channel_state(REF_CHANNEL), "bpsk", target=0.6643066782379515)
    return replace(p, surface=surface)


@given(wide_problems())
@example(_small_beta1())
def test_oracle_agrees_with_bisection_on_wide_surfaces(p):
    cost_g = solve_grid_oracle(p).total_cost
    assert cost_g <= solve_bisection(p).total_cost * (1.0 + ORACLE_AGREEMENT_RTOL), cost_g


@given(problems() | wide_problems(), st.sampled_from([None, 0, 1]))
def test_line_set_up_is_the_surface_and_the_shares_bit_for_bit(p, at_top):
    # _line takes each stream's decay at the box once, for the reachable top
    # and the top shares: both must be what eval_surface and decay_shares
    # give, and the zero-power allocation must start exactly at that top.
    box = tuple(zero_power_ber(s.modulation) for s in p.streams)
    hi = eval_surface(p.surface, *box)
    if at_top is not None:  # the top itself, and the double just below it
        assume(p.surface.p0 < math.nextafter(hi, 0.0) and (at_top or hi < 1.0))
        p = replace(p, target=math.nextafter(hi, 0.0) if at_top else hi)
    line = solvers._line(p, "")
    if p.target >= hi:
        assert line == solvers.Allocation((0.0, 0.0), box, hi, 0.0, "", 0, True)
        return
    assert line.box == box
    assert (line.u, *line.top) == decay_shares(p.surface, p.target, box)
    assert line.ends == _line_ends(line.top)


# Both solvers price their points through one loop; a slow pricer built
# from the public kernels alone keeps the oracle an independent check.


def _ends(p):
    """The line's end shares, stream 2's largest share first."""
    box = tuple(zero_power_ber(s.modulation) for s in p.streams)
    _, top1, top2 = decay_shares(p.surface, p.target, box)
    return (max(1.0 - top2, 0.0), top2), (top1, max(1.0 - top1, 0.0))


def _priced(p, points):
    """The cheapest of ``points``, ``(y, shares)`` pairs, each priced by
    :func:`line_point` and :func:`power_from_ber`: ``(cost, y, psi, q)``."""
    box = tuple(zero_power_ber(s.modulation) for s in p.streams)
    u = decay_shares(p.surface, p.target, box)[0]
    w = [s.bits / (s.modulation.bits_per_symbol if p.cost_basis == "symbols" else 1)
         for s in p.streams]

    def price(y, shares):
        psi = line_point(p.surface, u, shares, box)
        q = tuple(power_from_ber(s.modulation, s.channel, max(v, PSI_FLOOR))
                  for s, v in zip(p.streams, psi))
        return w[0] * q[0] + w[1] * q[1], y, psi, q

    return min(price(y, shares) for y, shares in points)


def _reference_oracle(p, grid_n):
    """The oracle's grid: both ends, an even pass in ``y``, and a finer one
    around the first pass's cheapest point; ties go to the smallest ``y``."""
    ends = _ends(p)
    lo, hi = (math.log(2.0 * (s1 or 5e-324)) if s1 < s2 else -math.log(2.0 * (s2 or 5e-324))
              for s1, s2 in ends)
    n1, n2 = (grid_n - 1) // 2, (grid_n - 2) // 2
    step = (hi - lo) / (n1 + 1)

    def on_line(y):  # the smaller share is e^-|y| / 2, stream 1's below 0
        e = 0.5 * math.exp(-abs(y))
        return y, ((e, 1.0 - e) if y < 0.0 else (1.0 - e, e))

    first = _priced(p, [on_line(lo + i * step) for i in range(1, n1 + 1)])
    a, fine = first[1] - step, 2.0 * step / (n2 + 1)
    return min(first, _priced(p, [(lo, ends[0]), (hi, ends[1]),
                                  *(on_line(a + j * fine) for j in range(1, n2 + 1))]))


def assert_priced_as_reference(p, grid_n=4096):
    """``grid_oracle`` and ``bisection`` return the reference pricer's
    allocations, ``repr`` for ``repr``; ``bisection`` keeps the point its
    search found unless an end is strictly cheaper."""
    found, search = [], solvers._share_search

    def recorded(*args):
        out = search(*args)
        found.append(out[0])
        return out

    with mock.patch.object(solvers, "_share_search", recorded):
        got_b = solve_bisection(p)
    ends = _ends(p)
    for got, (cost, _, psi, q) in (
        (solve_grid_oracle(p, grid_n), _reference_oracle(p, grid_n)),
        (got_b, _priced(p, [(0, found[0]), (1, ends[0]), (2, ends[1])])),
    ):
        want = replace(got, q=q, psi=psi, total_cost=cost,
                       achieved_p=eval_surface(p.surface, *psi))
        assert repr(got) == repr(want), got.solver


def _readme_problems():
    """The problems of the README ``solve`` and ``sweep`` commands."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    solve_cfg, sweep_cfg = (load_config(configs / name)
                            for name in ("default.yaml", "sweep_modulations.yaml"))
    return [solve_cfg.problem(solve_cfg.target)] + [
        sweep_cfg.problem(t, preset(m)) for m in sweep_cfg.modulations for t in sweep_cfg.targets]


def _line_point_past_binary64():
    # (s U)^(1/beta2) overflows at beta2 0.00179, and tau2 (s U)^(1/beta2)
    # at a subnormal tau2 does not: the pricer's fallback to _ber_of_decay.
    m = ModulationScheme("c", 4, 1.0, 1.0)
    link = ChannelState(gain=1e-10, noise_w=1e-13)
    streams = (StreamSpec(1024, m, link, default_prompt_curve()),
               StreamSpec(8192, m, link, default_edge_curve()))
    return ProblemSpec(streams, SurfaceParams(0.3, 0.999, 5e-3, 2.66e-319, 1.0, 0.00179), 0.988)


@pytest.mark.parametrize("p", [*_readme_problems(), _line_point_past_binary64()])
def test_readme_problems_priced_as_reference(p):
    assert_priced_as_reference(p)


@given(problems() | wide_problems())
def test_priced_as_reference(p):
    assume(p.target < achievable_range(p)[1])  # a free target prices nothing
    assert_priced_as_reference(p, 129)


def _gap_flat_at_its_root():
    # proportional's gap rounds to exactly 0 at a midpoint well before the
    # bracket is narrow: a reference that stopped there counted 15 steps
    # where the search took 17.
    bpsk, link = preset("bpsk"), ChannelState(gain=1.0, noise_w=1e-14)
    s1 = StreamSpec(1, bpsk, link, StreamCurve(0.0, 0.9176452622623447, 1e-5, 1.5))
    s2 = StreamSpec(1, bpsk, link, StreamCurve(0.5, 0.9588226311311723, 1e-4, 1.0))
    return ProblemSpec((s1, s2), SurfaceParams(0.0, 1.0, 0.03162277660168379, 0.1, 2.0, 2.0),
                       target=0.5)


@given(problems())
@example(_gap_flat_at_its_root())
def test_search_never_more_than_one_step_behind_bisection(p):
    # Each allocator's ITP search, replayed as a midpoint bisection on the
    # same function and bracket: at most one step more. The steps are the
    # search's own, not the allocation's iterations, which also count the
    # calls made before it (equal_snr's bracket end, bisection's seed).
    searches = []

    def recorded(f, lo, hi, tol, *guess_and_f_hi):
        out = bisect_root(f, lo, hi, tol, *guess_and_f_hi)
        searches.append((out[1], (f, lo, hi, tol)))
        return out

    for solver in (solve_equal_snr, solve_proportional, solve_bisection):
        searches.clear()
        with mock.patch.object(solvers, "bisect_root", recorded):
            try:
                alloc = solver(p)
            except (InfeasibleError, DomainError):
                continue
        if alloc.total_cost == 0.0:  # free target: no search
            continue
        ((steps, search),) = searches
        assert steps <= len(midpoint_run(*search)) + 1, solver.__name__


@given(problems())
def test_gap_calls_counted_and_never_repeated(p):
    # The share searches evaluate no point twice, and count every call.
    with recorded_gap_calls() as calls:
        for solver in (solve_proportional, solve_bisection):
            calls.clear()
            try:
                alloc = solver(p)
            except DomainError:  # the proportional rule leaves the branch
                continue
            assert len(set(calls)) == len(calls), (solver.__name__, calls)
            assert alloc.iterations == len(calls), solver.__name__


# A modulation whose zero-power BER 0.5 leaves psi g = 1/6 there, so that
# the slope stays finite where the BER is capped at the box.
WIDE = ModulationScheme("wide", 2, 3.0, 1.0)


def _both_surfaces_at_a_tenth():
    # At a share of e^-707 the BER is still 6e-309, but x / (beta share)
    # leaves binary64 while the slope's other terms do not.
    s = StreamSpec(1, preset("bpsk"), ChannelState(gain=1.0, noise_w=NOISE_W),
                   StreamCurve(0.0, 1.0, 0.1, 1.0))
    return ProblemSpec((s, s), SurfaceParams(0.0, 1.0, 0.1, 0.1, 1.0, 1.0), target=0.5)


@given(problems(), st.integers(0, 1), st.booleans(), st.booleans(), st.floats(-745.0, 1.0),
       st.floats(-3.0, 3.0))
@example(_both_surfaces_at_a_tenth(), 0, False, False, -707.0, 0.0)
def test_share_slope_derivative_matches_finite_differences(p, i, wide, near_cap, log_share,
                                                           past_cap):
    # The derivative in log s that the Newton steps use, against a central
    # difference of the slope: along the line, past the share where the BER
    # reaches the box and is capped, and at the infinite ends. Stream i's
    # share moves through the pair rule while the other's is held at half
    # its largest share, where its slope is a finite constant.
    if wide:
        p = replace(p, streams=tuple(replace(s, modulation=WIDE) if n == i else s
                                     for n, s in enumerate(p.streams)))
    line = solvers._line(p, "bisection")
    box, u, top = line.box, line.u, line.top
    tau, beta = ((p.surface.tau1, p.surface.beta1), (p.surface.tau2, p.surface.beta2))[i]
    pair, other = solvers._share_slopes(p, line)[0], 0.5 * top[1 - i]
    held = line_point(p.surface, u, (other, other), box)[1 - i]
    assume(held * line.links[1 - i].g > 0.0)  # the other stream's slope is finite there

    def slope(share):  # stream i's slope, less the other's, and its derivative
        if i == 0:
            value, d, _ = pair(share, other)
            return -value, d
        value, _, d = pair(other, share)
        return value, d

    at = beta * math.log(box[i] / tau) - math.log(u) + past_cap if near_cap else log_share
    value, derivative = slope(math.exp(at))
    if math.isinf(value):  # the BER underflows (+inf) or is the zero-power one (-inf)
        assert derivative == (-1.0 if value > 0.0 else -math.inf)
        return
    h = 1e-4
    around = [slope(math.exp(v))[0] for v in (at - h, at + h)]
    capped = [tau * (math.exp(v) * u) ** (1.0 / beta) > box[i] for v in (at - h, at + h)]
    if at - h < -700.0 or math.isinf(sum(around)) or capped[0] != capped[1]:
        return  # a subnormal share, an infinite neighbour, or the kink at the box
    # Richardson's extrapolation of the central difference cancels its h^2 error
    d = [finite_difference(lambda v: slope(math.exp(v))[0], at, step) for step in (h, h / 2)]
    reference = (4.0 * d[1] - d[0]) / 3.0
    assert abs(derivative - reference) <= 1e-5 * (1.0 + abs(derivative)), (derivative, reference)


@st.composite
def links(draw):
    """A preset or custom ``(M, a, b)`` over a link with random noise and gain."""
    m = draw(st.sampled_from(MODULATIONS) | st.builds(
        ModulationScheme, st.just("custom"), st.sampled_from([2, 4, 8, 16, 64, 256, 1024]),
        st.floats(0.05, 20.0), st.floats(0.01, 10.0)))
    state = ChannelState(gain=10.0 ** draw(st.floats(-20.0, 0.0)),
                         noise_w=10.0 ** draw(st.floats(-17.0, -8.0)))
    return StreamSpec(1024, m, state, StreamCurve(0.0, 1.0, 1e-3, 1.0))


@given(links(), links(), st.floats(-400.0, 0.0))
def test_hoisted_powers_are_power_from_ber_bit_for_bit(s1, s2, log_share):
    # The solvers price a point of the line with each stream's inversion
    # constants bound once per solve. Its BERs must be line_point's and its
    # powers power_from_ber's to the last bit, and both the textbook
    # x = Qinv(psi log2 M / a), x * x / b * (noise / gain).
    p = ProblemSpec((s1, s2), default_surface(), 0.5)
    line = solvers._line(p, "")
    assume(not isinstance(line, solvers.Allocation))  # met for free
    shares = (10.0**log_share, 1.0 - 10.0**log_share)  # a share of 0 gives a BER of 0
    cost, _, psi, got = solvers._cheapest(p, line, [shares])
    assert psi == line_point(p.surface, line.u, shares, line.box)
    for s, v, q in zip(p.streams, psi, got):
        m = s.modulation
        x = -NormalDist().inv_cdf(max(v, PSI_FLOOR) * (m.bits_per_symbol / m.a)) + 0.0
        assert q == x * x / m.b * (s.channel.noise_w / s.channel.gain)
        assert q == power_from_ber(m, s.channel, max(v, PSI_FLOOR))
        if v > 0.0:
            assert q == power_from_ber(m, s.channel, v)  # the clamp is inside too
    assert cost == line.w[0] * got[0] + line.w[1] * got[1]
