import hashlib
import itertools
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sempower import numerics
from sempower.channel import ChannelState, make_channel_state
from sempower.errors import DomainError, InfeasibleError, SempowerError, SempowerWarning
from sempower.modulation import ModulationScheme, ber_from_snr, preset, zero_power_ber
from sempower.numerics import ToleranceConfig
from sempower.perception import (
    StreamCurve,
    SurfaceParams,
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    eval_surface,
    solve_psi2_on_constraint,
)
from sempower.solvers import (
    ORACLE_AGREEMENT_RTOL,
    PROPORTIONAL_ATOL,
    SEARCH_TOL,
    SOLVER_ORDER,
    ProblemSpec,
    StreamSpec,
    _lost_value,
    achievable_range,
    solve,
    solve_bisection,
    solve_equal_snr,
    solve_grid_oracle,
    solve_proportional,
    sweep_targets,
)

from conftest import REF_CHANNEL, assert_rel, kept_fractions, make_problem, recorded_gap_calls

TARGETS = np.linspace(0.33, 0.92, 10)


@pytest.fixture
def quantile_calls(monkeypatch):
    """Every call of the normal quantile kernel, as it is looked up on ``numerics``."""
    calls = []
    kernel = numerics._normal_dist_inv_cdf
    monkeypatch.setattr(numerics, "_normal_dist_inv_cdf", lambda *a: calls.append(a) or kernel(*a))
    return calls


def fading_blocks(n=400, seed=7):
    """One problem per Rayleigh coherence block on the bundled surface and
    the README link, as in the benchmark."""
    rng = random.Random(seed)
    schemes = [preset(name) for name in ("bpsk", "8qam", "16qam")] + [
        ModulationScheme("custom", 4, 1.0, 1.0)]
    surface = default_surface()
    for _ in range(n):
        fades = [rng.expovariate(1.0)]
        fades.append(fades[0] if rng.random() < 0.5 else rng.expovariate(1.0))
        streams = tuple(
            StreamSpec(2 ** rng.randint(8, 15), rng.choice(schemes),
                       make_channel_state(REF_CHANNEL, fade), curve())
            for fade, curve in zip(fades, (default_prompt_curve, default_edge_curve)))
        lo, hi = achievable_range(ProblemSpec(streams, surface, 0.5))
        yield ProblemSpec(streams, surface, lo + (hi - lo) * rng.uniform(0.05, 0.95))


def symmetric_problem(state, target=0.6):
    """Identical streams over a symmetric surface: optimum at psi1 == psi2."""
    curve = StreamCurve(p0=0.45, pmax=0.95, tau=2e-3, beta=1.0)
    scheme = preset("bpsk")
    surface = SurfaceParams(p0=0.3, pmax=0.95, tau1=2e-3, tau2=2e-3, beta1=1.0, beta2=1.0)
    return ProblemSpec(
        streams=(
            StreamSpec(bits=4096, modulation=scheme, channel=state, curve=curve, name="a"),
            StreamSpec(bits=4096, modulation=scheme, channel=state, curve=curve, name="b"),
        ),
        surface=surface,
        target=target,
    )


class TestOverflow:
    """Powers and costs beyond binary64 are input errors, never ``inf``."""

    def test_problem_refuses_a_link_whose_floor_power_overflows(self, ref_state):
        p = make_problem(ref_state)
        loud = replace(p.streams[1], channel=replace(ref_state, noise_w=1e297))
        with pytest.raises(DomainError, match="stream edge: the power for BER 1e-15 overflows"):
            replace(p, streams=(p.streams[0], loud))

    def test_equal_snr_powers_above_the_floor_power_overflow(self):
        # The floor cost is 6.3e307, but equal SNR needs BERs near 1e-48,
        # and its powers are not clamped at the floor.
        s = StreamSpec(1, preset("bpsk"), ChannelState(gain=1.0, noise_w=1e306),
                       StreamCurve(0.0, 1.0, 1e-3, 1.0))
        p = ProblemSpec((s, s), SurfaceParams(0.0, 0.65, 1e-3, 1e-3, 1.0, 1.0), target=1e-45)
        with pytest.raises(DomainError, match="equal_snr: the total cost .* overflows"):
            solve_equal_snr(p)
        assert math.isfinite(solve_bisection(p).total_cost)


    @pytest.mark.parametrize("swap", [False, True], ids=["stream2", "stream1"])
    def test_surface_whose_line_point_leaves_binary64(self, swap):
        # (s U)^(1/beta) overflows at beta 0.00179, but tau (s U)^(1/beta)
        # does not at a subnormal tau; psi/tau overflows there too.
        m = ModulationScheme("c", 4, 1.0, 1.0)
        link = ChannelState(gain=1e-10, noise_w=1e-13)
        streams = (StreamSpec(1024, m, link, default_prompt_curve()),
                   StreamSpec(8192, m, link, default_edge_curve()))
        tau, beta = (5e-3, 2.66e-319), (1.0, 0.00179)
        if swap:
            streams, tau, beta = streams[::-1], tau[::-1], beta[::-1]
        p = ProblemSpec(streams, SurfaceParams(0.3, 0.999, *tau, *beta), target=0.988)
        for name in SOLVER_ORDER:
            try:
                alloc = solve(p, name)
            except SempowerError:
                continue
            assert all(math.isfinite(v) for v in (*alloc.q, alloc.total_cost)), name
            assert abs(alloc.achieved_p - p.target) <= 1e-6, name


class TestEqualSnr:
    def test_symmetry(self, ref_state):
        alloc = solve_equal_snr(symmetric_problem(ref_state))
        assert alloc.q[0] == alloc.q[1]
        assert alloc.psi[0] == alloc.psi[1]

    def test_meets_target(self, default_problem):
        alloc = solve_equal_snr(default_problem)
        assert abs(alloc.achieved_p - default_problem.target) < 1e-8

    def test_matches_equal_snr_ray_scan(self, default_problem):
        # oracle: dense scan of the common-SNR ray
        p = default_problem
        m1, m2 = (s.modulation for s in p.streams)
        gammas = np.linspace(1.0, 200.0, 400_001)
        vals = np.array(
            [np.asarray(eval_surface(p.surface, ber_from_snr(m1, g), ber_from_snr(m2, g)))
             for g in gammas[:: 4000]]
        )
        # bracket the best coarse point, then refine once
        k = int(np.argmin(np.abs(vals - p.target)))
        coarse = gammas[::4000][k]
        fine = np.linspace(coarse - 2.0, coarse + 2.0, 40_001)
        fvals = np.array(
            [eval_surface(p.surface, ber_from_snr(m1, g), ber_from_snr(m2, g)) for g in fine]
        )
        best = fine[int(np.argmin(np.abs(fvals - p.target)))]
        alloc = solve_equal_snr(p)
        gamma_star = alloc.q[0] * p.streams[0].channel.gain / p.streams[0].channel.noise_w
        assert abs(gamma_star - best) <= fine[1] - fine[0]

    def test_same_snr_on_both_streams(self, default_problem):
        alloc = solve_equal_snr(default_problem)
        s1, s2 = default_problem.streams
        g1 = alloc.q[0] * s1.channel.gain / s1.channel.noise_w
        g2 = alloc.q[1] * s2.channel.gain / s2.channel.noise_w
        assert_rel(g1, g2, 1e-12)

    def test_surface_decay_beyond_binary64(self, ref_state):
        # (psi2/tau2)^beta2 overflows a float above psi2 = 1.4e-5, where the
        # decay is far above U. The achievable range evaluates the surface
        # at the box, where the decay saturates to P = pmax without a warning.
        p = replace(make_problem(ref_state, target=0.6),
                    surface=SurfaceParams(0.3, 0.95, 5e-3, 1e-10, 1.0, 60.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = solve_equal_snr(p)
        assert abs(alloc.achieved_p - p.target) < 1e-6

    def test_gap_calls_on_fading_blocks(self, monkeypatch):
        # The closed-form bracket leaves about 6 evaluations of the gap,
        # every one counted. Each evaluation reads both streams' BERs, and
        # so does the finished allocation.
        import sempower.solvers as solvers_mod

        calls = []
        monkeypatch.setattr(solvers_mod, "_ber",
                            lambda m, g: calls.append(g) or ber_from_snr(m, g))
        counts = []
        for p in fading_blocks():
            calls.clear()
            alloc = solve_equal_snr(p)
            assert alloc.converged and abs(alloc.achieved_p - p.target) <= 1e-6
            assert alloc.iterations == (len(calls) - 2) / 2
            counts.append(alloc.iterations)
        assert sum(counts) / len(counts) <= 7.0 and max(counts) <= 10

    def test_root_at_the_lower_end_of_the_bracket(self, ref_state):
        # At tau1 = 1e-200 the common SNR holds both BERs near 1e-200, where
        # stream 2's decay is negligible: the point is where stream 1's
        # decay alone is U, the lower end of the bracket, and the gap there
        # rounds to just above 0.
        p = replace(make_problem(ref_state), surface=replace(default_surface(), tau1=1e-200))
        alloc = solve_equal_snr(p)
        assert alloc.iterations == 1 and alloc.total_cost == 2653.809187405921

    def test_a_target_no_common_snr_meets_is_refused(self, ref_state):
        # At tau1 = 5e-324 stream 1's decay leaps from 0 to beyond binary64
        # as its BER leaves the subnormals, so P jumps past the target.
        p = replace(make_problem(ref_state), surface=replace(default_surface(), tau1=5e-324))
        with pytest.raises(DomainError, match="equal_snr misses target 0.6 by"):
            solve_equal_snr(p)
        assert solve_bisection(p).total_cost == pytest.approx(45.78, rel=1e-3)

    def test_decay_beyond_binary64_inside_the_bracket(self):
        # psi g at stream 1's decay U is below the smallest double, so the
        # bracket starts where its BER may still be 1e6 * 5e-324, whose
        # decay at tau1 = 5e-324 and beta1 = 60 overflows: far above U.
        curve = StreamCurve(0.1, 0.9, 1e-3, 1.0)
        link = ChannelState(gain=1.0, noise_w=1e-14)
        streams = (StreamSpec(1024, ModulationScheme("loud", 2, 1e6, 1.0), link, curve),
                   StreamSpec(1024, preset("16qam"), link, curve))
        p = ProblemSpec(streams, SurfaceParams(0.0, 1.0, 5e-324, 1e-3, 60.0, 1.0), 0.6)
        with pytest.raises(DomainError, match="equal_snr misses target 0.6 by"):
            solve_equal_snr(p)


class TestProportional:
    def test_ratio_contract(self, default_problem):
        r1, r2 = kept_fractions(default_problem, solve_proportional(default_problem))
        assert abs(r1 - r2) < 1e-8

    def test_meets_target(self, default_problem):
        alloc = solve_proportional(default_problem)
        assert abs(alloc.achieved_p - default_problem.target) < 1e-6

    def test_never_beats_bisection(self, ref_state):
        for t in TARGETS:
            p = make_problem(ref_state, target=float(t))
            assert solve_proportional(p).total_cost >= solve_bisection(p).total_cost * (1 - 1e-9)

    def test_domain_error_when_rule_leaves_branch(self, ref_state):
        # stream 1 barely moves the joint surface but its curve is very
        # BER-tolerant, so the ratio rule demands a BER far beyond what
        # 16-QAM can exhibit even at zero power
        scheme = preset("16qam")
        c1 = StreamCurve(p0=0.3, pmax=0.95, tau=10.0, beta=1.0)
        c2 = StreamCurve(p0=0.3, pmax=0.95, tau=1e-4, beta=1.0)
        surface = SurfaceParams(p0=0.25, pmax=0.9999, tau1=50.0, tau2=1e-3, beta1=1.0, beta2=1.0)
        p = ProblemSpec(
            streams=(
                StreamSpec(bits=1000, modulation=scheme, channel=ref_state, curve=c1),
                StreamSpec(bits=1000, modulation=scheme, channel=ref_state, curve=c2),
            ),
            surface=surface,
            target=0.8,
        )
        with pytest.raises(DomainError):
            solve_proportional(p)

    def test_meets_target_where_the_rule_keeps_little_value(self, ref_state):
        # Curves saturating at pmax = 1: to reach 0.92 both streams keep
        # only 7.4e-12 of their value.
        p = make_problem(ref_state, target=0.92)
        p = replace(p, streams=tuple(
            replace(s, curve=StreamCurve(p0=s.curve.p0, pmax=1.0, tau=1e-4, beta=1.0))
            for s in p.streams
        ))
        alloc = solve_proportional(p)
        assert abs(alloc.achieved_p - p.target) <= PROPORTIONAL_ATOL
        r1, r2 = kept_fractions(p, alloc)
        assert r1 < 1e-9 and abs(r1 - r2) <= 1e-8

    def test_curve_decay_beyond_binary64_is_a_full_loss(self, ref_state):
        # (psi/tau)^beta of the edge curve overflows a float above
        # psi = 1.4e-5; there the edge stream has lost its whole range.
        p = make_problem(ref_state, target=0.6)
        edge = replace(p.streams[1], curve=StreamCurve(0.3, 0.6, 1e-10, 60.0))
        p = replace(p, streams=(p.streams[0], edge))
        alloc = solve_proportional(p)
        assert abs(alloc.achieved_p - p.target) <= PROPORTIONAL_ATOL
        r1, r2 = kept_fractions(p, alloc)
        assert abs(r1 - r2) <= 1e-8

    def test_rule_broken_at_an_underflowing_ber_is_refused(self):
        # Stream 1's curve decay is 0 at psi1 = 0 and 0.93 at 5e-324, so
        # the lost-value difference jumps across 0 there: the search
        # converges onto the jump, where stream 1 keeps all of its value
        # and stream 2 only 0.603.
        link = ChannelState(gain=1e-10, noise_w=1e-14)
        curves = StreamCurve(0.3, 0.95, 1e-320, 0.01), default_edge_curve()
        p = ProblemSpec(tuple(StreamSpec(1000, preset("bpsk"), link, c) for c in curves),
                        default_surface(), target=0.6)
        with pytest.raises(DomainError, match="cannot be met: stream 1 keeps 0.397 more"):
            solve_proportional(p)

    def test_lost_value_slope_where_the_curve_ratio_overflows(self):
        # psi / tau leaves binary64 at a subnormal tau, yet the decay is
        # 1,479: the whole range is lost, with a finite slope of 0.
        lost, slope = _lost_value(StreamCurve(0.3, 0.95, 1e-320, 0.01), 1e-3)
        assert lost == pytest.approx(0.65 / 0.7) and slope == 0.0

    def test_meets_target_where_rule_needs_small_bers(self):
        # 1 - rho * L_i sits just above the curve floor here; a ratio
        # resolved to 1e-9 * rho missed the target by 1.9e-6
        s = StreamSpec(1, preset("bpsk"), ChannelState(gain=1.0, noise_w=1e-14),
                       StreamCurve(0.0, 1.0, 0.1, 1.0))
        p = ProblemSpec((s, s), SurfaceParams(0.0, 1.0, 0.1, 1e-5, 1.0, 1.0), target=0.5)
        alloc = solve_proportional(p)
        assert abs(alloc.achieved_p - p.target) <= PROPORTIONAL_ATOL

    def test_meets_target_where_the_curve_inverse_saturates(self):
        # With beta = 2 the curve inverse saturates in binary64 at about
        # 0.015 and then jumps to infinity; the rule must not rely on it
        # to meet a target at 99% of the range.
        s = StreamSpec(400, preset("8qam"), ChannelState(gain=1e-17, noise_w=1e-14),
                       StreamCurve(0.48, 0.51, 2.5e-3, 2.0))
        p = ProblemSpec((s, s), SurfaceParams(0.0, 0.06, 0.01, 0.01, 2.5, 2.5), target=0.0594)
        alloc = solve_proportional(p)
        assert abs(alloc.achieved_p - p.target) <= PROPORTIONAL_ATOL
        r1, r2 = kept_fractions(p, alloc)
        assert abs(r1 - r2) <= 1e-8
        assert alloc.total_cost >= solve_bisection(p).total_cost * (1 - 1e-9)


class TestBisection:
    def test_symmetric_optimum(self, ref_state):
        alloc = solve_bisection(symmetric_problem(ref_state))
        assert abs(alloc.psi[0] - alloc.psi[1]) < 1e-6

    def test_meets_target(self, default_problem):
        alloc = solve_bisection(default_problem)
        assert abs(alloc.achieved_p - default_problem.target) < 1e-6

    def test_within_oracle_tolerance(self, ref_state):
        for t in TARGETS:
            p = make_problem(ref_state, target=float(t))
            cost_b = solve_bisection(p).total_cost
            cost_g = solve_grid_oracle(p, 4096).total_cost
            assert abs(cost_b - cost_g) / cost_g < 0.005

    def test_stationary_along_constraint(self, default_problem):
        # total cost derivative along the line vanishes at the returned
        # point, checked by finite differences of the constrained cost
        p = default_problem
        alloc = solve_bisection(p)
        box2 = min(0.5, zero_power_ber(p.streams[1].modulation))
        tight = ToleranceConfig(abs_tol=1e-14, rel_tol=1e-13, max_iter=300)
        w = tuple(float(s.bits) for s in p.streams)

        def cost_on_line(psi1):
            psi2 = solve_psi2_on_constraint(p.surface, psi1, p.target, tight, box2)
            from sempower.modulation import power_from_ber

            return w[0] * power_from_ber(p.streams[0].modulation, p.streams[0].channel, psi1) + (
                w[1] * power_from_ber(p.streams[1].modulation, p.streams[1].channel, max(psi2, 1e-15))
            )

        x = alloc.psi[0]
        h = 1e-4 * x
        slope = (cost_on_line(x + h) - cost_on_line(x - h)) / (2 * h)
        scale = (cost_on_line(x + 50 * h) - cost_on_line(x - 50 * h) + alloc.total_cost) / x
        assert abs(slope) / abs(scale) < 1e-4

    def test_iteration_bound(self, default_problem):
        # The search halves a bracket at most 0.5 wide in the smaller decay
        # share t until it is narrower than max(abs_tol, rel_tol * t).
        p = default_problem
        alloc = solve_bisection(p)
        s = p.surface
        u = -math.log1p(-(p.target - s.p0) / (s.pmax - s.p0))
        t = min((alloc.psi[0] / s.tau1) ** s.beta1, (alloc.psi[1] / s.tau2) ** s.beta2) / u
        eps = max(SEARCH_TOL.abs_tol, SEARCH_TOL.rel_tol * t)
        assert alloc.iterations <= math.ceil(math.log2(0.5 / eps)) + 1

    def test_resolves_a_line_shorter_than_the_absolute_width(self):
        # The whole line spans 1.4e-12 in psi1; a flat 1e-12 stopping
        # width ended after one step, 0.3% above the oracle.
        bpsk = preset("bpsk")
        streams = tuple(
            StreamSpec(1, bpsk, ChannelState(gain=gain, noise_w=1e-14),
                       StreamCurve(0.0, 1.0, tau, 1.0))
            for gain, tau in ((0.1, 1e-4), (1.0, 0.1))
        )
        p = ProblemSpec(streams, SurfaceParams(0.0, 1.0, 1e-5, 0.1, 0.875, 0.875), target=1e-6)
        cost_b = solve_bisection(p).total_cost
        assert cost_b <= solve_grid_oracle(p).total_cost * (1.0 + 1e-6)

    def test_infeasible_below_floor(self, ref_state):
        with pytest.raises(InfeasibleError):
            solve_bisection(make_problem(ref_state, target=0.2999))

    def test_slope_constants_whose_ratio_underflows(self):
        # noise / gain is 1e276 on one link and 1e-310 on the other, so
        # the ratio of the slope constants underflows to 0.
        bpsk = preset("bpsk")
        curve = StreamCurve(0.0, 1.0, 1e-3, 1.0)
        streams = tuple(StreamSpec(1024, bpsk, ChannelState(gain=gain, noise_w=noise), curve)
                        for gain, noise in ((1e-290, 1e-14), (1e10, 1e-300)))
        for target in (0.4, 0.8):
            p = ProblemSpec(streams, SurfaceParams(0.3, 0.95, 5e-3, 1e-3, 1.0, 1.0), target)
            alloc = solve_bisection(p)
            assert alloc.total_cost <= solve_grid_oracle(p).total_cost * (1.0 + 1e-9)
            # The optimum sits at the line end the search never evaluates;
            # plain halving would take 996 steps to reach the subnormals.
            assert alloc.converged and alloc.iterations <= 100

    def test_mean_steps_on_fading_blocks(self):
        # The search starts from the closed-form high-SNR optimum and takes
        # Newton steps, so it needs about 4 evaluations of the slope
        # difference, every one counted, where a search started blind took
        # about 12.
        with recorded_gap_calls() as calls:
            for p in fading_blocks():
                alloc = solve_bisection(p)
                assert alloc.converged and abs(alloc.achieved_p - p.target) <= 1e-6
        assert len(calls) / 400 <= 5.5

    def test_gap_calls_on_fading_blocks(self):
        # No search evaluates its gap twice at the same point, and
        # iterations counts every call.
        with recorded_gap_calls() as calls:
            for p in fading_blocks():
                for solver in (solve_bisection, solve_proportional):
                    calls.clear()
                    alloc = solver(p)
                    assert len(set(calls)) == len(calls), (solver.__name__, calls)
                    assert alloc.iterations == len(calls), solver.__name__

    def test_quantile_calls_on_fading_blocks(self, quantile_calls):
        # Two normal quantiles per evaluation of the slope difference, and
        # two for each of the found point and the line's two ends.
        for p in fading_blocks():
            quantile_calls.clear()
            alloc = solve_bisection(p)
            assert len(quantile_calls) == 2 * alloc.iterations + 6

    @pytest.mark.parametrize("grid_n", [65, 4096])
    def test_oracle_quantile_calls_on_fading_blocks(self, quantile_calls, grid_n):
        # Two normal quantiles per point priced; the winner's powers are
        # kept from its pricing, not computed again.
        for p in itertools.islice(fading_blocks(), 0, None, 10):
            quantile_calls.clear()
            assert solve_grid_oracle(p, grid_n).iterations == grid_n
            assert len(quantile_calls) == 2 * grid_n

    def test_mean_proportional_steps_on_fading_blocks(self):
        # Newton steps on the exact derivative of the lost-value difference
        # from the line's midpoint: about 4 evaluations, every one counted,
        # where the search on a share took 10.
        with recorded_gap_calls() as calls:
            for p in fading_blocks():
                alloc = solve_proportional(p)
                assert alloc.converged and abs(alloc.achieved_p - p.target) <= 1e-6
        assert len(calls) / 400 <= 5.0

    @pytest.mark.parametrize("target", [0.4, 0.6, 0.8])
    def test_slope_constant_whose_product_underflows(self, target):
        # b * gain = 1e-20 * 1e-305 rounds to 0 on stream 1, so its slope
        # constant has no ratio form; the logarithms still give the offset.
        curve = StreamCurve(0.0, 1.0, 1e-3, 1.0)
        streams = (
            StreamSpec(1024, ModulationScheme("c", 4, 1.0, 1e-20),
                       ChannelState(gain=1e-305, noise_w=1e-320), curve),
            StreamSpec(1024, preset("16qam"), ChannelState(gain=1e-10, noise_w=1e-14), curve),
        )
        p = ProblemSpec(streams, default_surface(), target)
        alloc = solve_bisection(p)
        assert alloc.converged
        assert alloc.total_cost <= solve_grid_oracle(p).total_cost * (1.0 + 1e-9)


class TestGridOracle:
    def test_never_below_bisection(self, default_problem):
        # The two passes are not nested, so a finer grid need not find a
        # cheaper point; but no grid prices a point below the paper's
        # solver by more than rounding, and the default grid comes within
        # 1e-8 of it (6.1e-10 above).
        cost_b = solve_bisection(default_problem).total_cost
        for n in (65, 129, 257, 513, 4096):
            cost_g = solve_grid_oracle(default_problem, n).total_cost
            assert cost_g >= cost_b * (1.0 - 1e-9), n
        assert cost_g < cost_b * (1.0 + 1e-8)

    def test_symmetric_closed_form(self, ref_state):
        # symmetric problem: the optimum sits at psi1 = psi2 = tau*S/2
        p = symmetric_problem(ref_state)
        s = p.surface
        total = -math.log((s.pmax - p.target) / (s.pmax - s.p0))
        psi_star = s.tau1 * total / 2.0
        alloc = solve_grid_oracle(p, 8192)
        # the second pass's spacing in y = log(2 s1): both streams can hold
        # the whole line, and near an even split log psi1 moves as y
        line = -2.0 * math.log(2.0 * 5e-324)
        grid_step = 2.0 * (line / 4096) / 4096
        assert abs(math.log(alloc.psi[0]) - math.log(psi_star)) <= 2 * grid_step

    @pytest.mark.parametrize("tau1", [5e-324, 1e-300], ids=str)
    def test_subnormal_ber_scale(self, ref_state, tau1):
        # A grid from a fixed 1e-300 lay above the whole line at
        # tau1 = 1e-300 (cost 181.7 against bisection's 55.6 at target
        # 0.35) and could not start at tau1 = 5e-324, where the line's top
        # psi1 is 0.
        surface = replace(default_surface(), tau1=tau1)
        for t in np.linspace(0.35, 0.92, 10):
            p = replace(make_problem(ref_state, target=float(t)), surface=surface)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                cost_g = solve_grid_oracle(p).total_cost
            assert cost_g <= solve_bisection(p).total_cost * (1.0 + ORACLE_AGREEMENT_RTOL)

    def test_grid_floor(self, default_problem):
        with pytest.raises(DomainError):
            solve_grid_oracle(default_problem, 32)

    def test_deterministic(self, default_problem):
        a = solve_grid_oracle(default_problem, 512)
        b = solve_grid_oracle(default_problem, 512)
        assert a == b


# SHA-256 of the repr of every allocation of the three searching solvers
# on fading_blocks(400, 7), and of the grid oracle on every 20th block, one
# per line. A speed-up leaves it as it is; an intended change of an answer
# updates it here, as a README output updates README_PINS.
FADING_BLOCKS_DIGEST = "c7acf3391e98c7f7b48523a3f598eae471dcbac6c7c4263bf526ef5292f021b9"


class TestCrossCutting:
    def test_fading_block_answers_pinned(self):
        digest = hashlib.sha256()
        for k, p in enumerate(fading_blocks(400, 7)):
            for name in SOLVER_ORDER if k % 20 == 0 else SOLVER_ORDER[:3]:
                digest.update(repr(solve(p, name)).encode() + b"\n")
        assert digest.hexdigest() == FADING_BLOCKS_DIGEST

    def test_target_met_with_equality_by_all_solvers(self, ref_state):
        for t in (0.35, 0.6, 0.85):
            p = make_problem(ref_state, target=t)
            for name in SOLVER_ORDER:
                alloc = solve(p, name, grid_n=1024)
                assert alloc.feasible
                assert abs(alloc.achieved_p - t) < 1e-6, (name, t)

    def test_oracle_dominance(self, ref_state):
        for t in (0.4, 0.7):
            p = make_problem(ref_state, target=t)
            floor = solve_grid_oracle(p, 4096).total_cost
            for name in ("equal_snr", "proportional", "bisection"):
                assert solve(p, name).total_cost >= floor * (1 - 0.005)

    def test_searches_leave_the_surface_out(self, default_problem, monkeypatch):
        # The surface is evaluated for the achievable range and for the
        # finished allocation; every search step works in decay space.
        import sempower.solvers as solvers_mod

        calls = []

        def counted(*args):
            calls.append(args)
            return eval_surface(*args)

        monkeypatch.setattr(solvers_mod, "_surface", counted)
        for solver in (solve_equal_snr, solve_proportional, solve_bisection):
            calls.clear()
            solver(default_problem)
            assert len(calls) <= 2, (solver.__name__, len(calls))

    def test_psi_consistent_with_power(self, ref_state):
        # re-deriving the BER from the allocated power reproduces the
        # solver's BER (analytic chain consistency)
        p = make_problem(ref_state, target=0.55)
        for name in SOLVER_ORDER:
            alloc = solve(p, name, grid_n=1024)
            for (q, psi, spec) in zip(alloc.q, alloc.psi, p.streams):
                snr_lin = q * spec.channel.gain / spec.channel.noise_w
                again = ber_from_snr(spec.modulation, snr_lin)
                assert abs(again - psi) <= 1e-8 * psi, name

    def test_scale_covariance_exact(self, ref_state):
        p1 = make_problem(ref_state, target=0.6)
        scaled = ChannelState(
            gain=ref_state.gain, noise_w=ref_state.noise_w * 4.0, fading=ref_state.fading
        )
        p4 = ProblemSpec(
            streams=tuple(replace(s, channel=scaled) for s in p1.streams),
            surface=p1.surface,
            target=p1.target,
        )
        for name in SOLVER_ORDER:
            a1 = solve(p1, name, grid_n=512)
            a4 = solve(p4, name, grid_n=512)
            assert a4.q[0] == 4.0 * a1.q[0] and a4.q[1] == 4.0 * a1.q[1], name

    def test_free_target_returns_zero_power(self, ref_state):
        # a target above the zero-power perception error costs nothing
        p = make_problem(ref_state, target=0.96)
        lo, hi = achievable_range(p)
        assert p.target > hi
        for name in SOLVER_ORDER:
            alloc = solve(p, name)
            assert alloc.q == (0.0, 0.0)
            assert alloc.total_cost == 0.0
            assert alloc.feasible
            assert alloc.achieved_p <= p.target

    def test_cost_basis_symbols(self, ref_state):
        p_bits = make_problem(ref_state, target=0.6)
        p_sym = make_problem(ref_state, target=0.6, cost_basis="symbols")
        a_bits = solve_bisection(p_bits)
        a_sym = solve_bisection(p_sym)
        # same K ratio (both streams 16-QAM), so the optimum point agrees
        assert_rel(a_sym.psi[0], a_bits.psi[0], 1e-9)
        assert_rel(a_sym.total_cost, a_bits.total_cost / 4.0, 1e-12)

    def test_problem_validation(self, ref_state):
        p = make_problem(ref_state)
        with pytest.raises(DomainError):
            replace(p, target=1.5)
        with pytest.raises(DomainError):
            replace(p, cost_basis="bytes")
        with pytest.raises(DomainError):
            replace(p, streams=p.streams[:1])


class TestSweep:
    def test_row_order_and_orderings(self, ref_state):
        p = make_problem(ref_state, target=0.6)
        rows = sweep_targets(p, TARGETS)
        assert len(rows) == len(TARGETS) * 4
        # ordered by target then solver order
        seq = [(r.p_bar, r.solver) for r in rows]
        expected = [(float(t), s) for t in TARGETS for s in SOLVER_ORDER]
        assert seq == expected
        costs = {s: [r.allocation.total_cost for r in rows if r.solver == s] for s in SOLVER_ORDER}
        for s in SOLVER_ORDER:
            assert all(b <= a for a, b in zip(costs[s], costs[s][1:])), s
        for cb, cp, ce in zip(costs["bisection"], costs["proportional"], costs["equal_snr"]):
            assert cb <= cp * 1.001 and cb <= ce * 1.001

    def test_modulation_order_cost(self, ref_state):
        rows8 = sweep_targets(make_problem(ref_state, "8qam"), TARGETS, solvers=("bisection",))
        rows16 = sweep_targets(make_problem(ref_state, "16qam"), TARGETS, solvers=("bisection",))
        for a8, a16 in zip(rows8, rows16):
            assert a16.allocation.total_cost > a8.allocation.total_cost

    def test_infeasible_rows_recorded(self, ref_state):
        p = make_problem(ref_state, target=0.6)
        rows = sweep_targets(p, [0.25, 0.6], solvers=("bisection",))
        assert rows[0].allocation is None and rows[0].error
        assert rows[1].allocation is not None

    def test_unknown_solver_rejected(self, ref_state):
        with pytest.raises(DomainError):
            sweep_targets(make_problem(ref_state), [0.5], solvers=("magic",))

    def test_no_unimodality_warning_on_default_surface(self, ref_state):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", SempowerWarning)
            sweep_targets(make_problem(ref_state), [0.4, 0.7], grid_n=1024)

    def test_oracle_disagreement_warns(self, ref_state, monkeypatch):
        import sempower.solvers as solvers_mod

        real = solvers_mod._SOLVERS["bisection"]

        def inflated(p):
            alloc = real(p)
            return replace(alloc, total_cost=alloc.total_cost * 1.02)

        monkeypatch.setitem(solvers_mod._SOLVERS, "bisection", inflated)
        with pytest.warns(SempowerWarning, match="unimodal"):
            sweep_targets(make_problem(ref_state), [0.6], grid_n=512)


class TestStressRegimes:
    """Distinct numerical regimes: sub/super-linear decay shapes, mixed
    per-stream modulations, faded channels, boundary-hugging targets."""

    def check(self, p, grid_n=2048, rtol=0.005):
        cost_b = solve_bisection(p).total_cost
        cost_g = solve_grid_oracle(p, grid_n).total_cost
        assert abs(cost_b - cost_g) / cost_g < rtol
        for name in SOLVER_ORDER:
            assert abs(solve(p, name, grid_n).achieved_p - p.target) < 1e-6, name

    def make(self, state, surface, mods, target, states=None):
        from sempower.perception import default_edge_curve, default_prompt_curve

        states = states or (state, state)
        return ProblemSpec(
            streams=(
                StreamSpec(bits=1024, modulation=preset(mods[0]), channel=states[0],
                           curve=default_prompt_curve()),
                StreamSpec(bits=8192, modulation=preset(mods[1]), channel=states[1],
                           curve=default_edge_curve()),
            ),
            surface=surface,
            target=target,
        )

    def test_sublinear_decay_shapes(self, ref_state):
        # beta < 1: the surface partial is singular at zero BER, but the
        # bisection only ever differentiates at interior points
        s = SurfaceParams(p0=0.3, pmax=0.95, tau1=5e-3, tau2=1e-3, beta1=0.7, beta2=0.6)
        for t in (0.32, 0.6, 0.94):
            self.check(self.make(ref_state, s, ("16qam", "16qam"), t))

    def test_superlinear_decay_shapes(self, ref_state):
        s = SurfaceParams(p0=0.3, pmax=0.95, tau1=5e-3, tau2=1e-3, beta1=2.0, beta2=1.5)
        for t in (0.35, 0.9):
            self.check(self.make(ref_state, s, ("16qam", "16qam"), t))

    def test_mixed_modulations(self, ref_state):
        from sempower.perception import default_surface

        for mods in (("bpsk", "16qam"), ("16qam", "8qam")):
            self.check(self.make(ref_state, default_surface(), mods, 0.6))

    def test_rayleigh_realised_channels(self, ref_params):
        from sempower.channel import make_channel_state, sample_fading
        from sempower.perception import default_surface

        fades = sample_fading(2024, 4)
        states = (
            make_channel_state(ref_params, float(fades[0])),
            make_channel_state(ref_params, float(fades[1])),
        )
        self.check(self.make(None, default_surface(), ("16qam", "16qam"), 0.6, states=states))

    def test_targets_hugging_boundaries(self, ref_state):
        from sempower.perception import default_surface

        for t in (0.3000001, 0.94999):
            self.check(self.make(ref_state, default_surface(), ("16qam", "16qam"), t))

    def test_extreme_bit_asymmetry(self, ref_state):
        from sempower.perception import default_surface

        p = self.make(ref_state, default_surface(), ("16qam", "16qam"), 0.6)
        p = replace(p, streams=(replace(p.streams[0], bits=100_000),
                                replace(p.streams[1], bits=10)))
        self.check(p, grid_n=4096)
