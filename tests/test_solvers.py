import math
from dataclasses import replace

import numpy as np
import pytest

from sempower.channel import ChannelState
from sempower.errors import DomainError, InfeasibleError, SempowerWarning
from sempower.modulation import ber_from_snr, preset, zero_power_ber
from sempower.numerics import ToleranceConfig
from sempower.perception import (
    StreamCurve,
    SurfaceParams,
    constraint_line_endpoints,
    eval_surface,
    semantic_value_received,
    semantic_value_transmitted,
    solve_psi2_on_constraint,
)
from sempower.solvers import (
    PROPORTIONAL_ATOL,
    SEARCH_TOL,
    SOLVER_ORDER,
    ProblemSpec,
    StreamSpec,
    achievable_range,
    solve,
    solve_bisection,
    solve_equal_snr,
    solve_grid_oracle,
    solve_proportional,
    sweep_targets,
)

from conftest import assert_rel, make_problem

TARGETS = np.linspace(0.33, 0.92, 10)


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


class TestProportional:
    def test_ratio_contract(self, default_problem):
        alloc = solve_proportional(default_problem)
        s1, s2 = default_problem.streams
        r1 = semantic_value_received(s1.curve, alloc.psi[0]) / semantic_value_transmitted(s1.curve)
        r2 = semantic_value_received(s2.curve, alloc.psi[1]) / semantic_value_transmitted(s2.curve)
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

    def test_refuses_target_beyond_the_ratio_range(self, ref_state):
        # Curves saturating at pmax = 1 keep P below 0.92 even at the
        # smallest ratio searched, 1e-9.
        p = make_problem(ref_state, target=0.92)
        p = replace(p, streams=tuple(
            replace(s, curve=StreamCurve(p0=s.curve.p0, pmax=1.0, tau=1e-4, beta=1.0))
            for s in p.streams
        ))
        with pytest.raises(DomainError, match="cannot reach target 0.92"):
            solve_proportional(p)

    def test_meets_target_where_rule_needs_small_bers(self):
        # 1 - rho * L_i sits just above the curve floor here; a ratio
        # resolved to 1e-9 * rho missed the target by 1.9e-6
        s = StreamSpec(1, preset("bpsk"), ChannelState(gain=1.0, noise_w=1e-14),
                       StreamCurve(0.0, 1.0, 0.1, 1.0))
        p = ProblemSpec((s, s), SurfaceParams(0.0, 1.0, 0.1, 1e-5, 1.0, 1.0), target=0.5)
        alloc = solve_proportional(p)
        assert abs(alloc.achieved_p - p.target) <= PROPORTIONAL_ATOL

    def test_refuses_target_the_curve_inverse_cannot_resolve(self):
        # With beta = 2 the curve inverse saturates in binary64 at about
        # 0.015 and then jumps to infinity, so no ratio meets 99% of the
        # range; the rule used to return an allocation 4e-3 off target.
        s = StreamSpec(400, preset("8qam"), ChannelState(gain=1e-17, noise_w=1e-14),
                       StreamCurve(0.48, 0.51, 2.5e-3, 2.0))
        p = ProblemSpec((s, s), SurfaceParams(0.0, 0.06, 0.01, 0.01, 2.5, 2.5), target=0.0594)
        with pytest.raises(DomainError, match="misses target"):
            solve_proportional(p)


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
        p = default_problem
        alloc = solve_bisection(p)
        box = tuple(min(0.5, zero_power_ber(s.modulation)) for s in p.streams)
        (l1, _), (r1, _) = constraint_line_endpoints(p.surface, p.target, psi_max=box)
        eps = max(SEARCH_TOL.abs_tol, SEARCH_TOL.rel_tol * alloc.psi[0])
        assert alloc.iterations <= math.ceil(math.log2((r1 - l1) / eps)) + 2

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


class TestGridOracle:
    def test_refinement_non_increasing(self, default_problem):
        # nested grids: doubling to 2n-1 keeps every old point
        costs = [solve_grid_oracle(default_problem, n).total_cost for n in (65, 129, 257, 513)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(costs, costs[1:]))

    def test_symmetric_closed_form(self, ref_state):
        # symmetric problem: the optimum sits at psi1 = psi2 = tau*S/2
        p = symmetric_problem(ref_state)
        s = p.surface
        total = -math.log((s.pmax - p.target) / (s.pmax - s.p0))
        psi_star = s.tau1 * total / 2.0
        alloc = solve_grid_oracle(p, 8192)
        (l1, _), (r1, _) = constraint_line_endpoints(s, p.target)
        grid_step = (math.log(r1) - math.log(max(l1, r1 * 1e-12))) / 8191
        assert abs(math.log(alloc.psi[0]) - math.log(psi_star)) <= 2 * grid_step

    def test_grid_floor(self, default_problem):
        with pytest.raises(DomainError):
            solve_grid_oracle(default_problem, 32)

    def test_deterministic(self, default_problem):
        a = solve_grid_oracle(default_problem, 512)
        b = solve_grid_oracle(default_problem, 512)
        assert a == b


class TestCrossCutting:
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
