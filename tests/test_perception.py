import math
import warnings

import numpy as np
import pytest

from sempower.errors import ConfigError, DomainError, InfeasibleError, SingularityError
from sempower.numerics import ToleranceConfig, finite_difference
from sempower.perception import (
    SampleSet,
    StreamCurve,
    SurfaceParams,
    constraint_line_endpoints,
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    eval_curve,
    eval_surface,
    fit_surface,
    invert_curve,
    load_curve,
    load_sample_set,
    load_surface,
    save_curve,
    save_sample_set,
    save_surface,
    semantic_value_received,
    semantic_value_transmitted,
    solve_psi2_on_constraint,
    surface_partials,
    synthetic_sample_set,
)

from conftest import assert_rel

TIGHT = ToleranceConfig(abs_tol=1e-13, rel_tol=1e-12, max_iter=300)


def closed_form(s, psi1, psi2):
    """Independent re-evaluation of the surface family."""
    u = (psi1 / s.tau1) ** s.beta1 + (psi2 / s.tau2) ** s.beta2
    return s.pmax - (s.pmax - s.p0) * math.exp(-u)


class TestEvalSurface:
    def test_floor_exact(self):
        s = default_surface()
        assert eval_surface(s, 0.0, 0.0) == s.p0

    def test_saturates_monotonically(self):
        s = default_surface()
        vals = [eval_surface(s, v, 0.01) for v in np.linspace(0.0, 0.5, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= s.pmax
        assert s.pmax - vals[-1] < 1e-6

    def test_matches_dense_tabulation(self):
        s = SurfaceParams(p0=0.22, pmax=0.9, tau1=3e-3, tau2=8e-4, beta1=1.3, beta2=0.8)
        for v1 in np.geomspace(1e-5, 0.5, 12):
            for v2 in np.geomspace(1e-5, 0.5, 12):
                assert_rel(eval_surface(s, v1, v2), closed_form(s, v1, v2), 1e-12)

    def test_domain_errors(self):
        s = default_surface()
        with pytest.raises(DomainError):
            eval_surface(s, -0.01, 0.1)
        with pytest.raises(DomainError):
            eval_surface(s, 0.1, 0.51)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 0.5000001])
    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("fn", [eval_surface, surface_partials])
    def test_out_of_domain_psi_rejected(self, fn, as_array, bad):
        s = default_surface()
        good = np.array([0.0, 1e-3]) if as_array else 1e-3
        bad = np.array([1e-3, bad]) if as_array else bad
        with pytest.raises(DomainError):
            fn(s, bad, good)
        with pytest.raises(DomainError):
            fn(s, good, bad)

    def test_empty_arrays_pass(self):
        empty = np.array([])
        assert eval_surface(default_surface(), empty, empty).shape == (0,)

    def test_monotone_in_each_argument(self):
        s = default_surface()
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0.0, 0.5, size=2)
            b = np.minimum(a + rng.uniform(0.0, 0.5 - 0, size=2), 0.5)
            assert eval_surface(s, b[0], b[1]) >= eval_surface(s, a[0], a[1])

    def test_params_validation(self):
        with pytest.raises(DomainError):
            SurfaceParams(p0=0.5, pmax=0.4, tau1=1e-3, tau2=1e-3, beta1=1.0, beta2=1.0)
        with pytest.raises(DomainError):
            SurfaceParams(p0=0.1, pmax=0.9, tau1=0.0, tau2=1e-3, beta1=1.0, beta2=1.0)


class TestPartials:
    def test_nonnegative_everywhere_sampled(self):
        s = default_surface()
        rng = np.random.default_rng(5)
        for _ in range(100):
            d1, d2 = surface_partials(s, rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            assert d1 >= 0.0 and d2 >= 0.0

    def test_matches_finite_differences(self):
        # points drawn with per-axis decay arguments in [0.05, 3] so the
        # envelope has not collapsed and central differences can resolve
        # the slope at double precision
        s = SurfaceParams(p0=0.25, pmax=0.92, tau1=4e-3, tau2=1.2e-3, beta1=1.1, beta2=0.9)
        rng = np.random.default_rng(17)
        for _ in range(100):
            u1 = float(10 ** rng.uniform(math.log10(0.05), math.log10(3.0)))
            u2 = float(10 ** rng.uniform(math.log10(0.05), math.log10(3.0)))
            v1 = s.tau1 * u1 ** (1.0 / s.beta1)
            v2 = s.tau2 * u2 ** (1.0 / s.beta2)
            d1, d2 = surface_partials(s, v1, v2)
            h1, h2 = 1e-6 * v1, 1e-6 * v2
            fd1 = finite_difference(lambda v: eval_surface(s, v, v2), v1, h1)
            fd2 = finite_difference(lambda v: eval_surface(s, v1, v), v2, h2)
            assert_rel(d1, fd1, 1e-5, "dP/dpsi1")
            assert_rel(d2, fd2, 1e-5, "dP/dpsi2")

    def test_saturation_kills_gradient(self):
        s = default_surface()
        d1_near, _ = surface_partials(s, 1e-4, 1e-4)
        d1_far, _ = surface_partials(s, 1e-4, 0.5)
        assert d1_far < 1e-12 * d1_near

    def test_singularity_below_one(self):
        s = SurfaceParams(p0=0.2, pmax=0.9, tau1=1e-3, tau2=1e-3, beta1=0.7, beta2=1.0)
        with pytest.raises(SingularityError):
            surface_partials(s, 0.0, 0.1)
        d1, d2 = surface_partials(s, 1e-6, 0.0)  # beta2 = 1 is fine at zero
        assert math.isfinite(d1) and math.isfinite(d2)


class TestSemanticValues:
    def test_bundled_constants_exact(self):
        assert semantic_value_transmitted(default_prompt_curve()) == 0.5887
        assert semantic_value_transmitted(default_edge_curve()) == 0.3596

    def test_worthless_stream(self):
        # a floor at the ceiling leaves (almost) no semantic value
        c = StreamCurve(p0=1.0 - 1e-9, pmax=1.0, tau=1e-3, beta=1.0)
        assert semantic_value_transmitted(c) <= 1e-9

    def test_received_equals_transmitted_at_zero(self):
        for c in (default_prompt_curve(), default_edge_curve()):
            assert semantic_value_received(c, 0.0) == semantic_value_transmitted(c)

    def test_received_never_exceeds_transmitted(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = StreamCurve(
                p0=float(rng.uniform(0.0, 0.7)),
                pmax=float(rng.uniform(0.75, 1.0)),
                tau=float(10 ** rng.uniform(-4, -1)),
                beta=float(rng.uniform(0.5, 2.0)),
            )
            psis = rng.uniform(0.0, 0.5, size=20)
            vals = semantic_value_received(c, psis)
            assert np.all(vals <= semantic_value_transmitted(c) + 1e-15)

    def test_non_increasing_on_dense_grid(self):
        grid = np.linspace(0.0, 0.5, 400)
        for c in (default_prompt_curve(), default_edge_curve()):
            vals = semantic_value_received(c, grid)
            assert np.all(np.diff(vals) <= 0.0)

    def test_edge_more_fragile_than_prompt(self):
        # the edge stream loses its value on a smaller BER scale: its
        # decay progress (value lost over maximum possible loss) leads
        # the prompt stream's at every BER
        prompt, edge = default_prompt_curve(), default_edge_curve()
        grid = np.geomspace(1e-6, 0.5, 200)

        def progress(c, psi):
            return (np.asarray(eval_curve(c, psi)) - c.p0) / (c.pmax - c.p0)

        assert np.all(progress(edge, grid) >= progress(prompt, grid) - 1e-12)
        assert np.any(progress(edge, grid) > progress(prompt, grid) + 1e-3)
        # equivalently, half of the recoverable value is gone at a
        # smaller BER for the edge stream
        half_p = invert_curve(prompt, prompt.p0 + 0.5 * (prompt.pmax - prompt.p0))
        half_e = invert_curve(edge, edge.p0 + 0.5 * (edge.pmax - edge.p0))
        assert half_e < half_p

    def test_invert_curve_round_trip(self):
        c = default_edge_curve()
        for p_val in np.linspace(c.p0, c.pmax - 1e-6, 25):
            assert abs(eval_curve(c, min(invert_curve(c, p_val), 0.5)) - p_val) < 1e-9 or (
                invert_curve(c, p_val) > 0.5
            )
        assert invert_curve(c, c.p0) == 0.0
        with pytest.raises(DomainError):
            invert_curve(c, c.pmax)

    def test_invert_curve_infinite_where_fraction_rounds_to_one(self):
        # (p - p0) / (pmax - p0) rounds to 1 one ulp below pmax here;
        # log1p(-1) raised a bare ValueError
        c = StreamCurve(p0=0.3, pmax=0.825, tau=1e-3, beta=1.0)
        assert invert_curve(c, 0.8249999999999998) == math.inf


class TestConstraintGeometry:
    def test_boundary_value_maps_to_zero(self):
        s = default_surface()
        # at psi1 = 1e-5 the closed form alone leaves psi2 ~ 1e-20
        for psi1 in (0.01, 1e-5):
            p_bar = eval_surface(s, psi1, 0.0)
            assert solve_psi2_on_constraint(s, psi1, p_bar, TIGHT) == 0.0

    def test_round_trip(self):
        s = default_surface()
        for p_bar in (0.4, 0.6, 0.8):
            v2 = solve_psi2_on_constraint(s, 1e-4, p_bar, TIGHT)
            assert abs(eval_surface(s, 1e-4, v2) - p_bar) < 1e-10

    def test_matches_grid_scan(self):
        s = default_surface()
        p_bar = 0.55
        psi1 = 2e-4
        grid = np.linspace(0.0, 0.5, 200_001)
        vals = np.asarray(eval_surface(s, np.full_like(grid, psi1), grid))
        best = grid[int(np.argmin(np.abs(vals - p_bar)))]
        step = grid[1] - grid[0]
        assert abs(solve_psi2_on_constraint(s, psi1, p_bar, TIGHT) - best) <= step

    def test_infeasible_slice(self):
        s = default_surface()
        with pytest.raises(InfeasibleError):
            solve_psi2_on_constraint(s, 0.4, 0.31, TIGHT)

    def test_endpoints_satisfy_constraint(self):
        s = default_surface()
        # at 0.5586287625418059, P(psi1_R, 0) rounds one ulp above the target
        for p_bar in (0.35, 0.6, 0.9, 0.5586287625418059):
            (l1, l2), (r1, r2) = constraint_line_endpoints(s, p_bar, TIGHT)
            assert abs(eval_surface(s, l1, l2) - p_bar) < 1e-10
            assert abs(eval_surface(s, r1, r2) - p_bar) < 1e-10
            assert r1 >= l1
            for v in (l1, r1):  # the checked solve accepts the line's own ends
                v2 = solve_psi2_on_constraint(s, v, p_bar, TIGHT)
                assert abs(eval_surface(s, v, v2) - p_bar) < 1e-14

    def test_ordering_along_line(self):
        s = default_surface()
        p_bar = 0.6
        (l1, _), (r1, _) = constraint_line_endpoints(s, p_bar, TIGHT)
        psi1s = np.linspace(l1 + 1e-9, r1 - 1e-9, 60)
        psi2s = [solve_psi2_on_constraint(s, v, p_bar, TIGHT) for v in psi1s]
        assert all(b <= a + 1e-12 for a, b in zip(psi2s, psi2s[1:]))

    def test_endpoints_against_boundary_scan(self):
        s = default_surface()
        p_bar = 0.58
        (l1, l2), (r1, r2) = constraint_line_endpoints(s, p_bar, TIGHT)
        # right end: scan psi1 on the psi2=0 edge
        grid = np.linspace(0.0, 0.5, 400_001)
        edge_vals = np.asarray(eval_surface(s, grid, np.zeros_like(grid)))
        best = grid[int(np.argmin(np.abs(edge_vals - p_bar)))]
        assert abs(r1 - best) <= grid[1] - grid[0]
        assert r2 == 0.0
        # left end: default surface reaches the target at psi1 = 0
        assert l1 == 0.0
        assert l2 > 0.0

    def test_infeasible_targets(self):
        s = default_surface()
        with pytest.raises(InfeasibleError):
            constraint_line_endpoints(s, s.p0, TIGHT)
        with pytest.raises(InfeasibleError):
            constraint_line_endpoints(s, 0.99, TIGHT)

    def test_box_restriction(self):
        s = default_surface()
        (l1, l2), (r1, r2) = constraint_line_endpoints(s, 0.6, TIGHT, psi_max=(0.05, 0.002))
        assert r1 <= 0.05 and l2 <= 0.002


class TestFit:
    def test_zero_noise_recovery(self):
        truth = default_surface()
        data = synthetic_sample_set(truth, seed=0, noise_sigma=0.0)
        res = fit_surface(data)
        assert res.converged
        assert res.rmse < 1e-8
        for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
            assert_rel(getattr(res.params, name), getattr(truth, name), 1e-3, name)

    def test_noisy_recovery(self):
        truth = default_surface()
        data = synthetic_sample_set(truth, seed=42, noise_sigma=0.01)
        res = fit_surface(data)
        assert res.rmse <= 0.012
        for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
            assert_rel(getattr(res.params, name), getattr(truth, name), 0.05, name)

    def test_refit_idempotent(self):
        first = fit_surface(synthetic_sample_set(default_surface(), seed=42, noise_sigma=0.01))
        exact = synthetic_sample_set(first.params, seed=0, noise_sigma=0.0)
        second = fit_surface(exact)
        for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
            assert_rel(getattr(second.params, name), getattr(first.params, name), 1e-3, name)

    def test_rmse_is_residual_rms(self):
        data = synthetic_sample_set(default_surface(), seed=42, noise_sigma=0.01)
        res = fit_surface(data)
        resid = eval_surface(res.params, data.psi1, data.psi2) - data.p
        assert_rel(res.rmse, math.sqrt(np.mean(resid**2)), 1e-9, "rmse")

    def test_too_few_rows(self):
        data = SampleSet(psi1=np.zeros(4), psi2=np.zeros(4), p=np.full(4, 0.4))
        with pytest.raises(DomainError):
            fit_surface(data)

    def test_explicit_init_honoured(self):
        truth = default_surface()
        data = synthetic_sample_set(truth, seed=1, noise_sigma=0.0)
        res = fit_surface(data, init=truth)
        assert res.rmse < 1e-9

    @pytest.mark.parametrize("error_free", [False, True])
    def test_constant_p_rejected(self, error_free):
        psi = np.zeros(10) if error_free else np.geomspace(1e-4, 0.5, 10)
        data = SampleSet(psi1=psi, psi2=psi[::-1], p=np.full(10, 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="constant"):
                fit_surface(data)

    @pytest.mark.parametrize("both_axes", [False, True])
    def test_step_drives_shape_to_box_without_overflow(self, both_axes):
        # A hard threshold in P pulls beta towards infinity; the fit box
        # stops it before (psi/tau)^beta overflows (SurfaceParams itself
        # rejects a non-finite result).
        psi = np.geomspace(1e-4, 0.5, 10)
        data = SampleSet(psi1=psi, psi2=psi if both_axes else np.zeros(10),
                         p=np.repeat([0.3, 0.6], 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_surface(data)
        assert res.rmse < 1e-6

    def test_falling_samples_fail_with_a_reason(self):
        # P falls as the BERs rise: the best fit in the family ends with
        # p0 > pmax, which no surface has.
        psi = np.linspace(0.01, 0.5, 10)
        data = SampleSet(psi1=psi, psi2=psi, p=np.linspace(0.9, 0.1, 10))
        with pytest.raises(DomainError, match="surface fit failed.*p0=.* >= pmax="):
            fit_surface(data)

    def test_error_free_rows_fit_the_floor(self):
        # With every psi = 0 only p0 is identifiable: it is the mean of P,
        # and the residual is P's spread about it.
        p = np.linspace(0.3, 0.5, 10)
        data = SampleSet(psi1=np.zeros(10), psi2=np.zeros(10), p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_surface(data)
        assert_rel(res.params.p0, float(np.mean(p)), 1e-12, "p0")
        assert_rel(res.rmse, float(np.std(p)), 1e-9, "rmse")


class TestFileFormats:
    def test_sample_set_round_trip(self, tmp_path):
        data = synthetic_sample_set(default_surface(), seed=3, noise_sigma=0.005, n_axis=6)
        path = tmp_path / "samples.csv"
        save_sample_set(data, path)
        again = load_sample_set(path)
        assert np.allclose(again.psi1, data.psi1, rtol=1e-10)
        assert np.allclose(again.p, data.p, rtol=1e-10)

    def test_sample_header_pinned(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,0.5\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_sample_set(path)

    def test_sample_bad_value_line_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("psi1,psi2,P\n0,0,0.5\n0.1,nope,0.6\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_sample_set(path)

    def test_sample_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("psi1,psi2,P\n0,0\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_sample_set(path)

    def test_surface_document_round_trip(self, tmp_path):
        res = fit_surface(synthetic_sample_set(default_surface(), seed=9, noise_sigma=0.0))
        path = tmp_path / "surface.yaml"
        save_surface(res, path)
        again = load_surface(path)
        assert again == res.params

    def test_curve_document_round_trip(self, tmp_path):
        path = tmp_path / "curve.yaml"
        save_curve(default_edge_curve(), path)
        again = load_curve(path)
        assert again == default_edge_curve()
        assert semantic_value_transmitted(again) == 0.3596

    def test_unknown_family_rejected(self, tmp_path):
        path = tmp_path / "surface.yaml"
        path.write_text("family: mystery\np0: 0.3\n")
        with pytest.raises(ConfigError, match="family"):
            load_surface(path)
