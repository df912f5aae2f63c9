import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from sempower import numerics
from sempower.errors import DomainError
from sempower.numerics import (
    Rng,
    ToleranceConfig,
    bisect_root,
    derive_seed,
    finite_difference,
    q_function,
    q_inverse,
)

from conftest import assert_rel, midpoint_run


def q_by_quadrature(x):
    """Independent oracle: adaptive integration of the Gaussian tail."""
    val, _ = integrate.quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi),
        x,
        np.inf,
        epsabs=0.0,
        epsrel=1e-12,
    )
    return val


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_tail_decay(self):
        assert q_function(10.0) < 1e-20

    def test_against_quadrature(self):
        # 1.2816 is the canonical 10% point
        assert abs(q_function(1.2816) - 0.1000) < 1e-4
        for x in (-3.0, -1.0, 0.3, 1.2816, 2.5, 5.0):
            assert_rel(q_function(x), q_by_quadrature(x), 1e-10, f"Q({x})")

    def test_strictly_decreasing(self):
        # beyond |x| ~ 7.5 the upper branch saturates to 1.0 in binary64,
        # so strictness is only observable inside that window
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-7.0, 7.0, size=400))
        qs = q_function(xs)
        assert np.all(np.diff(qs) < 0)

    def test_array_input(self):
        out = q_function(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5

    def test_agrees_with_scipy(self):
        # math.erfc in place of scipy's erfc: about 1e-13 deep in the tail
        from scipy import special

        xs = np.linspace(-5.0, 37.0, 4001)
        ref = 0.5 * special.erfc(xs / math.sqrt(2.0))
        out = q_function(xs)
        assert np.all(np.abs(out - ref) <= 2e-13 * ref)
        assert [q_function(float(x)) for x in xs[::100]] == list(out[::100])


class TestQInverse:
    def test_half_maps_to_zero(self):
        assert q_inverse(0.5) == 0.0

    def test_round_trip_at_two(self):
        assert abs(q_inverse(q_function(2.0)) - 2.0) <= 1e-9 * 2.0
        # the symmetry point maps to +0.0, not -0.0
        assert math.copysign(1.0, q_inverse(0.5)) == 1.0

    def test_ten_percent_point(self):
        assert abs(q_inverse(0.1) - 1.2816) < 1e-4
        # derived from the quadrature oracle: Q(1.2815515655) = 0.1
        assert_rel(q_inverse(0.1), 1.2815515655446004, 1e-10)

    def test_round_trip_across_range(self):
        # Positive branch: 1e-9 relative holds outright. Negative branch:
        # Q(x) rounds the upper tail into 1 - small, which caps the
        # recoverable accuracy at ulp(1) / (2 pdf(x)); allow that floor.
        xs = np.linspace(-6.0, 6.0, 241)
        back = q_inverse(q_function(xs))
        assert math.copysign(1.0, back[120]) == 1.0  # xs[120] == 0, Q(0) == 0.5
        pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        floor = np.where(xs < 0, 1.2e-16 / pdf, 0.0)
        tol = np.maximum(1e-9 * np.maximum(np.abs(xs), 1e-3), floor)
        assert np.all(np.abs(back - xs) <= tol)
        pos = xs[xs >= 0]
        back_pos = q_inverse(q_function(pos))
        assert np.max(np.abs(back_pos - pos) / np.maximum(pos, 1e-3)) < 1e-9

    def test_round_trip_in_probability(self):
        ps = np.geomspace(1e-12, 0.5, 300)
        ps = np.concatenate([ps, 1.0 - ps[:-1]])
        again = q_function(q_inverse(ps))
        assert np.max(np.abs(again - ps) / ps) < 1e-9

    def test_negative_branch(self):
        assert q_inverse(0.9) < 0.0

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                q_inverse(bad)

    def test_extreme_tails(self):
        x = q_inverse(1e-100)
        assert_rel(q_function(x), 1e-100, 1e-9)

    def test_agrees_with_scipy(self):
        # AS241 in place of scipy's ndtri: a few ulps on both branches
        from scipy import special

        ps = np.geomspace(1e-300, 0.5, 4001)
        ps = np.concatenate([ps, 1.0 - ps[(ps > 1e-15) & (ps < 0.5)]])
        ref = -special.ndtri(ps)
        out = q_inverse(ps)
        assert np.all(np.abs(out - ref) <= 8 * np.spacing(np.abs(ref)))
        assert [q_inverse(float(p)) for p in ps[::100]] == list(out[::100])

    def test_array_kernel_equals_the_scalar_one(self):
        # Arrays run the float kernel element by element, so every result
        # is bit-identical. The grid straddles AS241's branch edges,
        # |p - 0.5| = 0.425 and r = 5; the two points a numpy copy of
        # AS241 put 2 and 3 ulps off come first.
        edges = [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0), 0.5]
        near = [e + k * np.spacing(e) for e in edges for k in range(-300, 301)]
        rng = np.random.default_rng(15)
        tail = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 100_000)
        ps = np.concatenate([[1.006929401973205e-13, 0.060682882055706044], near, tail,
                             1.0 - tail, np.linspace(0.0, 1.0, 20_001)[1:-1]])
        ps = ps[(ps > 0.0) & (ps < 1.0)]
        ref = np.array([q_inverse(float(p)) for p in ps])
        assert np.array_equal(q_inverse(ps), ref)
        assert math.copysign(1.0, q_inverse(np.array([0.5]))[0]) == 1.0


MONOTONE = {
    "linear": (lambda x: x - 3.0, 0.0, 10.0),
    "exp": (lambda x: math.exp(x) - 2.0, 0.0, 5.0),
    "cubic": (lambda x: x**3 - 0.1, -1.0, 2.0),
    "atan": (lambda x: math.atan(20.0 * (x - 0.3)), 0.0, 1.0),
    "q_tail": (lambda x: 0.1 - q_function(x), 0.0, 5.0),
    "steep_tanh": (lambda x: math.tanh(1e3 * (x - 0.123)), 0.0, 1.0),
    "flat_at_root": (lambda x: x**9 - 1e-9, 0.0, 1.0),
    "tiny_root": (lambda x: x - 1e-200, 0.0, 0.5),
    # 64 halvings below hi
    "root_near_the_gallop": (lambda x: x - 2.6e-20, 0.0, 0.5),
    "log": (lambda x: math.log(x / 0.7), 0.0, 1.0),
    # Regula falsi crawls from the low end here; the projection keeps
    # the search within one step of bisection.
    "lopsided_step": (lambda x: -1.0 if x < 0.3 else 1e9, 0.0, 1.0),
}


class TestBisect:
    def test_linear_root(self):
        tight = ToleranceConfig(abs_tol=1e-12, rel_tol=1e-15)
        root, _, converged = bisect_root(lambda x: x - 3.0, 0.0, 10.0, tight)
        assert converged and abs(root - 3.0) < 1e-11

    def test_matches_q_inverse(self):
        root, _, _ = bisect_root(lambda x: 0.1 - q_function(x), 0.0, 5.0)
        assert abs(root - q_inverse(0.1)) < 1e-10

    def test_width_contract(self):
        tol = ToleranceConfig(abs_tol=1e-10, rel_tol=1e-10)
        root, _, _ = bisect_root(lambda x: -math.cos(x), 0.0, 3.0, tol)
        assert abs(root - math.pi / 2) < max(tol.abs_tol, tol.rel_tol * root) + 1e-12

    @pytest.mark.parametrize("sign, end", [(1.0, 0.0), (-1.0, 1.0)], ids=["lo", "hi"])
    def test_converges_to_an_end_without_evaluating_it(self, sign, end):
        seen = []
        root, steps, converged = bisect_root(lambda x: seen.append(x) or sign, 0.0, 1.0)
        assert converged and root == pytest.approx(end, rel=1e-9, abs=1e-12)
        assert steps == len(seen) and 0.0 < min(seen) and max(seen) < 1.0

    def test_adjacent_ends_stop_without_evaluating_an_end(self):
        # At the subnormal floor the bracket [0, 5e-324] has no float
        # inside it: its midpoint rounds to the end 0.0.
        seen = []
        tol = ToleranceConfig(5e-324, 1e-9, 1100)
        root, steps, converged = bisect_root(lambda x: seen.append(x) or 1.0, 0.0, 0.5, tol)
        assert converged and root == 0.0 and steps == len(seen)
        assert 0.0 < min(seen) and max(seen) < 0.5

    def test_exhaustion_is_reported(self):
        root, steps, converged = bisect_root(
            lambda x: x - 0.1234, 0.0, 1e9, ToleranceConfig(max_iter=3)
        )
        assert (steps, converged) == (3, False)
        assert root == 0.0625e9  # midpoint of the last bracket [0, 1.25e8]

    @pytest.mark.parametrize(
        "f",
        [lambda x: math.copysign(math.inf, x - 0.3), lambda x: -math.inf if x < 0.3 else x - 0.3],
        ids=["both_infinite", "lower_infinite"],
    )
    def test_infinite_bracket_value_takes_the_midpoint(self, f):
        seen = []
        root, _, converged = bisect_root(lambda x: seen.append(x) or f(x), 0.0, 1.0)
        assert converged and abs(root - 0.3) < 1e-9
        assert seen == midpoint_run(f, 0.0, 1.0, ToleranceConfig())

    def test_exact_zero_returns_at_once(self):
        assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 1, True)

    @pytest.mark.parametrize("ends, end", [((0.0, math.nan), 0.0), ((math.nan, 0.0), 1.0),
                                           ((0.0, 0.7), 0.0), ((-0.3, 0.0), 1.0)])
    def test_an_end_value_of_zero_returns_that_end(self, ends, end):
        seen = []
        assert bisect_root(lambda x: seen.append(x) or x - 0.3, 0.0, 1.0, None,
                           *ends) == (end, 0, True)
        assert not seen

    @pytest.mark.parametrize("ends", [(1.0, 1.0), (-1.0, -1.0), (math.inf, math.nan),
                                      (math.nan, -math.inf)])
    def test_an_end_value_on_the_wrong_side_raises(self, ends):
        with pytest.raises(DomainError, match="do not bracket a sign change"):
            bisect_root(lambda x: x - 0.3, 0.0, 1.0, None, *ends)

    @pytest.mark.parametrize(
        "f, lo, hi, tol, parent_steps",
        [(lambda x: -math.cos(x), 0.0, 3.0, ToleranceConfig(), 13),
         (lambda x: x**5 - 0.5, 0.0, 1.0, ToleranceConfig(1e-15, 1e-15, 200), 18)],
        ids=["cos", "fifth_power"],
    )
    def test_regula_falsi_crosses_the_root(self, f, lo, hi, tol, parent_steps):
        # Next to the root regula falsi kept landing on the same side, so
        # the far end fell back by halvings: the last 4 of 13 steps, and 9
        # of 18, before the truncation had a floor.
        root, steps, converged = bisect_root(f, lo, hi, tol)
        assert converged and steps < parent_steps - 2
        width = max(tol.abs_tol, tol.rel_tol * abs(root))
        assert f(root - width) <= 0.0 <= f(root + width)

    @given(st.data())
    def test_any_derivative_keeps_the_contract(self, data):
        # Newton steps on the derivative, on one scaled by up to 100 either
        # way, or on a zero, negative, infinite or NaN one; with the value
        # at lo, at hi or at neither, from which the first step can start.
        name = data.draw(st.sampled_from(sorted(MONOTONE)), label="f")
        f, lo, hi = MONOTONE[name]
        tol = data.draw(st.sampled_from([ToleranceConfig(), ToleranceConfig(1e-300, 1e-9, 1100)]))
        scale = data.draw(st.sampled_from([1.0, 0.0, -1.0, math.inf, math.nan])
                          | st.floats(0.01, 100.0), label="scale")
        known = data.draw(st.sampled_from(["lo", "hi", "neither"]), label="end value known")
        f_lo = (f(lo) if lo > 0.0 or name != "log" else -math.inf) if known == "lo" else math.nan
        f_hi = f(hi) if known == "hi" else math.nan

        def df(x):  # a forward difference: f may be undefined below lo
            h = 1e-9 * x + 1e-300
            return scale * (f(x + h) - f(x)) / h

        seen = []
        x, steps, converged = bisect_root(lambda v: seen.append(v) or f(v), lo, hi, tol,
                                          f_lo, f_hi, df)
        assert all(lo < v < hi for v in seen) and steps == len(seen)
        assert converged and steps <= len(midpoint_run(f, lo, hi, tol)) + 1
        width = max(tol.abs_tol, tol.rel_tol * abs(x))
        assert f(x - width) <= 0.0 <= f(x + width)

    @pytest.mark.parametrize(
        "f, df, root",
        [(lambda x: math.log(x / 0.7), lambda x: 1.0 / x, 0.7),
         (lambda x: math.atan(20.0 * (x - 0.3)), lambda x: 20.0 / (1.0 + (20.0 * (x - 0.3))**2),
          0.3),
         (lambda x: math.sqrt(x) - 0.5, lambda x: 0.5 / math.sqrt(x), 0.25)],
        ids=["log", "atan", "sqrt"],
    )
    def test_newton_steps_cross_the_root(self, f, df, root):
        # f bends below its tangents, so each Newton step from above lands
        # below the root, and the next one, a quarter stop past it, above:
        # 4 steps from the value at hi, where regula falsi takes 8 or 9.
        tol = ToleranceConfig(1e-300, 1e-9, 1100)
        hi = 1.1 * root
        x, steps, converged = bisect_root(f, 0.0, hi, tol, f_hi=f(hi), df=df)
        assert converged and steps <= 4
        width = tol.rel_tol * x
        assert f(x - width) <= 0.0 <= f(x + width)

    @pytest.mark.parametrize("tol", [ToleranceConfig(), ToleranceConfig(1e-300, 1e-9, 1100)],
                             ids=["default", "relative"])
    @pytest.mark.parametrize("name", sorted(MONOTONE))
    def test_never_more_than_one_step_behind_bisection(self, name, tol):
        f, lo, hi = MONOTONE[name]
        root, steps, converged = bisect_root(f, lo, hi, tol)
        assert converged and steps <= len(midpoint_run(f, lo, hi, tol)) + 1
        width = max(tol.abs_tol, tol.rel_tol * abs(root))
        assert f(root - width) <= 0.0 <= f(root + width)


class TestFiniteDifference:
    def test_scalar_square(self):
        assert abs(finite_difference(lambda x: x * x, 3.0, 1e-5) - 6.0) < 1e-6


def test_lazy_numpy_refuses_dunder_names_without_importing(monkeypatch):
    # introspection (copy, pickle, doctest's unwrap) asks for dunder names
    monkeypatch.setitem(sys.modules, "numpy", None)  # an import of numpy now fails
    with pytest.raises(AttributeError, match="__wrapped__"):
        numerics._Numpy().__wrapped__


class TestTolerance:
    def test_validation(self):
        with pytest.raises(DomainError):
            ToleranceConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            ToleranceConfig(rel_tol=-1.0)
        with pytest.raises(DomainError):
            ToleranceConfig(max_iter=0)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(123456789).words_at(0, 1_000_000)
        b = Rng(123456789).words_at(0, 1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).words_at(0, 100), Rng(2).words_at(0, 100))

    def test_uniform_range_and_mean(self):
        u = Rng(5).words_at(0, 200_000) * 2.0**-64
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_normal_moments(self):
        z = Rng(6).normal_at(0, 1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.std() - 1.0) < 0.005

    def test_exponential_mean(self):
        e = Rng(8).exponential_at(0, 1_000_000)
        assert abs(e.mean() - 1.0) < 0.005

    def test_bits_balance_and_determinism(self):
        b1 = Rng(9).bits_at(0, 100_000)
        b2 = Rng(9).bits_at(0, 100_000)
        assert np.array_equal(b1, b2)
        assert set(np.unique(b1)) <= {0, 1}
        assert abs(b1.mean() - 0.5) < 0.01

    def test_chunking_is_stream_stable(self):
        r = Rng(11)
        parts = np.concatenate([r.words_at(0, 37), r.words_at(37, 63)])
        assert np.array_equal(r.words_at(0, 100), parts)
        parts = np.concatenate([r.bits_at(0, 370), r.bits_at(370, 630)])
        assert np.array_equal(r.bits_at(0, 1000), parts)
        whole = r.exponential_at(0, 100)
        assert np.array_equal(whole, np.concatenate([r.exponential_at(0, 37),
                                                     r.exponential_at(37, 63)]))

    def test_draws_read_the_one_word_stream(self):
        r = Rng(12)
        normal = r.normal_at(16, 9)  # 5 radius words from 16, then 5 angle words
        bits = np.unpackbits(r.words_at(0, 16).astype(">u8").view(np.uint8))
        for pos, n in [(0, 1000), (0, 0), (63, 2), (64, 64), (130, 777)]:
            assert np.array_equal(r.bits_at(pos, n), bits[pos : pos + n])
        rad, ang = r.polar_at(16, 21, 5)
        assert np.array_equal(np.concatenate([rad * np.cos(ang), rad * np.sin(ang)])[:9], normal)
        assert np.array_equal(r.words_at(3, 4), r.words_at(0, 7)[3:])
        assert np.array_equal(r.exponential_at(3, 4), r.exponential_at(0, 7)[3:])

    def test_positions_kernel_matches_contiguous_words(self):
        r = Rng(13)
        pick = np.random.default_rng(0)
        for base in (0, 2**32 - 500, 2**32 + 12_345, 2**62 + 7):
            block = r.words_at(base, 1000)
            idx = pick.integers(0, 1000, 400)  # any order, repeats included
            assert np.array_equal(r.words_at_positions(base + idx.astype(np.uint64)), block[idx])
            assert np.array_equal(r.words_at_positions([base + 999, base]), block[[999, 0]])
        assert r.words_at_positions(np.array([], dtype=np.int64)).size == 0

    def test_known_word_stream(self):
        # frozen first words for seed 0 (key 0): the first two SplitMix64
        # outputs from state 0; guards the generator definition
        assert Rng(0).words_at(0, 2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    def test_spawn_and_derive(self):
        children = [Rng(derive_seed(77, i)) for i in range(8)]
        assert len({c.seed for c in children}) == 8
        assert derive_seed(77, 0) != derive_seed(77, 1)
        assert derive_seed(77, 0) == derive_seed(77, 0)
        assert not np.array_equal(children[0].words_at(0, 64), children[1].words_at(0, 64))
